"""Traced runs: spans around the calls into each evtbr layer.

``install`` replaces the public functions that the CLI, the encoder, the
metrics module and the noise module look up at call time with wrappers
that record a span (name, start, end, parent) in memory. Nothing in the
program changes: the wrappers call the original function and return its
result untouched. ``Recorder.layers`` derives the per-layer metrics from
the spans after the run, and ``Recorder.dump`` writes the spans out.

A layer's self time is its span duration minus the time its direct child
spans cover. The run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# Highest percentiles tried for the window tail, best first; the tail is
# the first one with at least ten windows beyond it.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._grids: dict[int, object] = {}
        self._frames_held = 0  # bytes of the largest frame list one encode returned

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named ``name``.

        ``after(args, kwargs, result)`` runs once the span has closed, so
        its cost lands in the parent span, never in this one.
        """
        inner = getattr(owner, attr)
        spans, opened = self.spans, self._open

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, opened[-1] if opened else -1]
            opened.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                opened.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    # -- counters kept at the layer boundaries ---------------------------

    def _after_read(self, args, kwargs, stream) -> None:
        self.counts["io.read_events"] += len(stream)

    def _after_write_frame(self, args, kwargs, result) -> None:
        self.counts["io.write_bytes"] += os.path.getsize(args[1])

    def _after_encode(self, args, kwargs, frames) -> None:
        stream, cfg = args[0], args[1]
        self.counts["encoder.events_in"] += len(stream)
        edges = np.arange(len(frames) + 1, dtype=np.int64) * cfg.slicing.window_duration
        per_window = np.diff(np.searchsorted(stream.t, edges))
        self.counts["encoder.empty_windows"] += int(np.count_nonzero(per_window == 0))
        held = sum(f.codes.nbytes for f in frames)
        self._frames_held = max(self._frames_held, held)

    def _after_step(self, args, kwargs, result) -> None:
        grid = args[0]
        self._grids[id(grid)] = grid

    def _after_inject(self, args, kwargs, noisy) -> None:
        stream, cfg = args[0], args[1]
        span = kwargs.get("span", args[2] if len(args) > 2 else None)
        self.counts["noise.events_added"] += len(noisy) - len(stream)
        if cfg.probability > 0.0 and span is not None:
            self.counts["noise.slices_drawn"] += -(-(span[1] - span[0]) // cfg.slice_duration)

    # -- derived metrics --------------------------------------------------

    def _durations(self) -> tuple[dict, dict, dict]:
        inclusive: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_time[name] += end - start - inner
        return inclusive, self_time, calls

    def layers(self) -> dict[str, float]:
        """Per-layer metrics (seconds, milliseconds or counts) of the run."""
        inclusive, self_time, calls = self._durations()
        windows = sorted(e - s for name, s, e, _ in self.spans if name == "encoder.window")
        ac = sum(g.ac_count for g in self._grids.values())
        spikes = sum(g.spike_count for g in self._grids.values())
        return {
            "cli.self_s": self_time["cli.main"],
            "io.read_s": inclusive["io.read_events"],
            "io.read_events": self.counts["io.read_events"],
            "io.write_frame_s": inclusive["io.write_frame"],
            "io.write_bytes": self.counts["io.write_bytes"],
            "encoder.stream_self_s": self_time["encoder.encode_stream"],
            "encoder.events_in": self.counts["encoder.events_in"],
            "encoder.window_self_s": self_time["encoder.window"],
            "encoder.window_p50_ms": 1e3 * _nearest_rank(windows, 50.0),
            "encoder.window_tail_ms": 1e3 * _nearest_rank(windows, tail_percentile(len(windows))),
            "encoder.windows": len(windows),
            "encoder.empty_windows": self.counts["encoder.empty_windows"],
            "encoder.frames_held_mb": self._frames_held / 2**20,
            "encoder.bitpack_s": inclusive["encoder.encode_tbr"],
            "events.slice_s": inclusive["events.slice_stream"],
            "neurons.step_s": inclusive["neurons.step"],
            "neurons.steps": calls["neurons.step"],
            "neurons.ac": ac,
            "neurons.spikes": spikes,
            "neurons.suppression": ac / spikes if spikes else 0.0,
            "synth.generate_s": inclusive["synth.generate"],
            "noise.inject_s": inclusive["noise.inject_noise"],
            "noise.events_added": self.counts["noise.events_added"],
            "noise.slices_drawn": self.counts["noise.slices_drawn"],
            "events.merge_s": inclusive["events.merge_sorted_by_time"],
            "events.merge_calls": calls["events.merge_sorted_by_time"],
            "metrics.distance_s": inclusive["metrics.frame_distance"],
            "metrics.distance_calls": calls["metrics.frame_distance"],
            "metrics.curve_self_s": self_time["metrics.robustness_curve"],
            "trace.wall_s": inclusive["cli.main"],
            "trace.spans": len(self.spans),
        }

    def dump(self, path: str) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        Path(path).write_text(json.dumps(rows))


def tail_percentile(n: int) -> float:
    """Highest tried percentile with at least ten of ``n`` samples beyond it."""
    for pct in _TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 100.0


def _nearest_rank(sorted_values: list[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def install(cli_module) -> Recorder:
    """Wrap every traced boundary of the loaded evtbr package."""
    from evtbr import encoder, metrics, noise
    from evtbr.neurons import NeuronGrid

    rec = Recorder()
    rec.wrap(cli_module, "main", "cli.main")
    rec.wrap(cli_module, "read_events", "io.read_events", rec._after_read)
    rec.wrap(cli_module, "encode_stream", "encoder.encode_stream", rec._after_encode)
    rec.wrap(cli_module, "write_frame", "io.write_frame", rec._after_write_frame)
    rec.wrap(cli_module, "robustness_curve", "metrics.robustness_curve")
    rec.wrap(encoder, "encode_window_tbr", "encoder.window")
    rec.wrap(encoder, "encode_window_spike_tbr", "encoder.window")
    rec.wrap(encoder, "encode_tbr", "encoder.encode_tbr")
    rec.wrap(encoder, "slice_stream", "events.slice_stream")
    rec.wrap(NeuronGrid, "step", "neurons.step", rec._after_step)
    rec.wrap(metrics, "generate", "synth.generate")
    rec.wrap(metrics, "inject_noise", "noise.inject_noise", rec._after_inject)
    rec.wrap(noise, "merge_sorted_by_time", "events.merge_sorted_by_time")
    rec.wrap(metrics, "encode_stream", "encoder.encode_stream", rec._after_encode)
    rec.wrap(metrics, "frame_distance", "metrics.frame_distance")
    return rec
