"""The evtbr benchmark: three workloads through the public CLI entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/rationale.json`` for why each was chosen):

- ``long-recording``: ``evtbr encode`` of 2 M uniform events at 128x128 over
  20 s (1000 windows), binary-v1 input, spike-tbr, LIF, K=1.
- ``hd-sparse``: ``evtbr encode`` of 200 k uniform events at 1280x720 over
  1 s (50 windows), CSV input, spike-tbr, LIF, K=2.
- ``robustness-sweep``: ``evtbr curve`` on a 64x64 moving bar, 1 s, noise
  levels 0.001, 0.01 and 0.05 with 10 seeds each, once in tbr and once in
  spike-tbr mode.

The loop is closed, with one client: each run is a fresh single-threaded
process (``child.py``) that calls ``evtbr.cli.main``, and the next run starts
only when the previous one has ended and its outputs have been checked.
Inputs come from the benchmark's own generator (``gen.py``), keyed by the
seed, and are written before timing starts. The seed selects one of
``VARIANTS`` input variants (``--smoke`` always uses variant 0); the
outputs of every variant were recorded from the benchmark's first commit in
``digests.json`` (``record.py``), and every run's frames and manifest, or
curve CSVs, must match them byte for byte.

With ``--trace 0`` the runs are untraced and the result holds the
end-to-end metrics, each the median over the runs. With ``--trace 1`` the
runs alternate untraced and traced; the result holds the per-layer
metrics of the traced runs (medians), the tracing overhead and the share
of the untraced wall time that the layer spans account for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give every metric by name with its unit and run count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH_DIR / "digests.json"

VARIANTS = 16
SLICE_US = 2500
BITS = 8
WINDOW_US = SLICE_US * BITS
# The paper's comparison: the plain encoder against the spiking one.
CURVE_MODES = ("tbr", "spike-tbr")
CHILD_TIMEOUT_S = 100
# Processes that only import evtbr.cli after each untraced run, for setup_s.
SETUP_SAMPLES_PER_RUN = 3

# Child processes run single-threaded, whatever BLAS or OpenMP numpy uses.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


@dataclass(frozen=True)
class EncodeWorkload:
    """``evtbr encode`` of one generated event file."""

    events: int
    width: int
    height: int
    duration_us: int
    suffix: str  # ".bin" (binary-v1) or ".csv"
    k: int


@dataclass(frozen=True)
class CurveWorkload:
    """``evtbr curve`` in each mode on a moving bar."""

    width: int
    height: int
    duration_ms: int
    p_list: str
    seeds: int


WORKLOADS = {
    "long-recording": EncodeWorkload(2_000_000, 128, 128, 20_000_000, ".bin", 1),
    "hd-sparse": EncodeWorkload(200_000, 1280, 720, 1_000_000, ".csv", 2),
    "robustness-sweep": CurveWorkload(64, 64, 1000, "0.001,0.01,0.05", 10),
}

# Tiny configurations of the same workloads, for the self-check.
SMOKE_WORKLOADS = {
    "long-recording": EncodeWorkload(100_000, 128, 128, 4_000_000, ".bin", 1),
    "hd-sparse": EncodeWorkload(5_000, 1280, 720, 100_000, ".csv", 2),
    "robustness-sweep": CurveWorkload(32, 32, 400, "0.01,0.05", 3),
}


class BenchSetupError(Exception):
    """The checkout cannot run the benchmark (no program, no digests)."""


@dataclass
class Prepared:
    """Inputs of one workload variant, written before timing."""

    argvs: list[list[str]]
    windows: int  # expected frames, 0 for curve workloads
    events: int | None  # events fed to the encoder; None for a curve not yet recorded
    outputs: list[Path]  # frame directory, or curve CSV paths


def _generator_key(wl: EncodeWorkload, variant: int) -> dict:
    """What an input file depends on: the workload, the variant and gen.py itself."""
    source = (BENCH_DIR / "gen.py").read_bytes()
    return {
        "workload": dataclasses.asdict(wl),
        "variant": variant,
        "gen_sha256": hashlib.sha256(source).hexdigest(),
    }


def _encode_input(name: str, wl: EncodeWorkload, variant: int, smoke: bool) -> tuple[Path, int]:
    """Write the variant's event file once; return its path and window count.

    A cached file is reused only if it was made from the same generator key;
    otherwise it is written anew.
    """
    stem = WORK / "inputs" / f"{name}{'-smoke' if smoke else ''}-v{variant}"
    path = stem.with_suffix(wl.suffix)
    meta = stem.with_suffix(".json")
    key = _generator_key(wl, variant)
    if meta.is_file() and path.is_file():
        cached = json.loads(meta.read_text())
        if cached.get("key") == key:
            return path, cached["windows"]
    path.parent.mkdir(parents=True, exist_ok=True)
    events = gen.uniform_events(variant, wl.events, wl.width, wl.height, wl.duration_us)
    tmp = path.with_name(path.name + ".tmp")
    if wl.suffix == ".csv":
        gen.write_csv(events, tmp)
    else:
        gen.write_binary(events, wl.width, wl.height, tmp)
    tmp.replace(path)
    windows = int(events["t"][-1]) // WINDOW_US + 1
    meta.write_text(json.dumps({"key": key, "windows": windows}))
    return path, windows


def prepare(name: str, variant: int, smoke: bool, known_events: int | None) -> Prepared:
    wl = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    out = WORK / "out"
    if isinstance(wl, EncodeWorkload):
        path, windows = _encode_input(name, wl, variant, smoke)
        argv = ["encode", "--in", str(path)]
        if wl.suffix == ".csv":
            argv += ["--size", f"{wl.width}x{wl.height}"]
        argv += ["--mode", "spike-tbr", "--neuron", "lif", "--beta", "0.5", "--k", str(wl.k)]
        argv += ["--dt-us", str(SLICE_US), "--bits", str(BITS), "--out-dir", str(out / "frames")]
        return Prepared([argv], windows, wl.events, [out / "frames"])

    argvs, outputs = [], []
    for mode in CURVE_MODES:
        csv = out / f"curve-{mode}.csv"
        argv = ["curve", "--kind", "moving-bar", "--size", f"{wl.width}x{wl.height}"]
        argv += ["--duration-ms", str(wl.duration_ms), "--seed", str(variant), "--mode", mode]
        if mode == "spike-tbr":
            argv += ["--neuron", "lif", "--beta", "0.5"]
        argv += ["--dt-us", str(SLICE_US), "--bits", str(BITS), "--p-list", wl.p_list]
        argv += ["--seeds", str(wl.seeds), "--base-seed", str(100 * variant), "--out", str(csv)]
        argvs.append(argv)
        outputs.append(csv)
    return Prepared(argvs, 0, known_events, outputs)


# -- output checks ----------------------------------------------------------


def _check_frames(frame_dir: Path, windows: int, digest) -> str | None:
    """Hash the frames and manifest; return a reason if a count is wrong.

    With ``BITS`` = 8 a frame holds one byte per pixel, so the header's
    maxval of 2^8 - 1 and a payload of exactly width x height bytes bound
    every code by 2^8 - 1.
    """
    names = sorted(p.name for p in frame_dir.iterdir())
    frames = [n for n in names if n.endswith(".pgm")]
    if len(frames) != windows:
        return f"{len(frames)} frames for {windows} windows"
    if names != frames + ["manifest.jsonl"]:
        return "unexpected files in the frame directory"
    max_code = (1 << BITS) - 1
    for name in names:
        data = (frame_dir / name).read_bytes()
        digest.update(name.encode() + b"\n" + str(len(data)).encode() + b"\n" + data)
        if name == "manifest.jsonl":
            if data.count(b"\n") != windows:
                return "manifest lines differ from the window count"
            continue
        parts = data.split(b"\n", 3)
        if len(parts) != 4 or parts[0] != b"P5" or parts[2] != str(max_code).encode():
            return f"{name}: header is not P5 with maxval {max_code}"
        width, _, height = parts[1].partition(b" ")
        if not (width.isdigit() and height.isdigit()):
            return f"{name}: header has no width and height"
        if len(parts[3]) != int(width) * int(height):
            return f"{name}: payload is not one byte per pixel"
    return None


def _hash_outputs(prep: Prepared, digest) -> str | None:
    """Feed the run's outputs to ``digest``; return a reason if a count is wrong."""
    for path in prep.outputs:
        if path.is_dir():
            reason = _check_frames(path, prep.windows, digest)
            if reason:
                return reason
        elif path.is_file():
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\n" + data)
            if data.count(b"\n") < 2:
                return f"{path.name}: no curve rows"
        else:
            return f"{path.name} was not written"
    return None


def check_outputs(prep: Prepared, expected: str | None) -> tuple[str, str | None]:
    """SHA-256 of the run's outputs and the reason they are wrong, if any.

    The outputs are wrong if a count check fails or, when ``expected`` is
    given, if their digest differs from it.
    """
    digest = hashlib.sha256()
    reason = _hash_outputs(prep, digest)
    hexdigest = digest.hexdigest()
    if reason is None and expected is not None and hexdigest != expected:
        reason = f"output digest {hexdigest[:16]} differs from the recorded {expected[:16]}"
    return hexdigest, reason


# -- runs -------------------------------------------------------------------


def run_child(argvs: list[list[str]], trace: bool) -> dict:
    """One fresh process; returns its result, or raises RuntimeError on failure."""
    spec = {
        "root": str(ROOT),
        "argvs": argvs,
        "trace": trace,
        "spans_out": str(WORK / "spans.json"),
    }
    # numpy asks for transparent huge pages for large arrays by default, and
    # whether the kernel grants them depends on the memory of the whole
    # machine: long-recording's peak RSS read 170 MB or 141 MB from one hour
    # to the next. Children use normal pages, so the figures do not depend on it.
    env = {**os.environ, **THREAD_ENV, "NUMPY_MADVISE_HUGEPAGE": "0", "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if any(code != 0 for code in result["codes"]):
        raise RuntimeError(f"evtbr exited {result['codes']}: {proc.stderr.strip()[-500:]}")
    return result


def measured_run(prep: Prepared, trace: bool, expected: str | None) -> tuple[dict | None, str | None, str]:
    """Run once and check the outputs: (result, failure reason, digest)."""
    shutil.rmtree(WORK / "out", ignore_errors=True)
    (WORK / "out").mkdir(parents=True)
    try:
        result = run_child(prep.argvs, trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return None, str(exc), ""
    digest, reason = check_outputs(prep, expected)
    if reason is None and trace and prep.events is not None:
        seen = result["layers"]["encoder.events_in"]
        if seen != prep.events:
            reason = f"encoder saw {seen} events, {prep.events} recorded"
    shutil.rmtree(WORK / "out", ignore_errors=True)
    return result, reason, digest


def load_digests() -> dict:
    if not DIGESTS.is_file():
        raise BenchSetupError(f"{DIGESTS} is missing")
    return json.loads(DIGESTS.read_text())


def check_program() -> None:
    if not (ROOT / "src" / "evtbr" / "cli.py").is_file():
        raise BenchSetupError(f"no evtbr source under {ROOT / 'src'}")


def benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload for ``seconds``; return the result object."""
    check_program()
    variant = 0 if smoke else seed % VARIANTS
    recorded = load_digests()["smoke" if smoke else "full"][name][str(variant)]
    prep = prepare(name, variant, smoke, recorded["events"])
    # Warm-up: compiles the package's bytecode and fills the file cache
    # with numpy, as a user's second command would find them.
    run_child([], trace=False)

    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    attempted = failed = 0
    reasons: list[str] = []
    start = time.perf_counter()
    while True:
        want_trace = trace and len(traced) < len(untraced)
        run_start = time.perf_counter()
        result, reason, _ = measured_run(prep, want_trace, recorded["sha256"])
        attempted += 1
        if reason is not None:
            failed += 1
            reasons.append(reason)
        # A run whose outputs are wrong still ran to the end: its times count,
        # and ``correct`` reports the failure.
        if result is not None:
            (traced if want_trace else untraced).append(result)
            if not want_trace:
                setups.append(result["setup_s"])
        if not trace:
            # More set-up samples, from processes that only import.
            for _ in range(SETUP_SAMPLES_PER_RUN):
                setups.append(run_child([], trace=False)["setup_s"])
        now = time.perf_counter()
        enough = untraced and (traced or not trace)
        # Start another run only if it can end within the measuring time.
        if (enough and now - start + (now - run_start) > seconds) or now - start > seconds:
            break

    for reason in reasons:
        print(f"run failed: {reason}", file=sys.stderr)
    if not untraced or (trace and not traced):
        raise RuntimeError(f"no run of {name} completed")
    wall = statistics.median([r["wall_s"] for r in untraced])
    if trace:
        metrics = layer_metrics(traced, wall)
        units = metric_units("per_layer")
        counts = {m: len(traced) for m in metrics}
        counts.update({"trace.overhead_s": len(untraced), "trace.coverage": len(untraced)})
    else:
        metrics = {
            "wall_s": wall,
            "events_per_s": statistics.median([prep.events / r["wall_s"] for r in untraced]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
        }
        units = metric_units("end_to_end")
        counts = {m: len(untraced) for m in metrics}
        counts["setup_s"] = len(setups)

    for metric, value in metrics.items():
        print(f"{name} {metric} = {value:.6g} {units[metric]} (median of {counts[metric]} runs)")
    print(f"{name}: variant {variant}, {attempted} runs attempted, {failed} failed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict[str, float]:
    """Medians of the traced runs' layer metrics, plus overhead and coverage."""
    derived = {"trace.overhead_s", "trace.coverage"}
    units = metric_units("per_layer")
    out = {
        n: (statistics.median_low if units[n] in ("count", "bytes") else statistics.median)(
            [r["layers"][n] for r in traced]
        )
        for n in units
        if n not in derived
    }
    traced_wall = statistics.median([r["layers"]["trace.wall_s"] for r in traced])
    # Time the layer spans account for: the traced wall minus what main
    # itself spent outside every span.
    covered = statistics.median(
        [r["layers"]["trace.wall_s"] - r["layers"]["cli.self_s"] for r in traced]
    )
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.coverage"] = covered / untraced_wall
    return {n: out[n] for n in units}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="Run one evtbr benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny configuration (self-check)")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchSetupError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
