"""Seeded input generator owned by the benchmark.

Events come from a counter-based SplitMix64 hash of (seed, column tag,
index), computed with numpy uint64 arithmetic. Every value depends only on
those three numbers, never on a draw order or on numpy's random module,
and nothing here imports evtbr, so a change to the program cannot change
what the benchmark feeds it.

The files follow the formats evtbr documents: binary-v1 (12-byte header,
13-byte little-endian records) and CSV (``t_us,x,y,p`` header, one event
per LF-terminated line).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1

# Column tags keep the four event fields decorrelated.
_TAG_T, _TAG_X, _TAG_Y, _TAG_P = 1, 2, 3, 4

_FILE_RECORD = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "i1")])


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MUL1
    z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


def hash_column(seed: int, tag: int, n: int) -> np.ndarray:
    """``n`` pseudo-random uint64 values keyed by (seed, tag)."""
    key = _mix(np.array([(seed * 0x1000193 + tag) & _MASK64], dtype=np.uint64))[0]
    with np.errstate(over="ignore"):
        z = (np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN) + key
        return _mix(z)


def uniform_events(
    seed: int, n_events: int, width: int, height: int, duration_us: int
) -> dict[str, np.ndarray]:
    """Uniform events over ``[0, duration_us)`` on a width x height grid, sorted by t."""
    t = np.sort(hash_column(seed, _TAG_T, n_events) % np.uint64(duration_us)).astype(np.int64)
    x = (hash_column(seed, _TAG_X, n_events) % np.uint64(width)).astype(np.int64)
    y = (hash_column(seed, _TAG_Y, n_events) % np.uint64(height)).astype(np.int64)
    p = ((hash_column(seed, _TAG_P, n_events) & np.uint64(1)).astype(np.int64) * 2) - 1
    return {"t": t, "x": x, "y": y, "p": p}


def write_binary(events: dict[str, np.ndarray], width: int, height: int, path: Path) -> None:
    records = np.empty(len(events["t"]), dtype=_FILE_RECORD)
    for name in ("t", "x", "y", "p"):
        records[name] = events[name]
    path.write_bytes(b"EVS1" + struct.pack("<II", width, height) + records.tobytes())


def write_csv(events: dict[str, np.ndarray], path: Path) -> None:
    table = np.column_stack([events["t"], events["x"], events["y"], events["p"]])
    lines = ["t_us,x,y,p"]
    lines.extend(",".join(map(str, row)) for row in table.tolist())
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii"))
