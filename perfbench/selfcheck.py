"""Self-check of the benchmark on a tiny configuration of each workload.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload it checks that
  1. an untraced run prints every ``end_to_end`` metric of BENCHMARK.json,
     and a traced run every ``per_layer`` metric, by name with its unit;
  2. ``run.check_outputs``, the check every measured run goes through,
     passes the unaltered output and fails it after one byte is flipped;
  3. the traced layer spans account for the traced run's wall time to
     within 10 %: ``cli.self_s``, the part of ``main`` outside every
     layer span, is at most a tenth of ``trace.wall_s``.
It exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run

SMOKE_SECONDS = 3.0
COVERAGE_TOLERANCE = 0.10


def _result_of(name: str, trace: bool) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "0", "--seconds", str(SMOKE_SECONDS),
                         "--trace", str(int(trace)), "--smoke"])
    if code != 0:
        raise RuntimeError(f"run.py exited {code}")
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def check_metrics(name: str, trace: bool) -> list[str]:
    result, text = _result_of(name, trace)
    kind = "per_layer" if trace else "end_to_end"
    units = run.metric_units(kind)
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{kind} run was not correct")
    if sorted(result["metrics"]) != sorted(units):
        problems.append(f"{kind} metric names differ from BENCHMARK.json")
    for metric, unit in units.items():
        reported = result["metrics"].get(metric, {})
        if reported.get("unit") != unit or not isinstance(reported.get("value"), (int, float)):
            problems.append(f"{metric}: missing or without unit {unit}")
        elif not any(
            line.startswith(f"{name} {metric} = ") and f" {unit} (median of " in line
            for line in text.splitlines()
        ):
            problems.append(f"{metric}: not printed with its unit")
    if trace:
        # Runs this short differ by more than 10 % from one to the next on a
        # shared machine, so the check compares spans with the traced run's
        # own wall time; trace.coverage compares them with the untraced one.
        layers = {m: v["value"] for m, v in result["metrics"].items()}
        covered = 1.0 - layers["cli.self_s"] / layers["trace.wall_s"]
        if covered < 1.0 - COVERAGE_TOLERANCE:
            problems.append(f"layer spans cover {covered:.3f} of the traced wall time")
        print(f"{name}: layer spans cover {covered:.3f} of the traced wall time, "
              f"{layers['trace.coverage']:.3f} of the untraced wall_s", file=sys.stderr)
    return problems


def check_flipped_byte(name: str) -> list[str]:
    recorded = run.load_digests()["smoke"][name]["0"]
    prep = run.prepare(name, 0, smoke=True, known_events=recorded["events"])
    shutil.rmtree(run.WORK / "out", ignore_errors=True)
    (run.WORK / "out").mkdir(parents=True)
    try:
        run.run_child(prep.argvs, trace=False)
        _, reason = run.check_outputs(prep, recorded["sha256"])
        if reason is not None:
            return [f"unaltered output failed the check: {reason}"]
        target = prep.outputs[0]
        if target.is_dir():
            target = sorted(target.glob("*.pgm"))[0]
        data = bytearray(target.read_bytes())
        data[-1] ^= 0x01
        target.write_bytes(bytes(data))
        _, reason = run.check_outputs(prep, recorded["sha256"])
        if reason is None:
            return [f"flipping the last byte of {target.name} went unnoticed"]
        return []
    finally:
        shutil.rmtree(run.WORK / "out", ignore_errors=True)


def main() -> int:
    failures = 0
    for name in run.WORKLOADS:
        problems = check_metrics(name, False) + check_metrics(name, True) + check_flipped_byte(name)
        for problem in problems:
            print(f"FAIL {name}: {problem}")
        print(f"{name}: {'ok' if not problems else 'failed'}")
        failures += len(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
