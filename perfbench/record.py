"""Record the reference outputs of the workload variants in digests.json.

Usage, from the root of a checkout of the reference commit:

    python3 perfbench/record.py

It records every variant of the full workloads and variant 0 of the smoke
workloads, the only one the self-check runs. Each variant runs once
untraced, which gives the SHA-256 of its outputs, and once traced, which
must give the same digest and counts the events fed to the encoder.
``run.py`` then fails every run whose outputs differ. Re-recording is a
change to the benchmark, never part of a change that claims a speed-up.
"""

from __future__ import annotations

import json
import sys

import run


def record_variant(name: str, variant: int, smoke: bool) -> dict:
    prep = run.prepare(name, variant, smoke, known_events=None)
    _, reason, digest = run.measured_run(prep, trace=False, expected=None)
    if reason is not None:
        raise RuntimeError(f"{name} v{variant}: {reason}")
    traced, reason, _ = run.measured_run(prep, trace=True, expected=digest)
    if reason is not None:
        raise RuntimeError(f"{name} v{variant} traced: {reason}")
    events = traced["layers"]["encoder.events_in"]
    if prep.events is not None and events != prep.events:
        raise RuntimeError(f"{name} v{variant}: encoder saw {events} of {prep.events} events")
    return {"sha256": digest, "events": events}


def main() -> int:
    run.check_program()
    digests = {"variants": run.VARIANTS, "full": {}, "smoke": {}}
    for name in run.WORKLOADS:
        digests["full"][name] = {
            str(v): record_variant(name, v, smoke=False) for v in range(run.VARIANTS)
        }
        digests["smoke"][name] = {"0": record_variant(name, 0, smoke=True)}
        print(f"recorded {name}", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
