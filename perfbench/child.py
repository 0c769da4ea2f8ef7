"""One measured run of evtbr in a fresh process.

Usage: python3 perfbench/child.py '<spec json>'

The spec names the checkout root, the CLI argument lists to pass to
``evtbr.cli.main`` one after another, and whether to trace. The run times
``import evtbr.cli`` (set-up) and the ``main`` calls (wall), then prints one
JSON line: the exit codes, both times, ``ru_maxrss`` of this process and,
when traced, the per-layer metrics. Spans go to ``spans_out``.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)

    start = time.perf_counter()
    import evtbr.cli as cli

    setup_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"evtbr was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    recorder = None
    if spec.get("trace"):
        import spans

        recorder = spans.install(cli)

    codes = []
    wall_s = 0.0
    for argv in spec.get("argvs", []):
        start = time.perf_counter()
        codes.append(cli.main(argv))
        wall_s += time.perf_counter() - start

    result = {
        "codes": codes,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["layers"] = recorder.layers()
        recorder.dump(spec["spans_out"])
    print("\n" + json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
