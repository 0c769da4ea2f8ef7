import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import evtbr
from evtbr.events import SensorGeometry
from evtbr.io import EventFileFormat, write_events
from evtbr.noise import NoiseConfig, inject_noise_levels
from evtbr.synth import SceneKind, SynthScene, generate

ROOT = Path(__file__).resolve().parents[1]

# The package's public names before its re-export list was derived from the
# submodules' __all__ lists (EVENT_DTYPE, the record layout, is gone).
EARLIER_EXPORTS = [
    "__version__", "EncodedFrame", "EncoderConfig", "EncoderMode", "decode_tbr",
    "encode_stream", "encode_tbr", "encode_window_spike_tbr", "encode_window_tbr",
    "BinarySliceStack", "Event", "EventStream", "SensorGeometry", "SlicingConfig",
    "ValidationReport", "merge_sorted_by_time", "slice_stream", "validate_stream",
    "EventFileError", "EventFileFormat", "FrameFormatError", "StreamStats", "read_events",
    "read_frame", "stream_info", "write_events", "write_frame", "FilterStats",
    "FrameDistance", "RobustnessPoint", "format_curve_csv", "frame_distance",
    "robustness_curve", "suppression_rate", "write_curve_csv", "NeuronConfig", "NeuronGrid",
    "NeuronVariant", "SpikeFrame", "StepInput", "NoiseConfig", "PolarityRule", "default_span",
    "inject_noise", "merge_noise_recording", "noise_only_stream", "SceneKind", "SynthScene",
    "generate",
]


def test_every_exported_name_resolves():
    missing = [name for name in evtbr.__all__ if not hasattr(evtbr, name)]
    assert missing == []
    assert len(set(evtbr.__all__)) == len(evtbr.__all__)


def test_earlier_exports_are_kept():
    assert set(EARLIER_EXPORTS) - set(evtbr.__all__) == set()
    assert not hasattr(evtbr, "EVENT_DTYPE")


# Imports that their module never uses, kept only so that perfbench/spans.py
# finds and wraps them by name until the program counts its own layers.
BENCH_ONLY_IMPORTS = {"encoder.slice_stream", "metrics.inject_noise"}


def module_all(tree: ast.Module) -> set[str]:
    """The string entries of a module's top-level ``__all__`` list."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
        for elt in node.value.elts
        if isinstance(elt, ast.Constant)
    }


def test_src_has_no_unused_imports_or_unreferenced_private_definitions():
    src = ROOT / "src" / "evtbr"
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    referenced = set()  # every name a module loads, reads as an attribute or imports
    dead = set()
    for module, tree in trees.items():
        nodes = list(ast.walk(tree))
        used = {node.id for node in nodes if isinstance(node, ast.Name)} | module_all(tree)
        referenced |= used | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    referenced.add(alias.name)
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "*" and bound not in used:
                        dead.add(f"{module}.{bound}")
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if node.name not in referenced:
                    dead.add(f"{module}.{node.name}")
    assert sorted(dead - BENCH_ONLY_IMPORTS) == []


# Runs each argument list through the traced CLI and prints one JSON line:
# per run, the exit code and how far encoder.events_in moved.
TRACED_RUNS = """
import json, sys
import evtbr.cli, spans
rec = spans.install(evtbr.cli)
rows = []
for argv in json.loads(sys.argv[1]):
    before = rec.layers()["encoder.events_in"]
    code = evtbr.cli.main(argv)
    rows.append([code, rec.layers()["encoder.events_in"] - before])
print(json.dumps(rows))
"""


def test_perfbench_spans_find_every_traced_name(tmp_path):
    # perfbench/spans.py wraps functions by module attribute name, so a
    # renamed or deleted one breaks traced benchmark runs. Installed in a
    # child process, so the wrappers never touch this test session. A
    # traced benchmark run also fails unless encoder.events_in counts every
    # event encoded: the input of `encode`, and for `curve` the clean
    # stream and each noisy stream of every level and seed.
    geometry = SensorGeometry(16, 12)
    scene = SynthScene(SceneKind.MOVING_BAR, geometry, duration=41_000, seed=3)
    clean = generate(scene)
    write_events(clean, tmp_path / "ev.bin", EventFileFormat.BINARY_V1)
    levels, seeds, base_seed, dt = [0.0, 0.02, 0.1], 3, 7, 2_500
    noisy = 0
    for i in range(seeds):
        cfgs = [NoiseConfig(p, dt, base_seed + i) for p in levels]
        noisy += sum(len(s) for s in inject_noise_levels(clean, cfgs, span=(0, scene.duration)))

    argvs, expected = [], []
    for mode in ("tbr", "spike-tbr"):
        flags = ["--mode", mode, "--dt-us", str(dt), "--bits", "4"]
        out = str(tmp_path / mode)
        argvs.append(["encode", "--in", str(tmp_path / "ev.bin"), "--out-dir", out, *flags])
        argvs.append(
            ["curve", "--kind", "moving-bar", "--size", "16x12", "--duration-ms", "41",
             "--seed", "3", "--p-list", "0,0.02,0.1", "--seeds", str(seeds),
             "--base-seed", str(base_seed), "--out", out + ".csv", *flags]
        )
        expected += [[0, len(clean)], [0, len(clean) + noisy]]

    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == expected
    assert noisy > seeds * len(levels) * len(clean)
