import os
import subprocess
import sys
from pathlib import Path

import evtbr

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


def test_perfbench_spans_find_every_traced_name():
    # perfbench/spans.py wraps functions by module attribute name, so a
    # renamed or deleted one breaks traced benchmark runs. Installed in a
    # child process, so the wrappers never touch this test session.
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", "import evtbr.cli, spans; spans.install(evtbr.cli)"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
