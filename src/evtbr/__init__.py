"""Event-camera stream encoding with temporal binary codes and spiking filters.

An event stream is sliced into N binary frames of Δt each; a pixel's slice
bits, read as a base-2 number, give one integer code per accumulation
window ΔT = N·Δt. The spiking variants put a grid of leaky
integrate-and-fire neurons between the events and the bit stack, so
isolated (noise) events die out in the membrane while persistent activity
still sets bits.
"""

from .encoder import (
    EncodedFrame,
    EncoderConfig,
    EncoderMode,
    decode_tbr,
    encode_stream,
    encode_tbr,
    encode_window_spike_tbr,
    encode_window_tbr,
)
from .events import (
    EVENT_DTYPE,
    BinarySliceStack,
    Event,
    EventStream,
    SensorGeometry,
    SlicingConfig,
    ValidationReport,
    merge_sorted_by_time,
    slice_stream,
    validate_stream,
)
from .io import (
    EventFileError,
    EventFileFormat,
    FrameFormatError,
    StreamStats,
    read_events,
    read_frame,
    stream_info,
    write_events,
    write_frame,
)
from .metrics import (
    FilterStats,
    FrameDistance,
    RobustnessPoint,
    format_curve_csv,
    frame_distance,
    robustness_curve,
    suppression_rate,
    write_curve_csv,
)
from .neurons import (
    NeuronConfig,
    NeuronGrid,
    NeuronVariant,
    SpikeFrame,
    StepInput,
)
from .noise import (
    NoiseConfig,
    PolarityRule,
    default_span,
    inject_noise,
    merge_noise_recording,
    noise_only_stream,
)
from .synth import SceneKind, SynthScene, generate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EncodedFrame",
    "EncoderConfig",
    "EncoderMode",
    "decode_tbr",
    "encode_stream",
    "encode_tbr",
    "encode_window_spike_tbr",
    "encode_window_tbr",
    "EVENT_DTYPE",
    "BinarySliceStack",
    "Event",
    "EventStream",
    "SensorGeometry",
    "SlicingConfig",
    "ValidationReport",
    "merge_sorted_by_time",
    "slice_stream",
    "validate_stream",
    "EventFileError",
    "EventFileFormat",
    "FrameFormatError",
    "StreamStats",
    "read_events",
    "read_frame",
    "stream_info",
    "write_events",
    "write_frame",
    "FilterStats",
    "FrameDistance",
    "RobustnessPoint",
    "format_curve_csv",
    "frame_distance",
    "robustness_curve",
    "suppression_rate",
    "write_curve_csv",
    "NeuronConfig",
    "NeuronGrid",
    "NeuronVariant",
    "SpikeFrame",
    "StepInput",
    "NoiseConfig",
    "PolarityRule",
    "default_span",
    "inject_noise",
    "merge_noise_recording",
    "noise_only_stream",
    "SceneKind",
    "SynthScene",
    "generate",
]
