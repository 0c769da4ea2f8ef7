"""Command-line surface tying the toolkit into reproducible pipelines.

Subcommands: synth, noise, encode, decode, compare, curve, info. Every
command is deterministic given its flags (all randomness is seeded), so
reruns produce byte-identical files. Event-file format is chosen by
extension: ``.csv`` is the text format (geometry supplied via --size),
anything else the binary format. Exit codes: 0 success, 1 runtime or data
error, 2 usage error.

Durations on flags are integer microseconds (``--dt-us 2500`` is 2.5 ms),
except scene lengths, which are whole milliseconds (``--duration-ms 1000``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, EncoderMode, decode_tbr, encode_stream
from .events import MAX_PIXELS, EventStream, SensorGeometry, SlicingConfig
from .io import (
    EventFileFormat,
    check_pgm_bits,
    read_events,
    read_frame,
    stream_info,
    write_events,
    write_frame,
)
from .metrics import format_curve_csv, frame_distance, robustness_curve, write_curve_csv
from .neurons import NeuronConfig, NeuronVariant
from .noise import NoiseConfig, PolarityRule, inject_noise, merge_noise_recording
from .synth import SceneKind, SynthScene, generate

class _UsageError(Exception):
    """Flag combination error detected after argparse (exit code 2)."""


def _size_arg(text: str) -> SensorGeometry:
    try:
        w_text, h_text = text.lower().split("x")
        return SensorGeometry(int(w_text), int(h_text))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected WIDTHxHEIGHT of at most {MAX_PIXELS} pixels (e.g. 128x128), got {text!r}"
        ) from exc


def _probability_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"probability must be in [0, 1], got {text}")
    return value


def _p_list_arg(text: str) -> list[float]:
    items = [s for s in text.split(",") if s.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated probability list")
    return [_probability_arg(s) for s in items]


def _event_format(path: Path) -> EventFileFormat:
    if path.suffix.lower() == ".csv":
        return EventFileFormat.TEXT_CSV
    return EventFileFormat.BINARY_V1


def _read_event_file(
    path: str, size: SensorGeometry | None, flag: str = "--size"
) -> EventStream:
    p = Path(path)
    fmt = _event_format(p)
    if fmt is EventFileFormat.TEXT_CSV and size is None:
        raise _UsageError(f"{flag} is required to read CSV event files")
    return read_events(p, fmt, geometry=size)


def _add_scene_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--kind",
        choices=[k.value for k in SceneKind],
        default=SceneKind.MOVING_BAR.value,
        help="scene type (default: moving-bar)",
    )
    sp.add_argument("--size", type=_size_arg, required=True, help="sensor WIDTHxHEIGHT")
    sp.add_argument("--velocity", type=float, default=64.0, help="pixels/s (default 64)")
    sp.add_argument(
        "--rate",
        type=float,
        default=3.0,
        help="mean events per edge pixel per emission slice (default 3)",
    )
    sp.add_argument("--duration-ms", type=int, default=1000, help="scene length in ms")
    sp.add_argument(
        "--period-us", type=int, default=2500, help="emission slice length in us"
    )
    sp.add_argument("--object-size", type=int, default=None, help="bar/dot/cell size")
    sp.add_argument("--seed", type=int, default=0, help="scene generation seed")


def _build_scene(args: argparse.Namespace) -> SynthScene:
    return SynthScene(
        kind=SceneKind(args.kind),
        geometry=args.size,
        velocity=args.velocity,
        events_per_edge_pixel_per_slice=args.rate,
        duration=args.duration_ms * 1000,
        seed=args.seed,
        emission_period=args.period_us,
        object_size=args.object_size,
    )


def _add_encoder_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--mode",
        choices=[m.value for m in EncoderMode],
        default=EncoderMode.TBR.value,
        help="encoder (default: tbr)",
    )
    sp.add_argument(
        "--neuron",
        choices=sorted(v.value for v in NeuronVariant),
        default="lif",
        help="spiking variant for --mode spike-tbr (default: lif)",
    )
    sp.add_argument("--beta", type=float, default=None, help="membrane decay in (0, 1]")
    sp.add_argument(
        "--tau-m", type=float, default=None, help="membrane time constant (> 1 steps)"
    )
    sp.add_argument("--vth", type=float, default=1.1, help="firing threshold (default 1.1)")
    sp.add_argument("--vrest", type=float, default=0.0, help="rest potential (default 0)")
    sp.add_argument("--w-pos", type=float, default=1.0, help="weight of p=+1 events")
    sp.add_argument("--w-neg", type=float, default=1.0, help="weight of p=-1 events")
    sp.add_argument("--dt-us", type=int, default=2500, help="slice length in us (default 2500)")
    sp.add_argument("--bits", type=int, default=8, help="slices per frame (default 8)")
    sp.add_argument("--k", type=int, default=1, help="neuron micro steps per slice (default 1)")


def _build_encoder_config(args: argparse.Namespace) -> EncoderConfig:
    slicing = SlicingConfig(slice_duration=args.dt_us, bits_per_frame=args.bits)
    mode = EncoderMode(args.mode)
    neuron = None
    if mode is EncoderMode.SPIKE_TBR:
        beta = args.beta
        if beta is None and args.tau_m is None:
            beta = 0.5
        neuron = NeuronConfig(
            variant=NeuronVariant(args.neuron),
            beta=beta,
            v_th=args.vth,
            v_rest=args.vrest,
            weight_pos=args.w_pos,
            weight_neg=args.w_neg,
            tau_m=args.tau_m,
        )
    return EncoderConfig(
        slicing=slicing, mode=mode, neuron=neuron, micro_steps_per_slice=args.k
    )


def cmd_synth(args: argparse.Namespace) -> int:
    stream = generate(_build_scene(args))
    write_events(stream, args.out, _event_format(Path(args.out)))
    print(stream_info(stream).summary())
    return 0


def cmd_noise(args: argparse.Namespace) -> int:
    signal = _read_event_file(args.infile, args.size)
    if args.noise_file is not None:
        recording = _read_event_file(args.noise_file, args.noise_size, flag="--noise-size")
        out = merge_noise_recording(signal, recording)
    else:
        cfg = NoiseConfig(
            probability=args.p,
            slice_duration=args.dt_us,
            rng_seed=args.seed,
            polarity_rule=PolarityRule(args.polarity),
        )
        # Nothing to infer a span from; an empty stream passes through.
        out = signal if len(signal) == 0 else inject_noise(signal, cfg)
    write_events(out, args.out, _event_format(Path(args.out)))
    print(stream_info(out).summary())
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    check_pgm_bits(args.bits)
    cfg = _build_encoder_config(args)
    stream = _read_event_file(args.infile, args.size)
    frames = encode_stream(stream, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # One f-string per line writes the bytes json.dumps would for these
    # three integer fields, at half its cost.
    manifest = []
    for i, frame in enumerate(frames):
        write_frame(frame, f"{out_dir}/{i:05d}.pgm")
        manifest.append(
            f'{{"index": {i}, "window_start_us": {frame.window_start}, '
            f'"nonzero_pixels": {np.count_nonzero(frame.codes)}}}'
        )
    payload = ("\n".join(manifest) + "\n").encode("ascii") if manifest else b""
    (out_dir / "manifest.jsonl").write_bytes(payload)
    print(f"wrote {len(frames)} frames to {out_dir}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    frame = read_frame(args.infile)
    g = frame.geometry
    if args.w < 1 or args.h < 1:
        raise ValueError("region must be at least 1x1")
    if not (0 <= args.x and args.x + args.w <= g.width):
        raise ValueError(f"x range [{args.x}, {args.x + args.w}) outside width {g.width}")
    if not (0 <= args.y and args.y + args.h <= g.height):
        raise ValueError(f"y range [{args.y}, {args.y + args.h}) outside height {g.height}")
    stack = decode_tbr(frame)
    for yy in range(args.y, args.y + args.h):
        for xx in range(args.x, args.x + args.w):
            active = np.nonzero(stack.slices[:, yy, xx])[0]
            label = ",".join(str(int(i)) for i in active) if active.size else "-"
            print(f"({xx},{yy}) slices: {label}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    # Frame numbers grow past five digits, so shorter names come first.
    a_files, b_files = (
        sorted(Path(d).glob("*.pgm"), key=lambda f: (len(f.name), f.name)) for d in (args.a, args.b)
    )
    if len(a_files) != len(b_files):
        raise ValueError(f"frame-count mismatch: {len(a_files)} vs {len(b_files)}")
    if not a_files:
        raise ValueError("no frames to compare")
    ds = [frame_distance(read_frame(fa), read_frame(fb)) for fa, fb in zip(a_files, b_files)]
    lines = ["index,l1_mean,hamming_bits,changed_pixels"]
    lines += [f"{i},{d.l1_mean:.9g},{d.hamming_bits},{d.changed_pixels}" for i, d in enumerate(ds)]
    columns = zip(*map(astuple, ds))
    lines.append("mean," + ",".join(f"{sum(c) / len(ds):.9g}" for c in columns))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    scene = _build_scene(args)
    cfg = _build_encoder_config(args)
    points = robustness_curve(
        scene, cfg, args.p_list, n_seeds=args.seeds, base_seed=args.base_seed
    )
    if args.out is not None:
        write_curve_csv(points, args.out)
    else:
        sys.stdout.write(format_curve_csv(points))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    stream = _read_event_file(args.infile, args.size)
    print(stream_info(stream).summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtbr",
        description="Event-stream binary-representation encoding toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("synth", help="generate a synthetic event stream")
    _add_scene_flags(sp)
    sp.add_argument("--out", required=True, help="output event file")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("noise", help="inject noise or merge a noise recording")
    sp.add_argument("--in", dest="infile", required=True, help="input event file")
    sp.add_argument("--size", type=_size_arg, default=None, help="geometry for CSV input")
    sp.add_argument("--p", type=_probability_arg, default=0.01, help="per-pixel per-slice probability")
    sp.add_argument("--seed", type=int, default=0, help="noise seed")
    sp.add_argument("--dt-us", type=int, default=2500, help="noise slice length in us")
    sp.add_argument(
        "--polarity",
        choices=[r.value for r in PolarityRule],
        default=PolarityRule.RANDOM_UNIFORM.value,
        help="polarity of injected events",
    )
    sp.add_argument("--noise-file", default=None, help="merge this recording instead")
    sp.add_argument("--noise-size", type=_size_arg, default=None, help="geometry for CSV --noise-file")
    sp.add_argument("--out", required=True, help="output event file")
    sp.set_defaults(func=cmd_noise)

    sp = sub.add_parser("encode", help="encode an event file into PGM frames")
    sp.add_argument("--in", dest="infile", required=True, help="input event file")
    sp.add_argument("--size", type=_size_arg, default=None, help="geometry for CSV input")
    _add_encoder_flags(sp)
    sp.add_argument("--out-dir", required=True, help="directory for frames + manifest")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="print active slice sets for a frame region")
    sp.add_argument("--in", dest="infile", required=True, help="input PGM frame")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--w", type=int, default=1, help="region width (default 1)")
    sp.add_argument("--h", type=int, default=1, help="region height (default 1)")
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("compare", help="frame-by-frame distances between two dirs")
    sp.add_argument("--a", required=True, help="first frame directory")
    sp.add_argument("--b", required=True, help="second frame directory")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("curve", help="noise-robustness sweep to CSV")
    _add_scene_flags(sp)
    _add_encoder_flags(sp)
    sp.add_argument("--p-list", type=_p_list_arg, required=True, help="comma-separated noise levels")
    sp.add_argument("--seeds", type=int, default=20, help="trials per level (default 20)")
    sp.add_argument("--base-seed", type=int, default=0, help="first noise seed (default 0)")
    sp.add_argument("--out", default=None, help="CSV path (default: stdout)")
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("info", help="print stream statistics")
    sp.add_argument("--in", dest="infile", required=True, help="input event file")
    sp.add_argument("--size", type=_size_arg, default=None, help="geometry for CSV input")
    sp.set_defaults(func=cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # EventFileError and FrameFormatError too
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
