"""Golden hashes of written event files.

Each case writes a stream with ``write_events`` in both formats and
compares the SHA-256 of the bytes with a digest recorded from an earlier
version of the package. Any change to event order, tie-breaking, values
or file layout changes a digest. The noise cases use slices of a few µs
at p >= 0.1, so one slice holds many noise events with the same
timestamp, and signal events tie with noise events. Further cases cover
seeds of 2^32 and more, which key their generators through numpy's own
``default_rng``, and a fixed-polarity injection over a span that starts
after t = 0 and ends inside a slice. Two scene cases pin edge sets that
no noise case covers: a static dot's outline, and a one-pixel-wide bar,
whose leading and trailing columns coincide, so that each of its pixels is
drawn for once as a positive and once as a negative edge.
"""

import hashlib

import pytest

from evtbr.events import SensorGeometry
from evtbr.io import EventFileFormat, write_events
from evtbr.noise import (
    NoiseConfig,
    PolarityRule,
    inject_noise,
    merge_noise_recording,
    noise_only_stream,
)
from evtbr.synth import SceneKind, SynthScene, generate


def _scene(
    kind=SceneKind.MOVING_BAR, geometry=SensorGeometry(16, 12), duration=1_500, seed=5, **kw
):
    kw.setdefault("velocity", 4_000.0)
    return SynthScene(kind, geometry, duration=duration, seed=seed, emission_period=500, **kw)


def _generate():
    return generate(_scene())


def _inject():
    return inject_noise(_generate(), NoiseConfig(probability=0.25, slice_duration=3, rng_seed=7))


def _inject_large_seed():
    return inject_noise(
        _generate(), NoiseConfig(probability=0.25, slice_duration=3, rng_seed=2**32 + 5)
    )


def _inject_cut_span():
    cfg = NoiseConfig(
        probability=0.3, slice_duration=7, rng_seed=9, polarity_rule=PolarityRule.FIXED_POSITIVE
    )
    # 1198 us is 171 whole slices and a last one cut to 1 us.
    return inject_noise(_generate(), cfg, span=(5, 1_203))


def _generate_large_seed():
    return generate(_scene(SceneKind.BLINKING_GRID, seed=2**32 + 1))


def _generate_static_dot():
    return generate(_scene(SceneKind.MOVING_DOT, velocity=0.0, object_size=5))


def _generate_thin_bar():
    return generate(_scene(object_size=1))


def _noise_only():
    return noise_only_stream(
        NoiseConfig(probability=0.5, slice_duration=2, rng_seed=11), SensorGeometry(8, 6), (0, 200)
    )


def _merge_recording():
    signal = generate(_scene(SceneKind.MOVING_DOT, duration=3_000))
    recording = noise_only_stream(
        NoiseConfig(probability=0.1, slice_duration=4, rng_seed=3), SensorGeometry(8, 6), (0, 150)
    )
    return merge_noise_recording(signal, recording)


CASES = {
    "generate": (
        _generate,
        "99ad5c32ac54fa8f43d5abb9495ea8920405741c911b7dda2f71c8ff8dca227b",
        "808269e60b244c766434fe3dea803331dc279bc3d17ea5969ae27c980cb10cd1",
    ),
    "generate_large_seed": (
        _generate_large_seed,
        "d203eeb9f7cec374ae8b312ee73fa9c4307fb02c749a4748c16021658d8712fd",
        "f8264bfc93ece3ea3b14f1cac94dfd2822177e83abc89a753f76d710d5f65a87",
    ),
    "generate_static_dot": (
        _generate_static_dot,
        "5986ecbba6c576519e25d059391d956c6fd7f3e017dfdc9937c16bbbc8a2ae2e",
        "40ad96612fb2b52d0a48831e0ed34ff2c6e271082ee63d3d837eb5bb4b594c2a",
    ),
    "generate_thin_bar": (
        _generate_thin_bar,
        "61c6a35e77a8dc3c1665d29c2ec69891e437ed299467b1857cd27fbd0bb944e9",
        "3267def84f7bf7020821fa1d7bb5d82a1b06ac271927d53c99a2f48026e69f3e",
    ),
    "inject_cut_span": (
        _inject_cut_span,
        "7749c09792abe49c420ddf87dc61b351a8dcb7706e1fd8c57df811a2277123cb",
        "3b5d94f4ba056ddf339f71ab5ad23e6f73577d08eb2a26d02883cf916b2e5abb",
    ),
    "inject_large_seed": (
        _inject_large_seed,
        "035e4c658fd5ae74769dc2765dd4f513c19e1109063dfd9fff0d02b13a1f4352",
        "d2f6db71d70158cd2072e80aca6545bf7792c13c931589ac7350b3507d440d9a",
    ),
    "inject_noise": (
        _inject,
        "e02cdecaa1bd7a0daa1675a0c24f36176160febf26727c7c6e8cf10bb4f15750",
        "160a06069a4696e1b2611e6487da5fe592e4730534191a7ce2e407cb47ccbb08",
    ),
    "noise_only": (
        _noise_only,
        "5e2f70abee47c17048776bffdca7cbbf0c7b64acb9dcb353a08b509c5fdaffb5",
        "057745f76f1f2d487a79523ffcdc68415483127abe5292dd2d48a3c49e311349",
    ),
    "merge_recording": (
        _merge_recording,
        "4efe4546aa7c82c2cf61a7f74558cb064e6eafaf9223a44de93315a2c2da8361",
        "65bcd279c72504e492cdea447523004d8c2886192f198510aebce8587a0fc0d8",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("fmt", [EventFileFormat.BINARY_V1, EventFileFormat.TEXT_CSV])
def test_written_events_match_golden_hash(tmp_path, name, fmt):
    build, binary_sha, csv_sha = CASES[name]
    path = tmp_path / "events"
    write_events(build(), path, fmt)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == (binary_sha if fmt is EventFileFormat.BINARY_V1 else csv_sha)
