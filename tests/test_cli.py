import argparse
import json
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from evtbr.cli import _size_arg, main
from evtbr.encoder import EncoderConfig, EncoderMode, encode_stream
from evtbr.events import EventStream, SensorGeometry, SlicingConfig
from evtbr.io import EventFileFormat, read_events, read_frame, stream_info, write_events
from evtbr.neurons import NeuronConfig, NeuronVariant


SMALL_SYNTH = [
    "synth", "--kind", "moving-bar", "--size", "32x32",
    "--duration-ms", "50", "--rate", "3.0", "--seed", "0",
]


def run(argv):
    return main(list(argv))


def synth_file(tmp_path, name="scene.bin", extra=()):
    out = tmp_path / name
    assert run(SMALL_SYNTH + list(extra) + ["--out", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_file_and_prints_summary(self, tmp_path, capsys):
        out = synth_file(tmp_path)
        assert out.exists()
        assert capsys.readouterr().out.startswith("events=")

    def test_rerun_is_byte_identical(self, tmp_path):
        a = synth_file(tmp_path, "a.bin")
        b = synth_file(tmp_path, "b.bin")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        a = synth_file(tmp_path, "a.bin")
        b = synth_file(tmp_path, "b.bin", extra=["--seed", "1"])
        assert a.read_bytes() != b.read_bytes()

    def test_csv_output_format(self, tmp_path):
        out = tmp_path / "scene.csv"
        assert run(SMALL_SYNTH + ["--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"t_us,x,y,p\n")

    def test_zero_duration_writes_empty_stream(self, tmp_path):
        out = tmp_path / "empty.bin"
        argv = ["synth", "--size", "32x32", "--duration-ms", "0", "--out", str(out)]
        assert run(argv) == 0
        assert len(read_events(out, EventFileFormat.BINARY_V1)) == 0

    def test_missing_out_is_usage_error(self, capsys):
        assert run(["synth", "--size", "32x32"]) == 2
        capsys.readouterr()

    def test_bad_size_is_usage_error(self, capsys):
        assert run(["synth", "--size", "32", "--out", "x.bin"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--velocity", "inf", "velocity"), ("--rate", "nan", "events_per_edge_pixel_per_slice")],
    )
    def test_non_finite_scene_value_is_data_error(self, tmp_path, capsys, flag, value, field):
        argv = SMALL_SYNTH + [flag, value, "--out", str(tmp_path / "x.bin")]
        assert run(argv) == 1
        assert f"{field} must be finite" in capsys.readouterr().err

    def test_oversized_bar_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "x.bin"
        argv = SMALL_SYNTH + ["--object-size", "99", "--out", str(out)]
        assert run(argv) == 1
        assert "error" in capsys.readouterr().err

    # 1e13 asks numpy for PiB of timestamps; at 6e17 the int64 sum of one
    # slice's counts wraps negative.
    @pytest.mark.parametrize("rate", ["1e13", "6e17"])
    def test_scene_past_the_byte_limit_is_data_error(self, tmp_path, capsys, rate):
        out = tmp_path / "x.bin"
        argv = ["synth", "--size", "8x8", "--rate", rate, "--duration-ms", "3", "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("evtbr: error: slice 0 brings the scene to")
        assert "over the limit of 4294967296 bytes" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestEncode:
    def test_frames_and_manifest(self, tmp_path, capsys):
        stream_file = synth_file(tmp_path)
        capsys.readouterr()
        frames_dir = tmp_path / "frames"
        argv = ["encode", "--in", str(stream_file), "--out-dir", str(frames_dir)]
        assert run(argv) == 0
        # 50 ms at the default 20 ms window: windows 0, 1, 2.
        assert capsys.readouterr().out == f"wrote 3 frames to {frames_dir}\n"
        pgms = sorted(frames_dir.glob("*.pgm"))
        assert [p.name for p in pgms] == ["00000.pgm", "00001.pgm", "00002.pgm"]
        rows = [
            json.loads(line)
            for line in (frames_dir / "manifest.jsonl").read_text().splitlines()
        ]
        assert [r["index"] for r in rows] == [0, 1, 2]
        assert [r["window_start_us"] for r in rows] == [0, 20_000, 40_000]
        assert all(r["nonzero_pixels"] > 0 for r in rows)

    def test_lever_threshold_reproduces_plain_mode(self, tmp_path, capsys):
        stream_file = synth_file(tmp_path)
        plain_dir = tmp_path / "plain"
        spike_dir = tmp_path / "spike"
        assert run(["encode", "--in", str(stream_file), "--out-dir", str(plain_dir)]) == 0
        assert run([
            "encode", "--in", str(stream_file), "--out-dir", str(spike_dir),
            "--mode", "spike-tbr", "--neuron", "lif", "--beta", "0.5", "--vth", "1.0",
        ]) == 0
        capsys.readouterr()
        for name in ("00000.pgm", "00001.pgm", "00002.pgm"):
            assert (plain_dir / name).read_bytes() == (spike_dir / name).read_bytes()

    def test_empty_input_writes_an_empty_manifest(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("t_us,x,y,p\n")
        d = tmp_path / "frames"
        assert run(["encode", "--in", str(empty), "--size", "8x8", "--out-dir", str(d)]) == 0
        assert capsys.readouterr().out == f"wrote 0 frames to {d}\n"
        assert (d / "manifest.jsonl").read_bytes() == b""

    def test_tau_m_alone_sets_the_decay(self, tmp_path, capsys):
        stream_file = synth_file(tmp_path)
        tau, beta = tmp_path / "tau", tmp_path / "beta"
        spike = ["encode", "--in", str(stream_file), "--mode", "spike-tbr"]
        assert run(spike + ["--tau-m", "4", "--out-dir", str(tau)]) == 0
        assert run(spike + ["--beta", "0.75", "--out-dir", str(beta)]) == 0
        capsys.readouterr()
        for name in ("00000.pgm", "00001.pgm", "00002.pgm", "manifest.jsonl"):
            assert (tau / name).read_bytes() == (beta / name).read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        stream_file = synth_file(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run(["encode", "--in", str(stream_file), "--out-dir", str(d)]) == 0
        capsys.readouterr()
        for name in ("00000.pgm", "manifest.jsonl"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_csv_input_requires_size(self, tmp_path, capsys):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n0,0,0,1\n")
        argv = ["encode", "--in", str(f), "--out-dir", str(tmp_path / "d")]
        assert run(argv) == 2
        assert "--size" in capsys.readouterr().err

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        argv = ["encode", "--in", str(tmp_path / "nope.bin"), "--out-dir", str(tmp_path / "d")]
        assert run(argv) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("mode", ["tbr", "spike-tbr"])
    @pytest.mark.parametrize(
        "name,fmt,where",
        [("ev.bin", EventFileFormat.BINARY_V1, "byte 38"), ("ev.csv", EventFileFormat.TEXT_CSV, "line 4")],
    )
    def test_out_of_order_input_is_data_error(self, tmp_path, capsys, mode, name, fmt, where):
        rows = [(30_000, 1, 1, 1), (30_000, 1, 1, 1), (0, 2, 2, 1), (2_600, 2, 2, 1)]
        f = tmp_path / name
        write_events(EventStream.from_events(SensorGeometry(4, 4), rows), f, fmt)
        out_dir = tmp_path / "d"
        argv = ["encode", "--in", str(f), "--out-dir", str(out_dir), "--size", "4x4"]
        assert run(argv + ["--mode", mode]) == 1
        assert where in capsys.readouterr().err
        assert not list(out_dir.glob("*.pgm"))

    def test_window_count_past_the_code_limit_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "late.bin"
        stream = EventStream.from_events(SensorGeometry(32, 32), [(10**12, 1, 1, 1)])
        write_events(stream, f, EventFileFormat.BINARY_V1)
        out_dir = tmp_path / "d"
        start = time.perf_counter()
        assert run(["encode", "--in", str(f), "--out-dir", str(out_dir)]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("evtbr: error: 50000001 windows") and "t=1000000000000 us" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_step_bounds_count_toward_the_code_limit(self, tmp_path, capsys):
        # At 8x8 the 3.2e9 code bytes of 5e7 windows fit the limit; their
        # 6.4e9 bytes of int64 step edges and bounds do not.
        f = tmp_path / "late.bin"
        stream = EventStream.from_events(SensorGeometry(8, 8), [(10**12, 1, 1, 1)])
        write_events(stream, f, EventFileFormat.BINARY_V1)
        out_dir = tmp_path / "d"
        assert run(["encode", "--in", str(f), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("evtbr: error: 50000001 windows")
        assert "bytes of frame codes and step bounds" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("events", ["scene", "empty"])
    def test_bits_past_the_pgm_cap_fail_before_reading(self, tmp_path, capsys, events):
        if events == "scene":
            infile = synth_file(tmp_path)
        else:
            infile = tmp_path / "empty.csv"
            infile.write_bytes(b"t_us,x,y,p\n")
        capsys.readouterr()
        out_dir = tmp_path / "d"
        argv = ["encode", "--in", str(infile), "--size", "32x32", "--bits", "17"]
        assert run(argv + ["--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err == "evtbr: error: PGM caps pixels at 16 bits; cannot persist a 17-bit frame\n"
        assert not out_dir.exists()

    def test_bad_micro_steps_is_data_error(self, tmp_path, capsys):
        stream_file = synth_file(tmp_path)
        argv = [
            "encode", "--in", str(stream_file), "--out-dir", str(tmp_path / "d"),
            "--mode", "spike-tbr", "--k", "3",
        ]
        assert run(argv) == 1
        assert "not divisible into 3 micro steps" in capsys.readouterr().err

    def test_micro_steps_are_ignored_in_plain_mode(self, tmp_path, capsys):
        # 2500 us slices do not split into 3 micro steps; only spike mode uses K.
        stream_file = synth_file(tmp_path)
        base = ["encode", "--in", str(stream_file), "--out-dir"]
        assert run(base + [str(tmp_path / "plain")]) == 0
        assert run(base + [str(tmp_path / "k3"), "--k", "3"]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert sorted(p.name for p in (tmp_path / "k3").iterdir()) == names
        for name in names:
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "k3" / name).read_bytes()

    def test_neuron_flags_are_ignored_in_plain_mode(self, tmp_path, capsys):
        # Neither beta 2 nor v_th 0 makes a valid neuron; plain mode builds none.
        stream_file = synth_file(tmp_path)
        base = ["encode", "--in", str(stream_file), "--out-dir"]
        assert run(base + [str(tmp_path / "plain")]) == 0
        assert run(base + [str(tmp_path / "flags"), "--beta", "2", "--vth", "0"]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert sorted(p.name for p in (tmp_path / "flags").iterdir()) == names
        for name in names:
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    @pytest.mark.parametrize("variant", list(NeuronVariant))
    def test_neuron_flag_selects_variant(self, tmp_path, capsys, variant):
        stream_file = synth_file(tmp_path)
        out_dir = tmp_path / "d"
        argv = [
            "encode", "--in", str(stream_file), "--out-dir", str(out_dir),
            "--mode", "spike-tbr", "--neuron", variant.value, "--beta", "0.5", "--vth", "1.5",
        ]
        assert run(argv) == 0
        capsys.readouterr()
        neuron = NeuronConfig(variant=variant, beta=0.5, v_th=1.5)
        cfg = EncoderConfig(SlicingConfig(2_500, 8), EncoderMode.SPIKE_TBR, neuron)
        frames = encode_stream(read_events(stream_file, EventFileFormat.BINARY_V1), cfg)
        written = [read_frame(f).codes for f in sorted(out_dir.glob("*.pgm"))]
        assert len(written) == len(frames) == 3
        for got, want in zip(written, frames):
            assert np.array_equal(got, want.codes)

    def test_unknown_neuron_is_usage_error_listing_sorted_names(self, tmp_path, capsys):
        stream_file = synth_file(tmp_path)
        capsys.readouterr()
        argv = ["encode", "--in", str(stream_file), "--out-dir", str(tmp_path / "d")]
        assert run(argv + ["--neuron", "izh"]) == 2
        err = capsys.readouterr().err
        listed = err[err.index("choose from"):]
        positions = [listed.index(name) for name in ("lif", "lrlif", "plif", "reclif")]
        assert positions == sorted(positions)

    @pytest.mark.parametrize(
        "flags,message",
        [(["--vrest", "1.2"], "v_rest must be below v_th"), (["--vth", "nan"], "v_th must be finite")],
    )
    def test_degenerate_neuron_is_data_error(self, tmp_path, capsys, flags, message):
        stream_file = synth_file(tmp_path)
        capsys.readouterr()
        out_dir = tmp_path / "d"
        argv = ["encode", "--in", str(stream_file), "--out-dir", str(out_dir), "--mode", "spike-tbr"]
        assert run(argv + flags) == 1
        assert message in capsys.readouterr().err
        assert not list(out_dir.glob("*.pgm"))


class TestDecode:
    def test_prints_active_slices(self, tmp_path, capsys):
        frame = tmp_path / "f.pgm"
        # Code 5 = slices 0 and 2; its neighbor is silent.
        frame.write_bytes(b"P5\n2 1\n255\n\x05\x00")
        assert run(["decode", "--in", str(frame), "--x", "0", "--y", "0", "--w", "2"]) == 0
        out = capsys.readouterr().out
        assert out == "(0,0) slices: 0,2\n(1,0) slices: -\n"

    def test_region_outside_frame_is_data_error(self, tmp_path, capsys):
        frame = tmp_path / "f.pgm"
        frame.write_bytes(b"P5\n2 1\n255\n\x05\x00")
        assert run(["decode", "--in", str(frame), "--x", "2", "--y", "0"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "region,message",
        [
            pytest.param(["--w", "0"], "region must be at least 1x1", id="zero-width"),
            pytest.param(["--y", "1"], "y range [1, 2) outside height 1", id="y-past-height"),
            pytest.param(["--y", "-1"], "y range [-1, 0) outside height 1", id="negative-y"),
        ],
    )
    def test_degenerate_or_outside_region_is_data_error(self, tmp_path, capsys, region, message):
        frame = tmp_path / "f.pgm"
        frame.write_bytes(b"P5\n2 1\n255\n\x05\x00")
        argv = ["decode", "--in", str(frame), "--x", "0", "--y", "0"] + region
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestCompare:
    def test_directory_against_itself_is_zero(self, tmp_path, capsys):
        stream_file = synth_file(tmp_path)
        d = tmp_path / "frames"
        assert run(["encode", "--in", str(stream_file), "--out-dir", str(d)]) == 0
        capsys.readouterr()
        assert run(["compare", "--a", str(d), "--b", str(d)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "index,l1_mean,hamming_bits,changed_pixels"
        assert lines[1:4] == ["0,0,0,0", "1,0,0,0", "2,0,0,0"]
        assert lines[4] == "mean,0,0,0"

    def test_frame_count_mismatch_is_data_error(self, tmp_path, capsys):
        stream_file = synth_file(tmp_path)
        full = tmp_path / "full"
        assert run(["encode", "--in", str(stream_file), "--out-dir", str(full)]) == 0
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "00000.pgm").write_bytes((full / "00000.pgm").read_bytes())
        capsys.readouterr()
        assert run(["compare", "--a", str(full), "--b", str(partial)]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_two_empty_directories_are_data_error(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert run(["compare", "--a", str(a), "--b", str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no frames to compare" in captured.err

    def test_rows_follow_frame_numbers_past_five_digits(self, tmp_path, capsys):
        # 100000.pgm sorts between 10000.pgm and 10001.pgm as a string.
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for name, code in [("00000", 1), ("99999", 3), ("100000", 7)]:
            (a / f"{name}.pgm").write_bytes(b"P5\n1 1\n255\n" + bytes([code]))
            (b / f"{name}.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
        assert run(["compare", "--a", str(a), "--b", str(b)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:4]]
        assert [(row[0], row[2]) for row in rows] == [("0", "1"), ("1", "2"), ("2", "3")]


class TestNoise:
    def test_zero_probability_output_equals_input(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        out = tmp_path / "noisy.bin"
        assert run(["noise", "--in", str(src), "--p", "0.0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("name", ["noisy.csv", "noisy.bin"])
    def test_empty_input_passes_through(self, tmp_path, capsys, name):
        empty = tmp_path / "empty.csv"
        empty.write_text("t_us,x,y,p\n")
        out = tmp_path / name
        assert run(["noise", "--in", str(empty), "--size", "8x8", "--p", "0.5", "--out", str(out)]) == 0
        capsys.readouterr()
        if name.endswith(".csv"):
            assert out.read_bytes() == b"t_us,x,y,p\n"
        else:
            assert out.read_bytes() == b"EVS1" + struct.pack("<II", 8, 8)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            assert run(["noise", "--in", str(src), "--p", "0.05", "--seed", "1",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_prints_the_output_summary(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        capsys.readouterr()
        out = tmp_path / "noisy.bin"
        assert run(["noise", "--in", str(src), "--p", "0.05", "--out", str(out)]) == 0
        summary = stream_info(read_events(out, EventFileFormat.BINARY_V1)).summary()
        assert capsys.readouterr().out == summary + "\n"

    def test_noise_past_the_byte_limit_is_data_error(self, tmp_path, capsys, monkeypatch):
        src = synth_file(tmp_path)
        capsys.readouterr()
        # Room for the signal alone: the first slice's noise crosses the limit.
        n = len(read_events(src, EventFileFormat.BINARY_V1))
        monkeypatch.setattr("evtbr.events.MAX_FRAME_BYTES", 17 * n)
        out = tmp_path / "o.bin"
        assert run(["noise", "--in", str(src), "--p", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"evtbr: error: noise slice 0 brings the stream to {n + 32 * 32} events")
        assert "Traceback" not in err
        assert not out.exists()

    def test_noise_adds_events(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        out = tmp_path / "noisy.bin"
        assert run(["noise", "--in", str(src), "--p", "0.05", "--out", str(out)]) == 0
        capsys.readouterr()
        before = len(read_events(src, EventFileFormat.BINARY_V1))
        after = len(read_events(out, EventFileFormat.BINARY_V1))
        assert after > before

    def test_merge_recorded_noise_file(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        recording = tmp_path / "bg.csv"
        recording.write_text("t_us,x,y,p\n0,1,1,1\n5000,2,2,-1\n")
        out = tmp_path / "merged.bin"
        argv = [
            "noise", "--in", str(src), "--noise-file", str(recording),
            "--noise-size", "32x32", "--out", str(out),
        ]
        assert run(argv) == 0
        capsys.readouterr()
        before = len(read_events(src, EventFileFormat.BINARY_V1))
        after = len(read_events(out, EventFileFormat.BINARY_V1))
        assert after > before

    def test_noise_file_tiled_past_the_byte_limit_is_data_error(self, tmp_path, capsys):
        src, recording = tmp_path / "far.bin", tmp_path / "bg.bin"
        far = EventStream.from_events(SensorGeometry(8, 8), [(0, 1, 1, 1), (10**12, 2, 2, 1)])
        write_events(far, src, EventFileFormat.BINARY_V1)
        events = [(i // 6, 3, 3, 1) for i in range(12)]
        write_events(EventStream.from_events(SensorGeometry(8, 8), events), recording,
                     EventFileFormat.BINARY_V1)
        out = tmp_path / "o.bin"
        argv = ["noise", "--in", str(src), "--noise-file", str(recording), "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("evtbr: error: 1000000000001 copies of the recording")
        assert "Traceback" not in err
        assert not out.exists()

    def test_csv_noise_file_requires_noise_size(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        recording = tmp_path / "bg.csv"
        recording.write_text("t_us,x,y,p\n0,1,1,1\n")
        argv = ["noise", "--in", str(src), "--noise-file", str(recording),
                "--out", str(tmp_path / "m.bin")]
        assert run(argv) == 2
        assert "--noise-size" in capsys.readouterr().err

    def test_bad_probability_is_usage_error(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        argv = ["noise", "--in", str(src), "--p", "1.5", "--out", str(tmp_path / "o.bin")]
        assert run(argv) == 2
        capsys.readouterr()


class TestCurve:
    CURVE_ARGS = [
        "curve", "--size", "32x32", "--duration-ms", "40",
        "--p-list", "0.0", "--seeds", "2",
    ]

    def test_zero_noise_row(self, capsys):
        assert run(self.CURVE_ARGS) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "p,encoder,l1_mean,l1_std,hamming_mean,changed_pixels_mean"
        assert lines[1] == "0,tbr,0,0,0,0"

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        assert run(self.CURVE_ARGS) == 0
        stdout_text = capsys.readouterr().out
        out = tmp_path / "curve.csv"
        assert run(self.CURVE_ARGS + ["--out", str(out)]) == 0
        assert out.read_text() == stdout_text

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "curve", "--size", "32x32", "--duration-ms", "40",
            "--p-list", "0.01,0.05", "--seeds", "2",
            "--mode", "spike-tbr", "--beta", "0.5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_p_list_is_usage_error(self, capsys):
        assert run(["curve", "--size", "32x32", "--p-list", "0.1,oops"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("p_list", [",", " , "])
    def test_p_list_without_levels_is_usage_error(self, capsys, p_list):
        assert run(["curve", "--size", "32x32", "--p-list", p_list]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a comma-separated probability list" in captured.err


class TestInfo:
    def test_summary_printed(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        capsys.readouterr()
        assert run(["info", "--in", str(src)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("events=")
        assert "active_pixels=" in out

    def test_csv_requires_size(self, tmp_path, capsys):
        f = tmp_path / "ev.csv"
        f.write_text("t_us,x,y,p\n0,0,0,1\n")
        assert run(["info", "--in", str(f)]) == 2
        capsys.readouterr()
        assert run(["info", "--in", str(f), "--size", "4x4"]) == 0
        assert capsys.readouterr().out.startswith("events=1")


class TestImports:
    def test_encode_and_info_leave_numpy_ma_unimported(self, tmp_path):
        # The first np.unique call in a process imports numpy.ma (~16 ms).
        # Two events on each of ten pixels in one micro step make ten
        # neurons fire together, on a grid that leaks lazily.
        rows = [(10, x, 5, 1) for x in range(0, 20, 2) for _ in range(2)]
        src = tmp_path / "ev.bin"
        write_events(EventStream.from_events(SensorGeometry(320, 240), rows), src,
                     EventFileFormat.BINARY_V1)
        encode = ["encode", "--in", str(src), "--mode", "spike-tbr", "--neuron", "lif",
                  "--beta", "0.5", "--out-dir", str(tmp_path / "frames")]
        script = (
            "import sys; from evtbr.cli import main; "
            f"assert main({encode!r}) == 0; assert main(['info', '--in', {str(src)!r}]) == 0; "
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        frame = read_frame(next((tmp_path / "frames").glob("*.pgm")))
        assert np.count_nonzero(frame.codes) == 10

    def test_noise_and_curve_leave_numpy_ma_unimported(self, tmp_path):
        # Noise injection marks the slices to draw again without np.unique.
        src = synth_file(tmp_path)
        noise = ["noise", "--in", str(src), "--p", "0.1", "--out", str(tmp_path / "noisy.bin")]
        curve = ["curve", "--size", "32x32", "--duration-ms", "40", "--p-list", "0.1",
                 "--seeds", "2", "--out", str(tmp_path / "curve.csv")]
        script = (
            "import sys; from evtbr.cli import main; "
            f"assert main({noise!r}) == 0; assert main({curve!r}) == 0; "
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        assert len(read_events(tmp_path / "noisy.bin", EventFileFormat.BINARY_V1)) > len(
            read_events(src, EventFileFormat.BINARY_V1)
        )


class TestGeometryLimit:
    def test_size_over_limit_is_usage_error(self):
        assert _size_arg("4096x4096") == SensorGeometry(4096, 4096)
        with pytest.raises(argparse.ArgumentTypeError, match="at most 16777216 pixels"):
            _size_arg("5000x5000")

    def test_forged_binary_header_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "forged.bin"
        f.write_bytes(b"EVS1" + struct.pack("<II", 65535, 65535))
        assert run(["info", "--in", str(f)]) == 1
        assert "byte 4: geometry 65535x65535 exceeds" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run(["synth", "--size", "4x4", "--out", "x.bin", "--bogus"]) == 2
        capsys.readouterr()

    def test_no_command(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: evtbr")

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "scene.bin"
        proc = subprocess.run(
            [sys.executable, "-m", "evtbr.cli"] + SMALL_SYNTH + ["--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("events=")
        assert out.exists()
