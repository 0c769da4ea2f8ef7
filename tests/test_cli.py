import json
import subprocess
import sys

import pytest

from evtbr.cli import main
from evtbr.events import SensorGeometry
from evtbr.io import EventFileFormat, read_events, write_events

from helpers import make_stream

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

    def test_oversized_bar_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "x.bin"
        argv = SMALL_SYNTH + ["--object-size", "99", "--out", str(out)]
        assert run(argv) == 1
        assert "error" in capsys.readouterr().err


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
        write_events(make_stream(SensorGeometry(4, 4), rows), f, fmt)
        out_dir = tmp_path / "d"
        argv = ["encode", "--in", str(f), "--out-dir", str(out_dir), "--size", "4x4"]
        assert run(argv + ["--mode", mode]) == 1
        assert where in capsys.readouterr().err
        assert not list(out_dir.glob("*.pgm"))

    def test_bad_micro_steps_is_data_error(self, tmp_path, capsys):
        stream_file = synth_file(tmp_path)
        argv = [
            "encode", "--in", str(stream_file), "--out-dir", str(tmp_path / "d"),
            "--mode", "spike-tbr", "--k", "3",
        ]
        assert run(argv) == 1
        capsys.readouterr()


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


class TestNoise:
    def test_zero_probability_output_equals_input(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        out = tmp_path / "noisy.bin"
        assert run(["noise", "--in", str(src), "--p", "0.0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == src.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        src = synth_file(tmp_path)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            assert run(["noise", "--in", str(src), "--p", "0.05", "--seed", "1",
                        "--out", str(out)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

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
