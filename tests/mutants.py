"""Planted bugs that the suite must catch: the table ``mutation_gate.py`` runs.

Each row names a file under ``src/evtbr``, an exact text that occurs once in
it, the text that replaces it, and the tests that must each fail on the
mutated copy. A refactor that moves a mutant's code updates its row; a
mutant whose code is gone moves to ``RETIRED`` with the reason, and one
that can change no output is listed in ``EQUIVALENT`` with the reason.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


NEURONS = "tests/test_neurons.py"
ENCODER = "tests/test_encoder.py"
NOISE = "tests/test_noise.py"
IO = "tests/test_io.py"
SYNTH = "tests/test_synth.py"
CLI = "tests/test_cli.py"
EVENTS = "tests/test_events.py"
CURVE = "tests/test_metrics.py::TestRobustnessCurve"
TRIAL_MEANS = "tests/test_metrics.py::TestTrialMeans::test_equal_the_mean_of_per_frame_distances"
REFERENCE = ENCODER + "::TestReferenceEncoder::test_encode_stream_matches_per_event_reference"
ORACLE = NOISE + "::TestInjectionOracle"
BLOCKS = NOISE + "::TestBlockMerge::test_matches_one_merge_of_the_signal_and_all_the_noise"
EDGES = SYNTH + "::TestEdgePixels::test_matches_per_pixel_reference"
GOLDEN = "tests/test_golden.py::test_written_events_match_golden_hash"

MUTANTS = [
    # Sparse step.
    Mutant(
        "sparse step: skip re-zeroing the scratch",
        "neurons.py",
        "        scratch[pixels] = 0.0\n",
        "",
        (
            NEURONS + "::TestSparseStepInput::test_scratch_is_cleared_between_steps",
        ),
    ),
    Mutant(
        "sparse step: scatter-add into the membrane",
        "neurons.py",
        "        np.add.at(scratch, pixels, weights)\n        v[pixels] += scratch[pixels]\n",
        "        np.add.at(v, pixels, weights)\n",
        (
            NEURONS + "::TestLazyLeak::test_direct_writes_between_lazy_steps_match_the_dense_chain",
        ),
    ),
    # Codes and resets. The masked OR of the first window loop became the one
    # fancy-index OR of the encoder core, and the reset lost its single-spike
    # branch: these rows plant the same faults there.
    Mutant(
        "codes: OR a wrong bit",
        "encoder.py",
        "codes[active] |= bit(1 << (i // k))",
        "codes[active] |= bit(1 << (n - 1 - i // k))",
        (
            ENCODER + "::TestEncodeWindowTbr::test_event_in_last_slice_sets_msb",
            REFERENCE,
        ),
    ),
    Mutant(
        "resets: skip a single-spike reset",
        "neurons.py",
        "            v[fired] = cfg.v_rest\n",
        "            v[fired if len(fired) > 1 else fired[:0]] = cfg.v_rest\n",
        (
            NEURONS + "::TestStep::test_hard_reset_returns_to_rest",
            REFERENCE,
        ),
    ),
    # Encoder. The reclif feedback and the v_rest shift now live in
    # NeuronGrid.step and NeuronGrid._leak.
    Mutant(
        "encoder: drop the reclif feedback",
        "neurons.py",
        "            v[prev] += 1.0\n",
        "",
        (
            NEURONS + "::TestRecurrentFeedback::test_feedback_adds_one_spike_unit_next_step",
            REFERENCE,
        ),
    ),
    Mutant(
        'encoder: search step edges with side="right"',
        "encoder.py",
        'bounds = np.searchsorted(stream.t, edges, side="left")',
        'bounds = np.searchsorted(stream.t, edges, side="right")',
        (
            ENCODER + "::TestWindowStart::test_window_encoders_match_slice_stack",
            REFERENCE,
        ),
    ),
    Mutant(
        "encoder: skip the v_rest shift of the leak",
        "neurons.py",
        "            v -= cfg.v_rest\n            v *= cfg.beta\n            v += cfg.v_rest\n",
        "            v *= cfg.beta\n",
        (
            NEURONS + "::TestStep::test_nonzero_rest_decay_is_toward_rest",
            REFERENCE,
        ),
    ),
    # Lazy leak.
    Mutant(
        "lazy leak: a plain ldexp instead of the subnormal chain",
        "neurons.py",
        "        if low.any():\n",
        "        if False:\n",
        (
            NEURONS + "::TestLazyLeak::test_idle_chains_into_subnormals_match_the_dense_chain",
        ),
    ),
    Mutant(
        "lazy leak: one extra leak step per lazy gap",
        "neurons.py",
        "        gaps = np.minimum(gaps, _GAP_CAP)\n",
        "        gaps = np.minimum(gaps + (gaps > 1), _GAP_CAP)\n",
        (
            NEURONS + "::TestLazyLeak::test_decay_only_advances_the_clock",
            REFERENCE,
        ),
    ),
    Mutant(
        "lazy leak: skip the clock-restart reset",
        "neurons.py",
        "            self._last.fill(0)\n",
        "",
        (
            NEURONS + "::TestLazyLeak::test_direct_writes_between_lazy_steps_match_the_dense_chain",
        ),
    ),
    # CSV reader: the clean-body fast path and what it sends to the line loop.
    Mutant(
        "CSV: drop the structural compare",
        "io.py",
        '    if separators != b",,,\\n" * lines:\n        return None\n',
        "",
        (
            IO + "::TestCsvFastPath::test_matches_the_line_loop",
            IO + "::TestCsvFastPath::test_near_misses_take_the_line_loop",
        ),
    ),
    Mutant(
        "CSV: a lone - read as 0",
        "io.py",
        "    return values.reshape(lines, 4) if np.count_nonzero(values < 0) == minus else None\n",
        "    return values.reshape(lines, 4)\n",
        (
            IO + "::TestCsvFastPath::test_matches_the_line_loop",
            IO + "::TestCsvFastPath::test_near_misses_take_the_line_loop[1,-,3,4\\n]",
            IO + "::TestCsvFastPath::test_near_misses_take_the_line_loop[0,0,0,-\\n]",
        ),
    ),
    Mutant(
        "CSV: values saturated to INT64_MAX kept",
        "io.py",
        "    if values.size != 4 * lines or values.max(initial=0) == INT64_MAX:\n",
        "    if values.size != 4 * lines:\n",
        (
            IO + "::TestCsvFastPath::test_matches_the_line_loop",
            IO + "::TestCsvFastPath::test_near_misses_take_the_line_loop",
        ),
    ),
    # Only drawn bodies put a huge value past the first line; the explicit
    # examples are one line each.
    Mutant(
        "CSV: saturated values looked for on the first line only",
        "io.py",
        "values.max(initial=0) == INT64_MAX",
        "values[:4].max(initial=0) == INT64_MAX",
        (
            IO + "::TestCsvFastPath::test_matches_the_line_loop",
        ),
    ),
    # Imports.
    Mutant(
        "imports: remove the slice_stream import",
        "encoder.py",
        "    slice_stream,\n",
        "",
        (
            "tests/test_exports.py::test_perfbench_spans_find_every_traced_name",
        ),
    ),
    # Noise decode.
    Mutant(
        "noise decode: no rejection check",
        "noise.py",
        '        redo[ends.searchsorted(rejected, side="right")] = True\n',
        "",
        (
            ORACLE + "::test_matches_per_slice_integers_draws",
            ORACLE + "::test_slices_with_a_rejected_draw_are_drawn_again",
        ),
    ),
    Mutant(
        "noise decode: polarity bytes from the next whole word",
        "noise.py",
        "        first = first + counts\n",
        "        first = first + counts + counts % 2\n",
        (
            ORACLE + "::test_matches_per_slice_integers_draws",
            ORACLE + "::test_many_slices_decoded_in_one_pass",
        ),
    ),
    # Counting timestamp words for a 1 us slice in the draw only draws words
    # that nothing reads (an equivalent mutant); the decode reads them.
    Mutant(
        "noise decode: timestamp words counted for a 1 us slice",
        "noise.py",
        "    if width > 1:\n",
        "    if width >= 1:\n",
        (
            ORACLE + "::test_matches_per_slice_integers_draws",
        ),
    ),
    Mutant(
        "noise decode: no redraw of a cut last slice",
        "noise.py",
        "    redo = starts + width > end\n",
        "    redo = np.zeros(len(counts), dtype=bool)\n",
        (
            ORACLE + "::test_matches_per_slice_integers_draws",
            ORACLE + "::test_last_slice_cut_to_one_us",
            NOISE + "::TestInjectNoise::test_partial_slice_truncated_at_span_end",
        ),
    ),
    # Shared draw across levels.
    Mutant(
        "shared draw: words sized from the first level",
        "noise.py",
        "    p_max = max(levels)\n",
        "    p_max = levels[0]\n",
        (
            ORACLE + "::test_every_level_of_one_draw_matches",
        ),
    ),
    Mutant(
        "shared draw: words sized from the last level",
        "noise.py",
        "    p_max = max(levels)\n",
        "    p_max = levels[-1]\n",
        (
            ORACLE + "::test_every_level_of_one_draw_matches",
        ),
    ),
    Mutant(
        "shared draw: every level given the highest level's pixels",
        "noise.py",
        "        keeps = [block.rank <= ranked.index(p) for",
        "        keeps = [block.rank <= ranked.index(p_max) for",
        (
            ORACLE + "::test_every_level_of_one_draw_matches",
        ),
    ),
    Mutant(
        "shared draw: <= in the per-level threshold",
        "noise.py",
        'np.concatenate(uniforms), side="right")',
        'np.concatenate(uniforms), side="left")',
        (
            ORACLE + "::test_every_level_of_one_draw_matches",
        ),
    ),
    # Block-wise decode and merge.
    Mutant(
        "block merge: skip the tail signal copy",
        "noise.py",
        '    for column, name in zip(columns, "txyp"):\n        column[at:] = getattr(signal, name)[lo:]\n',
        "",
        (
            BLOCKS,
            ORACLE + "::test_matches_per_slice_integers_draws",
        ),
    ),
    Mutant(
        "block merge: output offset of the next block off by one",
        "noise.py",
        "        at, lo = at + len(merged), hi\n",
        "        at, lo = at + len(merged) - 1, hi\n",
        (
            BLOCKS,
            ORACLE + "::test_many_slices_decoded_in_one_pass",
        ),
    ),
    Mutant(
        "block merge: no sort of an unsorted signal",
        "noise.py",
        "    if blocks and (stream.t[1:] < stream.t[:-1]).any():\n",
        "    if False:\n",
        (
            BLOCKS,
        ),
    ),
    Mutant(
        "block draw: each slice's first pixel shifted by one",
        "noise.py",
        "        np.cumsum([0] + [f.size for f in pixels[:-1]]),\n",
        "        np.cumsum([1] + [f.size for f in pixels[:-1]]),\n",
        (
            BLOCKS,
            ORACLE + "::test_every_level_of_one_draw_matches",
        ),
    ),
    # Binary writes and stream stats a block of events at a time.
    Mutant(
        "binary write: each block drops its last record",
        "io.py",
        "            block = stream[lo : lo + _IO_BLOCK]\n",
        "            block = stream[lo : lo + _IO_BLOCK - 1]\n",
        (
            IO + "::TestBinaryWrite::test_records_written_a_block_at_a_time",
        ),
    ),
    Mutant(
        "stream info: pixels flagged from the first block only",
        "io.py",
        "        block = stream[lo : lo + _IO_BLOCK]\n        active[",
        "        block = stream[0:_IO_BLOCK]\n        active[",
        (
            IO + "::TestStreamInfo::test_active_pixels_counted_across_blocks",
        ),
    ),
    # Event checks: one reduction per column before any per-event mask.
    Mutant(
        "fault check: negative coordinates pass",
        "io.py",
        '        or x.view(f"u{x.itemsize}").max() >= geometry.width\n',
        "        or x.max() >= geometry.width\n",
        (
            IO + "::TestCsvRead::test_one_fault_among_valid_lines_is_reported",
        ),
    ),
    Mutant(
        "fault check: the last timestamp not compared with 2^63 - 1",
        "io.py",
        "        or t[-1] > INT64_MAX\n",
        "",
        (
            IO + "::TestBinaryRead::test_last_timestamp_above_int64_rejected",
        ),
    ),
    Mutant(
        "binary read: the file's bytes held through the check",
        "io.py",
        "    del data, records  # so that the check's temporaries stay below the cast's peak\n",
        "",
        (
            IO + "::TestBinaryRead::test_the_check_adds_nothing_to_the_peak",
        ),
    ),
    # PGM frames written with one writev.
    Mutant(
        "frame write: a short write not resumed",
        "io.py",
        "        while done < len(header) + len(raster):\n",
        "        if done < len(header) + len(raster):\n",
        (
            IO + "::TestFrameWrite::test_short_writes_are_resumed",
        ),
    ),
    Mutant(
        "frame write: the descriptor left open after a failed write",
        "io.py",
        "    finally:\n        os.close(fd)\n",
        "    except OSError:\n        raise\n    os.close(fd)\n",
        (
            IO + "::TestFrameWrite::test_descriptor_closed_when_a_write_fails",
        ),
    ),
    # CSV writes a block of events at a time, through the binary-v1 loop.
    Mutant(
        "CSV write: every block sliced from the first",
        "io.py",
        "            block = stream[lo : lo + _IO_BLOCK]\n",
        "            block = stream[0:_IO_BLOCK]\n",
        (
            IO + "::TestCsvWrite::test_lines_written_a_block_at_a_time[9]",
            IO + "::TestCsvWrite::test_lines_written_a_block_at_a_time[10]",
        ),
    ),
    Mutant(
        "CSV write: the header written once per block",
        "io.py",
        "        f.write(f\"{CSV_HEADER}\\n\".encode(\"ascii\") if csv else BINARY_MAGIC + struct.pack(\"<II\", g.width, g.height))\n"
        "        for lo in range(0, len(stream), _IO_BLOCK):\n",
        "        for lo in range(0, len(stream), _IO_BLOCK):\n"
        "            f.write(f\"{CSV_HEADER}\\n\".encode(\"ascii\") if csv else BINARY_MAGIC + struct.pack(\"<II\", g.width, g.height))\n",
        (
            IO + "::TestCsvWrite::test_lines_written_a_block_at_a_time",
            IO + "::TestCsvWrite::test_empty_stream",
        ),
    ),
    Mutant(
        "CSV write: each block formats the whole stream",
        "io.py",
        "block.t.tolist(), block.x.tolist(), block.y.tolist(), block.p.tolist()",
        "stream.t.tolist(), stream.x.tolist(), stream.y.tolist(), stream.p.tolist()",
        (
            IO + "::TestCsvWrite::test_lines_written_a_block_at_a_time[9]",
            IO + "::TestCsvWrite::test_peak_memory_is_bounded_by_blocks_not_by_the_file",
        ),
    ),
    # Branches that no test pinned: each forced to the value that survived.
    Mutant(
        "binary write: negative timestamps let through",
        "io.py",
        "    if not csv and len(stream) and int(stream.t.min()) < 0:\n",
        "    if False:\n",
        (
            IO + "::TestBinaryWrite::test_negative_timestamp_rejected",
        ),
    ),
    Mutant(
        "neuron config: v_th <= 0 let through",
        "neurons.py",
        "        if self.v_th <= 0.0:\n",
        "        if False:\n",
        (
            NEURONS + "::TestNeuronConfig::test_zero_vth_rejected_with_rest_below_it",
        ),
    ),
    Mutant(
        "neuron config: tau_m <= 1 let through",
        "neurons.py",
        "            if tau_m <= 1.0:\n",
        "            if False:\n",
        (
            NEURONS + "::TestNeuronConfig::test_zero_tau_is_a_value_error",
        ),
    ),
    Mutant(
        "step input: no shape check on a dense input",
        "neurons.py",
        "        if pixels is None and inp.values.shape != self.geometry.shape:\n",
        "        if False:\n",
        (
            NEURONS + "::TestStepInput::test_dense_input_of_the_transposed_shape_rejected",
        ),
    ),
    Mutant(
        "lazy leak: reset leaves the neurons' last steps",
        "neurons.py",
        "        if self._last is not None:\n",
        "        if False:\n",
        (
            NEURONS + "::TestLazyLeak::test_write_after_reset_fires_as_the_dense_chain",
        ),
    ),
    Mutant(
        "scene: emission_period <= 0 let through",
        "synth.py",
        "        if self.emission_period <= 0:\n",
        "        if False:\n",
        (
            SYNTH + "::TestSceneValidation::test_out_of_range_field_rejected[zero-period]",
            SYNTH + "::TestSceneValidation::test_out_of_range_field_rejected[negative-period]",
        ),
    ),
    Mutant(
        "scene: negative seed let through",
        "synth.py",
        "        if self.seed < 0:\n",
        "        if False:\n",
        (
            SYNTH + "::TestSceneValidation::test_out_of_range_field_rejected[negative-seed]",
        ),
    ),
    Mutant(
        "scene: object_size 0 let through",
        "synth.py",
        "        if self.object_size is not None and self.object_size < 1:\n",
        "        if False:\n",
        (
            SYNTH + "::TestSceneValidation::test_out_of_range_field_rejected[zero-size]",
        ),
    ),
    Mutant(
        "curve: levels outside [0, 1] checked after the scene",
        "metrics.py",
        "        if not 0.0 <= p <= 1.0:\n",
        "        if False:\n",
        (
            CURVE + "::test_bad_arguments_rejected_before_the_scene_is_generated[level-above-one]",
            CURVE + "::test_bad_arguments_rejected_before_the_scene_is_generated[negative-level]",
        ),
    ),
    Mutant(
        "curve: no seeds let through",
        "metrics.py",
        "    if n_seeds < 1:\n",
        "    if False:\n",
        (
            CURVE + "::test_bad_arguments_rejected_before_the_scene_is_generated[no-seeds]",
        ),
    ),
    Mutant(
        "curve: a zero-length scene checked after it is generated",
        "metrics.py",
        "    if n_windows == 0:\n",
        "    if False:\n",
        (
            CURVE + "::test_bad_arguments_rejected_before_the_scene_is_generated[zero-length-scene]",
        ),
    ),
    Mutant(
        "curve: l1_std always 0",
        "metrics.py",
        "if n_seeds > 1 else 0.0",
        "if False else 0.0",
        (
            CURVE + "::test_std_is_the_sample_std_over_seeds",
        ),
    ),
    # Level release and the one-pass scorer. The first row binds each level's
    # stream to a local, which then holds it through the next level's merge.
    Mutant(
        "curve: a level's stream held while the next is merged",
        "metrics.py",
        "        for j in range(len(cfgs)):\n"
        "            trial_l1[j, i], trial_ham[j, i], trial_chg[j, i] = _trial_means(\n"
        "                _code_block(encode_stream(next(levels), cfg, n_windows=n_windows)), reference, max_code\n",
        "        for j in range(len(cfgs)):\n"
        "            noisy = next(levels)\n"
        "            trial_l1[j, i], trial_ham[j, i], trial_chg[j, i] = _trial_means(\n"
        "                _code_block(encode_stream(noisy, cfg, n_windows=n_windows)), reference, max_code\n",
        (
            CURVE + "::test_each_level_is_freed_before_the_next_is_merged",
        ),
    ),
    Mutant(
        "curve: levels stepped through enumerate again",
        "metrics.py",
        "        for j in range(len(cfgs)):\n"
        "            trial_l1[j, i], trial_ham[j, i], trial_chg[j, i] = _trial_means(\n"
        "                _code_block(encode_stream(next(levels), cfg, n_windows=n_windows)), reference, max_code\n"
        "            )\n",
        "        for j, noisy in enumerate(levels):\n"
        "            trial_l1[j, i], trial_ham[j, i], trial_chg[j, i] = _trial_means(\n"
        "                _code_block(encode_stream(noisy, cfg, n_windows=n_windows)), reference, max_code\n"
        "            )\n"
        "            del noisy\n",
        (
            CURVE + "::test_each_level_is_freed_before_the_next_is_merged",
        ),
    ),
    Mutant(
        "scorer: hamming taken of the difference",
        "metrics.py",
        "    hamming = np.bitwise_count(scratch, out=scratch)",
        "    hamming = np.bitwise_count(np.maximum(codes, reference) - np.minimum(codes, reference))",
        (
            TRIAL_MEANS + "[8]",
            TRIAL_MEANS + "[9]",
            TRIAL_MEANS + "[16]",
        ),
    ),
    Mutant(
        "scorer: l1 scaled by the dtype's largest value",
        "metrics.py",
        "/ (max_code * codes.shape[1])",
        "/ (np.iinfo(codes.dtype).max * codes.shape[1])",
        (
            TRIAL_MEANS + "[1]",
            TRIAL_MEANS + "[9]",
        ),
    ),
    Mutant(
        "scorer: l1 summed in the code dtype",
        "metrics.py",
        "diff.sum(axis=1, dtype=np.int64)",
        "diff.sum(axis=1, dtype=codes.dtype)",
        (
            TRIAL_MEANS + "[8]",
            TRIAL_MEANS + "[16]",
        ),
    ),
    Mutant(
        "cli: an empty --p-list let through",
        "cli.py",
        "    if not items:\n",
        "    if False:\n",
        (
            CLI + "::TestCurve::test_p_list_without_levels_is_usage_error",
        ),
    ),
    Mutant(
        "cli: default beta set next to --tau-m",
        "cli.py",
        "        if beta is None and args.tau_m is None:\n",
        "        if True:\n",
        (
            CLI + "::TestEncode::test_tau_m_alone_sets_the_decay",
        ),
    ),
    Mutant(
        "cli: noise injected into an empty input",
        "cli.py",
        "out = signal if len(signal) == 0 else inject_noise(signal, cfg)",
        "out = signal if False else inject_noise(signal, cfg)",
        (
            CLI + "::TestNoise::test_empty_input_passes_through",
        ),
    ),
    Mutant(
        "cli: an empty manifest written as one LF",
        "cli.py",
        'if manifest else b""',
        'if True else b""',
        (
            CLI + "::TestEncode::test_empty_input_writes_an_empty_manifest",
        ),
    ),
    Mutant(
        "cli: a zero-width decode region let through",
        "cli.py",
        "    if args.w < 1 or args.h < 1:\n",
        "    if False:\n",
        (
            CLI + "::TestDecode::test_degenerate_or_outside_region_is_data_error[zero-width]",
        ),
    ),
    Mutant(
        "cli: a decode row outside the frame let through",
        "cli.py",
        "    if not (0 <= args.y and args.y + args.h <= g.height):\n",
        "    if False:\n",
        (
            CLI + "::TestDecode::test_degenerate_or_outside_region_is_data_error[y-past-height]",
            CLI + "::TestDecode::test_degenerate_or_outside_region_is_data_error[negative-y]",
        ),
    ),
    Mutant(
        "cli: two empty frame directories compared",
        "cli.py",
        "    if not a_files:\n",
        "    if False:\n",
        (
            CLI + "::TestCompare::test_two_empty_directories_are_data_error",
        ),
    ),
    Mutant(
        "cli: neuron flags used in plain mode",
        "cli.py",
        "    if mode is EncoderMode.SPIKE_TBR:\n",
        "    if True:\n",
        (
            CLI + "::TestEncode::test_neuron_flags_are_ignored_in_plain_mode",
        ),
    ),
    Mutant(
        "cli: --help exits 2",
        "cli.py",
        "        return exc.code\n",
        "        return 2\n",
        (
            CLI + "::TestUsage::test_help_exits_zero",
        ),
    ),
    Mutant(
        "encoder: micro steps in plain mode",
        "encoder.py",
        "    k = 1 if grid is None else cfg.micro_steps_per_slice\n",
        "    k = 1 if False else cfg.micro_steps_per_slice\n",
        (
            ENCODER + "::TestEncoderConfig::test_plain_mode_encodes_as_one_step_per_slice",
        ),
    ),
    # Equality: one helper compares every field of frames, streams and slice
    # stacks; each type's row mutates the same helper line and names that
    # type's test.
    Mutant(
        "equality: a frame compared field by field with any object",
        "events.py",
        "    if not isinstance(other, type(self)):\n",
        "    if False:\n",
        (
            ENCODER + "::TestEncodedFrame::test_unequal_to_other_types",
        ),
    ),
    Mutant(
        "equality: a stream compared field by field with any object",
        "events.py",
        "    if not isinstance(other, type(self)):\n",
        "    if False:\n",
        (
            EVENTS + "::TestEventStream::test_unequal_to_other_types",
        ),
    ),
    Mutant(
        "equality: a slice stack compared field by field with any object",
        "events.py",
        "    if not isinstance(other, type(self)):\n",
        "    if False:\n",
        (
            EVENTS + "::TestBinarySliceStack::test_unequal_to_other_types",
        ),
    ),
    Mutant(
        "equality: arrays compared by identity",
        "events.py",
        "np.array_equal(getattr(self, f.name), getattr(other, f.name))",
        "getattr(self, f.name) is getattr(other, f.name)",
        (
            ENCODER + "::TestEncodedFrame::test_equality_includes_window_start",
            EVENTS + "::TestEventStream::test_equality",
            EVENTS + "::test_equality_covers_every_field",
        ),
    ),
    Mutant(
        "equality: the last field skipped",
        "events.py",
        "for f in fields(self))",
        "for f in fields(self)[:-1])",
        (
            EVENTS + "::test_equality_covers_every_field[stream]",
            EVENTS + "::test_equality_covers_every_field[stack]",
            EVENTS + "::test_equality_covers_every_field[frame]",
        ),
    ),
    # Written membranes and passed grids.
    Mutant(
        "written membranes: no over-threshold candidates after a read of v",
        "neurons.py",
        "        if sparse and self._exposed:\n",
        "        if False:\n",
        (
            NEURONS + "::TestCandidateSet::test_membrane_written_over_threshold_fires_as_dense",
            ENCODER + "::TestSpikeWindowEncoding::test_carried_membrane_over_threshold_fires",
        ),
    ),
    Mutant(
        "passed grids: no grid-config check in the encoder core",
        "encoder.py",
        "    if grid is not None and grid.config != cfg.neuron:\n",
        "    if False:\n",
        (
            ENCODER + "::TestSpikeWindowEncoding::test_geometry_mismatch_rejected",
        ),
    ),
    # Spike frame.
    Mutant(
        "spike frame: skip clearing the previous spikers",
        "neurons.py",
        "        self._frame[prev] = False\n",
        "",
        (
            NEURONS + "::TestSpikeFrame::test_frame_holds_only_the_last_steps_spikers",
            ENCODER + "::TestEncodeStream::test_spike_mode_advances_the_grid_through_step",
            NEURONS + "::TestSparseStepInput::test_sparse_matches_dense_bincount",
        ),
    ),
    # Recording overlay.
    Mutant(
        "recording overlay: mask after the add",
        "noise.py",
        "np.nonzero(noise_t <= sig_end - offsets[:, None])",
        "np.nonzero(offsets[:, None] + noise_t <= sig_end)",
        (
            NOISE + "::TestMergeNoiseRecording::test_last_copy_tail_past_int64_is_dropped_not_wrapped",
        ),
    ),
    # Scene edges.
    Mutant(
        "scene edges: swap the sweep's planes",
        "synth.py",
        "        edges[0, rows, (x0 + size - 1) % w] = True\n        edges[1, rows, x0 % w] = True\n",
        "        edges[1, rows, (x0 + size - 1) % w] = True\n        edges[0, rows, x0 % w] = True\n",
        (
            EDGES,
            SYNTH + "::TestMovingBar::test_events_only_on_edge_columns",
            GOLDEN + "[binary-generate]",
        ),
    ),
    Mutant(
        "scene edges: drop the static dot's bottom row",
        "synth.py",
        "        outline[[0, -1], :] = True\n",
        "        outline[[0], :] = True\n",
        (
            EDGES,
            GOLDEN + "[binary-generate_static_dot]",
        ),
    ),
    Mutant(
        "scene edges: shift the grid's perimeter test by one",
        "synth.py",
        "        x_hi = np.minimum(x_lo + size, w) - 1\n",
        "        x_hi = np.minimum(x_lo + size, w) - 2\n",
        (
            EDGES,
            SYNTH + "::TestBlinkingGrid::test_events_on_cell_perimeters_only",
        ),
    ),
    # The event budget, shared by scenes, recording overlays and noise draws.
    Mutant(
        "scene limit: reject a scene that holds exactly the limit",
        "events.py",
        "    if _EVENT_BYTES * events > MAX_FRAME_BYTES:\n",
        "    if _EVENT_BYTES * events >= MAX_FRAME_BYTES:\n",
        (
            EVENTS + "::TestEventBudget::test_limit_counts_17_bytes_an_event",
            SYNTH + "::TestGenerateBasics::test_event_bytes_past_the_limit_are_rejected",
            NOISE + "::TestMergeNoiseRecording::test_byte_limit_counts_17_bytes_per_tiled_event",
            NOISE + "::TestInjectNoiseLevels::test_event_bytes_past_the_limit_are_rejected",
        ),
    ),
    Mutant(
        "event budget: noise draws not counted",
        "noise.py",
        '            _check_event_budget(events, f"noise slice {s} brings the stream to")\n',
        "",
        (
            NOISE + "::TestInjectNoiseLevels::test_event_bytes_past_the_limit_are_rejected",
            CLI + "::TestNoise::test_noise_past_the_byte_limit_is_data_error",
        ),
    ),
    # Statements that no test pinned: each deleted.
    Mutant(
        "lazy leak: gaps not capped before their exponent",
        "neurons.py",
        "        gaps = np.minimum(gaps, _GAP_CAP)\n",
        "",
        (
            NEURONS + "::TestLazyLeak::test_gaps_are_capped_before_their_exponent_is_taken",
        ),
    ),
    Mutant(
        "decay: the dense leak's decay_only returns None",
        "neurons.py",
        "            self._leak()\n        return self\n",
        "            self._leak()\n",
        (
            NEURONS + "::TestDecay::test_single_step",
        ),
    ),
    Mutant(
        "encoder: a numpy window count kept",
        "encoder.py",
        "    n_windows = int(n_windows)\n",
        "",
        (
            ENCODER + "::TestEncodeStream::test_numpy_window_count_is_checked_as_a_python_int",
        ),
    ),
    Mutant(
        "encoder: a passed grid kept in plain mode",
        "encoder.py",
        "        grid = None\n",
        "        pass\n",
        (
            ENCODER + "::TestEncoderConfig::test_plain_mode_ignores_a_passed_grid",
        ),
    ),
    Mutant(
        "cli: noise prints no summary",
        "cli.py",
        "    print(stream_info(out).summary())\n",
        "",
        (
            CLI + "::TestNoise::test_prints_the_output_summary",
        ),
    ),
    Mutant(
        "frame read: a str path not made a Path",
        "io.py",
        "    path = Path(path)\n    data = path.read_bytes()\n",
        "    data = path.read_bytes()\n",
        (
            IO + "::TestFrameRead::test_reads_a_str_path",
        ),
    ),
    # Event formats: anything but a member or its value is rejected.
    Mutant(
        "cli: no format for a binary-v1 path",
        "cli.py",
        "    return EventFileFormat.BINARY_V1\n",
        "    pass\n",
        (
            CLI + "::TestEncode::test_frames_and_manifest",
        ),
    ),
    Mutant(
        "event write: an unknown format written as binary-v1",
        "io.py",
        "    csv = EventFileFormat(fmt) is EventFileFormat.TEXT_CSV\n",
        "    csv = fmt is EventFileFormat.TEXT_CSV\n",
        (
            IO + "::TestEventFormats::test_value_selects_its_format",
            IO + "::TestEventFormats::test_unknown_format_written_nowhere",
        ),
    ),
    Mutant(
        "event read: an unknown format read as binary-v1",
        "io.py",
        "    fmt = EventFileFormat(fmt)\n",
        "",
        (
            IO + "::TestEventFormats::test_value_selects_its_format",
            IO + "::TestEventFormats::test_unknown_format_not_read",
        ),
    ),
    # Comparisons and limits that no test pinned: each flipped or moved.
    Mutant(
        "written membranes: one written at exactly v_th not scanned",
        "neurons.py",
        "np.concatenate((candidates, np.flatnonzero(v >= cfg.v_th)))",
        "np.concatenate((candidates, np.flatnonzero(v > cfg.v_th)))",
        (
            NEURONS + "::TestCandidateSet::test_membrane_written_at_threshold_fires_as_dense",
        ),
    ),
    Mutant(
        "lazy leak: gaps capped below the steps to zero",
        "neurons.py",
        "_GAP_CAP = 2045 + _ZERO_AFTER\n",
        "_GAP_CAP = 2045 - _ZERO_AFTER\n",
        (
            NEURONS + "::TestLazyLeak::test_largest_membrane_idles_to_zero_within_the_gap_cap",
        ),
    ),
    Mutant(
        "lazy leak: the clock restarts past int32",
        "neurons.py",
        "_CLOCK_LIMIT = 2**31 - 1 - _GAP_CAP\n",
        "_CLOCK_LIMIT = 2**32 - 1 - _GAP_CAP\n",
        (
            NEURONS + "::TestLazyLeak::test_clock_never_passes_int32",
        ),
    ),
    Mutant(
        "encoder: a window ending at INT64_MAX rejected",
        "encoder.py",
        "start + n_windows * duration > INT64_MAX",
        "start + n_windows * duration >= INT64_MAX",
        (
            ENCODER + "::TestEncodeStream::test_window_ending_at_int64_max_is_encoded",
        ),
    ),
    Mutant(
        "encoder: a block of exactly the byte limit rejected",
        "encoder.py",
        "    if nbytes > MAX_FRAME_BYTES:\n",
        "    if nbytes >= MAX_FRAME_BYTES:\n",
        (
            ENCODER + "::TestEncodeStream::test_block_of_exactly_the_byte_limit_is_encoded",
        ),
    ),
    Mutant(
        "geometry: a sensor one pixel wide rejected",
        "events.py",
        "if self.width < 1 or",
        "if self.width <= 1 or",
        (
            EVENTS + "::TestGeometry::test_one_pixel_wide_or_high_accepted",
        ),
    ),
    Mutant(
        "slicing: one slice a window rejected",
        "events.py",
        "if not 1 <= self.bits_per_frame <= 32:",
        "if not 1 < self.bits_per_frame <= 32:",
        (
            EVENTS + "::TestSlicingConfig::test_window_duration",
        ),
    ),
    Mutant(
        "slicing: 32 slices a window rejected",
        "events.py",
        "if not 1 <= self.bits_per_frame <= 32:",
        "if not 1 <= self.bits_per_frame < 32:",
        (
            EVENTS + "::TestSlicingConfig::test_window_duration",
        ),
    ),
    Mutant(
        "slicing: a window of exactly INT64_MAX rejected",
        "events.py",
        "self.bits_per_frame * self.slice_duration > INT64_MAX",
        "self.bits_per_frame * self.slice_duration >= INT64_MAX",
        (
            EVENTS + "::TestSlicingConfig::test_window_duration",
        ),
    ),
    Mutant(
        "event faults: equal timestamps out of order",
        "events.py",
        "order[1:] = t[1:] < t[:-1]",
        "order[1:] = t[1:] <= t[:-1]",
        (
            EVENTS + "::TestValidateStream::test_clean",
        ),
    ),
    Mutant(
        "event faults: y equal to the height in bounds",
        "events.py",
        "(y >= geometry.height)",
        "(y > geometry.height)",
        (
            EVENTS + "::TestValidateStream::test_out_of_bounds_y_equal_height",
        ),
    ),
    Mutant(
        "event faults: t = 0 negative",
        "events.py",
        '"negative_t": t < 0,',
        '"negative_t": t <= 0,',
        (
            EVENTS + "::TestValidateStream::test_timestamps_from_0_to_int64_max_are_in_range",
        ),
    ),
    Mutant(
        "event faults: t = INT64_MAX too large",
        "events.py",
        '"large_t": t > INT64_MAX,',
        '"large_t": t >= INT64_MAX,',
        (
            EVENTS + "::TestValidateStream::test_timestamps_from_0_to_int64_max_are_in_range",
        ),
    ),
    Mutant(
        "slicing: a window ending at INT64_MAX rejected",
        "events.py",
        "if window_end > INT64_MAX:",
        "if window_end >= INT64_MAX:",
        (
            EVENTS + "::TestSliceStream::test_window_ending_at_int64_max",
        ),
    ),
    Mutant(
        "binary write: x = 65535 rejected",
        "io.py",
        "int(stream.x.max()) > _U16_MAX",
        "int(stream.x.max()) >= _U16_MAX",
        (
            IO + "::TestBinaryWrite::test_coordinates_at_u16_max_round_trip[x]",
        ),
    ),
    Mutant(
        "binary write: y = 65535 rejected",
        "io.py",
        "int(stream.y.max()) > _U16_MAX",
        "int(stream.y.max()) >= _U16_MAX",
        (
            IO + "::TestBinaryWrite::test_coordinates_at_u16_max_round_trip[y]",
        ),
    ),
    Mutant(
        "curve: level 1.0 rejected",
        "metrics.py",
        "        if not 0.0 <= p <= 1.0:\n",
        "        if not 0.0 <= p < 1.0:\n",
        (
            CURVE + "::test_level_one_fires_every_pixel",
        ),
    ),
    Mutant(
        "neuron config: tau_m = 1 passed on to the beta check",
        "neurons.py",
        "            if tau_m <= 1.0:\n",
        "            if tau_m < 1.0:\n",
        (
            NEURONS + "::TestNeuronConfig::test_tau_must_exceed_one_step",
        ),
    ),
    Mutant(
        "recording overlay: copies end before the signal's last event",
        "noise.py",
        "np.nonzero(noise_t <= sig_end - offsets[:, None])",
        "np.nonzero(noise_t < sig_end - offsets[:, None])",
        (
            NOISE + "::TestMergeNoiseRecording::test_copies_end_at_the_signals_last_event",
        ),
    ),
]

# Name -> why the mutant's code is gone.
RETIRED: dict[str, str] = {
    "CSV: drop the blank-line condition": (
        "condition deleted: the structural compare of the CSV fast path rejects a blank line "
        "(row 'CSV: drop the structural compare')"
    ),
    "CSV: drop the column-count condition": (
        "condition deleted: the structural compare of the CSV fast path rejects any line "
        "without exactly four fields (row 'CSV: drop the structural compare')"
    ),
    "cli.py: `isinstance(exc.code, int)` forced True": (
        "branch deleted: argparse exits only with an integer status, 0 after --help and 2 on "
        "a usage error"
    ),
    "events.py: `self.slices.dtype != np.bool_` forced True": (
        "branch deleted: astype(bool, copy=False) leaves a bool stack as it is"
    ),
    "events.py: `hi > lo` forced True": (
        "branch deleted: a window without events gives empty index arrays, and the assignment "
        "writes nothing"
    ),
    "noise.py: `width > _U32_SPAN` forced False": (
        "branch deleted: (2^32 - width) % width is 2^32 for every width over 2^32, so the "
        "Lemire check rejects every draw and each such slice is drawn again anyway"
    ),
    "noise.py: `width > _U32_SPAN` forced True": (
        "branch deleted: every slice over 2^32 wide is drawn again, as the rejection check "
        "already asks"
    ),
    "synth.py: `total == 0` forced False": (
        "branch deleted: a slice without events makes size-0 draws, which take no generator "
        "state, and adds an empty part to the merge"
    ),
    "metrics.py robustness_curve: `del noisy, frames, dists` deleted": (
        "statement deleted: the curve binds no level's stream, frames or codes; row 'curve: a "
        "level's stream held while the next is merged' plants the same fault, and the release "
        "test kills it"
    ),
}

# Name -> why the mutant changes no output; neither the gate nor
# mutation_survey.py (under the names it prints) runs these. The survey's
# entries force a branch, delete a statement or flip a comparison where
# either side gives the same output, and at most the work differs.
EQUIVALENT: dict[str, str] = {
    "io.py: `table is None` forced True": (
        "every CSV body then takes the line loop, which parses a clean body to the same "
        "columns (TestCsvFastPath::test_matches_the_line_loop)"
    ),
    "neurons.py: `self._shift is not None` forced True": (
        "a grid that never leaks lazily then holds a _last array that only reset writes; "
        "its clock never moves, so no step reads it"
    ),
    "neurons.py: `not sparse` forced False": (
        "a non-sparse step then scatter-adds its events into zeroed scratch in event order, "
        "the sums bincount builds, so v matches up to the sign of an untouched zero"
    ),
    "neurons.py: `sparse` forced False": (
        "every step then tests all neurons; one outside a sparse step's candidates was below "
        "v_th at its last update and the leak never raises it, so the same neurons fire"
    ),
    "neurons.py: `cfg.v_rest == 0.0` forced False": (
        "the general leak subtracts and adds v_rest = 0.0, which only turns -0.0 into +0.0; "
        "no spike, code or frame depends on the sign of a zero"
    ),
    "neurons.py NeuronGrid.step: `self._exposed = False` deleted": (
        "every later sparse step then also scans all membranes for ones at or above v_th; "
        "past the first step after a read of v those are only the last step's lrlif "
        "spikers, which are candidates already, so the same neurons fire"
    ),
    "neurons.py NeuronGrid._decayed: `low &= v != 0.0` deleted": (
        "zero membranes then also take the subnormal chain, which leaves a signed zero as "
        "it is; the mask keeps them out of the per-step loop on hd-sparse"
    ),
    "neurons.py NeuronGrid._decayed: `return v` deleted": (
        "at beta = 1, ldexp by 0 and the subnormal chain's multiplies by 1 leave v as it is; "
        "the early return also keeps the chain from dividing by m = 0 on a subnormal membrane"
    ),
    "neurons.py NeuronGrid.reset: `self._synced = self._clock` deleted": (
        "the next sync then catches every membrane up from the clock value reset wrote to "
        "_last, which leaves the rest potential as it is"
    ),
    "neurons.py: `m == 0` forced False": (
        "at beta = 1, ldexp by 0 and the subnormal chain's multiplies by 1 leave v as it is"
    ),
    "noise.py: `max(seed, tag, block[-1]) > _MASK32` forced True": (
        "every slice then builds default_rng([seed, tag, s]), the generator the hashed seed "
        "words rebuild, so the draws are the same"
    ),
    "noise.py: `drawn >= _BLOCK_PIXELS` forced True": (
        "each firing slice then closes its own block; blocks still partition time, and "
        "TestBlockMerge checks any block size against one whole-stream merge"
    ),
    'block merge: find a block\'s end with searchsorted(end, side="right")': (
        "a signal event at t == end sorts after the block's noise (all t < end) and before "
        "any later block's noise (all t >= end) in either block, signal first on ties; "
        "TestBlockMerge passed 5000 examples on it"
    ),
    "events.py: `len(a) > 1` flipped to `len(a) >= 1`": (
        "a one-element array is then masked by [True], which keeps it as it is"
    ),
    "io.py: `np.iinfo(codes.dtype).max > maxval` flipped to `np.iinfo(codes.dtype).max >= maxval`": (
        "codes whose dtype tops out at maxval (uint8 at N = 8) are then scanned too, and none "
        "can exceed it; only the scan's work changes"
    ),
    "io.py: `stream.p > 0` flipped to `stream.p >= 0`": (
        "p is -1 or 1 in every stream the readers, synth and noise make (the readers reject "
        "any other polarity), so both count the same events"
    ),
    "neurons.py: `np.asarray(p) > 0` flipped to `np.asarray(p) >= 0`": (
        "p is -1 or 1 in every stream the readers, synth and noise make (the readers reject "
        "any other polarity), so both give each event the same weight"
    ),
    "neurons.py: `16 * len(pixels) < v.size` flipped to `16 * len(pixels) <= v.size`": (
        "a tuning threshold: a step of exactly one event per 16 pixels is then sparse, too "
        "dense to leak lazily; it adds the sums bincount builds (as `not sparse` forced "
        "False) and fires the neurons a full scan finds (as `sparse` forced False)"
    ),
    "neurons.py: `self._clock >= _CLOCK_LIMIT` flipped to `self._clock > _CLOCK_LIMIT`": (
        "a clock at exactly _CLOCK_LIMIT then moves at most _GAP_CAP more, to 2^31 - 1, which "
        "int32 holds, and restarts on the next tick; a restart changes no membrane "
        "(TestLazyLeak's restarting-clock case)"
    ),
    "neurons.py: `np.abs(out) < _SMALLEST_NORMAL` flipped to `np.abs(out) <= _SMALLEST_NORMAL`": (
        "ldexp is exact down to 2^-1022, so a result of exactly 2^-1022 in magnitude comes "
        "from a power of two whose steps all stay normal; the subnormal chain then takes them "
        "as one exact ldexp too"
    ),
    "noise.py: `max(seed, tag, block[-1]) > _MASK32` flipped to `max(seed, tag, block[-1]) >= _MASK32`": (
        "a key of exactly 2^32 - 1 then builds default_rng([seed, tag, s]) itself, the "
        "generator the hashed seed words rebuild (as `max(seed, tag, block[-1]) > _MASK32` "
        "forced True)"
    ),
    "noise.py: `stream.t[1:] < stream.t[:-1]` flipped to `stream.t[1:] <= stream.t[:-1]`": (
        "a sorted signal with equal timestamps is then stable-sorted too, which keeps its "
        "order; only the sort's work changes"
    ),
    "noise.py: `u < p` flipped to `u <= p`": (
        "a pixel whose uniform equals the highest level is then drawn, but a level keeps only "
        'uniforms below it (the rank\'s searchsorted side="right"), so no level keeps it; its '
        "slice's own generator draws words no decode reads, and the event budget counts one "
        "more event"
    ),
    "noise.py: `dt > 1` flipped to `dt >= 1`": (
        "a 1 us slice then draws timestamp words that the decode never reads (it reads them "
        "only for width > 1) from the slice's own generator, so no other draw moves"
    ),
    "noise.py: `drawn >= _BLOCK_PIXELS` flipped to `drawn > _BLOCK_PIXELS`": (
        "a block of exactly _BLOCK_PIXELS pixels then closes one firing slice later; blocks "
        "still partition time, and TestBlockMerge checks any block size against one "
        "whole-stream merge"
    ),
    "noise.py: `starts + width > end` flipped to `starts + width >= end`": (
        "a slice that ends exactly at the span's end is then drawn again through its own "
        "generator at the same width, and Generator.integers gives the events the decode read"
    ),
    "noise.py: `m.astype(np.uint32) < (_U32_SPAN - width) % width` flipped to `m.astype(np.uint32) <= (_U32_SPAN - width) % width`": (
        "a timestamp draw whose low word equals Lemire's threshold is then drawn again "
        "through its slice's own generator, which reproduces Generator.integers exactly; only "
        "work changes"
    ),
}
