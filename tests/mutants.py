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
    # CSV reader.
    Mutant(
        "CSV: drop the blank-line condition",
        "io.py",
        ' or b"\\n\\n" in body:\n',
        ":\n",
        (
            IO + "::TestCsvFastPath::test_matches_the_line_loop",
            IO + "::TestCsvFastPath::test_near_misses_take_the_line_loop",
        ),
    ),
    Mutant(
        "CSV: drop the column-count condition",
        "io.py",
        "    return table if table.shape[1] == 4 else None\n",
        "    return table\n",
        (
            IO + "::TestCsvFastPath::test_matches_the_line_loop",
            IO + "::TestCsvFastPath::test_near_misses_take_the_line_loop",
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
    # Scene byte limit.
    Mutant(
        "scene limit: reject a scene that holds exactly the limit",
        "synth.py",
        "        if 17 * events > MAX_FRAME_BYTES:\n",
        "        if 17 * events >= MAX_FRAME_BYTES:\n",
        (
            SYNTH + "::TestGenerateBasics::test_event_bytes_past_the_limit_are_rejected",
        ),
    ),
]

# Name -> why the mutant's code is gone.
RETIRED: dict[str, str] = {}

# Name -> why the mutant changes no output; the gate does not run these.
EQUIVALENT: dict[str, str] = {
    'block merge: find a block\'s end with searchsorted(end, side="right")': (
        "a signal event at t == end sorts after the block's noise (all t < end) and before "
        "any later block's noise (all t >= end) in either block, signal first on ties; "
        "TestBlockMerge passed 5000 examples on it"
    ),
}
