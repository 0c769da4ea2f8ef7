"""The mutation gate's table stays current with the code it mutates.

The gate itself (``python tests/mutation_gate.py``) runs each mutant's
tests and is not part of this suite; this only checks that every row still
applies: its old text occurs exactly once and its tests exist, and that
every ``EQUIVALENT`` entry under a survey name is one the survey still makes.
"""

import ast
import re
from pathlib import Path

import pytest
from mutants import EQUIVALENT, MUTANTS, RETIRED
from mutation_gate import verdict
from mutation_survey import SRC, branch_mutants, comparison_mutants, statement_mutants

ROOT = Path(__file__).resolve().parents[1]


def test_names_are_unique_and_not_retired():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    assert not set(names) & (set(RETIRED) | set(EQUIVALENT))
    assert all(reason.strip() for reason in [*RETIRED.values(), *EQUIVALENT.values()])


def test_survey_entries_name_mutants_the_survey_still_makes():
    # An entry whose code is gone skips nothing: it moves to RETIRED.
    modes = (branch_mutants, statement_mutants, comparison_mutants)
    made = {m.name for path in SRC.glob("*.py") for mode in modes for m in mode(path.name)}
    survey = {name for name in EQUIVALENT if re.match(r"\w+\.py[: ]", name)}
    assert survey
    assert survey - made == set()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once_and_tests_exist(mutant):
    text = (ROOT / "src" / "evtbr" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("[")[0].split("::")
        assert (ROOT / path).is_file(), test
        # Each class or function on the node id is defined in its file.
        defined = {
            node.name
            for node in ast.walk(ast.parse((ROOT / path).read_text()))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
        assert set(names) <= defined, test


def test_gate_reads_ids_that_hold_spaces():
    test = "tests/test_events.py::test_equality_covers_every_field"
    report = f"FAILED {test}[slice stack] - AssertionError: assert False\nPASSED {test}[frame]\n"
    assert verdict((f"{test}[slice stack]",), report) == (True, "1 tests failed")
    assert verdict((test,), report) == (True, "1 tests failed")
    assert verdict((f"{test}[frame]",), report) == (False, f"passed: {test}[frame]")
    assert verdict((f"{test}[slice]",), report) == (False, f"not collected: {test}[slice]")
