"""Mutation survey of ``src/evtbr``: forced branches, deleted statements, flipped comparisons.

Usage: ``python tests/mutation_survey.py [--statements | --comparisons] [module.py ...]``
(default: every module that has a ``tests/test_<module>.py``).

Three modes, each listing its survivors:

- branch forcing (the default): every ``if`` statement and conditional
  expression whose test sits on one line yields two mutants, the test
  replaced by ``False`` and by ``True``;
- statement deletion (``--statements``): every statement on one line in a
  function body, docstrings aside, yields one mutant, the statement
  replaced by ``pass``;
- comparison flips (``--comparisons``): every ``<``, ``<=``, ``>`` and
  ``>=`` of a comparison on one line yields one mutant, the operator
  replaced by its strict or non-strict partner (``<`` and ``<=``, ``>``
  and ``>=``).

Each mutant is applied to its own copy of the
repository, made as ``mutation_gate.py`` makes one, and its module's test
file runs on it with ``-x``. A mutant survives when that file passes. The
copy must include ``perfbench/``: without it
``test_exports.py::test_perfbench_spans_find_every_traced_name`` fails on
every mutant and no survivor shows. Each module's test file first runs
once unmutated (it must pass), and a mutant's run that takes more than
:data:`TIMEOUT_FACTOR` times that long (at least :data:`MIN_TIMEOUT_S`)
counts as killed, as does one whose writes pass the gate's file-size limit.

Survivors are triaged by hand: a new test, whose mutant then joins
``mutants.MUTANTS``, or an entry in ``mutants.EQUIVALENT`` under the name
printed here, with the reason; the survey skips those entries. A survivor
of the module's file may still be killed by another test file; run the
whole suite on it before writing a test.

The survey is not part of ``pytest``. Full runs took 811 s for 314 branch
mutants, 1385 s for 656 statement mutants and 158 s for 92 comparison
mutants on two cores, two at a time.

Exit status 0 when no untriaged mutant survives, 1 otherwise.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

from mutants import EQUIVALENT
from mutation_gate import ROOT, WORKERS, copy_repository, run_pytest

SRC = ROOT / "src" / "evtbr"
# A mutant that makes its module's test file run far longer than unmutated (a
# noise span of days, or a write loop that never ends) is killed for it.
TIMEOUT_FACTOR = 5
MIN_TIMEOUT_S = 30.0
# Each ordering operator and its strict or non-strict partner.
_FLIPPED = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}


class LineMutant(NamedTuple):
    name: str
    file: str
    lineno: int  # 1-based
    line: str  # the mutated line, without its newline


def branch_mutants(file: str) -> list[LineMutant]:
    """Both forced values of each one-line ``if`` and conditional-expression test."""
    text = (SRC / file).read_text()
    lines = text.splitlines()
    tests = [
        node.test
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.If, ast.IfExp)) and node.test.lineno == node.test.end_lineno
    ]
    seen = Counter()
    mutants = []
    for test in sorted(tests, key=lambda t: (t.lineno, t.col_offset)):
        line = lines[test.lineno - 1]
        lo, hi = test.col_offset, test.end_col_offset  # UTF-8 byte offsets; src is ASCII
        for forced in ("False", "True"):
            name = f"{file}: `{line[lo:hi]}` forced {forced}"
            seen[name] += 1
            if seen[name] > 1:
                name += f" #{seen[name]}"
            mutants.append(LineMutant(name, file, test.lineno, line[:lo] + forced + line[hi:]))
    return mutants


def statement_mutants(file: str) -> list[LineMutant]:
    """Each one-line statement in a function body, docstrings aside, replaced by ``pass``."""
    text = (SRC / file).read_text()
    lines = text.splitlines()
    found = []  # (enclosing function's qualified name, statement)

    def visit(node: ast.AST, scope: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}{child.name}.", isinstance(child, ast.FunctionDef))
                continue
            docstring = isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
            if (
                in_function
                and isinstance(child, ast.stmt)
                and child.lineno == child.end_lineno
                and not isinstance(child, ast.Pass)
                and not docstring
            ):
                found.append((scope[:-1], child))
            visit(child, scope, in_function)

    visit(ast.parse(text), "", False)
    seen = Counter()
    mutants = []
    for scope, stmt in sorted(found, key=lambda f: (f[1].lineno, f[1].col_offset)):
        line = lines[stmt.lineno - 1]
        lo, hi = stmt.col_offset, stmt.end_col_offset
        name = f"{file} {scope}: `{line[lo:hi]}` deleted"
        seen[name] += 1
        if seen[name] > 1:
            name += f" #{seen[name]}"
        mutants.append(LineMutant(name, file, stmt.lineno, line[:lo] + "pass" + line[hi:]))
    return mutants


def comparison_mutants(file: str) -> list[LineMutant]:
    """Each ``<``, ``<=``, ``>`` and ``>=`` of a one-line comparison flipped to its partner."""
    text = (SRC / file).read_text()
    lines = text.splitlines()
    compares = [
        node
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Compare) and node.lineno == node.end_lineno
    ]
    seen = Counter()
    mutants = []
    for node in sorted(compares, key=lambda n: (n.lineno, n.col_offset)):
        line = lines[node.lineno - 1]
        lo, hi = node.col_offset, node.end_col_offset
        operands = [node.left, *node.comparators]
        for left, right in zip(operands, operands[1:]):
            # Between two operands sit only brackets, spaces and the operator.
            op = re.search(r"[<>]=?", line[left.end_col_offset : right.col_offset])
            if op is None:  # ==, !=, in, is
                continue
            at = left.end_col_offset + op.start()
            mutated = line[:at] + _FLIPPED[op[0]] + line[at + len(op[0]) :]
            name = f"{file}: `{line[lo:hi]}` flipped to `{mutated[lo : hi + len(mutated) - len(line)]}`"
            seen[name] += 1
            if seen[name] > 1:
                name += f" #{seen[name]}"
            mutants.append(LineMutant(name, file, node.lineno, mutated))
    return mutants


def module_tests(file: str) -> str:
    """The test file of a module under ``src/evtbr``."""
    return f"tests/test_{Path(file).stem}.py"


def time_limit(file: str) -> float:
    """A mutant's time limit in ``file``, from one unmutated run of its test file."""
    with tempfile.TemporaryDirectory(prefix="evtbr-survey-") as tmp:
        copy_repository(Path(tmp))
        start = time.perf_counter()
        proc = run_pytest(Path(tmp), "-x", module_tests(file))
        took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{module_tests(file)} fails unmutated: {proc.stdout[-500:]}")
    return max(MIN_TIMEOUT_S, TIMEOUT_FACTOR * took)


def run(mutant: LineMutant, timeout: float) -> tuple[bool, str]:
    """(killed, detail) of one mutant against its module's test file."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="evtbr-survey-") as tmp:
        copy = Path(tmp)
        copy_repository(copy)
        path = copy / "src" / "evtbr" / mutant.file
        lines = path.read_text().splitlines(keepends=True)
        lines[mutant.lineno - 1] = mutant.line + "\n"
        path.write_text("".join(lines))
        try:
            proc = run_pytest(copy, "-x", module_tests(mutant.file), timeout=timeout)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {timeout:.0f} s"
    return proc.returncode != 0, f"pytest exited {proc.returncode} ({time.perf_counter() - start:.1f} s)"


def main(args: list[str]) -> int:
    start = time.perf_counter()
    modes = {"--statements": ("statement", statement_mutants), "--comparisons": ("comparison", comparison_mutants)}
    kind, make = next((modes[a] for a in args if a in modes), ("branch", branch_mutants))
    files = [a for a in args if a not in modes]
    files = files or sorted(p.name for p in SRC.glob("*.py") if (ROOT / "tests" / f"test_{p.stem}.py").is_file())
    generated = [m for file in files for m in make(file)]
    mutants = [m for m in generated if m.name not in EQUIVALENT]
    survivors = []
    with ThreadPoolExecutor(WORKERS) as pool:
        limits = dict(zip(files, pool.map(time_limit, files)))
        results = pool.map(lambda m: run(m, limits[m.file]), mutants)
        for mutant, (killed, detail) in zip(mutants, results):
            print(f"{'killed ' if killed else 'SURVIVED'} {mutant.name} (line {mutant.lineno}): {detail}", flush=True)
            if not killed:
                survivors.append(mutant)
    print(
        f"{len(mutants) - len(survivors)} of {len(mutants)} {kind} mutants killed in {', '.join(files)}, "
        f"{len(generated) - len(mutants)} skipped as equivalent, in {time.perf_counter() - start:.0f} s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
