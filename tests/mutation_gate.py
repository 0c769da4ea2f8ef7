"""Mutation gate: every planted bug in ``mutants.py`` must fail its tests.

Usage: ``python tests/mutation_gate.py``.

For each mutant the gate copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` into a fresh temporary directory (the tests find
``src/`` and ``perfbench/`` next to themselves, and a child process they
start must import the mutated copy too), replaces the mutant's old text,
which must occur exactly once, and runs the mutant's tests on that copy in
a pytest subprocess with a fixed hypothesis seed and no cache. A mutant is
killed when every test it names fails. At most two mutants run at once.

Exit status 0 when every mutant is killed, 1 when one survives, its old
text is not found exactly once, or a named test is not collected.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from mutants import EQUIVALENT, MUTANTS, RETIRED, Mutant

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench")
WORKERS = 2


def run_mutant(mutant: Mutant) -> tuple[bool, str]:
    """(killed, detail) of one mutant, run on a mutated copy of the repository."""
    start = time.perf_counter()
    killed, detail = _run(mutant)
    return killed, f"{detail} ({time.perf_counter() - start:.1f} s)"


def copy_repository(dest: Path) -> None:
    """Copy what the tests need (:data:`COPIED` and ``pyproject.toml``) into ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_pytest(copy: Path, *args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """pytest on a copy, importing its ``src/``, with a fixed hypothesis seed and no cache."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--hypothesis-seed=0", "-p", "no:cacheprovider", *args],
        cwd=copy,
        env={**os.environ, "PYTHONPATH": str(copy / "src")},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _run(mutant: Mutant) -> tuple[bool, str]:
    with tempfile.TemporaryDirectory(prefix="evtbr-mutant-") as tmp:
        copy = Path(tmp)
        copy_repository(copy)
        path = copy / "src" / "evtbr" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return False, f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        proc = run_pytest(copy, "-rA", *mutant.tests)
    if proc.returncode not in (0, 1):
        return False, f"pytest exited {proc.returncode}: {proc.stdout[-500:]}{proc.stderr[-500:]}"
    return verdict(mutant.tests, proc.stdout)


def verdict(tests: tuple[str, ...], report: str) -> tuple[bool, str]:
    """(killed, detail) from the ``-rA`` report of a mutant's tests."""
    # One "OUTCOME node-id" line per test, " - message" after a failure. A
    # parametrize id may hold spaces, so what follows the outcome is kept whole.
    outcomes = [
        line.partition(" ")[::2]
        for line in report.splitlines()
        if line.startswith(("PASSED ", "FAILED ", "ERROR "))
    ]
    failed = {node for outcome, node in outcomes if outcome in ("FAILED", "ERROR")}
    passed = {node for outcome, node in outcomes if outcome == "PASSED"}
    survivors = [test for test in tests if not _covers(test, failed)]
    unrun = [test for test in survivors if not _covers(test, passed)]
    if unrun:
        return False, f"not collected: {', '.join(unrun)}"
    if survivors:
        return False, f"passed: {', '.join(survivors)}"
    return True, f"{len(failed)} tests failed"


def _covers(test: str, nodes: set[str]) -> bool:
    """Whether ``nodes`` report the test id itself or one of its parametrized cases."""
    return any(node == test or node.startswith((test + " - ", test + "[")) for node in nodes)


def main() -> int:
    start = time.perf_counter()
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(run_mutant, MUTANTS))
    for mutant, (killed, detail) in zip(MUTANTS, results):
        print(f"{'killed ' if killed else 'SURVIVED'} {mutant.name}: {detail}")
    for name, reason in RETIRED.items():
        print(f"retired  {name}: {reason}")
    for name, reason in EQUIVALENT.items():
        print(f"equivalent {name}: {reason}")
    survived = sum(not killed for killed, _ in results)
    print(
        f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed, {len(RETIRED)} retired, "
        f"in {time.perf_counter() - start:.0f} s"
    )
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
