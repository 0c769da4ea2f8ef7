import os
from pathlib import Path

import pytest
from hypothesis import settings

import evtbr

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def pytest_configure(config):
    config._gate_lines = []
    # CLI tests run ``python -m evtbr.cli`` in a child process; it must import
    # the evtbr under test, whether installed or found through sys.path.
    package_root = str(Path(evtbr.__file__).resolve().parents[1])
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )


@pytest.fixture
def gate(request):
    """Recorder for acceptance-gate verdict lines.

    Lines surface in a terminal section after the run, outside pytest's
    output capture, so every criterion leaves exactly one visible line. A
    test that stops before reporting is flagged as such.
    """
    state = {"emitted": False}

    def emit(criterion: int, passed: bool, detail: str) -> None:
        state["emitted"] = True
        line = f"[{'PASS' if passed else 'FAIL'}] acceptance {criterion:02d}: {detail}"
        request.config._gate_lines.append(line)
        print(line)

    yield emit
    if not state["emitted"]:
        request.config._gate_lines.append(
            f"[FAIL] acceptance: {request.node.name} stopped before reporting"
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_gate_lines", [])
    if lines:
        terminalreporter.section("acceptance gate")
        for line in lines:
            terminalreporter.write_line(line)
