"""Shared pytest wiring: fail a test that leaves a worker process running,
and print one PASS/FAIL line per acceptance criterion."""

import multiprocessing
import re

import pytest

_ACCEPTANCE_RESULTS: dict[int, str] = {}

_DESCRIPTIONS = {
    1: "closed-form suite",
    2: "purity suite",
    3: "success probabilities",
    4: "tunnel-rate roundtrip",
    5: "steering scan",
    6: "entanglement",
    7: "oracle equivalence",
    8: "determinism",
    9: "end-to-end figure suite",
}


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Every worker process a test starts must be gone when it ends; any
    left over are stopped here, so the failure shows in that test alone."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join(timeout=10)
    assert not left, f"worker processes left running: {left}"


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "call":
        _ACCEPTANCE_RESULTS[n] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and (report.failed or report.skipped):
        _ACCEPTANCE_RESULTS[n] = "FAIL" if report.failed else "SKIP"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_ACCEPTANCE_RESULTS):
        desc = _DESCRIPTIONS.get(n, "")
        terminalreporter.write_line(
            f"ACCEPTANCE {n} ({desc}): {_ACCEPTANCE_RESULTS[n]}"
        )
