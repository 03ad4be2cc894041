"""Shared pytest wiring: fail a test that leaves a worker process running,
pin the CPU count, count the items worker processes ran, and print one
PASS/FAIL line per acceptance criterion."""

import multiprocessing
import os
import re

import pytest

from weakmeas import montecarlo as mc

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
        proc.kill()
        proc.join(timeout=10)
    assert not left, f"worker processes left running: {left}"


@pytest.fixture
def four_cpus(monkeypatch):
    """This process may run on four CPUs, whatever the machine has, so that
    a map over up to four items starts a process for each."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


@pytest.fixture
def two_cpus(monkeypatch):
    """This process may run on two CPUs, so that a map over two or more
    items starts exactly one worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def worker_chunks(monkeypatch, four_cpus):
    """A function giving how many items worker processes have run in the
    ``_parallel_map`` calls returned so far."""
    caller = os.getpid()
    parallel_map = mc._parallel_map
    count = {"workers": 0}

    def counted_map(fn, items):
        pairs = parallel_map(lambda item: (os.getpid(), fn(item)), items)
        count["workers"] += sum(pid != caller for pid, _ in pairs)
        return [result for _, result in pairs]

    monkeypatch.setattr(mc, "_parallel_map", counted_map)
    return lambda: count["workers"]


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
