"""Shared pytest wiring: fail a test that leaves a worker process running,
count the chunks worker processes ran, and print one PASS/FAIL line per
acceptance criterion."""

import multiprocessing
import os
import re
import time

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
        proc.terminate()
        proc.join(timeout=10)
    assert not left, f"worker processes left running: {left}"


@pytest.fixture
def worker_chunks(monkeypatch):
    """A function giving how many chunks worker processes have run in the
    pool calls returned so far: the chunks of each call less those this
    process ran.  Until a worker has run one, each chunk this process takes
    in a pool call is slowed, so that an idle worker surely claims one."""
    caller = os.getpid()
    run_chunk, run_chunks = mc._run_chunk, mc.WorkerPool.run_chunks
    count = {"workers": 0, "in_caller": None}  # in_caller: None outside a pool call

    def counted_run_chunks(self, chunks):
        count["in_caller"] = 0
        try:
            results = run_chunks(self, chunks)
        finally:
            in_caller, count["in_caller"] = count["in_caller"], None
        count["workers"] += len(chunks) - in_caller
        return results

    def counted_run_chunk(chunk):
        if os.getpid() == caller and count["in_caller"] is not None:
            count["in_caller"] += 1
            if count["workers"] == 0:
                time.sleep(0.2)
        return run_chunk(chunk)

    monkeypatch.setattr(mc.WorkerPool, "run_chunks", counted_run_chunks)
    monkeypatch.setattr(mc, "_run_chunk", counted_run_chunk)
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
