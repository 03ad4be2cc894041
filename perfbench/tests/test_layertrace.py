"""The traced replay counts ensembles exactly and leaves the program as it was."""

import sys

import pytest

import layertrace
from run import SRC, cli_argv, write_config
from workloads import WORKLOADS

# Ensemble structure does not depend on the shot count, so the replays
# run at 20 shots; the counts are those of the full workloads.
EXPECTED = {
    "suite_50shots": (870, 369),
    "fig2_deep_jobs2": (81, 0),
    "fig3_deep_dephased": (9, 0),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_duplicate_ensembles_counted_exactly(name, tmp_path):
    w = WORKLOADS[name]
    cli = layertrace.import_program(SRC)
    original = sys.modules["weakmeas.montecarlo"].run_shots
    argv = cli_argv(w, 1, tmp_path / "out", write_config(w, tmp_path)) + ["--shots", "20"]
    tracer = layertrace.Tracer(run_id=name)
    tracer.install(sys.modules)
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert sys.modules["weakmeas.montecarlo"].run_shots is original
    metrics = layertrace.layer_metrics(tracer.spans)
    ensembles, duplicates = EXPECTED[name]
    assert metrics["montecarlo.ensembles"] == ensembles
    assert metrics["montecarlo.shots"] == 20 * ensembles
    assert metrics["montecarlo.duplicate_ensemble_frac"] == duplicates / ensembles
    files = {p.name for p in (tmp_path / "out").iterdir()}
    assert metrics["experiments.emit_files"] == len(files)


def test_self_time_subtracts_children():
    spans = [
        [0, None, "experiments.run_fig2", 0.0, 10.0, None],
        [1, 0, "protocols.closed_form_sequence", 2.0, 5.0, None],
        [2, 1, "protocols.tomography_expectations", 3.0, 4.0, None],
        [3, 0, "experiments.write_csv", 6.0, 7.0, {"bytes": 12}],
    ]
    m = layertrace.layer_metrics(spans)
    assert m["experiments.self_s"] == 6.0
    assert m["protocols.busy_s"] == 3.0
    assert m["protocols.calls"] == 1
    assert (m["experiments.emit_busy_s"], m["experiments.emit_files"],
            m["experiments.emit_bytes"]) == (1.0, 1, 12)
