"""Configuration, plotting and CLI tests (fast, small grids)."""

import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from weakmeas import montecarlo as mc
from weakmeas.experiments.cli import main
from weakmeas.experiments.config import (
    EXPERIMENTS,
    RunConfig,
    default_gamma_grid,
    default_theta_grid,
    load_config,
)
from weakmeas.experiments.presets import (
    _fmt,
    closed_form_tomography,
    run_fig2,
    run_fig3,
    write_csv,
)
from weakmeas.experiments.svgplot import PlotStyle, SweepRow, emit_plot
from weakmeas.spinsys import pulse_unitary

STYLE = PlotStyle(title="t", xlabel="x", ylabel="y")


def tiny_config(tmp_path, **overrides) -> RunConfig:
    base = dict(
        theta_grid=[0.0, math.pi / 2, math.pi],
        gamma_grid=[0.5, 2.0],
        n_shots=20,
        output_dir=tmp_path,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestDefaults:
    def test_theta_grid_span(self):
        grid = default_theta_grid()
        assert len(grid) == 41
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2 * math.pi)

    def test_gamma_grid_span(self):
        grid = default_gamma_grid(t_m=1.5)
        assert grid[0] * 1.5 == pytest.approx(0.05)
        assert grid[-1] * 1.5 == pytest.approx(10.0)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            default_theta_grid(1)

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(experiment="fig9_wishful")
        with pytest.raises(ValueError):
            RunConfig(n_shots=0)
        with pytest.raises(ValueError):
            RunConfig(t_m=-1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"t_m": math.nan},
            {"t_m": math.inf},
            {"gamma_grid": [0.5, -1.0]},
            {"gamma_grid": [0.0]},
            {"gamma_grid": [math.nan]},
            {"gamma_grid": [math.inf]},
            {"theta_grid": [0.0, math.nan]},
            {"theta_grid": [-math.inf]},
        ],
    )
    def test_run_config_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)


class TestLoadConfig:
    def write(self, tmp_path, text) -> Path:
        p = tmp_path / "run.yaml"
        p.write_text(text, encoding="utf-8")
        return p

    def test_roundtrip(self, tmp_path):
        p = self.write(
            tmp_path,
            "experiment: fig3_tunnel\n"
            "n_shots: 500\n"
            "rng_seed: 9\n"
            "t_m: 2.0\n"
            "theta_grid: [0.0, 1.0]\n"
            "noise_t2star: 0.4\n"
            "output_dir: results\n",
        )
        cfg = load_config(p)
        assert cfg.experiment == "fig3_tunnel"
        assert cfg.n_shots == 500
        assert cfg.rng_seed == 9
        assert cfg.t_m == 2.0
        assert cfg.theta_grid == [0.0, 1.0]
        assert cfg.noise.nuclear_dephasing_time == 0.4
        assert cfg.output_dir == Path("results")

    def test_unknown_key_rejected_with_hint(self, tmp_path):
        p = self.write(tmp_path, "n_shotz: 100\n")
        with pytest.raises(ValueError, match="unknown key 'n_shotz'"):
            load_config(p)
        with pytest.raises(ValueError, match="n_shots"):
            load_config(p)  # the known-key list names the right spelling

    def test_type_errors(self, tmp_path):
        with pytest.raises(ValueError):
            load_config(self.write(tmp_path, "n_shots: many\n"))
        with pytest.raises(ValueError):
            load_config(self.write(tmp_path, "theta_grid: 1.0\n"))
        with pytest.raises(ValueError):
            load_config(self.write(tmp_path, "- just\n- a list\n"))
        # a YAML boolean is not a rate: true would load as 1.0
        for key in ("noise_t2star", "noise_false_negative", "noise_false_positive"):
            for value in ("true", "false"):
                with pytest.raises(ValueError, match=key):
                    load_config(self.write(tmp_path, f"{key}: {value}\n"))

    def test_empty_file_keeps_defaults(self, tmp_path):
        cfg = load_config(self.write(tmp_path, ""))
        assert cfg == RunConfig()

    def test_unset_keys_keep_base(self, tmp_path):
        base = RunConfig(n_shots=777)
        cfg = load_config(self.write(tmp_path, "rng_seed: 2\n"), base)
        assert cfg.n_shots == 777
        assert cfg.rng_seed == 2


class TestEmitPlot:
    def test_two_rows_valid_svg(self):
        rows = [
            SweepRow(0.0, 1.0, 0.9, 0.05, 90, 100),
            SweepRow(1.0, 0.5, 0.55, 0.05, 80, 100),
        ]
        doc = emit_plot(rows, STYLE)
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert "polyline" in doc and "circle" in doc

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_plot([], STYLE)

    def test_flagged_cells_omit_markers(self):
        rows = [
            SweepRow(0.0, 1.0, None, None, 0, 100),
            SweepRow(1.0, None, None, None, 0, 100),
        ]
        doc = emit_plot(rows, STYLE)
        ET.fromstring(doc)
        # one analytic point survives (drawn as a dot), no MC markers
        assert 'stroke="#c23b22"' not in doc
        assert "polyline" not in doc

    def test_analytic_line_breaks_at_gaps(self):
        rows = [
            SweepRow(0.0, 0.1, None, None, 0, 1),
            SweepRow(1.0, 0.2, None, None, 0, 1),
            SweepRow(2.0, None, None, None, 0, 1),
            SweepRow(3.0, 0.3, None, None, 0, 1),
            SweepRow(4.0, 0.4, None, None, 0, 1),
        ]
        doc = emit_plot(rows, STYLE)
        assert doc.count("<polyline") == 2

    def test_deterministic(self):
        rows = [SweepRow(0.0, 0.5, 0.4, 0.1, 10, 20)]
        assert emit_plot(rows, STYLE) == emit_plot(rows, STYLE)


class TestCsv:
    def test_formatting(self):
        assert _fmt(None) == ""
        assert _fmt(7) == "7"
        assert _fmt(1 / 3) == "0.33333333333333331"
        assert _fmt(math.inf) == "inf"

    def test_roundtrip_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 0.1234567890123456789
        write_csv(path, ["v"], [[value]])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][0]) == value

    def test_unwritable_path(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("")
        with pytest.raises(OSError):
            write_csv(target / "x.csv", ["v"], [[1.0]])


class TestPresets:
    def test_fig2_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path)
        paths = run_fig2(cfg, variants=("single",))
        names = sorted(p.name for p in paths)
        assert names == [
            "fig2_single_sigma_x.csv",
            "fig2_single_sigma_x.svg",
            "fig2_single_sigma_y.csv",
            "fig2_single_sigma_y.svg",
            "fig2_single_sigma_z.csv",
            "fig2_single_sigma_z.svg",
        ]
        for p in paths:
            assert p.exists()
            if p.suffix == ".svg":
                ET.parse(p)

    def test_fig2_csv_contents(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_fig2(cfg, variants=("single",))
        with open(tmp_path / "fig2_single_sigma_z.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert float(rows[0]["analytic"]) == pytest.approx(0.0)  # theta = 0
        assert float(rows[2]["analytic"]) == pytest.approx(-1.0)  # theta = pi
        assert all(int(r["n_total"]) == 20 for r in rows)

    def test_fig2_determinism(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_fig2(tiny_config(tmp_path, output_dir=a_dir), variants=("single",))
        run_fig2(tiny_config(tmp_path, output_dir=b_dir), variants=("single",))
        for name in ("fig2_single_sigma_z.csv", "fig2_single_sigma_z.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_fig2_reversal_flags_impossible_point(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_fig2(cfg, variants=("reversal",))
        with open(tmp_path / "fig2_reversal_sigma_z.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        pi_row = rows[2]  # theta = pi: reversal cannot succeed
        assert pi_row["analytic"] == ""
        assert pi_row["mc_mean"] == ""
        assert int(pi_row["n_kept"]) == 0

    def test_fig3_table(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=400)
        paths = run_fig3(cfg)
        assert [p.name for p in paths] == [
            "fig3_tunnel.csv",
            "fig3_tunnel_sigma_z.svg",
            "fig3_tunnel_inv_gamma.svg",
        ]
        with open(tmp_path / "fig3_tunnel.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            gamma = float(row["gamma"])
            assert float(row["inv_gamma_true"]) == pytest.approx(1.0 / gamma)
            assert float(row["gamma_t_m"]) == pytest.approx(gamma * cfg.t_m)

    def test_analytic_none_only_at_impossible(self):
        assert closed_form_tomography("reversal", math.pi) is None
        assert closed_form_tomography("reversal", 1.0) is not None


class TestCli:
    def test_fig2_run(self, tmp_path, capsys):
        rc = main(
            [
                "fig2",
                "--variant",
                "single",
                "--out",
                str(tmp_path),
                "--shots",
                "10",
                "--grid",
                "3",
                "--no-svg",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        assert all(Path(line).exists() for line in out)

    def test_custom_requires_config(self, tmp_path, capsys):
        rc = main(["custom", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("mystery_knob: 3\n", encoding="utf-8")
        rc = main(["fig3", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "mystery_knob" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["custom", "--grid", "3", "--no-svg"], "gamma_grid: [-1.0]\n"),
            (["fig3"], "t_m: .nan\n"),
            (["fig2"], "t_m: .inf\n"),
            (["fig2"], "theta_grid: [0.0, .nan]\n"),
            (["fig2", "--variant", "single", "--shots", "200", "--grid", "3"],
             "noise_t2star: .nan\n"),
        ],
        ids=["gamma_negative", "t_m_nan", "t_m_inf", "theta_nan", "t2star_nan"],
    )
    def test_invalid_config_writes_nothing(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(config, encoding="utf-8")
        out = tmp_path / "out"
        rc = main([*argv, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["custom"], "n_shots: [1, 2\n"),
            (["fig2", "--seed", "18446744073709551621"], ""),  # 2**64 + 5
            (["fig3", "--seed", "-9223372036854775809"], ""),  # -2**63 - 1
        ],
        ids=["malformed_yaml", "seed_above_range", "seed_below_range"],
    )
    def test_rejected_run_reports_one_line(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(config, encoding="utf-8")
        out = tmp_path / "out"
        argv = [*argv, "--shots", "20", "--grid", "3", "--no-svg"]
        rc = main([*argv, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:")
        assert not out.exists()

    def test_custom_builds_each_pulse_unitary_once(self, tmp_path, capsys):
        """3 distinct pulses per theta (NU_E2, NU_E1 and both ESR lines).
        With 20 shots every sequence keeps a shot past its first window, so
        the engine applies every pulse (with 3 shots, all 3 shots of the
        reversal at pi are rejected there and its NU_E1 pulse never runs)."""
        cfg = tmp_path / "run.yaml"
        cfg.write_text("experiment: custom\n", encoding="utf-8")
        pulse_unitary.cache_clear()
        argv = ["custom", "--config", str(cfg), "--grid", "5", "--shots", "20", "--no-svg"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert pulse_unitary.cache_info().misses == 3 * 5

    def test_custom_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "experiment: supp6_steering\n"
            "theta_grid: [0.0, 1.5707963267948966, 3.141592653589793]\n"
            "n_shots: 10\n"
            "emit_svg: false\n",
            encoding="utf-8",
        )
        rc = main(["custom", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(Path(line).name for line in out) == [
            f"supp6_steering_sigma_{axis}.csv" for axis in ("x", "y", "z")
        ]

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_experiment_selects_its_panels(self, tmp_path, capsys, experiment):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            f"experiment: {experiment}\n"
            "theta_grid: [0.0, 3.141592653589793]\n"
            "gamma_grid: [0.5]\n"
            "n_shots: 10\n"
            "emit_svg: false\n",
            encoding="utf-8",
        )
        rc = main(["custom", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        names = [Path(line).name for line in capsys.readouterr().out.splitlines()]
        assert names
        prefix = "" if experiment == "custom" else experiment
        assert all(name.startswith(prefix) for name in names)
        assert sorted(names) == sorted(p.name for p in (tmp_path / "out").iterdir())

    def test_custom_runs_each_ensemble_once(self, tmp_path, monkeypatch):
        calls = []
        run_shots = mc.run_shots

        def counted(protocol, noise, n_shots, rng_seed, n_jobs):
            calls.append(
                (repr(protocol.steps), protocol.initial.rho.matrix.tobytes(),
                 noise, n_shots, rng_seed)
            )
            return run_shots(protocol, noise, n_shots, rng_seed, n_jobs)

        monkeypatch.setattr(mc, "run_shots", counted)
        theta_grid = [0.0, 1.0, math.pi, 5.0]
        gamma_grid = [0.5, 2.0]
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "experiment: custom\n"
            f"theta_grid: {theta_grid}\n"
            f"gamma_grid: {gamma_grid}\n"
            "n_shots: 10\n"
            "emit_svg: false\n",
            encoding="utf-8",
        )
        assert main(["custom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 4 * len(theta_grid) + len(gamma_grid)
        assert len(set(calls)) == len(calls)

    def test_seed_changes_output(self, tmp_path):
        common = ["fig2", "--variant", "single", "--shots", "40", "--grid", "3",
                  "--no-svg"]
        main(common + ["--out", str(tmp_path / "s1"), "--seed", "1"])
        main(common + ["--out", str(tmp_path / "s2"), "--seed", "2"])
        a = (tmp_path / "s1" / "fig2_single_sigma_z.csv").read_text()
        b = (tmp_path / "s2" / "fig2_single_sigma_z.csv").read_text()
        assert a != b
