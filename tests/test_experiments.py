"""Configuration, plotting and CLI tests (fast, small grids)."""

import csv
import gc
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

import weakmeas
from weakmeas import montecarlo as mc, protocols, spinsys
from weakmeas.experiments.cli import _build_config, build_parser, main
from weakmeas.experiments.config import (
    DEFAULT_T_M,
    EXPERIMENTS,
    RunConfig,
    default_gamma_grid,
    default_theta_grid,
    load_config,
)
from weakmeas.experiments.presets import (
    FIG2_VARIANTS,
    STEERING,
    _csv_text,
    _fmt,
    _success_probability,
    _write_file,
    closed_form_tomography,
    fig2_pulse_sequence,
    run_panels,
)
from weakmeas.experiments.svgplot import HEIGHT, MARGIN_B, MARGIN_T, PlotPoint, PlotStyle, emit_plot
from weakmeas.spinsys import pulse_unitary

STYLE = PlotStyle(title="t", xlabel="x", ylabel="y")


def error_bars(doc: str) -> list[ET.Element]:
    """The Monte Carlo error bars of an SVG document."""
    return [
        e for e in ET.fromstring(doc).iter()
        if e.tag.endswith("line") and e.get("stroke") == "#c23b22"
    ]


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"experiment": "fig9_wishful"}, "unknown experiment"),
            ({"n_shots": 0}, "n_shots must be >= 1"),
            ({"t_m": -1.0}, "t_m must be finite and positive"),
            ({"theta_grid": []}, "grids must be non-empty"),
            ({"gamma_grid": []}, "grids must be non-empty"),
            ({"n_jobs": 0}, "n_jobs must be >= 1"),
        ],
        ids=["experiment", "n_shots", "t_m", "empty_theta_grid", "empty_gamma_grid", "n_jobs"],
    )
    def test_run_config_validation(self, bad, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**bad)

    def test_run_config_bounds_shots_and_seed_by_64_bits(self):
        """Shot indices and the seed are Philox key words: n_shots up to
        2**64 - 1 is accepted, 2**64 refused, and a long integer is named by
        its length in the message."""
        assert RunConfig(n_shots=2**64 - 1).n_shots == 2**64 - 1
        assert RunConfig(rng_seed=2**64 - 1).rng_seed == 2**64 - 1
        with pytest.raises(ValueError, match=r"^n_shots is not below 2\*\*64: 18446744073709551616$"):
            RunConfig(n_shots=2**64)
        with pytest.raises(ValueError, match=r"^n_shots is not below 2\*\*64: an integer of 401 digits$"):
            RunConfig(n_shots=10**400)
        with pytest.raises(ValueError, match=r": an integer of 401 digits$"):
            RunConfig(rng_seed=10**400)

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
            {"t_m": 1e-310},  # the default Gamma grid overflows
            {"gamma_grid": [1e308], "t_m": 10.0},  # Gamma * t_m overflows
            {"theta_grid": [-1e308, 1e308]},  # max - min overflows
        ],
    )
    def test_run_config_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)


KNOWN_KEYS = [
    "emit_svg", "experiment", "gamma_grid", "n_jobs", "n_shots", "noise_false_negative",
    "noise_false_positive", "noise_t2star", "output_dir", "rng_seed", "t_m", "theta_grid",
]


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t_m: 1e-3\n", "key 't_m' must be a number, not '1e-3'; "
             "YAML 1.1 reads '1e-3' as a string: write 1.0e-3"),
            ("rng_seed: 1e3\n", "key 'rng_seed' must be an int, not '1e3'; "
             "YAML 1.1 reads '1e3' as a string: write 1000"),
            ("emit_svg: 1e3\n", "key 'emit_svg' must be a bool, not '1e3'"),
            ("output_dir: 3\n", "key 'output_dir' must be a string, not 3"),
            ("gamma_grid: [0.5, 1e-1]\n", "key 'gamma_grid[1]' must be a number, not '1e-1'; "
             "YAML 1.1 reads '1e-1' as a string: write 1.0e-1"),
            ("theta_grid: 1.0\n", "key 'theta_grid' must be a list of numbers, not 1.0"),
            ("noise_t2star: 1.0e3\n", "key 'noise_t2star' must be a number or null, not "
             "'1.0e3'; YAML 1.1 reads '1.0e3' as a string: write 1.0e+3"),
            ("noise_t2star: '.5'\n", "key 'noise_t2star' must be a number or null, not "
             "'.5'; YAML 1.1 reads '.5' as a string: write .5"),
            # an int serves as a float only within the float range
            (f"t_m: 1{'0' * 400}\n", "key 't_m' must be a number within the float "
             "range, not an integer of 401 digits"),
            (f"gamma_grid: [-1{'0' * 400}]\n", "key 'gamma_grid[0]' must be a number "
             "within the float range, not an integer of 401 digits"),
            (f"noise_t2star: 1{'0' * 400}\n", "key 'noise_t2star' must be a number "
             "within the float range, not an integer of 401 digits"),
            # keys are read in document order: the first fault is named
            (f"t_m: bad\nn_shots: 1{'0' * 5000}\n", "key 't_m' must be a number, not 'bad'"),
            ("<<: {t_m: 2.0}\nt_m: 3.0\n", "key 't_m' is given more than once"),
            ("n_shots: &n 5\nbogus: *n\n", f"unknown key 'bogus' (known keys: {KNOWN_KEYS})"),
            ("? [a]\n: 1\n", f"unknown key ['a'] (known keys: {KNOWN_KEYS})"),
        ],
        ids=["float_exponent", "int_exponent", "bool_no_hint", "path_not_a_string",
             "list_item", "list_not_a_list", "noise_unsigned_exponent", "noise_quoted",
             "int_beyond_float", "list_item_beyond_float", "noise_beyond_float",
             "first_of_two_faults", "merged_key_repeated", "aliased_value_unknown_key",
             "key_not_a_scalar"],
    )
    def test_type_error_names_the_value_and_its_yaml_spelling(self, tmp_path, text, message):
        """PyYAML loads a number without a dot, or with an unsigned
        exponent, as a string; the error names it and says how to write it.
        An integer too large for a float is named by its length.  Of two
        faults the first in document order is named; a key merged in with
        ``<<`` counts as given, and a key that is not a name is unknown."""
        with pytest.raises(ValueError) as err:
            load_config(self.write(tmp_path, text))
        assert str(err.value) == f"{tmp_path / 'run.yaml'}: {message}"

    @pytest.mark.parametrize(
        "key, text",
        [
            ("n_shots", f"n_shots: 1{'0' * 5000}\n"),
            ("gamma_grid", f"gamma_grid: [0.5, 1{'0' * 5000}]\n"),
            ("noise_t2star", f"noise_t2star: 1{'0' * 5000}\n"),
            ("n_shots", f"n_shots: 1{'0' * 5000}\nt_m: bad\n"),
        ],
        ids=["scalar_key", "list_key", "noise_key", "first_of_two_faults"],
    )
    def test_integer_too_long_to_read_names_the_key(self, tmp_path, key, text):
        """Python converts at most 4,300 digits of an integer from text by
        default, so PyYAML cannot build a longer one.  The one-line error
        names the file and the key, without the digits or Python's advice
        to raise the limit."""
        p = self.write(tmp_path, f"rng_seed: 3\n{text}")
        with pytest.raises(ValueError) as err:
            load_config(p)
        message = str(err.value)
        assert message.startswith(f"{p}: key {key!r} cannot be read: ")
        assert "0" * 20 not in message
        assert "set_int_max_str_digits" not in message and "\n" not in message

    def test_repeated_key_rejected(self, tmp_path):
        """YAML mapping keys are unique, but PyYAML keeps a repeated key's
        last value; the config refuses the repeat, naming the key."""
        p = self.write(tmp_path, "n_shots: 10\nrng_seed: 3\n'n_shots': 20\n")
        with pytest.raises(ValueError) as err:
            load_config(p)
        assert str(err.value) == f"{p}: key 'n_shots' is given more than once"

    @pytest.mark.parametrize("text", ["", "~\n"], ids=["empty", "null"])
    def test_empty_file_keeps_defaults(self, tmp_path, text):
        cfg = load_config(self.write(tmp_path, text))
        assert cfg == RunConfig()

    @pytest.mark.parametrize(
        "text, changes",
        [("rng_seed: 2\n", {"rng_seed": 2}), ("<<: {t_m: 2.0}\n", {"t_m": 2.0})],
        ids=["plain", "merge_key"],
    )
    def test_unset_keys_keep_defaults(self, tmp_path, text, changes):
        cfg = load_config(self.write(tmp_path, text))
        assert cfg == replace(RunConfig(), **changes)


class TestEmitPlot:
    def test_two_rows_valid_svg(self):
        rows = [
            PlotPoint(0.0, 1.0, 0.9, 0.9 - 0.05, 0.9 + 0.05),
            PlotPoint(1.0, 0.5, 0.55, 0.55 - 0.05, 0.55 + 0.05),
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
            PlotPoint(0.0, 1.0, None),
            PlotPoint(1.0, None, None),
        ]
        doc = emit_plot(rows, STYLE)
        ET.fromstring(doc)
        # one analytic point survives (drawn as a dot), no MC markers
        assert 'stroke="#c23b22"' not in doc
        assert "polyline" not in doc

    def test_analytic_line_breaks_at_gaps(self):
        rows = [
            PlotPoint(0.0, 0.1, None),
            PlotPoint(1.0, 0.2, None),
            PlotPoint(2.0, None, None),
            PlotPoint(3.0, 0.3, None),
            PlotPoint(4.0, 0.4, None),
        ]
        doc = emit_plot(rows, STYLE)
        assert doc.count("<polyline") == 2

    def test_deterministic(self):
        rows = [PlotPoint(0.0, 0.5, 0.4, 0.4 - 0.1, 0.4 + 0.1)]
        assert emit_plot(rows, STYLE) == emit_plot(rows, STYLE)

    @pytest.mark.parametrize(
        "row",
        [
            PlotPoint(1e17, 0.5, 0.4, 0.4 - 0.1, 0.4 + 0.1),  # theta_grid: [1.0e+17]
            PlotPoint(-1e17, 0.5, 0.4, 0.4 - 0.1, 0.4 + 0.1),
            PlotPoint(1e300, 0.5, 0.4, 0.4 - 0.1, 0.4 + 0.1),
            PlotPoint(1.7e308, 0.5, 0.4, 0.4 - 0.1, 0.4 + 0.1),  # (hi - lo) * 3 would overflow
            PlotPoint(0.75, 1e300, None),  # 1/Gamma at Gamma = 1e-300
        ],
        ids=["x_1e17", "x_minus_1e17", "x_1e300", "x_1_7e308", "y_1e300"],
    )
    def test_one_point_of_large_magnitude(self, row):
        """A one-point sweep spans an empty range, which 1.0 does not widen
        at 2**53 and above; the plot still renders, every coordinate finite."""
        doc = emit_plot([row], STYLE)
        ET.fromstring(doc)
        assert "nan" not in doc and "inf" not in doc

    def test_span_beyond_the_float_range_raises(self):
        """Rows at -1e308 and 1e308 span an x range that overflows; the plot
        refuses rather than write nan or inf coordinates."""
        rows = [PlotPoint(x, 0.5, 0.4, 0.4 - 0.1, 0.4 + 0.1) for x in (-1e308, 1e308)]
        with pytest.raises(ValueError, match="not finite"):
            emit_plot(rows, STYLE)

    def test_one_point_range_widens_by_one(self):
        """Below 2**53 a one-point sweep still spans [x, x + 1.0]."""
        doc = emit_plot([PlotPoint(0.75, -0.5, None)], STYLE)
        assert ">0.75</text>" in doc and ">1.75</text>" in doc

    def test_open_ended_bar_reaches_the_frame(self):
        """A bar whose high end is infinite is drawn up to the frame's top
        edge; autoscale takes in only the finite ends."""
        doc = emit_plot(
            [PlotPoint(0.0, 2.0, 3.0, 1.0, math.inf), PlotPoint(1.0, 2.0, 4.0, 3.5, 6.0)], STYLE
        )
        (open_ended, bounded) = error_bars(doc)
        assert float(open_ended.get("y2")) == MARGIN_T
        assert MARGIN_T < float(bounded.get("y2")) < float(bounded.get("y1"))
        assert not re.search(r'="[^"]*(nan|inf)', doc)
        # free limits: the data span 1..6, padded by 5% of it
        assert ">0.75</text>" in doc and ">6.25</text>" in doc

    def test_equal_ends_draw_no_bar(self):
        """An error of 0 draws no bar; the marker stays."""
        doc = emit_plot([PlotPoint(0.0, 0.5, 0.4, 0.4, 0.4)], STYLE)
        assert error_bars(doc) == []
        assert doc.count('stroke="#c23b22"') == 1  # the marker

    def test_asymmetric_bar_spans_low_to_high(self):
        """A bar's two y attributes are the plot's y of ``low`` and of
        ``high``, whatever the marker's place between them."""
        style = PlotStyle("t", "x", "y", 0.0, 10.0)
        doc = emit_plot([PlotPoint(0.0, None, 2.0, 1.0, 7.0)], style)
        (bar,) = error_bars(doc)

        def py(y):
            return HEIGHT - MARGIN_B - y / 10.0 * (HEIGHT - MARGIN_T - MARGIN_B)

        assert (bar.get("y1"), bar.get("y2")) == (f"{py(1.0):.6g}", f"{py(7.0):.6g}")

    def test_point_without_value_draws_no_bar(self):
        """A point with no value gets neither marker nor bar, whatever its
        bar ends say, and its ends do not scale the plot."""
        doc = emit_plot([PlotPoint(0.0, 1.0, None, -50.0, 50.0)], STYLE)
        assert 'stroke="#c23b22"' not in doc
        # the analytic 1.0 alone: the span 1..2, padded by 5% of it
        assert ">0.95</text>" in doc and ">2.05</text>" in doc


class TestCsv:
    def test_formatting(self):
        assert _fmt(None) == ""
        assert _fmt(7) == "7"
        assert _fmt(1 / 3) == "0.33333333333333331"
        assert _fmt(math.inf) == "inf"

    def test_roundtrip_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 0.1234567890123456789
        _write_file(path, _csv_text([{"v": value}]))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][0]) == value

    @pytest.mark.parametrize("name", ["x.csv", "x.svg"])
    def test_unwritable_path(self, tmp_path, name):
        """A directory that cannot be made is named in the error, and no
        file is written."""
        target = tmp_path / "file"
        target.write_text("")
        with pytest.raises(OSError, match="cannot write output file .*file/x"):
            _write_file(target / name, "text")
        assert os.listdir(tmp_path) == ["file"]

    def test_interrupted_write_leaves_the_earlier_file(self, tmp_path, monkeypatch):
        """Ctrl-C in the middle of a write goes on up as it is, and leaves
        the file an earlier run wrote and no temporary file."""
        (tmp_path / "x.svg").write_text("earlier", encoding="utf-8")
        write_text = Path.write_text

        def interrupted(self, text, *args, **kwargs):
            write_text(self, text[:2], *args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_text", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _write_file(tmp_path / "x.svg", "later")
        assert os.listdir(tmp_path) == ["x.svg"]
        assert (tmp_path / "x.svg").read_text(encoding="utf-8") == "earlier"


# The knob-effect matrix: each case is a base run, one knob changed from
# it, the cells that must stay and the files that must move.  A run is its
# argv and config text; the knob's argv is appended (a repeated flag's last
# value wins) and its config, unless None, replaces the base config.  Each
# cell that stays is (file-name pattern, columns): None compares the file's
# bytes and a tuple those columns (each file's that it has), row for row.
# SHARED_ROWS compares every column of the rows the base run holds, keyed
# by their first cell, the sweep value, which the knob's run must hold too:
# the knob adds sweep points.  A file that stays is written by both runs; a
# file that moves differs, or is missing from one run.  Every file either
# run writes falls under one of the patterns.
SHARED_ROWS = ("*",)
ANALYTIC = ("analytic", "sigma_z_analytic", "inv_gamma_true")
FIG2_KNOB = ["fig2", "--shots", "3000", "--grid", "9", "--seed", "2"]
CUSTOM_KNOB = ["custom", "--shots", "300", "--grid", "5", "--seed", "3", "--no-svg"]
CUSTOM = "experiment: custom\n"
LABEL_ERRORS = "noise_false_negative: 0.2\nnoise_false_positive: 0.05\n"
KNOB_CASES = {
    # dephasing scales the nuclear sigma_x and sigma_y alone, and sigma_y is
    # 0 for fig2's states: the sigma_y and sigma_z tables and every kept and
    # total count stay
    "t2star_moves_only_sigma_x": (
        FIG2_KNOB + ["--no-svg"], None, [], "noise_t2star: 0.5\n",
        [("fig2_*_sigma_[yz].csv", None),
         ("fig2_*_sigma_x.csv", ("sweep_value", "analytic", "n_kept", "n_total"))],
        [f"fig2_{variant}_sigma_x.csv" for variant in ("single", "double", "reversal")],
    ),
    # the same under both label errors, where the history walk branches on
    # a flipped label
    "t2star_moves_only_sigma_x_under_label_errors": (
        ["fig2", "--shots", "8200", "--grid", "5", "--no-svg"], LABEL_ERRORS, [],
        "noise_t2star: 0.5\n" + LABEL_ERRORS,
        [("fig2_*_sigma_[yz].csv", None),
         ("fig2_*_sigma_x.csv", ("sweep_value", "analytic", "n_kept", "n_total"))],
        [f"fig2_{variant}_sigma_x.csv" for variant in ("single", "double", "reversal")],
    ),
    # the same in supp: the success tables count kept shots alone, and
    # sigma_y is 0 for supp's states too
    "t2star_moves_only_supp_sigma_x": (
        ["supp", "--shots", "3000", "--grid", "9", "--seed", "2", "--no-svg"], None, [],
        "noise_t2star: 0.5\n",
        [("supp4_success_*.csv", None), ("supp[56]_*_sigma_[yz].csv", None),
         ("supp[56]_*_sigma_x.csv", ("sweep_value", "analytic", "n_kept", "n_total"))],
        ["supp5_expectations_single_sigma_x.csv", "supp5_expectations_double_sigma_x.csv",
         "supp6_steering_sigma_x.csv"],
    ),
    # without T2* no fig2 cell reads t_m: its windows are projective
    "t_m_without_t2star": (FIG2_KNOB, "t_m: 1.5\n", [], "t_m: 3.0\n", [("*", None)], []),
    "seed": (CUSTOM_KNOB, CUSTOM, ["--seed", "4"], None, [("*", ANALYTIC)], ["*"]),
    "shots": (CUSTOM_KNOB, CUSTOM, ["--shots", "500"], None, [("*", ANALYTIC)], ["*"]),
    "label_errors": (
        CUSTOM_KNOB, CUSTOM, [], CUSTOM + LABEL_ERRORS,
        [("*", ANALYTIC)], ["*"],
    ),
    "no_svg": (FIG2_KNOB, None, ["--no-svg"], None, [("*.csv", None)], ["*.svg"]),
    # each rate reads the same shots whatever the other rates
    "another_gamma": (
        ["custom", "--shots", "2000", "--no-svg"], "experiment: fig3_tunnel\ngamma_grid: [0.5, 2.0]\n",
        [], "experiment: fig3_tunnel\ngamma_grid: [0.5, 1.0, 2.0]\n", [("*", SHARED_ROWS)], ["*"],
    ),
    # the default theta grid of 5 points is a subset of that of 9
    "grid": (
        FIG2_KNOB + ["--grid", "5", "--no-svg"], None, ["--grid", "9"], None,
        [("*", SHARED_ROWS)], ["*"],
    ),
}


def knob_table(data: bytes, columns: tuple[str, ...]) -> list[list[str]]:
    """A CSV's rows, each cut to the cells in ``columns`` that it has (all
    of them for SHARED_ROWS)."""
    return [
        [v for c, v in row.items() if columns is SHARED_ROWS or c in columns]
        for row in csv.DictReader(data.decode().splitlines())
    ]


class TestPresets:
    def test_fig2_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path)
        paths = run_panels(replace(cfg, experiment="fig2_single"))
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
        run_panels(replace(cfg, experiment="fig2_single"))
        with open(tmp_path / "fig2_single_sigma_z.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert float(rows[0]["analytic"]) == pytest.approx(0.0)  # theta = 0
        assert float(rows[2]["analytic"]) == pytest.approx(-1.0)  # theta = pi
        assert all(int(r["n_total"]) == 20 for r in rows)

    def test_fig2_determinism(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_panels(replace(tiny_config(tmp_path, output_dir=a_dir), experiment="fig2_single"))
        run_panels(replace(tiny_config(tmp_path, output_dir=b_dir), experiment="fig2_single"))
        for name in ("fig2_single_sigma_z.csv", "fig2_single_sigma_z.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_fig2_reversal_flags_impossible_point(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_panels(replace(cfg, experiment="fig2_reversal"))
        with open(tmp_path / "fig2_reversal_sigma_z.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        pi_row = rows[2]  # theta = pi: reversal cannot succeed
        assert pi_row["analytic"] == ""
        assert pi_row["mc_mean"] == ""
        assert int(pi_row["n_kept"]) == 0

    def test_unknown_fig2_variant_is_refused(self):
        with pytest.raises(ValueError, match="unknown fig2 variant 'triple'"):
            fig2_pulse_sequence("triple", 0.5)

    def test_fig3_table(self, tmp_path):
        cfg = tiny_config(tmp_path, n_shots=400)
        paths = run_panels(replace(cfg, experiment="fig3_tunnel"))
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

    def test_fig3_inv_gamma_bars_are_the_written_intervals(self, tmp_path, monkeypatch):
        """fig3's 1/Gamma plot is drawn from its CSV rows: at seed 1 and 200
        shots each point carries its row's inv_gamma_extracted and interval,
        the SVG has one bar per row with an estimate and low < high, and
        the bars of unbounded intervals reach the frame's top edge."""
        plotted = {}

        def capture(points, style):
            plotted[style.ylabel] = points
            return emit_plot(points, style)

        monkeypatch.setattr("weakmeas.experiments.presets.emit_plot", capture)
        cfg = RunConfig(n_shots=200, rng_seed=1, output_dir=tmp_path)
        run_panels(replace(cfg, experiment="fig3_tunnel"))
        with open(tmp_path / "fig3_tunnel.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        columns = ("gamma_t_m", "inv_gamma_true", "inv_gamma_extracted",
                   "inv_gamma_extracted_low", "inv_gamma_extracted_high")
        assert [tuple(map(_fmt, (p.x, p.analytic, p.value, p.low, p.high)))
                for p in plotted["1/Gamma (ms)"]] == [tuple(r[c] for c in columns) for r in rows]

        barred = [
            r for r in rows if r["inv_gamma_extracted"]
            and float(r["inv_gamma_extracted_low"]) < float(r["inv_gamma_extracted_high"])
        ]
        open_ended = [r for r in barred if r["inv_gamma_extracted_high"] == "inf"]
        assert open_ended, "this run is meant to hold unbounded intervals"
        bars = error_bars((tmp_path / "fig3_tunnel_inv_gamma.svg").read_text(encoding="utf-8"))
        assert len(bars) == len(barred)
        assert [float(b.get("y2")) == MARGIN_T for b in bars].count(True) == len(open_ended)

    def test_fig3_inversion_interval_covers(self, tmp_path):
        """The sigma_z-inversion interval covers the true 1/Gamma as a 95%
        interval should: over seeds 0-399 at 200 shots, no noise, on the
        default Gamma grid, at least 365 of 400 at every Gamma.  365 is
        binom.ppf(1e-3, 400, 0.95), so a true 95% interval falls below it
        with probability 5.7e-4.  A missing interval counts as a miss."""
        covered = [0] * len(default_gamma_grid(DEFAULT_T_M))
        for seed in range(400):
            cfg = RunConfig(n_shots=200, rng_seed=seed, output_dir=tmp_path, emit_svg=False)
            run_panels(replace(cfg, experiment="fig3_tunnel"))
            with open(tmp_path / "fig3_tunnel.csv", newline="") as fh:
                for k, row in enumerate(csv.DictReader(fh)):
                    lo, hi = row["inv_gamma_extracted_low"], row["inv_gamma_extracted_high"]
                    true = float(row["inv_gamma_true"])
                    covered[k] += bool(lo) and float(lo) <= true <= float(hi)
        assert min(covered) >= 365, covered

    @pytest.mark.parametrize(
        "p_fn, p_fp", [(0.2, 0.05), (0.0, 0.1)], ids=["false_negatives", "false_positives"]
    )
    def test_fig3_blip_mle_interval_covers_under_label_errors(self, tmp_path, p_fn, p_fp):
        """The blip-time MLE models label errors: a false negative drops a
        real blip's time and a false positive records none.  Over seeds
        0-399 at 2000 shots and Gamma = 0.5 /ms, its 95% interval covers the
        true 1/Gamma at least 365 times: binom.ppf(1e-3, 400, 0.95), so a
        true 95% interval falls below it with probability 5.7e-4.  With the
        label-blind p = 1/2 it covered 0 of 200 seeds at p_fn = 0.2."""
        covered = 0
        noise = mc.NoiseConfig(readout_false_negative=p_fn, readout_false_positive=p_fp)
        for seed in range(400):
            cfg = RunConfig(gamma_grid=[0.5], n_shots=2000, rng_seed=seed, noise=noise,
                            output_dir=tmp_path, emit_svg=False)
            run_panels(replace(cfg, experiment="fig3_tunnel"))
            with open(tmp_path / "fig3_tunnel.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            lo, hi = row["inv_gamma_blip_mle_low"], row["inv_gamma_blip_mle_high"]
            covered += bool(lo) and float(lo) <= float(row["inv_gamma_true"]) <= float(hi)
        assert covered >= 365, covered

    @pytest.mark.parametrize(
        "p_fn, p_fp",
        [(0.2, 0.05), (0.2, 0.0), (0.0, 0.1)],
        ids=["false_negatives", "false_negatives_alone", "false_positives"],
    )
    def test_fig3_inversion_interval_covers_under_label_errors(self, tmp_path, p_fn, p_fp):
        """The sigma_z inversion models label errors: the kept no-blip
        shots mix true no-blips with true blips read as none, whose nucleus
        is up.  Over seeds 0-399 at 2000 shots and Gamma = 0.5 /ms, its 95%
        interval covers the true 1/Gamma at least 365 times:
        binom.ppf(1e-3, 400, 0.95), so a true 95% interval falls below it
        with probability 5.7e-4.  The label-blind inversion covered 5 and 22
        of these 400 seeds with false negatives."""
        covered = 0
        noise = mc.NoiseConfig(readout_false_negative=p_fn, readout_false_positive=p_fp)
        for seed in range(400):
            cfg = RunConfig(gamma_grid=[0.5], n_shots=2000, rng_seed=seed, noise=noise,
                            output_dir=tmp_path, emit_svg=False)
            run_panels(replace(cfg, experiment="fig3_tunnel"))
            with open(tmp_path / "fig3_tunnel.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            lo, hi = row["inv_gamma_extracted_low"], row["inv_gamma_extracted_high"]
            covered += bool(lo) and float(lo) <= float(row["inv_gamma_true"]) <= float(hi)
        assert covered >= 365, covered

    @pytest.mark.parametrize("p_fn, p_fp", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.5)])
    def test_fig3_inversion_refuses_labels_without_information(self, tmp_path, p_fn, p_fp):
        """Where p_fn >= 1 - p_fp the labels carry no information on Gamma:
        the inversion's three cells stay empty on every row."""
        noise = mc.NoiseConfig(readout_false_negative=p_fn, readout_false_positive=p_fp)
        cfg = RunConfig(n_shots=200, noise=noise, output_dir=tmp_path, emit_svg=False)
        run_panels(replace(cfg, experiment="fig3_tunnel"))
        with open(tmp_path / "fig3_tunnel.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            for cell in ("inv_gamma_extracted", "inv_gamma_extracted_low",
                         "inv_gamma_extracted_high"):
                assert row[cell] == ""

    def test_refused_plot_writes_nothing(self, tmp_path, monkeypatch):
        """Every document is rendered before any is written, so a plot that
        emit_plot refuses leaves no file, not even the CSV before it."""
        rendered = []

        def refuse_the_second(rows, style):
            rendered.append(style)
            if len(rendered) == 2:
                raise ValueError("plot coordinate nan is not finite")
            return emit_plot(rows, style)

        monkeypatch.setattr("weakmeas.experiments.presets.emit_plot", refuse_the_second)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="not finite"):
            run_panels(replace(tiny_config(out), experiment="fig2_single"))
        assert len(rendered) == 2
        assert not out.exists()

    def test_fig2_dephases_over_t_m(self, tmp_path):
        """Each projective fig2 window lasts the configured t_m.  At theta = 0
        every shot is kept and the Gaussian T2* decay leaves
        sigma_x = exp(-(t_m/T2*)^2): an exact two-sided binomial test of the
        +1 count at level alpha = 1e-6, per t_m.  So the two runs' trees differ."""
        binom = pytest.importorskip("scipy.stats").binom
        alpha, t2star, n_shots = 1e-6, 1.0, 4000
        argv = ["fig2", "--variant", "single", "--shots", str(n_shots), "--grid", "3",
                "--no-svg"]
        trees = []
        for t_m in (0.5, 2.0):
            cfg = tmp_path / f"t_m_{t_m}.yaml"
            cfg.write_text(f"noise_t2star: {t2star}\nt_m: {t_m}\n", encoding="utf-8")
            out = tmp_path / f"out_{t_m}"
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
            with open(out / "fig2_single_sigma_x.csv", newline="") as fh:
                row = next(csv.DictReader(fh))  # theta = 0
            n = int(row["n_kept"])
            assert n == int(row["n_total"]) == n_shots
            k = round(n * (1.0 + float(row["mc_mean"])) / 2.0)  # +1 outcomes
            p = (1.0 + math.exp(-((t_m / t2star) ** 2))) / 2.0
            assert binom.cdf(k, n, p) > alpha / 2 and binom.sf(k - 1, n, p) > alpha / 2
            trees.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert trees[0].keys() == trees[1].keys()
        assert trees[0] != trees[1]

    def test_fig2_two_windows_dephase_over_their_total_time(self, tmp_path):
        """A Gaussian T2* is the decay of a quasi-static detuning, so it reads
        the windows' total time.  At theta = 1e-9, t_m = 1 ms and T2* = 2 ms,
        fig2 single's one window leaves sigma_x = exp(-1/4), and the two
        windows of double and reversal exp(-(2 t_m/T2*)^2) = exp(-1), not
        the per-window exp(-1/2) = 0.6065.  At 200,000 shots the standard
        error is about 0.002."""
        noise = mc.NoiseConfig(nuclear_dephasing_time=2.0)
        config = RunConfig(experiment="fig2", theta_grid=[1e-9], t_m=1.0, n_shots=200_000,
                           noise=noise, output_dir=tmp_path, emit_svg=False)
        run_panels(config)
        for variant, want in (("single", math.exp(-0.25)), ("double", math.exp(-1.0)),
                              ("reversal", math.exp(-1.0))):
            with open(tmp_path / f"fig2_{variant}_sigma_x.csv", newline="") as fh:
                (row,) = csv.DictReader(fh)
            assert float(row["analytic"]) == pytest.approx(1.0, abs=1e-12)
            error = math.sqrt((1.0 - want**2) / int(row["n_kept"]))
            assert float(row["mc_mean"]) == pytest.approx(want, abs=5.0 * error)

    @pytest.mark.parametrize("case", list(KNOB_CASES))
    def test_knob_moves_only_its_cells(self, tmp_path, capsys, case):
        """One knob changed from a base run moves the cells it must and no
        other: every point reads the same shots, so a cell the knob cannot
        affect keeps its bytes."""
        argv, config, knob_argv, knob_config, same, moved = KNOB_CASES[case]

        def tree(name, argv, config):
            out, extra = tmp_path / name, []
            if config:
                (tmp_path / f"{name}.yaml").write_text(config, encoding="utf-8")
                extra = ["--config", str(tmp_path / f"{name}.yaml")]
            assert main([*argv, *extra, "--out", str(out)]) == 0
            return {f.name: f.read_bytes() for f in out.iterdir()}

        base = tree("base", argv, config)
        knob = tree("knob", argv + knob_argv, config if knob_config is None else knob_config)
        names = base.keys() | knob.keys()
        patterns = [pattern for pattern, _ in same] + list(moved)
        assert all(any(fnmatch(n, p) for p in patterns) for n in names), sorted(names)
        for pattern, columns in same:
            matched = [n for n in names if fnmatch(n, pattern)]
            assert matched, pattern
            for name in matched:
                assert name in base and name in knob, name
                if columns is None:
                    assert base[name] == knob[name], name
                    continue
                rows, knob_rows = knob_table(base[name], columns), knob_table(knob[name], columns)
                assert rows and all(rows), name
                if columns is SHARED_ROWS:
                    knob_by_key = {row[0]: row for row in knob_rows}
                    assert [knob_by_key.get(row[0]) for row in rows] == rows, name
                else:
                    assert knob_rows == rows, name
        for pattern in moved:
            matched = [n for n in names if fnmatch(n, pattern)]
            assert matched, pattern
            for name in matched:
                assert base.get(name) != knob.get(name), name

    def test_analytic_none_only_at_impossible(self):
        assert closed_form_tomography("reversal", math.pi) is None
        assert closed_form_tomography("reversal", 1.0) is not None

    def test_analytic_columns_run_no_engine_arithmetic(self, monkeypatch):
        """Every analytic column is a formula: with the shot engine's node
        arithmetic (the pulse, the window's blip weight and its state after
        the window) raising at every binding, the closed forms of every
        theta panel on the default grid and fig3's sigma_z on the default
        rates still compute.  Only ``protocols._bloch`` is shared."""
        class EngineArithmetic(Exception):
            pass

        def engine(*args):
            raise EngineArithmetic(args)

        bell = spinsys.prepare_bell()
        pulse = spinsys.RotationPulse(spinsys.Frequency.ESR_BOTH, 1.0)
        for module, names in (
            (spinsys, ("_node_pulse",)),
            (protocols, ("_node_pulse", "_node_blip_weight", "_node_after_window")),
            (mc, ("_node_pulse", "_node_blip_weight", "_node_after_window")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, engine)
        with pytest.raises(EngineArithmetic):  # the forced-outcome channel
            protocols.weak_nuclear_measure(bell, pulse)
        closed_form_tomography.cache_clear()
        for theta in default_theta_grid():
            for sequence in (*FIG2_VARIANTS, STEERING):
                closed_form_tomography(sequence, theta)
            for variant in FIG2_VARIANTS:
                _success_probability(variant, theta)
        for gamma in default_gamma_grid(DEFAULT_T_M):
            protocols.sigma_z_noblip(math.pi, protocols.TunnelModel(gamma, DEFAULT_T_M))


    def test_run_panels_writes_the_config_experiment(self, tmp_path):
        """The config's experiment alone selects the panels: fig3_tunnel
        writes fig3's table and its two plots, and nothing else."""
        paths = run_panels(replace(tiny_config(tmp_path), experiment="fig3_tunnel"))
        names = ["fig3_tunnel.csv", "fig3_tunnel_sigma_z.svg", "fig3_tunnel_inv_gamma.svg"]
        assert [p.name for p in paths] == names
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    def test_signed_zero_angles_write_the_same_bytes_in_either_order(self, tmp_path):
        """A theta grid that holds -0.0 and 0.0 writes the same CSVs in
        either order: -0.0 is the angle 0.0, so neither a point's key nor
        a cached closed form takes the sign of whichever comes first."""

        def csvs(name, grid):
            out = tmp_path / name
            out.mkdir()
            closed_form_tomography.cache_clear()
            run_panels(tiny_config(out, experiment="supp6_steering", theta_grid=grid,
                                   emit_svg=False))
            return {p.name: p.read_bytes() for p in out.iterdir()}

        first = csvs("first", [-0.0, 0.0, 1.0])
        assert first == csvs("second", [0.0, -0.0, 1.0])
        with open(tmp_path / "first" / "supp6_steering_sigma_x.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # -sin(0.0) is -0.0
        assert [(row["sweep_value"], row["analytic"]) for row in rows[:2]] == [("0", "-0")] * 2


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

    @pytest.mark.parametrize(
        "flags, file_svg, changed",
        [
            ([], "true", {}),
            (["--out", "flag_out"], "true", {"output_dir": Path("flag_out")}),
            (["--seed", "5"], "true", {"rng_seed": 5}),
            (["--shots", "7"], "true", {"n_shots": 7}),
            (["--jobs", "3"], "true", {"n_jobs": 3}),
            (["--grid", "4"], "true", {"theta_grid": default_theta_grid(4)}),
            (["--svg"], "false", {"emit_svg": True}),
            (["--no-svg"], "true", {"emit_svg": False}),
        ],
        ids=["none", "out", "seed", "shots", "jobs", "grid", "svg", "no_svg"],
    )
    def test_flag_overrides_only_its_field(self, tmp_path, flags, file_svg, changed):
        """Each flag replaces the one config value it names, and every other
        value the file sets survives."""
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            f"output_dir: file_out\nrng_seed: 11\nn_shots: 33\nn_jobs: 2\n"
            f"theta_grid: [0.0, 1.0, 2.0]\nemit_svg: {file_svg}\n",
            encoding="utf-8",
        )
        from_file = load_config(cfg)
        for name in ("output_dir", "rng_seed", "n_shots", "n_jobs", "theta_grid"):
            assert getattr(from_file, name) != getattr(RunConfig(), name), name
        assert all(getattr(from_file, name) != value for name, value in changed.items())
        args = build_parser().parse_args(["custom", "--config", str(cfg), *flags])
        assert _build_config(args) == replace(from_file, **changed)

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
            (["fig3", "--shots", "20"], "t_m: 1.0e-310\n"),
            (["fig3", "--shots", "20"], "gamma_grid: [1.0e+308]\nt_m: 10\n"),
            (["custom", "--shots", "50"],
             "experiment: fig2_single\ntheta_grid: [-1.0e+308, 1.0e+308]\n"),
        ],
        ids=["gamma_negative", "t_m_nan", "t_m_inf", "theta_nan", "t2star_nan",
             "default_gamma_overflows", "gamma_t_m_overflows", "theta_span_overflows"],
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
            # shot ranges of at least a block each, run in two processes
            (["fig2", "--variant", "single", "--seed", "18446744073709551621",
              "--shots", "8200", "--jobs", "2"], ""),
            (["fig2", "--variant", "single", "--seed", "-9223372036854775809",
              "--shots", "8200", "--jobs", "2"], ""),
            # the blip-time MLE's rate bracket 1e6 / t_m overflows
            (["fig3", "--shots", "2000"], "t_m: 1.0e-303\n"),
            (["fig3"], f"t_m: 1{'0' * 400}\n"),  # beyond the float range
            (["fig3"], "n_shots: 10\nn_shots: 20\n"),
            (["fig3"], "t_m: 1e-3\n"),  # YAML 1.1 reads it as a string
        ],
        ids=["malformed_yaml", "seed_above_range", "seed_below_range",
             "seed_above_range_jobs2", "seed_below_range_jobs2", "blip_mle_t_m_too_short",
             "t_m_beyond_float", "repeated_key", "t_m_exponent_string"],
    )
    def test_rejected_run_reports_one_line(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(config, encoding="utf-8")
        out = tmp_path / "out"
        command, *options = argv  # a case's own options override the defaults
        argv = [command, "--shots", "20", "--grid", "3", "--no-svg", *options]
        rc = main([*argv, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--shots", str(2**64)], ""),
            (["--seed", str(2**64)], ""),
            (["--shots", str(10**400)], ""),
            (["--seed", str(10**400)], ""),
            ([], f"n_shots: 1{'0' * 400}\n"),
            ([], f"rng_seed: 1{'0' * 400}\n"),
            ([], f"n_shots: 1{'0' * 5000}\n"),  # too long for Python to read
        ],
        ids=["shots_2_64", "seed_2_64", "shots_401_digits", "seed_401_digits",
             "config_shots_401_digits", "config_seed_401_digits", "config_shots_5001_digits"],
    )
    def test_out_of_range_integer_is_refused_briefly(self, tmp_path, capsys, argv, config):
        """A shot count or seed of 2**64 or more is refused before any run,
        on one short line that names a long integer by its length."""
        cfg = tmp_path / "big.yaml"
        cfg.write_text(config, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["fig3", *argv, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and len(line) < 200, line
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--shots", "--seed", "--grid", "--jobs"])
    def test_integer_flag_too_long_to_read_names_its_digits(self, tmp_path, capsys, flag):
        """An integer flag of more than 4,300 digits, which Python will not
        read, is refused by the parser with its digit count, not echoed."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["fig3", flag, "1" + "0" * 5000, "--out", str(out)])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode()) < 300, captured.err
        assert f"argument {flag}: invalid int value: an integer of 5001 digits" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("shots", [2**64 - 1, 2**63 - 1])
    def test_shot_count_past_numpy_largest_array_is_refused(
        self, tmp_path, capsys, monkeypatch, shots
    ):
        """A shot count whose uniforms no numpy array can hold is refused
        before any range is run: exit 2, one line naming the count and the
        limit, nothing written."""
        def no_range(args):
            raise AssertionError("a range was run")

        monkeypatch.setattr(mc, "_run_chunk", no_range)
        out = tmp_path / "out"
        assert main(["fig3", "--shots", str(shots), "--no-svg", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: n_shots {shots} ")
        assert line.endswith(f"{np.iinfo(np.intp).max} bytes")
        assert not out.exists()

    def test_seed_just_below_2_64_runs(self, tmp_path):
        out = tmp_path / "out"
        argv = ["fig2", "--variant", "single", "--shots", "20", "--grid", "3", "--no-svg"]
        assert main([*argv, "--seed", str(2**64 - 1), "--out", str(out)]) == 0

    def test_unallocatable_run_reports_one_line(self, tmp_path, capsys, monkeypatch):
        """A run too large to allocate is refused like any rejected input:
        exit 2, one error line, nothing written, and no worker left.  The
        engine is a stand-in, in this process and in the forked workers: a
        real allocation of that size could succeed on a kernel that
        overcommits."""
        def unallocatable(*args, **kwargs):
            raise MemoryError(
                "Unable to allocate 2.18 TiB for an array with shape (100000000000, 3) "
                "and data type float64"
            )

        monkeypatch.setattr(mc, "run_shots", unallocatable)
        out = tmp_path / "out"
        argv = ["fig3", "--shots", "8200", "--jobs", "2", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: Unable to allocate 2.18 TiB")
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_tiny_gamma_plots_finite_coordinates(self, tmp_path, capsys):
        """1/Gamma = 1e308 sets the top of the 1/Gamma plot; its ticks stay
        finite, as does every other coordinate of the run's SVGs, and the run
        raises no warning.  At
        Gamma = 5.6e-309, 1/Gamma = 1.786e308 is finite but 5% above it is
        not, so that plot shows the data's unpadded range."""
        for gamma in ("1.0e-308", "5.6e-309"):
            cfg = tmp_path / f"{gamma}.yaml"
            cfg.write_text(
                f"experiment: fig3_tunnel\ngamma_grid: [{gamma}, 1.0]\n", encoding="utf-8"
            )
            out = tmp_path / gamma
            argv = ["custom", "--config", str(cfg), "--shots", "200", "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 0, gamma
            svgs = sorted(out.glob("*.svg"))
            assert [p.name for p in svgs] == [
                "fig3_tunnel_inv_gamma.svg", "fig3_tunnel_sigma_z.svg"
            ]
            for path in svgs:
                doc = path.read_text(encoding="utf-8")
                ET.fromstring(doc)
                assert not re.search(r'="[^"]*(nan|inf)', doc), (gamma, path.name)

    @pytest.mark.parametrize(
        "config",
        ["", LABEL_ERRORS + "noise_t2star: 1.0\n", "noise_false_negative: 1.0\n",
         "noise_false_positive: 1.0\n", "noise_t2star: 1.0e-160\n"],
        ids=["plain", "noisy", "fn_extreme", "fp_extreme", "t2star_overflows"],
    )
    def test_every_figure_runs_warning_free(self, tmp_path, capsys, config):
        """Every panel runs without a warning and plots no nan or inf
        coordinate: without noise, with all of it, at each label error's
        extreme, and with a T2* whose (t_m/T2*)^2 overflows."""
        cfg = tmp_path / "run.yaml"
        cfg.write_text(CUSTOM + config, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["custom", "--config", str(cfg), "--shots", "2000", "--grid", "9"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 0
        svgs = list(out.glob("*.svg"))
        assert svgs
        for path in svgs:
            assert not re.search(r'="[^"]*(nan|inf)', path.read_text(encoding="utf-8")), path.name

    @pytest.mark.parametrize(
        ("argv", "config", "t2star", "table"),
        [
            (["fig3"], "", "1.0e-160", "fig3_tunnel.csv"),
            (["fig2", "--variant", "single", "--grid", "3"], "t_m: 1.0e+200\n", "1.0",
             "fig2_single_sigma_z.csv"),
        ],
        ids=["fig3_short_t2star", "fig2_long_t_m"],
    )
    def test_dephasing_ratio_beyond_the_float_range(
        self, tmp_path, capsys, argv, config, t2star, table
    ):
        """Where (t_m/T2*)^2 overflows a float, every window dephases the
        nucleus fully and the run goes on.  Dephasing leaves populations
        alone, so the sigma_z table equals that of the run without T2*, and
        no SVG coordinate reads nan or inf."""
        tables = []
        for name, text in (("dephased", f"{config}noise_t2star: {t2star}\n"), ("clean", config)):
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(text, encoding="utf-8")
            out = tmp_path / name
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main([*argv, "--shots", "20", "--config", str(cfg), "--out", str(out)])
            assert rc == 0, name
            for path in out.glob("*.svg"):
                assert not re.search(r'="[^"]*(nan|inf)', path.read_text(encoding="utf-8"))
            tables.append((out / table).read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("command", ["fig2", "fig3", "supp"])
    def test_experiment_outside_custom_is_refused(self, tmp_path, capsys, command):
        """Only custom reads the config's experiment: fig2, fig3 and supp
        refuse one, naming the key, and write nothing.  The default,
        ``custom``, is no choice, so they take it."""
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("experiment: fig2_single\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--shots", "20", "--grid", "3", "--no-svg"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error:") and "'experiment'" in line
        assert not out.exists()
        cfg.write_text("experiment: custom\n", encoding="utf-8")
        assert main([*argv, "--out", str(out)]) == 0
        assert out.exists()

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

    def test_custom_computes_each_closed_form_once(self, tmp_path, monkeypatch, capsys):
        """fig2, supp5 and supp6 read 18 sigma panels of 4 sequences (three
        fig2 variants and steering); each (sequence, theta) is one closed
        form, however many panels read it."""
        calls = []
        for name in ("closed_form_sequence", "steering_scan"):
            def counted(*args, _original=getattr(protocols, name)):
                calls.append(args)
                return _original(*args)
            monkeypatch.setattr(protocols, name, counted)
        cfg = tmp_path / "run.yaml"
        cfg.write_text("experiment: custom\n", encoding="utf-8")
        closed_form_tomography.cache_clear()
        argv = ["custom", "--config", str(cfg), "--grid", "5", "--shots", "20", "--no-svg"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 4 * 5

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

        def counted(protocol, noise, n_shots, rng_seed, n_jobs=1, start=0):
            calls.append(
                (repr(protocol.steps), protocol.initial.rho.matrix.tobytes(),
                 noise, n_shots, rng_seed, start)
            )
            return run_shots(protocol, noise, n_shots, rng_seed, n_jobs, start)

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

    def test_custom_equals_separate_figure_runs(self, tmp_path, capsys):
        """Sharing ensembles between figures changes no byte: custom's
        files are those of separate fig2, fig3 and supp runs."""
        cfg = tmp_path / "run.yaml"
        cfg.write_text("experiment: custom\n", encoding="utf-8")
        common = ["--shots", "30", "--grid", "5", "--seed", "7"]

        def tree(name, argv):
            out = tmp_path / name
            assert main([*argv, *common, "--out", str(out)]) == 0
            return {f.name: f.read_bytes() for f in out.iterdir()}

        custom = tree("custom", ["custom", "--config", str(cfg)])
        separate = {}
        for command in ("fig2", "fig3", "supp"):
            separate.update(tree(command, [command]))
        assert len(custom) == 45
        assert custom == separate

    @pytest.mark.parametrize("experiment", ["fig2", "supp"])
    def test_custom_experiment_equals_its_subcommand(self, tmp_path, capsys, experiment):
        """``custom`` with ``experiment: fig2`` or ``supp`` writes the files,
        and prints the paths, of the subcommand of that name."""
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"experiment: {experiment}\n", encoding="utf-8")
        common = ["--shots", "30", "--grid", "5", "--seed", "7"]

        def run(name, argv):
            out = tmp_path / name
            assert main([*argv, *common, "--out", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            printed = [Path(line).relative_to(out) for line in lines]
            return printed, {f.name: f.read_bytes() for f in out.iterdir()}

        printed, files = run("custom", ["custom", "--config", str(cfg)])
        assert files
        assert (printed, files) == run(experiment, [experiment])

    def test_default_gamma_grid_follows_t_m(self, tmp_path, capsys):
        """An unset Gamma grid spans Gamma * t_m over [0.05, 10] at the
        t_m the config file sets, not at the default t_m."""
        cfg = tmp_path / "run.yaml"
        cfg.write_text("t_m: 1.0e-3\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["fig3", "--config", str(cfg), "--shots", "20", "--no-svg"]
        assert main([*argv, "--out", str(out)]) == 0
        with open(out / "fig3_tunnel.csv", newline="") as fh:
            gamma_t_m = [float(row["gamma_t_m"]) for row in csv.DictReader(fh)]
        assert len(gamma_t_m) == 9
        assert gamma_t_m[0] == pytest.approx(0.05)
        assert gamma_t_m[-1] == pytest.approx(10.0)

    def test_seed_changes_output(self, tmp_path):
        common = ["fig2", "--variant", "single", "--shots", "40", "--grid", "3",
                  "--no-svg"]
        main(common + ["--out", str(tmp_path / "s1"), "--seed", "1"])
        main(common + ["--out", str(tmp_path / "s2"), "--seed", "2"])
        a = (tmp_path / "s1" / "fig2_single_sigma_z.csv").read_text()
        b = (tmp_path / "s2" / "fig2_single_sigma_z.csv").read_text()
        assert a != b


class TestEntry:
    """Both process entries, ``python -m weakmeas.experiments.cli`` and the
    ``weakmeas`` console script, freeze the import-time heap before the run;
    ``main`` called as a library function leaves the collector alone."""

    ARGV = ["fig2", "--variant", "single", "--shots", "10", "--grid", "3", "--no-svg"]
    # printed at exit, after main ran and the entry raised SystemExit
    REPORT = "import atexit, gc\natexit.register(lambda: print(gc.get_freeze_count()))\n"

    def run_entry(self, code: str, out: Path) -> int:
        """Run ``code`` in a fresh interpreter with ``sys.argv[1:]`` the CLI
        arguments; return the freeze count it reports at exit."""
        src = Path(weakmeas.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.REPORT + code, *self.ARGV, "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        *paths, frozen = proc.stdout.splitlines()
        assert sorted(Path(p).name for p in paths) == [
            f"fig2_single_sigma_{a}.csv" for a in ("x", "y", "z")
        ]
        return int(frozen)

    def test_module_route_freezes(self, tmp_path):
        code = (
            "import runpy, sys\n"
            "sys.argv[0] = 'weakmeas'\n"
            "runpy.run_module('weakmeas.experiments.cli', run_name='__main__')\n"
        )
        # numpy's heap and the package's: tens of thousands of objects
        assert self.run_entry(code, tmp_path) > 1000

    def test_console_script_freezes(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["weakmeas"]
        module, func = target.split(":")
        # what the installed script does: import the target and exit with it
        code = (
            "import importlib, sys\n"
            "sys.argv[0] = 'weakmeas'\n"
            f"sys.exit(getattr(importlib.import_module({module!r}), {func!r})())\n"
        )
        assert self.run_entry(code, tmp_path) > 1000

    def test_main_leaves_collector_alone(self, tmp_path):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert main([*self.ARGV, "--out", str(tmp_path)]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
