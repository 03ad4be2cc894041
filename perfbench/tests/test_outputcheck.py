"""The checker passes real output and fails each kind of broken output."""

import csv
import io
import math

import pytest

from outputcheck import binomial_p_value, check_run
from workloads import _fig2_panels, theta_grid
from weakmeas.experiments import cli

PANELS = _fig2_panels("fig2", ("single",), theta_grid(5), 200)


@pytest.fixture()
def out(tmp_path):
    argv = ["fig2", "--variant", "single", "--grid", "5", "--shots", "200",
            "--no-svg", "--seed", "7", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    return tmp_path


def edit_rows(path, edit):
    rows = list(csv.reader(path.read_text().splitlines()))
    header, body = rows[0], rows[1:]
    body = edit(header, body)
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *body])
    path.write_text(buf.getvalue())


def test_real_output_passes(out):
    report = check_run(PANELS, out, n_svg=0)
    assert (report.attempted, report.failed, report.problems) == (15, 0, [])
    assert report.shots == 15 * 200


def test_perturbed_mc_mean_fails(out):
    def flip(header, body):
        col = header.index("mc_mean")
        row = max(body, key=lambda r: abs(float(r[col] or 0)))
        row[col] = repr(-float(row[col]))  # still a mean of +-1 outcomes
        return body

    edit_rows(out / "fig2_single_sigma_x.csv", flip)
    report = check_run(PANELS, out, n_svg=0)
    assert report.failed == 1
    assert "binomial p" in report.problems[0]


def test_deleted_row_fails(out):
    edit_rows(out / "fig2_single_sigma_z.csv", lambda header, body: body[:2] + body[3:])
    report = check_run(PANELS, out, n_svg=0)
    assert report.failed == 5
    assert "4 rows, expected 5" in report.problems[0]


def test_zero_std_error_point_far_from_closed_form_fails(out):
    def all_agree(header, body):
        row = min(body, key=lambda r: abs(float(r[header.index("analytic")])))
        assert abs(float(row[header.index("analytic")])) < 0.5
        row[header.index("mc_mean")] = "1"
        row[header.index("mc_std_error")] = "0"
        return body

    edit_rows(out / "fig2_single_sigma_z.csv", all_agree)
    report = check_run(PANELS, out, n_svg=0)
    assert report.failed == 1


def test_repeat_with_other_bytes_fails(out):
    first = check_run(PANELS, out, n_svg=0).csv_bytes
    first["fig2_single_sigma_y.csv"] += b"\n"
    report = check_run(PANELS, out, n_svg=0, reference=first)
    assert report.failed == 5
    assert "differs from the first repeat" in report.problems[0]


@pytest.mark.parametrize("p", [1e-6, 0.03, 0.5, 0.97])
def test_binomial_p_value_matches_enumeration(p):
    n = 40
    pmf = [math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
    for k in range(n + 1):
        tail = sum(pmf[k:]) if k >= n * p else sum(pmf[: k + 1])
        assert binomial_p_value(k, n, p) == pytest.approx(min(1.0, 2 * tail), rel=1e-9)
