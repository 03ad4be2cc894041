"""Golden outputs: every run of ``tests/golden/make_golden.py`` writes what
its committed record says, cell by cell.

- The printed path list, masked to paths relative to the output
  directory, and the set of CSV and SVG files must be equal.
- Every CSV cell is compared as text, so exactly, except in the
  columns of ``TOLERANT``.  The exact columns are the counts ``n_kept``
  and ``n_total``, the sweep values, and what pure-Python float arithmetic
  computes from them (the MC mean, its standard error, the kept fraction,
  fig3's sigma_z inversion and its bounds).  A count moves only if a
  uniform lands within an ulp of a threshold, so these columns do not
  depend on the platform.
- The closed-form columns (``analytic``, ``sigma_z_analytic``: 4x4
  products through BLAS) and fig3's blip-time MLE columns (libm
  ``log1p`` and ``exp``) may differ in their last bits on another platform.
  They must be equal within a relative tolerance of 1e-9 (absolute
  1e-12 near zero), and empty where the record's cell is empty.
- An SVG's coordinates come from those columns too, so its sha256 is
  compared only where the Python and numpy versions equal the record's.

A change that moves output bytes on purpose regenerates the record with
the script and says which files changed.
"""

import csv
import io
import json
import math

import pytest

from golden import make_golden as golden

RECORD = json.loads(golden.RECORD.read_text(encoding="utf-8"))
TOLERANT = {
    "analytic",
    "sigma_z_analytic",
    "inv_gamma_blip_mle",
    "inv_gamma_blip_mle_low",
    "inv_gamma_blip_mle_high",
}


def assert_same_table(got: str, want: str, where: str) -> None:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    header = want_rows[0]
    assert got_rows[0] == header, where
    assert len(got_rows) == len(want_rows), where
    for i, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        for column, g, w in zip(header, g_row, w_row, strict=True):
            cell = f"{where} row {i} column {column}: got {g!r}, recorded {w!r}"
            if column in TOLERANT and g and w:
                assert math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-12), cell
            else:
                assert g == w, cell


@pytest.mark.parametrize("seed", golden.SEEDS)
@pytest.mark.parametrize("name", list(golden.RUNS))
def test_run_matches_record(tmp_path, capsys, name, seed):
    want = RECORD["runs"][golden.key(name, seed)]
    got = golden.run(name, seed, tmp_path)
    assert got["stdout"] == want["stdout"]
    assert got["csv"].keys() == want["csv"].keys()
    for path, text in want["csv"].items():
        assert_same_table(got["csv"][path], text, f"{name} seed {seed} {path}")
    assert got["svg"].keys() == want["svg"].keys()
    if golden.versions() == {k: RECORD[k] for k in ("python", "numpy")}:
        assert got["svg"] == want["svg"]
