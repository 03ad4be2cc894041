"""Output checker: every CSV row (a point) against its closed form.

A point fails when
  * the run exited non-zero, or its file or row is missing or malformed;
  * its file differs, byte for byte, from the first repeat's;
  * its kept count is improbable under the closed-form keep probability
    (see below), so an empty MC cell fails unless keeping no shot at all
    is plausible; or it kept shots but has an empty MC or analytic cell;
  * the MC count is improbable under the closed form: the exact binomial
    probability of a deviation from the closed form at least as large as
    the one observed is below ``ALPHA``.

Why an exact binomial and not a fixed z bound: every checked column is a
mean of +-1 outcomes (or a kept fraction) over shots that all share one
post-selected state, so its count is Binomial(n, p) with p fixed by the
closed form.  ``mc_std_error`` is 0 whenever every kept shot agrees, which
happens often near sigma = +-1, so the z-score uses the closed form's own
standard error, sqrt((1 - a^2)/n_kept) or sqrt(p(1 - p)/n_total).  Where
n*p*(1 - p) is small that z is far from normal: a single minority outcome
at p = 4e-5, n = 198 reads as z = 80 though it happens in 0.8% of seeds.
A 5-sigma z rule would fail about one point of the 870-point suite at
200 shots in four seeds; the exact tail at ALPHA = 1e-9 fails a correct
point about once in 10^6 runs and still flags any real defect (about 6.1
sigma where the normal approximation holds).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from scipy.stats import binom

from workloads import EXPECTATION, SUCCESS, TUNNEL, Panel

ALPHA = 1e-9

_COLUMNS = {
    EXPECTATION: ("sweep_value", "analytic", "mc_mean", "n_kept", "n_total"),
    SUCCESS: ("sweep_value", "analytic", "mc_mean", "n_kept", "n_total"),
    TUNNEL: ("gamma", "sigma_z_analytic", "sigma_z_mc", "n_kept", "n_total"),
}


@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    max_abs_z: float = 0.0
    shots: int = 0  # sum of n_total over every row read
    csv_bytes: dict[str, bytes] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)  # first few reasons

    def fail(self, n: int, reason: str) -> None:
        self.failed += n
        if len(self.problems) < 10:
            self.problems.append(reason)

    def merge(self, other: "CheckReport") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_abs_z = max(self.max_abs_z, other.max_abs_z)
        self.shots += other.shots
        for p in other.problems:
            if len(self.problems) < 10:
                self.problems.append(p)


def binomial_p_value(k: int, n: int, p: float) -> float:
    """Two-sided probability of a count at least as far from n*p as k."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    tail = binom.sf(k - 1, n, p) if k >= n * p else binom.cdf(k, n, p)
    return min(1.0, 2.0 * float(tail))


def _float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _check_point(kind: str, keep: float, analytic: float | None, mc: float | None,
                 n_kept: int, n_total: int) -> tuple[str | None, float]:
    """Reason the point fails (None if it passes) and its |z|."""
    if kind == SUCCESS:
        if analytic is None or mc is None:
            return "empty cell in a success panel", 0.0
        if abs(mc * n_total - n_kept) > 1e-6:
            return "success fraction is not n_kept/n_total", 0.0
        n, k, p = n_total, n_kept, analytic
    else:
        pv = binomial_p_value(n_kept, n_total, keep)
        if pv < ALPHA:
            return f"n_kept {n_kept} of {n_total} at keep probability {keep:.6g}", 0.0
        if n_kept == 0:
            return (None, 0.0) if mc is None else ("MC mean without kept shots", 0.0)
        if analytic is None or mc is None:
            return "kept shots but an empty cell", 0.0
        if not -1.0 - 1e-9 <= mc <= 1.0 + 1e-9:
            return "MC mean outside [-1, 1]", 0.0
        n, p = n_kept, (1.0 + analytic) / 2.0
        half_count = (1.0 + mc) / 2.0 * n_kept
        k = round(half_count)
        if abs(half_count - k) > 1e-6:
            return "MC mean is not a mean of +-1 outcomes", 0.0
    if not -1e-9 <= p <= 1.0 + 1e-9:
        return "closed form outside its range", 0.0
    p = min(max(p, 0.0), 1.0)
    se = math.sqrt(p * (1.0 - p) / n)
    diff = k / n - p
    z = abs(diff) / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf)
    pv = binomial_p_value(k, n, p)
    if pv < ALPHA:
        return f"|z| = {z:.3g}, binomial p = {pv:.3g} < {ALPHA:g}", z
    return None, z


def check_panel(panel: Panel, out_dir: Path, reference: bytes | None = None) -> CheckReport:
    """Check one CSV file; ``reference`` is the first repeat's bytes, if any."""
    report = CheckReport(attempted=len(panel.sweep))
    path = out_dir / panel.filename
    try:
        data = path.read_bytes()
    except OSError:
        report.fail(report.attempted, f"{panel.filename}: missing")
        return report
    report.csv_bytes[panel.filename] = data
    if reference is not None and data != reference:
        report.fail(report.attempted, f"{panel.filename}: differs from the first repeat")
        return report
    rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    cols = _COLUMNS[panel.kind]
    if rows and not all(c in rows[0] for c in cols):
        report.fail(report.attempted, f"{panel.filename}: header lacks {cols}")
        return report
    if len(rows) != len(panel.sweep):
        report.fail(report.attempted,
                    f"{panel.filename}: {len(rows)} rows, expected {len(panel.sweep)}")
        return report
    sweep_col, analytic_col, mc_col = cols[:3]
    for i, (row, want) in enumerate(zip(rows, panel.sweep)):
        where = f"{panel.filename} row {i + 1}"
        try:
            sweep = float(row[sweep_col])
            analytic = _float(row[analytic_col])
            mc = _float(row[mc_col])
            n_kept, n_total = int(row["n_kept"]), int(row["n_total"])
        except (TypeError, ValueError):
            report.fail(1, f"{where}: malformed")
            continue
        report.shots += n_total
        if abs(sweep - want) > 1e-12 * max(1.0, abs(want)):
            report.fail(1, f"{where}: sweep value {sweep}, expected {want}")
            continue
        if n_total != panel.n_shots or not 0 <= n_kept <= n_total:
            report.fail(1, f"{where}: n_kept {n_kept}, n_total {n_total}")
            continue
        reason, z = _check_point(panel.kind, panel.keep(want), analytic, mc, n_kept, n_total)
        report.max_abs_z = max(report.max_abs_z, z)
        if reason is not None:
            report.fail(1, f"{where}: {reason}")
    return report


def check_run(panels, out_dir: Path, n_svg: int,
              reference: dict[str, bytes] | None = None) -> CheckReport:
    """Check every panel of one run, plus the number of SVG files it wrote."""
    report = CheckReport()
    for panel in panels:
        ref = None if reference is None else reference.get(panel.filename)
        part = check_panel(panel, out_dir, ref)
        report.merge(part)
        report.csv_bytes.update(part.csv_bytes)
    svgs = len(list(out_dir.glob("*.svg")))
    if svgs != n_svg:
        report.problems.append(f"{svgs} SVG files, expected {n_svg}")
    return report


def failed_run(panels, reason: str) -> CheckReport:
    """Every point of a run that did not complete counts as failed."""
    report = CheckReport(attempted=sum(len(p.sweep) for p in panels))
    report.fail(report.attempted, reason)
    return report
