"""Figure-reproduction presets: analytic curves and Monte Carlo ensembles
side by side, in tables of rows that map column names to values, written
as CSV (17 significant digits, empty cells for flagged values) and
optionally drawn from those rows as self-contained SVG plots.

``PANELS`` lists every output; ``run_panels`` is the one run entry, and
``_write_file`` the one way a document reaches the disk."""

from __future__ import annotations

import contextlib
import csv
import io
import math
import operator
import os
from dataclasses import dataclass
from functools import cache, partial, reduce
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .. import montecarlo as mc
from .. import protocols
from ..protocols import (
    ImpossibleBranchError,
    MeasurementTooWeakError,
    ProjectiveLimitError,
    TomographyResult,
    TunnelModel,
)
from ..spinsys import Frequency, RotationPulse, prepare_bell
from .config import RunConfig, default_gamma_grid
from .svgplot import PlotPoint, PlotStyle, emit_plot

AXES = ("z", "x", "y")

FIG2_VARIANTS = ("single", "double", "reversal")
STEERING = "steering"  # Bell pair, unconditional electron rotation, readout
BELL_WINDOW = "bell_window"  # Bell pair, one finite readout window; swept over Gamma

MEAN = "mean"  # the kept shots' mean tomography outcome
KEPT = "kept"  # the fraction of shots that pass post-selection
TUNNEL = "tunnel"  # fig3's table: sigma_z inversion and blip-time MLE of 1/Gamma

THETA_LABEL = "rotation angle theta (rad)"


@dataclass(frozen=True)
class Panel:
    """One CSV (and its SVGs) and where its numbers come from.

    At each sweep value, theta or (for BELL_WINDOW) Gamma, the panel reads
    the run's ``SweepPoint`` of ``sequence``.  A MEAN panel sets the kept
    shots' mean outcome along ``axis`` beside the closed-form sigma along
    ``axis``; a KEPT panel sets the kept fraction beside the sequence's
    closed-form success probability; the TUNNEL panel is fig3's table,
    whose two plots have styles of their own.
    """

    name: str
    sequence: str  # one of FIG2_VARIANTS, STEERING or BELL_WINDOW
    axis: str
    statistic: str  # MEAN, KEPT or TUNNEL
    style: Optional[PlotStyle] = None


@dataclass(frozen=True)
class SweepPoint:
    """What the shots of one (sequence, sweep value) show: each axis's
    statistics and, at a Gamma point, the recorded blip times in shot order
    (None at a theta point); the tables compute closed forms and estimates."""

    stats: dict[str, mc.EnsembleStats]
    blip_times: Optional[np.ndarray] = None

    def __add__(self, other: "SweepPoint") -> "SweepPoint":
        """The point of this shot range followed by ``other``'s: each axis's
        counts added up and any blip times joined, in that order."""
        stats = {axis: s + other.stats[axis] for axis, s in self.stats.items()}
        times = (self.blip_times, other.blip_times)
        return SweepPoint(stats, None if times[0] is None else np.concatenate(times))


Points = dict[tuple[str, float], SweepPoint]  # the run's points by (sequence, value)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.17g}"


def _csv_text(rows: Sequence[dict]) -> str:
    """The first row's column names, then every row's values; no grid is empty."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([_fmt(v) for v in row.values()])
    return buffer.getvalue()


def _write_file(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: into a temporary file
    beside it, which then replaces ``path`` in one rename.  On any failure,
    the directory's creation included, the temporary file is removed and
    ``path`` is left as it was; an ``OSError`` names ``path``."""
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        temp.write_text(text, encoding="utf-8", newline="")
        os.replace(temp, path)
    except BaseException as err:  # Ctrl-C mid-write included
        with contextlib.suppress(OSError):  # never made, or no directory to hold it
            temp.unlink()
        if isinstance(err, OSError):
            raise OSError(f"cannot write output file {path}: {err}") from err
        raise


def fig2_pulse_sequence(variant: str, theta: float) -> list[tuple[float, Frequency]]:
    """The conditional-pulse list of each fig2 preset variant."""
    if variant == "single":
        return [(theta, Frequency.NU_E2)]
    if variant == "double":
        return [(theta, Frequency.NU_E2), (theta, Frequency.NU_E2)]
    if variant == "reversal":
        return [(theta, Frequency.NU_E2), (theta, Frequency.NU_E1)]
    raise ValueError(f"unknown fig2 variant {variant!r}")


def fig2_protocol(variant: str, theta: float, t_m: float) -> mc.Protocol:
    """A fig2 variant's pulses, each followed by a projective readout window
    of ``t_m`` ms kept on no-blip."""
    window = TunnelModel.projective(t_m)
    steps: list[mc.ProtocolStep] = []
    for angle, freq in fig2_pulse_sequence(variant, theta):
        steps.append(RotationPulse(freq, angle))
        steps.append(window)
    return mc.Protocol(tuple(steps))


@cache  # fig2 and supp5 read the same (sequence, theta) on several panels
def closed_form_tomography(sequence: str, theta: float) -> Optional[TomographyResult]:
    """The closed-form Bloch vector of the kept nuclear state of a sweep
    sequence, or None where no shot can be kept."""
    if sequence == STEERING:
        return protocols.steering_scan(theta)
    try:
        post = protocols.closed_form_sequence(fig2_pulse_sequence(sequence, theta))
    except ImpossibleBranchError:
        return None
    return protocols.tomography_expectations(post.state)


def _success_probability(variant: str, theta: float) -> float:
    if variant == "reversal":
        return protocols.reversal_success_probability(theta)
    return protocols.success_probability_n(theta, 1 if variant == "single" else 2)


def _sigma_panel(name, sequence, axis, title, xlabel=THETA_LABEL) -> Panel:
    ylabel = f"&lt;sigma_{axis}&gt;"
    style = PlotStyle(f"{title}: sigma_{axis}", xlabel, ylabel, -1.1, 1.1)
    return Panel(name, sequence, axis, MEAN, style)


# Every panel, in output order.  fig2, supp4 and supp5 read the same fig2
# ensembles; supp4 reads their kept fraction.
PANELS: tuple[Panel, ...] = (
    *(
        _sigma_panel(f"fig2_{v}_sigma_{a}", v, a, f"{v} measurement")
        for v in FIG2_VARIANTS
        for a in AXES
    ),
    Panel("fig3_tunnel", BELL_WINDOW, "z", TUNNEL),
    *(
        Panel(f"supp4_success_{v}", v, "z", KEPT,
              PlotStyle(f"success probability: {v}", THETA_LABEL, "P(success)", -0.05, 1.05))
        for v in FIG2_VARIANTS
    ),
    *(
        _sigma_panel(f"supp5_expectations_{v}_sigma_{a}", v, a, f"{v} measurement")
        for v in ("single", "double")
        for a in AXES
    ),
    *(
        _sigma_panel(f"supp6_steering_sigma_{a}", STEERING, a, "steering scan",
                     "unconditional electron rotation theta (rad)")
        for a in AXES
    ),
)


def bell_window_protocol(gamma: float, t_m: float) -> mc.Protocol:
    """Bell pair, one finite readout window kept on no-blip; fig3 reads
    its sigma_z."""
    return mc.Protocol((TunnelModel(gamma_up_out=gamma, t_m=t_m),), initial=prepare_bell())


def _sweep(config: RunConfig, sequence: str) -> list[float]:
    """A sequence's sweep values: the tunnel rates in ascending order for
    BELL_WINDOW, the rotation angles otherwise.  An unset Gamma grid
    spans the default range of Gamma * t_m at the run's t_m."""
    if sequence == BELL_WINDOW:
        return sorted(config.gamma_grid or default_gamma_grid(config.t_m))
    return config.theta_grid


def _sweep_protocol(sequence: str, value: float, t_m: float) -> mc.Protocol:
    """A sweep point's protocol, its readout windows ``t_m`` ms long."""
    if sequence == BELL_WINDOW:
        return bell_window_protocol(value, t_m)
    if sequence == STEERING:
        return mc.Protocol(
            (RotationPulse(Frequency.ESR_BOTH, value), TunnelModel.projective(t_m)),
            initial=prepare_bell(),
        )
    return fig2_protocol(sequence, value, t_m)


def _run_range(config: RunConfig, work: Sequence[tuple], bounds: tuple[int, int]) -> list:
    """Shots a..b-1 of every (key, protocol) point of ``work``, as one
    ``SweepPoint`` per point: the statistics of each axis and, at a Gamma
    point, the recorded blip times."""
    a, b = bounds
    points = []
    for (sequence, _), protocol in work:
        shots = mc.run_shots(protocol, config.noise, b - a, config.rng_seed, 1, start=a)
        stats = {axis: mc.stats_from_records(shots, axis) for axis in AXES}
        times = mc.recorded_blip_times(shots) if sequence == BELL_WINDOW else None
        points.append(SweepPoint(stats, times))
        del shots  # before the next point's columns are built
    return points


def run_panels(config: RunConfig) -> list[Path]:
    """Write every panel of PANELS whose name starts with ``config.experiment``
    (every panel for ``custom``) in PANELS order, and return the paths written.

    The run lists each (sequence, sweep value) the selected panels read and
    simulates it once, for every axis, before anything is written: noise,
    shots and seed are fixed for a run, so equal keys are equal ensembles.
    It cuts the shots into ``mc.shot_ranges(n_shots, n_jobs)``, at most
    ``--jobs`` ranges and one per usable CPU, so a run whose ensembles
    ``run_shots`` would not split forks nothing.  One ``_parallel_map``
    runs each range in a process of its own, at every point, so a process
    builds the Philox uniforms of its range alone, and sends back counts
    and blip times.  This process adds up each point's
    counts and joins its times in range order, which is shot order, so the
    output bytes do not depend on ``n_jobs``; the tables compute the rest.
    Every CSV and SVG is rendered to text before the first is written, and
    each is written whole or not at all, so a failed write leaves the files
    written before it and no partial file.
    """
    prefix = "" if config.experiment == "custom" else config.experiment
    selected = [panel for panel in PANELS if panel.name.startswith(prefix)]
    keys = dict.fromkeys(
        (panel.sequence, value) for panel in selected for value in _sweep(config, panel.sequence)
    )
    work = [(key, _sweep_protocol(*key, config.t_m)) for key in keys]
    ranges = mc.shot_ranges(config.n_shots, config.n_jobs)
    done = mc._parallel_map(partial(_run_range, config, work), ranges)
    points = {key: reduce(operator.add, ranged) for key, ranged in zip(keys, zip(*done))}
    # every document is rendered before any is written: a plot that
    # emit_plot refuses leaves no file behind
    documents: list[tuple[Path, str]] = []
    for panel in selected:
        tabulate = _tunnel_table if panel.statistic == TUNNEL else _sweep_table
        table, plots = tabulate(config, panel, points)
        documents.append((config.output_dir / f"{panel.name}.csv", _csv_text(table)))
        if config.emit_svg:
            documents += [
                (config.output_dir / f"{name}.svg", emit_plot(plot_points, style))
                for name, plot_points, style in plots
            ]
    for path, text in documents:
        _write_file(path, text)
    return [path for path, _ in documents]


# A panel's CSV rows, and the (name, points, style) of each of its SVGs.
Table = tuple[list[dict], list[tuple[str, list[PlotPoint], PlotStyle]]]


def _mean_points(rows: Sequence[dict], *columns: str) -> list[PlotPoint]:
    """The plot points of ``rows`` from the columns x, analytic, mean and
    error: a marker at the mean, its bar mean -+ error."""
    return [
        PlotPoint(x, analytic, mean, *(() if mean is None else (mean - error, mean + error)))
        for x, analytic, mean, error in map(operator.itemgetter(*columns), rows)
    ]


def _sweep_table(config: RunConfig, panel: Panel, points: Points) -> Table:
    """A theta panel: one row per theta, and one plot of the rows with bars
    mean -+ SE."""
    table = []
    for theta in config.theta_grid:
        stats = points[(panel.sequence, theta)].stats[panel.axis]
        if panel.statistic == KEPT:
            analytic = _success_probability(panel.sequence, theta)
            value = stats.success_fraction
            error = math.sqrt(value * (1.0 - value) / stats.n_total)
        else:
            tomo = closed_form_tomography(panel.sequence, theta)
            analytic = None if tomo is None else getattr(tomo, f"sigma_{panel.axis}")
            value, error = stats.mean, stats.std_error
        table.append(dict(sweep_value=theta, analytic=analytic, mc_mean=value,
                          mc_std_error=error, n_kept=stats.n_kept, n_total=stats.n_total))
    plot = _mean_points(table, "sweep_value", "analytic", "mc_mean", "mc_std_error")
    return table, [(panel.name, plot, panel.style)]


def _wilson_interval(stats: mc.EnsembleStats) -> tuple[float, float]:
    """The 95% Wilson score interval on the kept shots' +1 fraction.  The
    Wald interval, mean +- 1.96 SE, under-covers near sigma_z = -1 and is
    empty when every kept shot reads -1 (Brown, Cai & DasGupta, Statist.
    Sci. 16, 2001); the score interval has neither fault."""
    n = stats.n_kept
    p = stats.n_plus / n
    z2 = 1.959963984540054**2 / n
    center = (p + z2 / 2.0) / (1.0 + z2)
    half = math.sqrt(z2 * (p * (1.0 - p) + z2 / 4.0)) / (1.0 + z2)
    return center - half, center + half


def _tunnel_table(config: RunConfig, panel: Panel, points: Points) -> Table:
    """Tunnel-rate extraction (fig3), one row per Gamma, by the paper's two
    estimators of 1/Gamma from the same shots: the no-blip sigma_z inversion
    under the run's label errors, with the Wilson interval mapped through it
    on every row that kept a shot, and the blip-time MLE.  Its plots draw
    sigma_z -+ SE and 1/Gamma over that interval.  Where p_fn >= 1 - p_fp,
    or no blip informs the MLE, that estimator's cells stay empty."""
    table = []
    t_m = config.t_m
    labels = (config.noise.readout_false_negative, config.noise.readout_false_positive)
    invertible = labels[0] < 1.0 - labels[1]
    # A false negative drops a real blip's time; a false positive records none.
    p = 0.5 * (1.0 - labels[0])
    for gamma in _sweep(config, panel.sequence):
        point = points[(panel.sequence, gamma)]
        stats = point.stats[panel.axis]
        analytic = protocols.sigma_z_noblip(
            math.pi, TunnelModel(gamma_up_out=gamma, t_m=t_m)
        )

        inv_ext = inv_lo = inv_hi = None
        if invertible and not stats.empty:
            try:
                inv_ext = protocols.extract_tunnel_rate(stats.mean, t_m, *labels)
            except (MeasurementTooWeakError, ProjectiveLimitError):
                inv_ext = None
            inv_lo, inv_hi = (
                protocols.tunnel_rate_limits(2.0 * q - 1.0, t_m, *labels)
                for q in _wilson_interval(stats)
            )

        try:
            est = mc.estimate_gamma_from_blips(point.blip_times, config.n_shots, t_m, p)
            mle, mle_lo, mle_hi = est.inv_gamma, est.ci_low, est.ci_high
        except mc.NoInformationError:
            mle = mle_lo = mle_hi = None

        table.append({
            "gamma": gamma,
            "gamma_t_m": gamma * t_m,
            "sigma_z_analytic": analytic,
            "sigma_z_mc": stats.mean,
            "sigma_z_mc_std_error": stats.std_error,
            "inv_gamma_true": 1.0 / gamma,
            "inv_gamma_extracted": inv_ext,
            "inv_gamma_extracted_low": inv_lo,
            "inv_gamma_extracted_high": inv_hi,
            "inv_gamma_blip_mle": mle,
            "inv_gamma_blip_mle_low": mle_lo,
            "inv_gamma_blip_mle_high": mle_hi,
            "n_kept": stats.n_kept,
            "n_total": stats.n_total,
        })
    inv_columns = operator.itemgetter("gamma_t_m", "inv_gamma_true", "inv_gamma_extracted",
                                      "inv_gamma_extracted_low", "inv_gamma_extracted_high")
    return table, [
        (f"{panel.name}_sigma_z",
         _mean_points(table, "gamma_t_m", "sigma_z_analytic", "sigma_z_mc",
                      "sigma_z_mc_std_error"),
         PlotStyle("no-blip nuclear polarization vs measurement strength",
                   "Gamma * t_m", "&lt;sigma_z&gt;", -1.1, 0.4)),
        (f"{panel.name}_inv_gamma", [PlotPoint(*inv_columns(row)) for row in table],
         PlotStyle("tunnel time: sigma_z inversion (markers) vs true (line)",
                   "Gamma * t_m", "1/Gamma (ms)")),
    ]
