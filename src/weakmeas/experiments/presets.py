"""Figure-reproduction presets: analytic curves and Monte Carlo ensembles
side by side, written as CSV (17 significant digits, empty cells for
flagged values) and optionally as self-contained SVG plots."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

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
from .config import RunConfig
from .svgplot import PlotStyle, SweepRow, emit_plot

AXES = ("z", "x", "y")

FIG2_VARIANTS = ("single", "double", "reversal")
STEERING = "steering"  # Bell pair, unconditional electron rotation, readout

MEAN = "mean"  # the kept shots' mean tomography outcome
KEPT = "kept"  # the fraction of shots that pass post-selection

THETA_LABEL = "rotation angle theta (rad)"


@dataclass(frozen=True)
class Panel:
    """One theta-sweep CSV (and SVG) and where its numbers come from.

    At each theta the panel reads the run's ``SweepPoint`` of ``sequence``.
    A MEAN panel sets the kept shots' mean outcome along ``axis`` beside the
    closed-form sigma along ``axis``; a KEPT panel sets the kept fraction
    beside the sequence's closed-form success probability.
    """

    name: str
    sequence: str  # one of FIG2_VARIANTS, or STEERING
    axis: str
    statistic: str  # MEAN or KEPT
    style: PlotStyle


@dataclass(frozen=True)
class SweepPoint:
    """Everything the panels read at one (sequence, theta): the statistics
    of one ensemble on each tomography axis, and the closed-form tomography
    (None where no shot can be kept)."""

    stats: dict[str, mc.EnsembleStats]
    closed_form: Optional[TomographyResult]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.17g}"


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as err:
        raise OSError(f"cannot write output file {path}: {err}") from err


def fig2_pulse_sequence(variant: str, theta: float) -> list[tuple[float, Frequency]]:
    """The conditional-pulse list of each fig2 preset variant."""
    if variant == "single":
        return [(theta, Frequency.NU_E2)]
    if variant == "double":
        return [(theta, Frequency.NU_E2), (theta, Frequency.NU_E2)]
    if variant == "reversal":
        return [(theta, Frequency.NU_E2), (theta, Frequency.NU_E1)]
    raise ValueError(f"unknown fig2 variant {variant!r}")


def fig2_protocol(
    variant: str, theta: float, axes: Sequence[str], t_m: float
) -> mc.Protocol:
    """A fig2 variant's pulses, each followed by a projective readout window
    of ``t_m`` ms kept on no-blip, then nuclear tomography along ``axes``."""
    window = mc.ReadoutWindow(TunnelModel.projective(t_m), keep="no_blip")
    steps: list[mc.ProtocolStep] = []
    for angle, freq in fig2_pulse_sequence(variant, theta):
        steps.append(RotationPulse(freq, angle))
        steps.append(window)
    steps.append(mc.NuclearTomography(axes))
    return mc.Protocol(tuple(steps))


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


# Every theta-sweep panel, in output order.  fig2, supp4 and supp5 read the
# same fig2 ensembles; supp4 reads their kept fraction.
PANELS: tuple[Panel, ...] = (
    *(
        _sigma_panel(f"fig2_{v}_sigma_{a}", v, a, f"{v} measurement")
        for v in FIG2_VARIANTS
        for a in AXES
    ),
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


def _sweep_protocol(sequence: str, theta: float, t_m: float) -> mc.Protocol:
    """A sweep point's protocol, its readout windows ``t_m`` ms long, with
    nuclear tomography along every axis."""
    if sequence == STEERING:
        return mc.Protocol(
            (
                RotationPulse(Frequency.ESR_BOTH, theta),
                mc.ReadoutWindow(TunnelModel.projective(t_m), keep="no_blip"),
                mc.NuclearTomography(AXES),
            ),
            initial=prepare_bell(),
        )
    return fig2_protocol(sequence, theta, AXES, t_m)


def _sweep_point(config: RunConfig, sequence: str, theta: float) -> SweepPoint:
    shots = mc.run_shots(
        _sweep_protocol(sequence, theta, config.t_m),
        config.noise,
        config.n_shots,
        config.rng_seed,
        config.n_jobs,
    )
    return SweepPoint(
        {axis: mc.stats_from_records(shots, k) for k, axis in enumerate(AXES)},
        closed_form_tomography(sequence, theta),
    )


def _run_panels(
    config: RunConfig, prefix: str, points: dict[tuple[str, float], SweepPoint]
) -> list[Path]:
    """Write every panel of PANELS whose name starts with ``prefix``.

    ``points`` holds the run's SweepPoint by (sequence, theta).  Noise,
    shots and seed are fixed for a run, so equal keys are equal ensembles:
    each is simulated once, for all three tomography axes, and its closed
    form evaluated once, however many panels read them.
    """
    paths: list[Path] = []
    for panel in PANELS:
        if not panel.name.startswith(prefix):
            continue
        table = []
        for theta in config.theta_grid:
            key = (panel.sequence, theta)
            if key not in points:
                points[key] = _sweep_point(config, *key)
            point = points[key]
            stats = point.stats[panel.axis]
            if panel.statistic == KEPT:
                analytic = _success_probability(panel.sequence, theta)
                value = stats.success_fraction
                error = math.sqrt(value * (1.0 - value) / stats.n_total)
            else:
                tomo = point.closed_form
                analytic = None if tomo is None else getattr(tomo, f"sigma_{panel.axis}")
                value, error = stats.mean, stats.std_error
            table.append((theta, analytic, value, error, stats.n_kept, stats.n_total))
        csv_path = config.output_dir / f"{panel.name}.csv"
        write_csv(csv_path, [f.name for f in fields(SweepRow)], table)
        paths.append(csv_path)
        if config.emit_svg:
            svg_path = config.output_dir / f"{panel.name}.svg"
            rows = [SweepRow(*row) for row in table]
            svg_path.write_text(emit_plot(rows, panel.style), encoding="utf-8")
            paths.append(svg_path)
    if not paths:
        raise ValueError(f"no panel name starts with {prefix!r}")
    return paths


def run_fig2(config: RunConfig, variants: Sequence[str] = FIG2_VARIANTS) -> list[Path]:
    """Tomography of the weak-measurement protocols versus rotation angle."""
    points: dict = {}
    return [p for v in variants for p in _run_panels(config, f"fig2_{v}_", points)]


def bell_window_protocol(gamma: float, t_m: float, axis: str = "z") -> mc.Protocol:
    """Bell pair, one finite readout window kept on no-blip, tomography."""
    return mc.Protocol(
        (
            mc.ReadoutWindow(TunnelModel(gamma_up_out=gamma, t_m=t_m), keep="no_blip"),
            mc.NuclearTomography(axis),
        ),
        initial=prepare_bell(),
    )


def run_fig3(config: RunConfig) -> list[Path]:
    """Tunnel-rate extraction: no-blip sigma_z inversion vs direct blip MLE."""
    header = [
        "gamma",
        "gamma_t_m",
        "sigma_z_analytic",
        "sigma_z_mc",
        "sigma_z_mc_std_error",
        "inv_gamma_true",
        "inv_gamma_extracted",
        "inv_gamma_extracted_low",
        "inv_gamma_extracted_high",
        "inv_gamma_blip_mle",
        "inv_gamma_blip_mle_low",
        "inv_gamma_blip_mle_high",
        "n_kept",
        "n_total",
    ]
    table = []
    sigma_rows = []
    inv_rows = []
    t_m = config.t_m
    for gamma in sorted(config.gamma_grid):
        model = TunnelModel(gamma_up_out=gamma, t_m=t_m)
        analytic = protocols.sigma_z_noblip(math.pi, model)
        shots = mc.run_shots(
            bell_window_protocol(gamma, t_m),
            config.noise,
            config.n_shots,
            config.rng_seed,
            config.n_jobs,
        )
        stats = mc.stats_from_records(shots)

        inv_ext = inv_lo = inv_hi = None
        if not stats.empty:
            try:
                inv_ext = protocols.extract_tunnel_rate(stats.mean, t_m)
            except (MeasurementTooWeakError, ProjectiveLimitError):
                inv_ext = None
            if inv_ext is not None:
                half = 1.959963984540054 * stats.std_error
                inv_lo = protocols.tunnel_rate_limits(stats.mean - half, t_m)
                inv_hi = protocols.tunnel_rate_limits(stats.mean + half, t_m)

        mle = mle_lo = mle_hi = None
        try:
            est = mc.estimate_gamma_from_blips(shots, t_m)
            mle, mle_lo, mle_hi = est.inv_gamma, est.ci_low, est.ci_high
        except mc.NoInformationError:
            pass

        table.append(
            [
                gamma,
                gamma * t_m,
                analytic,
                stats.mean,
                stats.std_error,
                1.0 / gamma,
                inv_ext,
                inv_lo,
                inv_hi,
                mle,
                mle_lo,
                mle_hi,
                stats.n_kept,
                stats.n_total,
            ]
        )
        sigma_rows.append(
            SweepRow(gamma * t_m, analytic, stats.mean, stats.std_error,
                     stats.n_kept, stats.n_total)
        )
        inv_rows.append(
            SweepRow(gamma * t_m, 1.0 / gamma, inv_ext,
                     None if inv_ext is None or inv_lo is None or not math.isfinite(inv_hi or math.inf)
                     else (inv_ext - inv_lo),
                     stats.n_kept, stats.n_total)
        )

    paths: list[Path] = []
    csv_path = config.output_dir / "fig3_tunnel.csv"
    write_csv(csv_path, header, table)
    paths.append(csv_path)
    if config.emit_svg:
        for name, rows, style in (
            (
                "fig3_tunnel_sigma_z",
                sigma_rows,
                PlotStyle(
                    title="no-blip nuclear polarization vs measurement strength",
                    xlabel="Gamma * t_m",
                    ylabel="&lt;sigma_z&gt;",
                    y_min=-1.1,
                    y_max=0.4,
                ),
            ),
            (
                "fig3_tunnel_inv_gamma",
                inv_rows,
                PlotStyle(
                    title="tunnel time: sigma_z inversion (markers) vs true (line)",
                    xlabel="Gamma * t_m",
                    ylabel="1/Gamma (ms)",
                ),
            ),
        ):
            svg_path = config.output_dir / f"{name}.svg"
            svg_path.write_text(emit_plot(rows, style), encoding="utf-8")
            paths.append(svg_path)
    return paths


def run_supp_figs(config: RunConfig) -> list[Path]:
    """Success probabilities, expectation curves and the steering scan."""
    return _run_panels(config, "supp", {})


def run_experiment(config: RunConfig) -> list[Path]:
    """Run the panels whose names start with the configured experiment name;
    ``custom`` runs them all, sharing every ensemble between figures."""
    exp = config.experiment
    if exp == "fig3_tunnel":
        return run_fig3(config)
    if exp == "custom":
        points: dict = {}
        return (
            _run_panels(config, "fig2", points)
            + run_fig3(config)
            + _run_panels(config, "supp", points)
        )
    return _run_panels(config, exp, {})
