"""Figure-reproduction presets: analytic curves and Monte Carlo ensembles
side by side, written as CSV (17 significant digits, empty cells for
flagged values) and optionally as self-contained SVG plots."""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

from .. import montecarlo as mc
from .. import protocols
from ..protocols import (
    ImpossibleBranchError,
    MeasurementTooWeakError,
    ProjectiveLimitError,
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

    At each theta the panel reads the ensemble of ``sequence`` with nuclear
    tomography along ``axis``, takes its ``statistic`` and sets it beside
    ``analytic(theta)``.
    """

    name: str
    sequence: str  # one of FIG2_VARIANTS, or STEERING
    axis: str
    statistic: str  # MEAN or KEPT
    analytic: Callable[[float], Optional[float]]
    style: PlotStyle


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


def fig2_protocol(variant: str, theta: float, axis: str) -> mc.Protocol:
    steps: list[mc.ProtocolStep] = []
    for angle, freq in fig2_pulse_sequence(variant, theta):
        steps.append(mc.Pulse(RotationPulse(freq, angle)))
        steps.append(mc.ReadoutWindow(TunnelModel.projective(), keep="no_blip"))
    steps.append(mc.NuclearTomography(axis))
    return mc.Protocol(tuple(steps))


def fig2_analytic(variant: str, theta: float, axis: str) -> Optional[float]:
    try:
        post = protocols.closed_form_sequence(fig2_pulse_sequence(variant, theta))
    except ImpossibleBranchError:
        return None
    tomo = protocols.tomography_expectations(post.state)
    return getattr(tomo, f"sigma_{axis}")


def _success_probability(variant: str, theta: float) -> float:
    if variant == "reversal":
        return protocols.reversal_success_probability(theta)
    return protocols.success_probability_n(theta, 1 if variant == "single" else 2)


def _sigma_panel(name, sequence, axis, analytic, title, xlabel=THETA_LABEL) -> Panel:
    ylabel = f"&lt;sigma_{axis}&gt;"
    style = PlotStyle(f"{title}: sigma_{axis}", xlabel, ylabel, -1.1, 1.1)
    return Panel(name, sequence, axis, MEAN, analytic, style)


# Every theta-sweep panel, in output order.  fig2, supp4 and supp5 read the
# same fig2 ensembles; supp4 reads their kept fraction.
PANELS: tuple[Panel, ...] = (
    *(
        _sigma_panel(f"fig2_{v}_sigma_{a}", v, a,
                     lambda t, v=v, a=a: fig2_analytic(v, t, a), f"{v} measurement")
        for v in FIG2_VARIANTS
        for a in AXES
    ),
    *(
        Panel(f"supp4_success_{v}", v, "z", KEPT, lambda t, v=v: _success_probability(v, t),
              PlotStyle(f"success probability: {v}", THETA_LABEL, "P(success)", -0.05, 1.05))
        for v in FIG2_VARIANTS
    ),
    *(
        _sigma_panel(f"supp5_expectations_{v}_sigma_{a}", v, a,
                     lambda t, v=v, a=a: fig2_analytic(v, t, a), f"{v} measurement")
        for v in ("single", "double")
        for a in AXES
    ),
    *(
        _sigma_panel(f"supp6_steering_sigma_{a}", STEERING, a,
                     lambda t, a=a: getattr(protocols.steering_scan(t), f"sigma_{a}"),
                     "steering scan", "unconditional electron rotation theta (rad)")
        for a in AXES
    ),
)


def _sweep_protocol(sequence: str, theta: float, axis: str) -> mc.Protocol:
    if sequence == STEERING:
        return mc.Protocol(
            (
                mc.Pulse(RotationPulse(Frequency.ESR_BOTH, theta)),
                mc.ReadoutWindow(TunnelModel.projective(), keep="no_blip"),
                mc.NuclearTomography(axis),
            ),
            initial=prepare_bell(),
        )
    return fig2_protocol(sequence, theta, axis)


def _run_panels(
    config: RunConfig, prefix: str, ensembles: dict[tuple, mc.EnsembleStats]
) -> list[Path]:
    """Write every panel of PANELS whose name starts with ``prefix``.

    ``ensembles`` holds the run's EnsembleStats by (sequence, theta, axis).
    Noise, shots and seed are fixed for a run, so equal keys are equal
    ensembles: each is simulated once, however many panels read it.
    """
    paths: list[Path] = []
    for panel in PANELS:
        if not panel.name.startswith(prefix):
            continue
        rows = []
        for theta in config.theta_grid:
            key = (panel.sequence, theta, panel.axis)
            if key not in ensembles:
                ensembles[key] = mc.run_ensemble(
                    _sweep_protocol(*key),
                    config.noise,
                    config.n_shots,
                    config.rng_seed,
                    config.n_jobs,
                )
            stats = ensembles[key]
            if panel.statistic == KEPT:
                value = stats.success_fraction
                error = math.sqrt(value * (1.0 - value) / stats.n_total)
            else:
                value, error = stats.mean, stats.std_error
            rows.append(
                SweepRow(theta, panel.analytic(theta), value, error,
                         stats.n_kept, stats.n_total)
            )
        csv_path = config.output_dir / f"{panel.name}.csv"
        write_csv(csv_path, [f.name for f in fields(SweepRow)], [astuple(r) for r in rows])
        paths.append(csv_path)
        if config.emit_svg:
            svg_path = config.output_dir / f"{panel.name}.svg"
            svg_path.write_text(emit_plot(rows, panel.style), encoding="utf-8")
            paths.append(svg_path)
    if not paths:
        raise ValueError(f"no panel name starts with {prefix!r}")
    return paths


def run_fig2(config: RunConfig, variants: Sequence[str] = FIG2_VARIANTS) -> list[Path]:
    """Tomography of the weak-measurement protocols versus rotation angle."""
    ensembles: dict = {}
    return [p for v in variants for p in _run_panels(config, f"fig2_{v}_", ensembles)]


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
        ensembles: dict = {}
        return (
            _run_panels(config, "fig2", ensembles)
            + run_fig3(config)
            + _run_panels(config, "supp", ensembles)
        )
    return _run_panels(config, exp, {})
