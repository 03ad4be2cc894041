from .config import RunConfig, default_gamma_grid, default_theta_grid, load_config
from .presets import PANELS, run_panels
from .svgplot import PlotStyle, SweepRow, emit_plot

__all__ = [
    "RunConfig",
    "default_gamma_grid",
    "default_theta_grid",
    "load_config",
    "PANELS",
    "run_panels",
    "PlotStyle",
    "SweepRow",
    "emit_plot",
]
