"""Every record of the package compares and hashes without raising: a
record whose field is an array compares by identity unless it defines its
own ``__eq__`` (see the ``qmath`` docstring)."""

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import weakmeas
from weakmeas import montecarlo as mc
from weakmeas.experiments.config import RunConfig
from weakmeas.experiments.presets import Panel, SweepPoint
from weakmeas.experiments.svgplot import PlotPoint, PlotStyle
from weakmeas.protocols import PostSelectedState, TomographyResult, TunnelModel
from weakmeas.qmath import DensityMatrix
from weakmeas.spinsys import Frequency, JointState, NuclearState, RotationPulse


def package_records() -> list[type]:
    """Every dataclass defined in a module of ``weakmeas``."""
    records = []
    for info in pkgutil.walk_packages(weakmeas.__path__, prefix="weakmeas."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(cls) and cls.__module__ == info.name:
                records.append(cls)
    return records


# One factory per record: each call builds a new instance of the same content.
FACTORIES = {
    DensityMatrix: lambda: DensityMatrix(np.eye(2) / 2),
    JointState: lambda: JointState(DensityMatrix(np.eye(4) / 4)),
    NuclearState: lambda: NuclearState(DensityMatrix(np.eye(2) / 2)),
    RotationPulse: lambda: RotationPulse(Frequency.NU_E2, 1.0),
    PostSelectedState: lambda: PostSelectedState(NuclearState(DensityMatrix(np.eye(2) / 2)), 0.5),
    TunnelModel: lambda: TunnelModel(gamma_up_out=2.0, t_m=1.5),
    TomographyResult: lambda: TomographyResult(0.1, -0.2, 0.3),
    mc.Protocol: lambda: mc.Protocol(
        (RotationPulse(Frequency.NU_E2, 1.0), TunnelModel.projective(1.0)),
        initial=JointState(DensityMatrix(np.eye(4) / 4)),
    ),
    mc.NoiseConfig: lambda: mc.NoiseConfig(1.0, 0.2, 0.05),
    mc.Shots: lambda: mc.Shots(np.ones((3, 3), dtype=np.int8), np.full((3, 1), np.nan)),
    mc.EnsembleStats: lambda: mc.EnsembleStats(10, 6, 4),
    mc.GammaEstimate: lambda: mc.GammaEstimate(1.5, 1.0, 2.5, 40, 60),
    RunConfig: lambda: RunConfig(theta_grid=[0.0, 1.0], output_dir=Path("out")),
    Panel: lambda: Panel("p", "single", "x", "mean", PlotStyle("t", "x", "y", -1.1, 1.1)),
    SweepPoint: lambda: SweepPoint(  # a Gamma point
        {axis: mc.EnsembleStats(10, 6, 4) for axis in "zxy"}, np.array([0.25, 0.5])
    ),
    PlotStyle: lambda: PlotStyle("t", "x", "y", None, 1.0),
    PlotPoint: lambda: PlotPoint(0.5, 0.25, 0.3, 0.2, 0.4),
}

# The records whose hash may raise TypeError, and the field that makes them
# unhashable.
UNHASHABLE = {RunConfig: "theta_grid", mc.Shots: "outcome"}


@pytest.mark.parametrize("cls", package_records(), ids=lambda cls: cls.__qualname__)
def test_record_compares_and_hashes(cls):
    """Two distinct, equal-content instances: each equals itself, the two
    compare to a bool, and the hash is an int, or a TypeError only where a
    field is unhashable."""
    assert cls in FACTORIES, f"no factory for {cls.__module__}.{cls.__qualname__}"
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert a is not b
    assert a == a
    assert type(a == b) is bool
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(getattr(a, UNHASHABLE[cls]))
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert type(hash(a)) is int
    holds_array = any(isinstance(getattr(a, f.name), np.ndarray) for f in dataclasses.fields(a))
    if holds_array:  # the rule: by identity, or by its own __eq__
        assert not cls.__dataclass_params__.eq


def test_the_walk_finds_every_record_with_a_factory():
    """The parametrised test runs on what the walk finds, so a walk that
    found nothing would pass it vacuously."""
    assert set(FACTORIES) == set(package_records())


def test_identity_records_compare_states_by_identity():
    """Equal-content states are different records; the cached preparations
    keep equal protocols equal, and a protocol hashes by its steps and its
    initial state's identity."""
    a, b = FACTORIES[JointState](), FACTORIES[JointState]()
    assert a != b and np.array_equal(a.rho.matrix, b.rho.matrix)
    steps = (RotationPulse(Frequency.NU_E2, 1.0), TunnelModel.projective(1.0))
    assert mc.Protocol(steps) == mc.Protocol(steps)
    assert len({mc.Protocol(steps), mc.Protocol(steps)}) == 1
    assert mc.Protocol(steps, initial=a) != mc.Protocol(steps, initial=b)
