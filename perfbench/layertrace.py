"""Traced in-process replay of a workload: spans around the public functions
of ``montecarlo``, ``protocols`` and ``experiments``, and per-layer metrics
computed from them.

Spans are recorded from here, by replacing each public function at every
module attribute that refers to it (so ``from .svgplot import emit_plot`` in
``presets`` is caught too) and restoring the originals afterwards.  The
program's source is not touched.  ``qmath`` and ``spinsys`` are not wrapped:
they are reached only through protocol building, closed forms and the
sampler, so their time sits inside those spans.

``montecarlo.sample_shot`` is not wrapped either: a span per shot would
cost as much as the shot, and with ``--jobs`` > 1 the shots run in worker
processes whose spans would never reach this one.  Per-shot figures are
``run_shots`` self time divided by the shots it simulated.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import pathlib
import sys
import time
from types import ModuleType

LAYER_MODULES = {
    "weakmeas.montecarlo": "montecarlo",
    "weakmeas.protocols": "protocols",
    "weakmeas.experiments.cli": "experiments",
    "weakmeas.experiments.config": "experiments",
    "weakmeas.experiments.presets": "experiments",
    "weakmeas.experiments.svgplot": "experiments",
}
NOT_WRAPPED = {("weakmeas.montecarlo", "sample_shot")}

ESTIMATORS = {"montecarlo.stats_from_records", "montecarlo.estimate_gamma_from_blips"}
BUILDERS = {"experiments.fig2_protocol", "experiments.bell_window_protocol"}
EMITTERS = {"experiments.write_csv", "experiments.emit_plot", "experiments.svg_write"}


def fingerprint(protocol, noise, n_shots: int, rng_seed: int) -> str:
    """Identity of an ensemble: equal fingerprints give equal shot records.

    ``Protocol`` holds ndarrays and is not hashable, so its steps (frozen
    dataclasses, whose reprs are exact) and its initial matrix bytes stand
    in for it.  ``n_jobs`` is left out: it does not change the records.
    """
    h = hashlib.sha1()
    h.update(repr((protocol.steps, noise, n_shots, rng_seed)).encode())
    h.update(protocol.initial.rho.matrix.tobytes())
    return h.hexdigest()


def is_pure_path(protocol, noise) -> bool:
    """Whether ``sample_shot`` starts this ensemble on the statevector path."""
    return protocol.initial_statevector is not None and noise.nuclear_dephasing_time is None


class Tracer:
    """In-memory spans: [id, parent id, name, start, end, attrs]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.run_shots_calls: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                    name, 0.0, 0.0, None]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs)
            return result

        return traced

    def _run_shots_attrs(self, signature):
        def attrs(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = dict(bound.arguments)
            self.run_shots_calls.append(call)
            return {
                "fingerprint": fingerprint(call["protocol"], call["noise"],
                                           call["n_shots"], call["rng_seed"]),
                "shots": call["n_shots"],
                "pure": is_pure_path(call["protocol"], call["noise"]),
            }
        return attrs

    @staticmethod
    def _written_bytes(path_arg_index: int):
        def attrs(args, kwargs):
            return {"bytes": os.path.getsize(args[path_arg_index])}
        return attrs

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every public function of the layer modules, everywhere it is bound."""
        wrappers: dict[int, object] = {}
        for mod_name, layer in LAYER_MODULES.items():
            mod = modules[mod_name]
            for name, fn in vars(mod).items():
                if (not inspect.isfunction(fn) or fn.__module__ != mod_name
                        or name.startswith("_") or (mod_name, name) in NOT_WRAPPED):
                    continue
                attrs = None
                if (mod_name, name) == ("weakmeas.montecarlo", "run_shots"):
                    attrs = self._run_shots_attrs(inspect.signature(fn))
                elif name == "write_csv":
                    attrs = self._written_bytes(0)
                wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn, attrs)
        for mod_name, mod in list(modules.items()):
            if mod is None or not mod_name.startswith("weakmeas"):
                continue
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrapper)
        # SVGs are written inline with Path.write_text
        original = pathlib.Path.write_text
        self._restore.append((pathlib.Path, "write_text", original))
        pathlib.Path.write_text = self.wrap(
            "experiments.svg_write", original, self._written_bytes(0)
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def export(self) -> list[dict]:
        return [
            {"run_id": self.run_id, "id": i, "parent": p, "name": n,
             "start": s, "end": e, "attrs": a}
            for i, p, n, s, e, a in self.spans
        ]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times (span time minus its child spans)."""
    child_time = [0.0] * len(spans)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    category: list[str] = []
    m = dict.fromkeys(
        ("montecarlo.busy_s", "montecarlo.estimate_busy_s", "protocols.busy_s",
         "experiments.protocol_build_s", "experiments.emit_busy_s",
         "experiments.self_s"), 0.0)
    counts = dict.fromkeys(("ensembles", "shots", "duplicates", "protocol_calls",
                            "emit_files", "emit_bytes"), 0)
    path_time = {True: 0.0, False: 0.0}
    path_shots = {True: 0, False: 0}
    seen: set[str] = set()
    for i, parent, name, start, end, attrs in spans:
        self_s = end - start - child_time[i]
        parent_cat = category[parent] if parent is not None else None
        layer = name.split(".", 1)[0]
        if layer == "montecarlo":
            cat = "estimate" if name in ESTIMATORS else "mc"
        elif layer == "protocols":
            cat = "protocols"
            if parent_cat != "protocols":
                counts["protocol_calls"] += 1
        elif name in EMITTERS:
            cat = "emit"
        elif name in BUILDERS or parent_cat == "build":
            cat = "build"
        else:
            cat = "experiments"
        category.append(cat)
        key = {"mc": "montecarlo.busy_s", "estimate": "montecarlo.estimate_busy_s",
               "protocols": "protocols.busy_s", "build": "experiments.protocol_build_s",
               "emit": "experiments.emit_busy_s", "experiments": "experiments.self_s"}[cat]
        m[key] += self_s
        if name == "montecarlo.run_shots" and attrs is not None:
            counts["ensembles"] += 1
            counts["shots"] += attrs["shots"]
            counts["duplicates"] += attrs["fingerprint"] in seen
            seen.add(attrs["fingerprint"])
            path_time[attrs["pure"]] += self_s
            path_shots[attrs["pure"]] += attrs["shots"]
        if attrs is not None and "bytes" in attrs:
            counts["emit_files"] += 1
            counts["emit_bytes"] += attrs["bytes"]
    n = counts["ensembles"]
    m.update({
        "montecarlo.ensembles": n,
        "montecarlo.shots": counts["shots"],
        "montecarlo.duplicate_ensemble_frac": counts["duplicates"] / n if n else 0.0,
        "montecarlo.us_per_shot.pure":
            1e6 * path_time[True] / path_shots[True] if path_shots[True] else 0.0,
        "montecarlo.us_per_shot.dm":
            1e6 * path_time[False] / path_shots[False] if path_shots[False] else 0.0,
        "protocols.calls": counts["protocol_calls"],
        "experiments.emit_files": counts["emit_files"],
        "experiments.emit_bytes": counts["emit_bytes"],
    })
    return m


def pool_probe(run_shots, calls: list[dict], n_jobs: int = 2) -> tuple[float, float, bool]:
    """Serial against ``n_jobs`` time of ``run_shots`` on a fixed sample of calls.

    Returns (speedup, overhead per ensemble in ms, records equal).  The
    sample is the first, middle and last ensemble of the replay.  Overhead
    is parallel wall minus serial wall / n_jobs.
    """
    picks = sorted({0, len(calls) // 2, len(calls) - 1})
    serial = parallel = overhead = 0.0
    same = True
    for i in picks:
        c = calls[i]
        args = (c["protocol"], c["noise"], c["n_shots"], c["rng_seed"])
        t0 = time.perf_counter()
        one = run_shots(*args, 1)
        t1 = time.perf_counter()
        many = run_shots(*args, n_jobs)
        t2 = time.perf_counter()
        serial += t1 - t0
        parallel += t2 - t1
        overhead += (t2 - t1) - (t1 - t0) / n_jobs
        same = same and one == many
    return serial / parallel, 1e3 * overhead / len(picks), same


def import_program(src: pathlib.Path) -> ModuleType:
    """Import the CLI module from ``src``, and nowhere else."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import weakmeas
    import weakmeas.experiments.cli as cli

    if pathlib.Path(weakmeas.__file__).resolve().parent != (src / "weakmeas").resolve():
        raise RuntimeError(f"weakmeas imported from {weakmeas.__file__}, not {src}")
    return cli
