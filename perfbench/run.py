"""weakmeas benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
``--workload all`` runs every workload in turn.

``--trace 0`` (end to end): runs the workload as a fresh ``weakmeas`` CLI
process, one at a time, each run preceded by one timed fresh-interpreter
import of the CLI (``setup_s``), until ``--seconds`` would be exceeded (at
least two runs, at least five set-up samples).  Every repeat's CSVs are
checked against the closed forms and against the first repeat's bytes.

``--trace 1`` (per layer): replays the same argv in this process, once
untraced and once traced, and reports per-layer metrics from the spans.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A point is one CSV row; ``failed / attempted`` is
``points_failed_frac``.  Everything printed, plus the machine and the raw
samples, is also written to ``.perfbench/results/``, and the spans of a
traced run to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from outputcheck import CheckReport, check_run, failed_run
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_REPEATS = 2
MIN_SETUP_SAMPLES = 5
# Every process is killed by then, so a hung program still lets the
# benchmark report within its 180 s limit.
DEADLINE_S = 165.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine is now.

    On a shared machine this drifts by tens of percent over minutes; it is
    recorded at the start and end of every run so results can be read
    against it.  It is not a metric.
    """
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def machine_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "probe_ms": probe_ms(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def program_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(work)  # keeps the program's temporary files in the checkout
    return env


def spawn(args: list[str], log: Path, deadline: float) -> tuple[int, float, float, float]:
    """Run ``python3 args`` to exit: (exit code, wall s, CPU s, peak RSS MB).

    CPU and peak RSS come from wait4, so they cover the process and every
    worker it waited for.  The process gets its own session; the whole
    group is killed at ``deadline`` (time.monotonic), when this process is
    interrupted, and again afterwards, so no worker outlives it.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=program_env(log.parent), cwd=ROOT,
                                stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGTERM, Ctrl-C): take the program down too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def write_config(w: Workload, work: Path) -> list[str]:
    """Write the workload's config file, if any; the CLI arguments naming it."""
    if w.config is None:
        return []
    config = work / f"{w.name}.yaml"
    config.write_text(w.config, encoding="utf-8")
    return ["--config", str(config)]


def cli_argv(w: Workload, seed: int, out: Path, config_args: list[str]) -> list[str]:
    return [*w.argv, *config_args, "--seed", str(seed), "--out", str(out)]


def summarize(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}"
    if n >= 11:
        text += f", p{100.0 * (n - 10) / n:.3g} {ordered[n - 11]:.6g}"
    else:
        text += ", no percentile with 10 samples beyond it"
    return text + f", min {ordered[0]:.6g}, max {ordered[-1]:.6g}, n={n}"


def time_setup(log: Path, deadline: float) -> float:
    code, wall, _, _ = spawn(["-c", "import weakmeas.experiments.cli"], log, deadline)
    if code != 0:
        raise RuntimeError(f"importing the CLI failed: {log.read_text()!r}")
    return wall


def run_end_to_end(w: Workload, seed: int, seconds: float, work: Path, deadline: float):
    """Alternate one set-up sample and one CLI run until ``seconds`` is used.

    Interleaving spreads the set-up samples over the same window as the
    runs, so both see the same machine load.
    """
    log = work / "cli.log"
    # untimed: fills the bytecode cache, and proves which weakmeas is used
    code, _, _, _ = spawn(["-c", "import weakmeas.experiments.cli, weakmeas, sys; "
                                 "sys.stdout.write(weakmeas.__file__)"], log, deadline)
    imported = Path(log.read_text(encoding="utf-8").strip() or ".").resolve()
    if code != 0 or imported.parent != (SRC / "weakmeas").resolve():
        raise RuntimeError(f"weakmeas does not import from {SRC}: {log.read_text()!r}")

    samples: dict[str, list[float]] = {k: [] for k in END_TO_END_UNITS}
    report = CheckReport()
    reference = None
    out = work / "out"
    config_args = write_config(w, work)
    start = time.perf_counter()
    while True:
        samples["setup_s"].append(time_setup(log, deadline))
        shutil.rmtree(out, ignore_errors=True)
        argv = ["-m", "weakmeas.experiments.cli", *cli_argv(w, seed, out, config_args)]
        code, wall, cpu, rss = spawn(argv, log, deadline)
        if code != 0:
            part = failed_run(w.panels, f"exit code {code}: {log.read_text()[-500:]!r}")
        else:
            part = check_run(w.panels, out, w.n_svg, reference)
            reference = reference or part.csv_bytes
        report.merge(part)
        for key, value in (("wall_s", wall), ("shots_per_s", part.shots / wall),
                           ("cpu_s", cpu), ("peak_rss_mb", rss)):
            samples[key].append(value)
        elapsed = time.perf_counter() - start
        cycle = elapsed / len(samples["wall_s"])
        if time.monotonic() + cycle > deadline or (
                len(samples["wall_s"]) >= MIN_REPEATS and elapsed + cycle > seconds):
            break
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES and time.monotonic() + cycle < deadline:
        samples["setup_s"].append(time_setup(log, deadline))
    return samples, report


def run_traced(w: Workload, seed: int, work: Path):
    import layertrace

    cli = layertrace.import_program(SRC)
    report = CheckReport()
    config_args = write_config(w, work)

    def replay(out: Path, extra: tuple[str, ...] = (), reference=None):
        """Run the CLI in this process; (wall s, CSV bytes) after checking."""
        shutil.rmtree(out, ignore_errors=True)
        argv = cli_argv(w, seed, out, config_args) + list(extra)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            part = failed_run(w.panels, f"in-process exit code {code}")
        else:
            part = check_run(w.panels, out, w.n_svg, reference)
        report.merge(part)
        return wall, part.csv_bytes

    untraced_wall, first = replay(work / "untraced")
    tracer = layertrace.Tracer(run_id=f"{w.name}-seed{seed}-pid{os.getpid()}")
    tracer.install(sys.modules)
    try:
        traced_wall, _ = replay(work / "traced", reference=first)
    finally:
        tracer.uninstall()
    if w.n_jobs > 1:
        replay(work / "jobs1", ("--jobs", "1"), reference=first)

    metrics = layertrace.layer_metrics(tracer.spans)
    mc = sys.modules["weakmeas.montecarlo"]
    speedup, overhead_ms, same = layertrace.pool_probe(mc.run_shots, tracer.run_shots_calls)
    if not same:
        report.problems.append("run_shots records differ between n_jobs=1 and n_jobs=2")
    metrics["montecarlo.pool_speedup"] = speedup
    metrics["montecarlo.pool_overhead_ms"] = overhead_ms
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0

    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    (traces / f"{tracer.run_id}.json").write_text(json.dumps(tracer.export()), encoding="utf-8")
    return metrics, report, {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    machine = machine_info()
    print(f"workload {w.name}  seed {seed}  trace {int(trace)}  ({WHY[w.name]})")
    print("machine " + json.dumps(machine))
    try:
        if trace:
            values, report, extra = run_traced(w, seed, work)
            metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
            for key, value in extra.items():
                print(f"  {key:36s} {value:.6g} s")
        else:
            samples, report = run_end_to_end(w, seed, seconds, work, deadline)
            extra = samples
            metrics = {k: {"value": statistics.median(samples[k]), "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
            for key, unit in END_TO_END_UNITS.items():
                print(f"  {key:36s} {summarize(samples[key])} {unit}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine["probe_ms_end"] = probe_ms()
    print(f"  {'machine probe_ms start, end':36s} {machine['probe_ms']:.4g}, "
          f"{machine['probe_ms_end']:.4g} ms")
    if trace:
        for key, m in metrics.items():
            print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
    failed_frac = report.failed / report.attempted
    print(f"  {'points_failed_frac':36s} {failed_frac:.6g} ratio "
          f"({report.failed}/{report.attempted} points; max |z| {report.max_abs_z:.3g})")
    for problem in report.problems:
        print(f"  problem: {problem}")
    result = {
        "correct": report.failed == 0 and not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=w.name, seed=seed, trace=int(trace), machine=machine,
                  samples=extra, problems=report.problems)
    (results / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="weakmeas benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (SRC / "weakmeas" / "experiments" / "cli.py").is_file():
        print(f"error: no weakmeas sources under {SRC}", file=sys.stderr)
        return 2
    if set(WHY) != set(WORKLOADS):
        print(f"error: BENCHMARK.json names {sorted(WHY)}, workloads.py {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
