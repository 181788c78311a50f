"""One benchmark workload, run in a fresh process started by ``run.py``.

The process imports ``sphmg`` from the checkout's ``src``, makes one tiny
warm-up call so the BLAS thread pool exists, prints ``ready`` and then runs
the workload's timed section: tasks back to back until the next one would end
past ``--seconds``, and at least ``MIN_TASKS``.  Every task's output is
checked against the closed-form theory (or, for the sweep, against the CLI's
documented output).

With ``--trace 1`` the process instead runs one task and the layer probes of
its workload, recording one span around every call into a layer of
``sphmg``.  Spans stay in memory and leave with the result at exit.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Fewest tasks in an untraced run, so that wall_s is a median of several.
MIN_TASKS = 2

WORKLOADS = ("sim-dense", "sim-sparse", "kernel-long", "sweep-compare")

# Game inputs of the two simulator workloads (GameParams fields).
SIM = {
    "sim-dense": dict(n_agents=1000, alpha=8.0, kappa=0.25, amplitude=1.0, zeta=1),
    "sim-sparse": dict(n_agents=4000, alpha=0.3, kappa=0.0, amplitude=1.0, zeta=0),
}
T_EQ, T_MEAS = 1000, 2000
# run_experiment rejects t_measure below 16; the equilibration probe uses it.
PROBE_T_MEAS = 16

KERNEL = dict(alpha=2.4, kappa=0.0, amplitude=1.0, zeta=1)
KERNEL_T = 1600
GROWTH_T = (200, 400, 800, 1600)

SWEEP_ARGS = (
    "compare", "--engines", "theory,simulate,kernels", "--sweep", "alpha:0.3:6:6",
    "--agents", "800", "--t-eq", "500", "--t-meas", "1000", "--n-seeds", "2", "--T", "300",
)
SWEEP_POINTS = 6
SWEEP_KERNEL_T = 300
# Result cells each engine must fill at F and O points.
SWEEP_ENGINE_CELLS = ("c0_theory", "sigma_theory", "c0_sim", "sigma_sim", "c0_kernel")
PARALLEL_WORKERS = 2
SUBPROCESS_TIMEOUT_S = 150.0

# Tolerances no looser than acceptance criteria 5-6 (simulation) and 4
# (kernels); the simulation ones shrink with the seed standard error.
C0_ABS_TOL = 0.05
SIM_REL_TOL = 0.10
KERNEL_REL_TOL = 0.02
FROZEN_C0_TOL = 1e-3
# Two-sided t quantile level for the seed-mean checks.
T_LEVEL = 0.9995

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# Reference grid for timing the closed-form solution (README's alpha range).
THEORY_GRID = 32
THEORY_PASSES = 5


class Tracer:
    """In-memory spans: name, start, end, parent span, and free attributes."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "name": name, "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, **attrs) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())]

    def total(self, name: str, **attrs) -> float:
        return sum(self.durations(name, **attrs))


def task_seed(seed: int, index: int) -> int:
    """Simulation seed of task `index`, derived from the workload seed only."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint32)[0])


def setup():
    """Import sphmg from this checkout and warm up BLAS with one tiny call."""
    import sphmg

    src = (ROOT / "src").resolve()
    if src not in Path(sphmg.__file__).resolve().parents:
        raise SystemExit(f"sphmg imported from {sphmg.__file__}, not from {src}")
    sphmg.run_experiment(sphmg.GameParams(n_agents=64, alpha=2.0, t_equilibrate=8,
                                          t_measure=16, seed=0))
    return sphmg


def provenance(sphmg, workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "sphmg_version": sphmg.__version__,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "l3": l3_size(),
        "workload": workload,
        "seed": seed,
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def l3_size() -> str | None:
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its waited-for children (ru_maxrss is KiB)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def t_quantile(df: int) -> float:
    from scipy.stats import t

    return float(t.ppf(T_LEVEL, df))


# ----------------------------------------------------------------------------
# workloads: each has one task (timed in both modes) and layer probes (traced)
# ----------------------------------------------------------------------------


class SimWorkload:
    """run_experiment on one fresh disorder sample per task."""

    def __init__(self, sphmg, name: str, tracer: Tracer) -> None:
        self.m, self.name, self.tr = sphmg, name, tracer
        cfg = SIM[name]
        self.n, self.alpha = cfg["n_agents"], cfg["alpha"]
        self.kappa, self.amp, self.zeta = cfg["kappa"], cfg["amplitude"], cfg["zeta"]
        self.theory = sphmg.stationary_solution(self.alpha, self.kappa, self.amp, self.zeta)
        self.theory_point = (self.kappa, self.amp, self.zeta)

    def params(self, seed: int, **override):
        m = self.m
        kw = dict(n_agents=self.n, alpha=self.alpha, kappa=self.kappa,
                  external=m.ExternalBid(zeta=self.zeta, amplitude=self.amp),
                  t_equilibrate=T_EQ, t_measure=T_MEAS, seed=seed)
        kw.update(override)
        return m.GameParams(**kw)

    def task(self, seed: int) -> dict:
        with self.tr.span("simulator.run_experiment", variant="full"):
            obs = self.m.run_experiment(self.params(seed))
        return {k: float(v) for k, v in dataclasses.asdict(obs).items()}

    def check_task(self, values: dict) -> str | None:
        if not all(math.isfinite(v) for v in values.values()):
            return f"non-finite observable in {values}"
        if self.name == "sim-sparse":
            # Phase F: frozen positions.  sigma and Lambda carry a ~17%
            # finite-time bias at this size, so they are reported, not gated.
            if not values["frozen_flag"]:
                return "frozen_flag is False in phase F"
            if abs(values["c0_hat"] - 1.0) > FROZEN_C0_TOL:
                return f"c0_hat={values['c0_hat']:.6g}, phase F predicts 1"
        elif values["frozen_flag"]:
            return "frozen_flag is True in phase O"
        return None

    def check_run(self, outcomes: list[dict]) -> list[str]:
        """Seed means against theory, within t*SE + the N^-1/2 finite-size scale."""
        if self.name == "sim-sparse":
            return []
        th = self.theory
        errors = []
        for key, ref, crit in (("c0_hat", th.c0, C0_ABS_TOL),
                               ("sigma", th.sigma, SIM_REL_TOL * abs(th.sigma)),
                               ("bid_staggered", th.bid_staggered,
                                SIM_REL_TOL * abs(th.bid_staggered))):
            vals = [o[key] for o in outcomes]
            mean = statistics.fmean(vals)
            tol = crit
            if len(vals) > 1:
                se = statistics.stdev(vals) / math.sqrt(len(vals))
                scale = 1.0 if key == "c0_hat" else abs(ref)
                tol = min(crit, t_quantile(len(vals) - 1) * se + scale / math.sqrt(self.n))
            if abs(mean - ref) > tol:
                errors.append(f"{key}: seed mean {mean:.6g} vs theory {ref:.6g}, tol {tol:.3g}")
        return errors

    def report(self, outcomes: list[dict]) -> dict:
        th = self.theory
        out = {k: statistics.fmean(o[k] for o in outcomes)
               for k in ("c0_hat", "sigma", "bid_staggered", "lambda_slope")}
        out["theory"] = {"c0": th.c0, "sigma": th.sigma, "bid_staggered": th.bid_staggered,
                         "Lambda": th.Lambda}
        return out

    def probe(self, seed: int, task_wall: float) -> dict:
        m, tr = self.m, self.tr
        params = self.params(seed)
        with tr.span("core.generate_disorder"):
            sample = m.generate_disorder(params)
        with tr.span("core.precompute_couplings"):
            m.precompute_couplings(sample)
        del sample
        with tr.span("simulator.run_experiment", variant="measure"):
            m.run_experiment(self.params(seed, t_equilibrate=0))
        with tr.span("simulator.run_experiment", variant="equilibrate"):
            m.run_experiment(self.params(seed, t_measure=PROBE_T_MEAS))
        n, p = self.n, params.n_patterns
        draw = tr.total("core.generate_disorder") + tr.total("core.precompute_couplings")
        measure = tr.total("simulator.run_experiment", variant="measure") - draw
        meas_step = measure / T_MEAS
        # the equilibration probe still measures PROBE_T_MEAS steps
        equil = (tr.total("simulator.run_experiment", variant="equilibrate") - draw
                 - PROBE_T_MEAS * meas_step)
        equil_step = equil / T_EQ
        return {
            "core.disorder_s": tr.total("core.generate_disorder"),
            "core.compile_s": tr.total("core.precompute_couplings"),
            "core.J_mb": 8.0 * n * n / 2**20,
            "simulator.run_s": task_wall,
            "simulator.equilibrate_s": equil,
            "simulator.measure_s": measure,
            "simulator.equilibrate_step_us": equil_step * 1e6,
            "simulator.measure_step_us": meas_step * 1e6,
            # computed bytes: the coupling route streams J (8 N^2 bytes) per
            # step; the per-pattern route makes two float32 N x p passes.
            "simulator.equilibrate_gbps": 8.0 * n * n / equil_step / 1e9,
            "simulator.measure_gbps": 8.0 * n * p / meas_step / 1e9,
        }


class KernelWorkload:
    """iterate_kernels + extract_stationary at one long horizon (no randomness)."""

    def __init__(self, sphmg, tracer: Tracer) -> None:
        self.m, self.tr = sphmg, tracer
        k = KERNEL
        self.theory = sphmg.stationary_solution(k["alpha"], k["kappa"], k["amplitude"], k["zeta"])
        self.theory_point = (k["kappa"], k["amplitude"], k["zeta"])
        self.state_mb = 0.0

    def params(self, T: int):
        k = KERNEL
        return self.m.KernelParams(alpha=k["alpha"], kappa=k["kappa"], T=T,
                                   external=self.m.ExternalBid(zeta=k["zeta"],
                                                               amplitude=k["amplitude"]))

    def iterate(self, T: int):
        with self.tr.span("kernels.iterate_kernels", T=T):
            return self.m.iterate_kernels(self.params(T))

    def task(self, seed: int) -> dict:
        import numpy as np

        state = self.iterate(KERNEL_T)
        with self.tr.span("kernels.extract_stationary", T=KERNEL_T):
            tail = self.m.extract_stationary(state)
        self.state_mb = sum(v.nbytes for v in vars(state).values()
                            if isinstance(v, np.ndarray)) / 2**20
        return {"c0": tail.c0, "sigma_fl": tail.sigma_fl, "lam": tail.lam}

    def check_task(self, values: dict) -> str | None:
        th = self.theory
        for key, ref in (("c0", th.c0), ("sigma_fl", th.sigma_fl), ("lam", th.lam)):
            if not abs(values[key] - ref) <= KERNEL_REL_TOL * abs(ref):
                return f"{key}={values[key]:.6g} vs theory {ref:.6g}"
        return None

    def check_run(self, outcomes: list[dict]) -> list[str]:
        return []

    def report(self, outcomes: list[dict]) -> dict:
        th = self.theory
        return {**outcomes[0], "theory": {"c0": th.c0, "sigma_fl": th.sigma_fl, "lam": th.lam}}

    def probe(self, seed: int, task_wall: float) -> dict:
        """The growth curve; the T=1600 point is the task, run here if it was not."""
        if not self.tr.durations("kernels.iterate_kernels", T=KERNEL_T):
            problem = self.check_task(self.task(seed))
            if problem:
                raise RuntimeError(problem)
        for T in GROWTH_T[:-1]:
            self.iterate(T)
        times = [self.tr.durations("kernels.iterate_kernels", T=T)[0] for T in GROWTH_T]
        out = {f"kernels.iterate_s.T{T}": s for T, s in zip(GROWTH_T, times)}
        out["kernels.growth_exponent"] = log_slope(GROWTH_T, times)
        out["kernels.extract_s"] = self.tr.total("kernels.extract_stationary", T=KERNEL_T)
        out["kernels.state_mb"] = self.state_mb
        return out


def log_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


class SweepWorkload:
    """The user's path: `sphmg compare` over an alpha grid, as a subprocess.

    The timed sweep runs with --workers 1.  The process pool (--workers 2)
    runs only in the traced probe: on 2 cores its inherited multithreaded
    BLAS oversubscribes them and its wall time spread too widely to bound.
    """

    def __init__(self, sphmg, tracer: Tracer) -> None:
        self.m, self.tr = sphmg, tracer
        self.theory_point = (0.0, 0.0, 0)
        self.rows: dict[int, str] = {}

    def run_cli(self, seed: int, workers: int) -> str:
        cmd = [sys.executable, "-m", "sphmg.cli", *SWEEP_ARGS,
               "--seed", str(seed), "--workers", str(workers)]
        with self.tr.span("cli.compare", workers=workers):
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, cwd=ROOT, start_new_session=True)
            try:
                out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"sphmg compare exited {proc.returncode}: {err.strip()[-400:]}")
        return out

    def task(self, seed: int) -> dict:
        out = self.run_cli(seed, 1)
        self.rows[1] = data_lines(out)
        return {"csv": out}

    def check_task(self, values: dict) -> str | None:
        rows = list(csv.DictReader(io.StringIO(data_lines(values["csv"]))))
        if len(rows) != SWEEP_POINTS:
            return f"{len(rows)} rows, expected {SWEEP_POINTS}"
        for row in rows:
            if row["phase"] in ("F", "O"):
                empty = [c for c in SWEEP_ENGINE_CELLS if row[c] == ""]
                if empty:
                    return f"empty {empty} at alpha={row['alpha']} ({row['phase']})"
        return None

    def check_run(self, outcomes: list[dict]) -> list[str]:
        if PARALLEL_WORKERS in self.rows and self.rows[PARALLEL_WORKERS] != self.rows[1]:
            return [f"rows differ between --workers 1 and --workers {PARALLEL_WORKERS}"]
        return []

    def report(self, outcomes: list[dict]) -> dict:
        rows = csv.DictReader(io.StringIO(data_lines(outcomes[0]["csv"])))
        return {"phases": "".join(r["phase"] for r in rows)}

    def probe(self, seed: int, task_wall: float) -> dict:
        m, tr = self.m, self.tr
        self.rows[PARALLEL_WORKERS] = data_lines(self.run_cli(seed, PARALLEL_WORKERS))
        serial = tr.total("cli.compare", workers=1)
        parallel = tr.total("cli.compare", workers=PARALLEL_WORKERS)
        # the kernel points the CLI runs serially in its parent, at the CLI's
        # default lambda0 and tail fraction
        for row in csv.DictReader(io.StringIO(self.rows[1])):
            kp = m.KernelParams(alpha=float(row["alpha"]), kappa=0.0, T=SWEEP_KERNEL_T,
                                external=m.ExternalBid(zeta=0, amplitude=0.0))
            with tr.span("kernels.iterate_kernels", T=SWEEP_KERNEL_T):
                state = m.iterate_kernels(kp)
            with tr.span("kernels.extract_stationary", T=SWEEP_KERNEL_T):
                m.extract_stationary(state)
        kernel = (tr.total("kernels.iterate_kernels", T=SWEEP_KERNEL_T)
                  + tr.total("kernels.extract_stationary", T=SWEEP_KERNEL_T))
        return {
            "cli.serial_sweep_s": serial,
            "cli.parallel_sweep_s": parallel,
            "cli.parallel_efficiency": serial / (PARALLEL_WORKERS * parallel),
            "cli.kernel_share": kernel / serial,
            # the kernel growth curve, here because this is the listed
            # workload that calls kernels
            **KernelWorkload(m, tr).probe(seed, 0.0),
        }


def data_lines(csv_text: str) -> str:
    """CSV rows without the commented timestamp line."""
    return "".join(line for line in csv_text.splitlines(keepends=True)
                   if not line.startswith("#"))


def make_workload(sphmg, name: str, tracer: Tracer):
    if name in SIM:
        return SimWorkload(sphmg, name, tracer)
    if name == "kernel-long":
        return KernelWorkload(sphmg, tracer)
    if name == "sweep-compare":
        return SweepWorkload(sphmg, tracer)
    raise SystemExit(f"unknown workload {name!r}")


def theory_probe(sphmg, tracer: Tracer, point) -> float:
    """Median time per stationary_solution call over a 32-point alpha grid."""
    kappa, amp, zeta = point
    grid = [0.1 * 100.0 ** (i / (THEORY_GRID - 1)) for i in range(THEORY_GRID)]
    for _ in range(THEORY_PASSES):
        with tracer.span("theory.stationary_solution", calls=THEORY_GRID):
            for alpha in grid:
                sphmg.stationary_solution(alpha, kappa, amp, zeta)
    return statistics.median(tracer.durations("theory.stationary_solution")) / THEORY_GRID * 1e6


def span_cost_us() -> float:
    """Cost of recording one span, from 2000 empty spans in a throwaway tracer."""
    scratch = Tracer(True)
    t0 = time.perf_counter()
    for _ in range(2000):
        with scratch.span("x"):
            pass
    return (time.perf_counter() - t0) / 2000 * 1e6


# name -> unit of every per-layer metric
LAYER_METRICS = {
    "core.disorder_s": "s", "core.compile_s": "s", "core.J_mb": "MiB",
    "simulator.run_s": "s", "simulator.equilibrate_s": "s", "simulator.measure_s": "s",
    "simulator.equilibrate_step_us": "us", "simulator.measure_step_us": "us",
    "simulator.equilibrate_gbps": "GB/s", "simulator.measure_gbps": "GB/s",
    **{f"kernels.iterate_s.T{T}": "s" for T in GROWTH_T},
    "kernels.growth_exponent": "1", "kernels.extract_s": "s", "kernels.state_mb": "MiB",
    "theory.solve_us": "us",
    "cli.serial_sweep_s": "s", "cli.parallel_sweep_s": "s",
    "cli.parallel_efficiency": "ratio", "cli.kernel_share": "ratio",
    "trace.task_wall_s": "s", "trace.overhead_us": "us",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sphmg = setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(bool(args.trace))
    wl = make_workload(sphmg, args.workload, tracer)
    outcomes, walls, errors = [], [], []
    start = time.perf_counter()
    while True:
        seed = task_seed(args.seed, len(walls))
        t0 = time.perf_counter()
        try:
            with tracer.span("task", seed=seed):
                values = wl.task(seed)
            walls.append(time.perf_counter() - t0)
            problem = wl.check_task(values)
        except Exception as exc:  # a failed task is counted, not fatal
            walls.append(time.perf_counter() - t0)
            values, problem = None, f"{type(exc).__name__}: {exc}"
        if problem:
            errors.append(f"task {len(walls) - 1} (seed {seed}): {problem}")
        else:
            outcomes.append(values)
        elapsed = time.perf_counter() - start
        if args.trace or (len(walls) >= MIN_TASKS
                          and elapsed + elapsed / len(walls) > args.seconds):
            break

    # a layer the workload never calls reads 0
    layers = dict.fromkeys(LAYER_METRICS, 0.0) if args.trace else {}
    run_errors = []
    if args.trace and outcomes:
        n_spans = len(tracer.spans)
        try:
            with tracer.span("probe"):
                layers.update(wl.probe(task_seed(args.seed, 0), walls[0]))
        except Exception as exc:  # reported as a failed run, like a failed check
            run_errors.append(f"layer probe: {type(exc).__name__}: {exc}")
        layers["theory.solve_us"] = theory_probe(sphmg, tracer, wl.theory_point)
        layers["trace.task_wall_s"] = walls[0]
        layers["trace.overhead_us"] = n_spans * span_cost_us()
    if outcomes:
        run_errors += wl.check_run(outcomes)
    # a check over the whole run fails every task of it
    failed = len(walls) if run_errors else len(walls) - len(outcomes)

    result = {
        "provenance": provenance(sphmg, args.workload, args.seed),
        "task_seeds": [task_seed(args.seed, i) for i in range(len(walls))],
        "walls": walls,
        "attempted": len(walls),
        "failed": failed,
        "errors": errors + run_errors,
        "observed": wl.report(outcomes) if outcomes else None,
        "peak_rss_mb": peak_rss_mb(),
        "layers": {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in layers.items()},
        "spans": tracer.spans,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
