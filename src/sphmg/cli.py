"""Experiment driver: sweeps, phase diagrams, and cross-engine comparisons.

Subcommands
-----------
theory         print the stationary solution at one parameter point
phase-diagram  emit the two transition lines along a kappa or A_tilde axis
simulate       run the agent-level simulator over a grid x seeds
kernels        run the two-time kernel iterator over a grid
compare        run several engines per grid point and report deviations

Output rows follow a fixed column schema (csv or json); unavailable cells are
written empty (csv) or null (json).  Identical specs and seeds give
byte-identical output apart from the commented timestamp line.  Exit codes:
0 success, 1 argument/configuration error, 2 completed with per-point
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .core import ContractError, ExternalBid, GameParams
from .kernels import KernelParams, extract_stationary, iterate_kernels
from .simulator import RunObservables, run_experiment
from .theory import Phase, alpha_c1, alpha_c2, classify_phase, stationary_solution

SWEEPABLE = ("alpha", "kappa", "A_tilde")
ENGINES = ("theory", "simulate", "kernels")

DEFAULTS = {
    "agents": 1000,
    "t_eq": 1000,
    "t_meas": 2000,
    "n_seeds": 5,
    "seed": 0,
    "kappa": 0.0,
    "A": 0.0,
    "zeta": 0,
    "init_scale": 1.0,
    "T": 400,
    "lambda0": 1.0,
    "tail": 0.25,
    "workers": 1,
    "format": "csv",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message) from None


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    count: int
    log: bool = False

    def values(self) -> np.ndarray:
        if self.count < 1:
            raise ContractError("axis count must be >= 1")
        if self.lo > self.hi:
            raise ContractError(f"axis {self.name}: min {self.lo} > max {self.hi}")
        if self.count == 1:
            return np.array([self.lo])
        if self.log:
            if self.lo <= 0:
                raise ContractError("log axis needs a positive minimum")
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition plus everything needed to run each engine on it."""

    axes: tuple[SweepAxis, ...]
    fixed: dict
    engines: tuple[str, ...]
    seeds: tuple[int, ...]
    n_agents: int
    t_equilibrate: int
    t_measure: int
    init_scale: float
    kernel_T: int
    lambda0: float
    tail_fraction: float
    workers: int

    def grid(self) -> list[dict]:
        base = {k: self.fixed[k] for k in ("alpha", "kappa", "A_tilde", "zeta")}
        if len(self.axes) == 0:
            return [dict(base)]
        points = []
        if len(self.axes) == 1:
            for v in self.axes[0].values():
                pt = dict(base)
                pt[self.axes[0].name] = float(v)
                points.append(pt)
        else:
            for v1 in self.axes[0].values():
                for v2 in self.axes[1].values():
                    pt = dict(base)
                    pt[self.axes[0].name] = float(v1)
                    pt[self.axes[1].name] = float(v2)
                    points.append(pt)
        return points


@dataclass
class ResultRow:
    """One grid point in the stable output schema; None marks unavailable."""

    alpha: float
    kappa: float
    A_tilde: float
    zeta: int
    realized_alpha: float | None
    phase: str | None
    c0_theory: float | None = None
    c0_sim: float | None = None
    c0_sim_err: float | None = None
    c0_kernel: float | None = None
    sigma_theory: float | None = None
    sigma_sim: float | None = None
    sigma_sim_err: float | None = None
    sigma_fl_theory: float | None = None
    lambda_theory: float | None = None
    lambda_sim: float | None = None
    Lambda_theory: float | None = None
    Lambda_sim: float | None = None
    chi: float | None = None
    chi_hat_plus: float | None = None
    chi_hat_minus: float | None = None
    bid_mean_theory: float | None = None
    bid_mean_sim: float | None = None
    bid_staggered_theory: float | None = None
    bid_staggered_sim: float | None = None
    n_agents: int | None = None
    t_equilibrate: int | None = None
    t_measure: int | None = None
    seed_count: int | None = None


RESULT_COLUMNS = [f.name for f in fields(ResultRow)]


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _fmt_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".12g")


def write_csv(path, columns, rows, timestamp=True) -> str:
    lines = []
    if timestamp:
        lines.append("# generated " + datetime.now(timezone.utc).isoformat())
    lines.append(",".join(columns))
    for r in rows:
        lines.append(",".join(_fmt_cell(r[c]) for c in columns))
    text = "\n".join(lines) + "\n"
    _emit(path, text)
    return text


def write_json(path, rows) -> str:
    text = json.dumps(rows, indent=1, allow_nan=False) + "\n"
    _emit(path, text)
    return text


def _emit(path, text) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else "-inf"
    return x


# ----------------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------------


def _theory_cells(pt: dict) -> dict:
    sol = stationary_solution(pt["alpha"], pt["kappa"], pt["A_tilde"], pt["zeta"])
    return {
        "phase": str(sol.phase),
        "c0_theory": _finite_or_none(sol.c0),
        "sigma_theory": _finite_or_none(sol.sigma),
        "sigma_fl_theory": _finite_or_none(sol.sigma_fl),
        "lambda_theory": _finite_or_none(sol.lam),
        "Lambda_theory": _finite_or_none(sol.Lambda),
        "chi": _finite_or_none(sol.chi),
        "chi_hat_plus": _finite_or_none(sol.chi_hat),
        "chi_hat_minus": _finite_or_none(sol.chi_hat_minus),
        "bid_mean_theory": _finite_or_none(sol.bid_mean),
        "bid_staggered_theory": _finite_or_none(sol.bid_staggered),
    }


def _game_params(pt: dict, spec: SweepSpec, seed: int) -> GameParams:
    return GameParams(
        n_agents=spec.n_agents,
        alpha=pt["alpha"],
        kappa=pt["kappa"],
        external=ExternalBid(zeta=pt["zeta"], amplitude=pt["A_tilde"]),
        init_scale=spec.init_scale,
        t_equilibrate=spec.t_equilibrate,
        t_measure=spec.t_measure,
        seed=seed,
    )


def _sim_cells(results: list[RunObservables]) -> dict:
    """Seed means of the observables, with standard errors for c0 and sigma."""
    names = ("c0_hat", "sigma", "lambda_mean", "lambda_slope", "bid_mean", "bid_staggered")
    arr = np.array([[getattr(r, f) for f in names] for r in results], dtype=np.float64)
    n = arr.shape[0]
    mean = dict(zip(names, arr.mean(axis=0)))
    err = dict(zip(names, arr.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(len(names))))
    return {
        "c0_sim": float(mean["c0_hat"]),
        "c0_sim_err": float(err["c0_hat"]),
        "sigma_sim": float(mean["sigma"]),
        "sigma_sim_err": float(err["sigma"]),
        "lambda_sim": float(mean["lambda_mean"]),
        "Lambda_sim": float(mean["lambda_slope"]),
        "bid_mean_sim": float(mean["bid_mean"]),
        "bid_staggered_sim": float(mean["bid_staggered"]),
    }


def _kernel_cells(pt: dict, spec: SweepSpec) -> dict:
    state = iterate_kernels(
        KernelParams(
            alpha=pt["alpha"],
            kappa=pt["kappa"],
            external=ExternalBid(zeta=pt["zeta"], amplitude=pt["A_tilde"]),
            lambda0=spec.lambda0,
            T=spec.kernel_T,
        )
    )
    tail = extract_stationary(state, spec.tail_fraction)
    return {
        "c0_kernel": tail.c0,
        "_kernel_lam": tail.lam,
        "_kernel_Lambda": tail.Lambda,
        "_kernel_sigma_fl": tail.sigma_fl,
    }


# Pool workers are one process per core; a multithreaded BLAS in each of them
# would oversubscribe the cores.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pool_map(fn, items: list, workers: int) -> list:
    """fn over items in a spawn-context pool whose workers run single-threaded BLAS.

    BLAS reads its thread count when a worker first imports numpy, so the
    variables are set in this process's environment while the workers start
    (they inherit it) and restored afterwards.
    """
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            return list(pool.map(fn, items))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def run_sweep(spec: SweepSpec) -> tuple[list[ResultRow], list[dict], int]:
    """Run the engines on every grid point: (rows, kernel tail extras, n_failed).

    Simulation seeds and kernel points form one task list, which fans out
    over a process pool when workers > 1; rows are assembled in grid order
    regardless of completion order.  A failing engine at a point leaves its
    cells empty and the sweep continues.
    """
    points = spec.grid()
    n_seeds = len(spec.seeds)
    sim_tasks = [(_sim_task_safe, (pt, spec, seed)) for pt in points for seed in spec.seeds
                 if "simulate" in spec.engines]
    kernel_tasks = [(_kernel_task_safe, (pt, spec)) for pt in points
                    if "kernels" in spec.engines]
    tasks = sim_tasks + kernel_tasks
    if spec.workers > 1 and len(tasks) > 1:
        outcomes = _pool_map(_run_task, tasks, spec.workers)
    else:
        outcomes = [_run_task(t) for t in tasks]
    sim_outcomes, kernel_outcomes = outcomes[:len(sim_tasks)], outcomes[len(sim_tasks):]

    failures = 0
    rows: list[ResultRow] = []
    kernel_extra: list[dict] = []
    for i, pt in enumerate(points):
        row = ResultRow(
            alpha=pt["alpha"],
            kappa=pt["kappa"],
            A_tilde=pt["A_tilde"],
            zeta=int(pt["zeta"]),
            realized_alpha=max(1, round(pt["alpha"] * spec.n_agents)) / spec.n_agents,
            phase=None,
            n_agents=spec.n_agents if "simulate" in spec.engines else None,
            t_equilibrate=spec.t_equilibrate if "simulate" in spec.engines else None,
            t_measure=spec.t_measure if "simulate" in spec.engines else None,
            seed_count=len(spec.seeds) if "simulate" in spec.engines else None,
        )
        row.phase = str(classify_phase(pt["alpha"], pt["kappa"], pt["A_tilde"], pt["zeta"]))
        extra = {}
        if "theory" in spec.engines:
            try:
                _apply(row, _theory_cells(pt))
            except Exception as exc:  # keep sweeping, mark the point
                failures += 1
                print(f"[theory] point {pt} failed: {exc}", file=sys.stderr)
        if "simulate" in spec.engines:
            outs = [o for o in sim_outcomes[i * n_seeds:(i + 1) * n_seeds] if o is not None]
            if len(outs) < n_seeds:
                failures += 1
                print(f"[simulate] {n_seeds - len(outs)} seed(s) failed at {pt}", file=sys.stderr)
            if outs:
                _apply(row, _sim_cells(outs))
        if "kernels" in spec.engines:
            cells = kernel_outcomes[i]
            if isinstance(cells, str):
                failures += 1
                print(f"[kernels] point {pt} failed: {cells}", file=sys.stderr)
            else:
                extra = {k: v for k, v in cells.items() if k.startswith("_")}
                _apply(row, {k: v for k, v in cells.items() if not k.startswith("_")})
        rows.append(row)
        kernel_extra.append(extra)

    return rows, kernel_extra, failures


def _run_task(task):
    fn, args = task
    return fn(args)


def _sim_task_safe(task) -> RunObservables | None:
    pt, spec, seed = task
    try:
        return run_experiment(_game_params(pt, spec, seed))
    except Exception as exc:
        print(f"[simulate] point {pt} seed {seed} failed: {exc}", file=sys.stderr)
        return None


def _kernel_task_safe(task) -> dict | str:
    """The kernel cells of one point, or the failure message."""
    pt, spec = task
    try:
        return _kernel_cells(pt, spec)
    except Exception as exc:
        return str(exc)


def _apply(row: ResultRow, cells: dict) -> None:
    for k, v in cells.items():
        setattr(row, k, v)


# A reference value at or below this magnitude counts as zero in the summary.
ZERO_REFERENCE = 1e-12


def compare_summary(rows: list[ResultRow], kernel_extra: list[dict]) -> list[str]:
    """Max deviation per observable between engines on F/O points.

    The deviation is relative to the reference, except where the reference
    is zero (e.g. Lambda at alpha_c2): those points get their own line with
    the absolute deviation.
    """
    active = [r for r in rows if r.phase in ("F", "O")]
    checks = [
        ("c0: sim vs theory", [(r.c0_sim, r.c0_theory) for r in active]),
        ("c0: kernels vs theory", [(r.c0_kernel, r.c0_theory) for r in active]),
        ("sigma: sim vs theory", [(r.sigma_sim, r.sigma_theory) for r in active]),
        (
            "lambda: sim vs theory (O phase)",
            [(r.lambda_sim, r.lambda_theory) for r in active if r.phase == "O"],
        ),
        (
            "Lambda: sim vs theory (F phase)",
            [(r.Lambda_sim, r.Lambda_theory) for r in active if r.phase == "F"],
        ),
        (
            "sigma_fl: kernels vs theory",
            [
                (x.get("_kernel_sigma_fl"), r.sigma_fl_theory)
                for r, x in zip(rows, kernel_extra)
                if r.phase in ("F", "O")
            ],
        ),
        (
            "lambda: kernels vs theory (O phase)",
            [
                (x.get("_kernel_lam"), r.lambda_theory)
                for r, x in zip(rows, kernel_extra)
                if r.phase == "O"
            ],
        ),
    ]
    lines = []
    for label, pairs in checks:
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        rel_devs = [abs(a - b) / abs(b) for a, b in pairs if abs(b) > ZERO_REFERENCE]
        abs_devs = [abs(a - b) for a, b in pairs if abs(b) <= ZERO_REFERENCE]
        if rel_devs:
            lines.append(f"{label}: max rel deviation {max(rel_devs):.3e}")
        if abs_devs:
            lines.append(f"{label}: max abs deviation {max(abs_devs):.3e} (reference 0)")
    return lines


# ----------------------------------------------------------------------------
# argument handling
# ----------------------------------------------------------------------------


def _parse_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ContractError(f"axis spec must be name:min:max:count[:log], got {text!r}")
    name = parts[0]
    if name not in SWEEPABLE:
        raise ContractError(f"sweep axis must be one of {SWEEPABLE}, got {name!r}")
    log = False
    if len(parts) == 5:
        if parts[4] not in ("log", "lin"):
            raise ContractError(f"axis spacing must be 'lin' or 'log', got {parts[4]!r}")
        log = parts[4] == "log"
    return SweepAxis(name=name, lo=float(parts[1]), hi=float(parts[2]), count=int(parts[3]), log=log)


def load_config(path: str) -> dict:
    """Flat key-value file: 'name = value' (or 'name: value'), # comments."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":", None):
                if sep is None:
                    parts = line.split(None, 1)
                elif sep in line:
                    parts = line.split(sep, 1)
                else:
                    continue
                if len(parts) == 2:
                    out[parts[0].strip().replace("-", "_")] = parts[1].strip()
                    break
            else:
                raise ContractError(f"cannot parse config line: {raw.rstrip()}")
    return out


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, help="pattern-to-agent ratio")
    p.add_argument("--kappa", type=float, help="self-impact correction in [0,1]")
    p.add_argument("--A", type=float, help="external bid amplitude")
    p.add_argument("--zeta", type=int, choices=(0, 1), help="0 static, 1 oscillating drive")
    p.add_argument("--agents", type=int, help="number of agents N")
    p.add_argument("--seed", type=int, help="base seed (seeds are seed..seed+n-1)")
    p.add_argument("--seeds", type=str, help="explicit comma-separated seed list")
    p.add_argument("--n-seeds", type=int, dest="n_seeds", help="number of derived seeds")
    p.add_argument("--t-eq", type=int, dest="t_eq", help="equilibration batch steps")
    p.add_argument("--t-meas", type=int, dest="t_meas", help="measurement batch steps")
    p.add_argument("--init-scale", type=float, dest="init_scale", help="initial |q| magnitude")
    p.add_argument("--T", type=int, help="kernel iteration horizon")
    p.add_argument("--lambda0", type=float, help="kernel initial constraint force")
    p.add_argument("--tail", type=float, help="kernel tail fraction for estimates")
    p.add_argument("--out", type=str, help="output path ('-' for stdout)")
    p.add_argument("--format", type=str, choices=("csv", "json"), help="output format")
    p.add_argument("--config", type=str, help="key-value config file")
    p.add_argument("--workers", type=int, help="process pool size for simulations")
    p.add_argument("--sweep", type=str, help="axis spec name:min:max:count[:log]")
    p.add_argument("--sweep2", type=str, help="second axis spec")


def build_parser() -> _Parser:
    parser = _Parser(prog="sphmg", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("theory", "stationary solution at one point"),
        ("phase-diagram", "transition lines along one axis"),
        ("simulate", "agent-level simulation rows"),
        ("kernels", "two-time kernel iteration rows"),
        ("compare", "multi-engine comparison rows"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "compare":
            p.add_argument("--engines", type=str, help="comma list from theory,simulate,kernels")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags."""
    merged = dict(DEFAULTS)
    if args.config:
        cfg = load_config(args.config)
        unknown = set(cfg) - set(DEFAULTS) - {"alpha", "seeds", "engines", "sweep", "sweep2", "out"}
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
        merged.update(cfg)
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            merged[key] = val
    # normalize types for values that may arrive as config strings
    for key in ("agents", "t_eq", "t_meas", "n_seeds", "seed", "zeta", "T", "workers"):
        if key in merged and merged[key] is not None:
            merged[key] = int(merged[key])
    for key in ("kappa", "A", "init_scale", "lambda0", "tail"):
        if key in merged and merged[key] is not None:
            merged[key] = float(merged[key])
    if merged.get("alpha") is not None:
        merged["alpha"] = float(merged["alpha"])
    return merged


def _spec_from(merged: dict, engines: tuple[str, ...]) -> SweepSpec:
    axes = []
    for key in ("sweep", "sweep2"):
        if merged.get(key):
            axes.append(_parse_axis(str(merged[key])))
    if len(axes) > 2:
        raise ContractError("at most 2 sweep axes")
    if merged.get("seeds"):
        seeds = tuple(int(s) for s in str(merged["seeds"]).split(",") if s.strip())
    else:
        seeds = tuple(merged["seed"] + i for i in range(merged["n_seeds"]))
    if not seeds:
        raise ContractError("need at least one seed")
    swept = {a.name for a in axes}
    fixed = {
        "alpha": merged.get("alpha"),
        "kappa": merged["kappa"],
        "A_tilde": merged["A"],
        "zeta": merged["zeta"],
    }
    if "alpha" not in swept and fixed["alpha"] is None:
        raise ContractError("--alpha is required unless alpha is a sweep axis")
    if fixed["alpha"] is None:
        fixed["alpha"] = 1.0  # placeholder, replaced by the axis value
    return SweepSpec(
        axes=tuple(axes),
        fixed=fixed,
        engines=engines,
        seeds=seeds,
        n_agents=merged["agents"],
        t_equilibrate=merged["t_eq"],
        t_measure=merged["t_meas"],
        init_scale=merged["init_scale"],
        kernel_T=merged["T"],
        lambda0=merged["lambda0"],
        tail_fraction=merged["tail"],
        workers=merged["workers"],
    )


def _rows_out(rows: list[ResultRow], merged: dict) -> None:
    dicts = [{c: getattr(r, c) for c in RESULT_COLUMNS} for r in rows]
    if merged["format"] == "json":
        write_json(merged.get("out"), dicts)
    else:
        write_csv(merged.get("out"), RESULT_COLUMNS, dicts)


def cmd_theory(merged: dict) -> int:
    for key in ("alpha",):
        if merged.get(key) is None:
            raise ContractError("theory requires --alpha")
    a, k, A, z = merged["alpha"], merged["kappa"], merged["A"], merged["zeta"]
    sol = stationary_solution(a, k, A, z)
    payload = {
        "alpha": a,
        "kappa": k,
        "A_tilde": A,
        "zeta": z,
        "alpha_c1": alpha_c1(A, z),
        "alpha_c2": alpha_c2(A, k, z),
        "phase": str(sol.phase),
        "chi": sol.chi,
        "chi_hat": sol.chi_hat,
        "chi_hat_minus": sol.chi_hat_minus,
        "c0": sol.c0,
        "lambda": sol.lam,
        "Lambda": sol.Lambda,
        "gamma": sol.gamma,
        "psi0": sol.psi0,
        "psi1": sol.psi1,
        "sigma_fl": sol.sigma_fl,
        "sigma": sol.sigma,
        "bid_mean": sol.bid_mean,
        "bid_staggered": sol.bid_staggered,
    }
    if merged["format"] == "json":
        write_json(merged.get("out"), {k: _json_safe(v) for k, v in payload.items()})
    else:
        width = max(len(k) for k in payload)
        lines = []
        for key, val in payload.items():
            if val is None:
                shown = "n/a"
            elif isinstance(val, str):
                shown = val
            elif isinstance(val, float) and math.isinf(val):
                shown = "inf"
            elif isinstance(val, float):
                shown = format(val, ".8g")
            else:
                shown = str(val)
            lines.append(f"{key:<{width}}  {shown}")
        _emit(merged.get("out"), "\n".join(lines) + "\n")
    return 0


def cmd_phase_diagram(merged: dict) -> int:
    if not merged.get("sweep"):
        raise ContractError("phase-diagram requires --sweep over kappa or A_tilde")
    axis = _parse_axis(str(merged["sweep"]))
    if axis.name not in ("kappa", "A_tilde"):
        raise ContractError("phase-diagram sweeps kappa or A_tilde")
    if merged.get("sweep2"):
        raise ContractError("phase-diagram takes a single sweep axis")
    z = merged["zeta"]
    rows = []
    for v in axis.values():
        kappa = float(v) if axis.name == "kappa" else merged["kappa"]
        A = float(v) if axis.name == "A_tilde" else merged["A"]
        a2 = alpha_c2(A, kappa, z)
        rows.append(
            {
                axis.name: float(v),
                "alpha_c1": alpha_c1(A, z),
                "alpha_c2": a2 if math.isfinite(a2) else math.inf,
            }
        )
    columns = [axis.name, "alpha_c1", "alpha_c2"]
    if merged["format"] == "json":
        write_json(merged.get("out"), [{k: _json_safe(v) for k, v in r.items()} for r in rows])
    else:
        # the +inf boundary marker at kappa=1 is deliberate in this command
        out_rows = [
            {k: ("inf" if isinstance(v, float) and math.isinf(v) else v) for k, v in r.items()}
            for r in rows
        ]
        write_csv(merged.get("out"), columns, out_rows)
    return 0


def _cmd_rows(merged: dict, engines: tuple[str, ...]) -> int:
    spec = _spec_from(merged, engines)
    rows, kernel_extra, failures = run_sweep(spec)
    _rows_out(rows, merged)
    if len(engines) > 1:
        for line in compare_summary(rows, kernel_extra):
            print(line, file=sys.stderr)
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        merged = _resolve(args)
        if args.command == "theory":
            return cmd_theory(merged)
        if args.command == "phase-diagram":
            return cmd_phase_diagram(merged)
        if args.command == "simulate":
            return _cmd_rows(merged, ("simulate",))
        if args.command == "kernels":
            return _cmd_rows(merged, ("kernels",))
        if args.command == "compare":
            engines = tuple(str(merged.get("engines") or "theory,simulate,kernels").split(","))
            bad = set(engines) - set(ENGINES)
            if bad:
                raise ContractError(f"unknown engines: {sorted(bad)}")
            if len(engines) < 2:
                raise ContractError("compare needs at least two engines")
            return _cmd_rows(merged, engines)
        raise ContractError(f"unknown command {args.command!r}")
    except SystemExit as exc:  # argparse error path routed through _Parser.error
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if exc.code in (None, 0) else 1
    except (ContractError, OSError, ValueError) as exc:
        print(f"sphmg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
