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
import itertools
import json
import math
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from .core import ContractError, ExternalBid, GameParams
from .kernels import KernelParams, KernelTail, extract_stationary, iterate_kernels
from .simulator import RunObservables, run_experiment
from .theory import alpha_c1, alpha_c2, classify_phase, stationary_solution

SWEEPABLE = ("alpha", "kappa", "A_tilde")
ENGINES = ("theory", "simulate", "kernels")

# Every settable value once: (name, type, default, choices, help).  The flag
# is "--" + name with "_" written "-", the config key is the name; --engines
# is a flag of compare only.
_OPTIONS = (
    ("alpha", float, None, None, "pattern-to-agent ratio"),
    ("kappa", float, 0.0, None, "self-impact correction in [0,1]"),
    ("A", float, 0.0, None, "external bid amplitude"),
    ("zeta", int, 0, (0, 1), "0 static, 1 oscillating drive"),
    ("agents", int, 1000, None, "number of agents N"),
    ("seed", int, 0, None, "base seed (seeds are seed..seed+n-1)"),
    ("seeds", str, None, None, "explicit comma-separated seed list"),
    ("n_seeds", int, 5, None, "number of derived seeds"),
    ("t_eq", int, 1000, None, "equilibration batch steps"),
    ("t_meas", int, 2000, None, "measurement batch steps"),
    ("init_scale", float, 1.0, None, "initial |q| magnitude"),
    ("T", int, 400, None, "kernel iteration horizon"),
    ("lambda0", float, 1.0, None, "kernel initial constraint force"),
    ("tail", float, 0.25, None, "kernel tail fraction for estimates"),
    ("out", str, None, None, "output path ('-' for stdout)"),
    ("format", str, "csv", ("csv", "json"), "output format"),
    ("workers", int, 1, None, "process pool size for simulations"),
    ("sweep", str, None, None, "axis spec name:min:max:count[:log]"),
    ("sweep2", str, None, None, "second axis spec"),
    ("engines", str, ",".join(ENGINES), None, "comma list from theory,simulate,kernels"),
)


# The stable output schema of a result row; None marks an unavailable cell.
RESULT_COLUMNS = [
    "alpha", "kappa", "A_tilde", "zeta", "realized_alpha", "phase",
    "c0_theory", "c0_sim", "c0_sim_err", "c0_kernel",
    "sigma_theory", "sigma_sim", "sigma_sim_err", "sigma_fl_theory",
    "lambda_theory", "lambda_sim", "Lambda_theory", "Lambda_sim",
    "chi", "chi_hat_plus", "chi_hat_minus",
    "bid_mean_theory", "bid_mean_sim", "bid_staggered_theory", "bid_staggered_sim",
    "n_agents", "t_equilibrate", "t_measure", "seed_count",
]


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _fmt_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".12g")


def write_csv(path, columns, rows) -> None:
    lines = ["# generated " + datetime.now(timezone.utc).isoformat(), ",".join(columns)]
    lines += [",".join(_fmt_cell(r[c]) for c in columns) for r in rows]
    _emit(path, "\n".join(lines) + "\n")


def write_json(path, rows) -> None:
    _emit(path, json.dumps(rows, indent=1, allow_nan=False) + "\n")


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
    columns = {"c0_theory": "c0", "sigma_theory": "sigma", "sigma_fl_theory": "sigma_fl",
               "lambda_theory": "lam", "Lambda_theory": "Lambda", "chi": "chi",
               "chi_hat_plus": "chi_hat", "chi_hat_minus": "chi_hat_minus",
               "bid_mean_theory": "bid_mean", "bid_staggered_theory": "bid_staggered"}
    return {col: _finite_or_none(getattr(sol, name)) for col, name in columns.items()}


def _sim_cells(results: list[RunObservables]) -> dict:
    """Seed means of the observables, with standard errors for c0 and sigma;
    one seed leaves the errors unknown (None), not 0."""
    columns = {"c0_sim": "c0_hat", "sigma_sim": "sigma", "lambda_sim": "lambda_mean",
               "Lambda_sim": "lambda_slope", "bid_mean_sim": "bid_mean",
               "bid_staggered_sim": "bid_staggered"}
    arr = np.array([[getattr(r, f) for f in columns.values()] for r in results], dtype=np.float64)
    n = arr.shape[0]
    se = (arr.std(axis=0, ddof=1) / np.sqrt(n)).tolist() if n > 1 else [None] * len(columns)
    return {**dict(zip(columns, arr.mean(axis=0).tolist())),
            "c0_sim_err": se[0], "sigma_sim_err": se[1]}


# Pool workers are one process per core; a multithreaded BLAS in each of them
# would oversubscribe the cores.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pool_map(fn, items: list, workers: int) -> list:
    """fn over items in a spawn-context pool whose workers run single-threaded BLAS.

    BLAS reads its thread count when a worker first imports numpy, so the
    variables are set in this process's environment while the workers start
    (they inherit it) and restored afterwards.  The pool modules are imported
    here, so a run that never fans out does not load them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

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


def _row(pt: dict, opts: dict) -> dict:
    """The row of one grid point before any engine runs; raises on a bad point."""
    phase = str(classify_phase(pt["alpha"], pt["kappa"], pt["A_tilde"], pt["zeta"]))
    realized = GameParams(n_agents=opts["agents"], alpha=pt["alpha"]).realized_alpha
    row = dict.fromkeys(RESULT_COLUMNS)
    row.update(pt, realized_alpha=realized, phase=phase)
    return row


def run_sweep(
    opts: dict, engines: tuple[str, ...]
) -> tuple[list[dict], list[KernelTail | None], int]:
    """Run the engines on every grid point: (rows, kernel tail or None per row, n_failed).

    Every row and every task, an engine function with its checked params, is
    built before any task starts, so a bad point, seed, setting or worker
    count fails the sweep before it runs.  Simulation seeds and kernel points
    form one task list, which fans out over a process pool when workers > 1;
    rows are assembled, and failures reported, in grid order regardless of
    completion order.  A failing engine at a point leaves its cells empty and
    the sweep continues.
    """
    if opts["workers"] < 1:
        raise ContractError(f"workers must be >= 1, got {opts['workers']}")
    points = _grid(opts)
    seeds = _seeds(opts)
    sim = "simulate" in engines
    rows = [_row(pt, opts) for pt in points]
    drives = [ExternalBid(zeta=pt["zeta"], amplitude=pt["A_tilde"]) for pt in points]
    sim_tasks = [
        (run_experiment, GameParams(
            n_agents=opts["agents"], alpha=pt["alpha"], kappa=pt["kappa"], external=drive,
            init_scale=opts["init_scale"], t_equilibrate=opts["t_eq"], t_measure=opts["t_meas"],
            seed=seed))
        for pt, drive in zip(points, drives) for seed in seeds if sim
    ]
    kernel_tasks = [
        (_kernel_tail, KernelParams(alpha=pt["alpha"], kappa=pt["kappa"], external=drive,
                                    lambda0=opts["lambda0"], T=opts["T"]), opts["tail"])
        for pt, drive in zip(points, drives) if "kernels" in engines
    ]
    tasks = sim_tasks + kernel_tasks
    if opts["workers"] > 1 and len(tasks) > 1:
        outcomes = _pool_map(_run_task, tasks, opts["workers"])
    else:
        outcomes = [_run_task(t) for t in tasks]
    runs, tails = outcomes[:len(sim_tasks)], outcomes[len(sim_tasks):] or [None] * len(points)

    failures = 0
    n = len(seeds)
    for i, (pt, row) in enumerate(zip(points, rows)):
        if "theory" in engines:
            try:
                row.update(_theory_cells(pt))
            except Exception as exc:  # keep sweeping, mark the point
                failures += 1
                print(f"[theory] point {pt} failed: {exc}", file=sys.stderr)
        if sim:
            outs = []
            for seed, run in zip(seeds, runs[i * n:(i + 1) * n]):
                if isinstance(run, str):
                    print(f"[simulate] point {pt} seed {seed} failed: {run}", file=sys.stderr)
                else:
                    outs.append(run)
            if len(outs) < n:
                failures += 1
                print(f"[simulate] {n - len(outs)} seed(s) failed at {pt}", file=sys.stderr)
            row.update(n_agents=opts["agents"], t_equilibrate=opts["t_eq"],
                       t_measure=opts["t_meas"], seed_count=len(outs))
            if outs:
                row.update(_sim_cells(outs))
        if isinstance(tails[i], str):
            failures += 1
            print(f"[kernels] point {pt} failed: {tails[i]}", file=sys.stderr)
            tails[i] = None
        elif tails[i] is not None:
            row["c0_kernel"] = tails[i].c0
    return rows, tails, failures


def _run_task(task: tuple) -> RunObservables | KernelTail | str:
    """The result of one (engine, params, *args) task, or the failure message."""
    fn, *args = task
    try:
        return fn(*args)
    except Exception as exc:
        return str(exc)


def _kernel_tail(params: KernelParams, tail: float) -> KernelTail:
    """The tail estimates of one kernel iteration."""
    return extract_stationary(iterate_kernels(params), tail)


# A reference value at or below this magnitude counts as zero in the summary.
ZERO_REFERENCE = 1e-12


def compare_summary(rows: list[dict], tails: list[KernelTail | None]) -> list[str]:
    """Max deviation per observable between engines on F/O points.

    The deviation is relative to the reference, except where the reference
    is zero (e.g. Lambda at alpha_c2): those points get their own line with
    the absolute deviation.
    """
    active = [r for r in rows if r["phase"] in ("F", "O")]
    kernel = [(r, t) for r, t in zip(rows, tails) if t is not None and r["phase"] in ("F", "O")]
    checks = [
        ("c0: sim vs theory", [(r["c0_sim"], r["c0_theory"]) for r in active]),
        ("c0: kernels vs theory", [(r["c0_kernel"], r["c0_theory"]) for r in active]),
        ("sigma: sim vs theory", [(r["sigma_sim"], r["sigma_theory"]) for r in active]),
        (
            "lambda: sim vs theory (O phase)",
            [(r["lambda_sim"], r["lambda_theory"]) for r in active if r["phase"] == "O"],
        ),
        (
            "Lambda: sim vs theory (F phase)",
            [(r["Lambda_sim"], r["Lambda_theory"]) for r in active if r["phase"] == "F"],
        ),
        ("sigma_fl: kernels vs theory", [(t.sigma_fl, r["sigma_fl_theory"]) for r, t in kernel]),
        (
            "lambda: kernels vs theory (O phase)",
            [(t.lam, r["lambda_theory"]) for r, t in kernel if r["phase"] == "O"],
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


def _parse_axis(text: str) -> tuple[str, np.ndarray]:
    """(name, values) of an axis spec name:min:max:count[:lin|log]."""
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ContractError(f"axis spec must be name:min:max:count[:log], got {text!r}")
    name = parts[0]
    if name not in SWEEPABLE:
        raise ContractError(f"sweep axis must be one of {SWEEPABLE}, got {name!r}")
    if parts[4:] not in ([], ["lin"], ["log"]):
        raise ContractError(f"axis spacing must be 'lin' or 'log', got {parts[4]!r}")
    lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    if count < 1:
        raise ContractError("axis count must be >= 1")
    if lo > hi:
        raise ContractError(f"axis {name}: min {lo} > max {hi}")
    if count == 1:
        return name, np.array([lo])
    if parts[4:] == ["log"]:
        if lo <= 0:
            raise ContractError("log axis needs a positive minimum")
        return name, np.geomspace(lo, hi, count)
    return name, np.linspace(lo, hi, count)


def _grid(opts: dict) -> list[dict]:
    """The grid points, the swept axes overriding the fixed values."""
    axes = [_parse_axis(opts[key]) for key in ("sweep", "sweep2") if opts[key]]
    names = [name for name, _ in axes]
    if len(names) == 2 and names[0] == names[1]:
        raise ContractError(f"--sweep and --sweep2 both sweep {names[0]}")
    if opts["alpha"] is None and "alpha" not in names:
        raise ContractError("--alpha is required unless alpha is a sweep axis")
    base = {"alpha": opts["alpha"], "kappa": opts["kappa"], "A_tilde": opts["A"],
            "zeta": opts["zeta"]}
    return [{**base, **dict(zip(names, map(float, values)))}
            for values in itertools.product(*(values for _, values in axes))]


def _seeds(opts: dict) -> list[int]:
    if opts["seeds"]:
        seeds = [int(s) for s in opts["seeds"].split(",") if s.strip()]
    else:
        seeds = [opts["seed"] + i for i in range(opts["n_seeds"])]
    if not seeds:
        raise ContractError("need at least one seed")
    if len(set(seeds)) < len(seeds):
        raise ContractError(f"repeated seeds: {opts['seeds']}")
    return seeds


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sphmg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (helptext, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=helptext)
        for name, kind, _, choices, text in _OPTIONS:
            if name != "engines" or command == "compare":
                p.add_argument("--" + name.replace("_", "-"), type=kind, choices=choices, help=text)
        p.add_argument("--config", type=str, help="key-value config file")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags, typed and checked by _OPTIONS."""
    merged = {name: default for name, _, default, _, _ in _OPTIONS}
    if args.config:
        cfg = load_config(args.config)
        unknown = set(cfg) - set(merged)
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
        merged.update(cfg)
    merged.update((k, v) for k, v in vars(args).items() if k in merged and v is not None)
    for name, kind, _, choices, _ in _OPTIONS:
        if merged[name] is not None:
            merged[name] = kind(merged[name])
            if choices and merged[name] not in choices:
                raise ContractError(f"{name} must be one of {choices}, got {merged[name]!r}")
    return merged


def cmd_theory(merged: dict) -> int:
    if merged["alpha"] is None:
        raise ContractError("theory requires --alpha")
    a, k, A, z = merged["alpha"], merged["kappa"], merged["A"], merged["zeta"]
    sol = stationary_solution(a, k, A, z)
    payload = {"alpha": a, "kappa": k, "A_tilde": A, "zeta": z,
               "alpha_c1": alpha_c1(A, z), "alpha_c2": alpha_c2(A, k, z)}
    for f in fields(sol):
        payload["lambda" if f.name == "lam" else f.name] = getattr(sol, f.name)
    payload["phase"] = str(sol.phase)
    if merged["format"] == "json":
        write_json(merged["out"], {k: _json_safe(v) for k, v in payload.items()})
    else:
        width = max(len(k) for k in payload)
        lines = []
        for key, val in payload.items():
            if val is None:
                shown = "n/a"
            elif isinstance(val, float):
                shown = format(val, ".8g")
            else:
                shown = str(val)
            lines.append(f"{key:<{width}}  {shown}")
        _emit(merged["out"], "\n".join(lines) + "\n")
    return 0


def cmd_phase_diagram(merged: dict) -> int:
    if not merged["sweep"]:
        raise ContractError("phase-diagram requires --sweep over kappa or A_tilde")
    name, values = _parse_axis(merged["sweep"])
    if name not in ("kappa", "A_tilde"):
        raise ContractError("phase-diagram sweeps kappa or A_tilde")
    if merged["sweep2"]:
        raise ContractError("phase-diagram takes a single sweep axis")
    z = merged["zeta"]
    rows = []
    for v in map(float, values):
        kappa = v if name == "kappa" else merged["kappa"]
        A = v if name == "A_tilde" else merged["A"]
        rows.append({name: v, "alpha_c1": alpha_c1(A, z), "alpha_c2": alpha_c2(A, kappa, z)})
    if merged["format"] == "json":
        write_json(merged["out"], [{k: _json_safe(v) for k, v in r.items()} for r in rows])
    else:
        # alpha_c2 = inf at kappa = 1 prints "inf"
        write_csv(merged["out"], [name, "alpha_c1", "alpha_c2"], rows)
    return 0


def _cmd_rows(merged: dict, engines: tuple[str, ...]) -> int:
    rows, tails, failures = run_sweep(merged, engines)
    if merged["format"] == "json":
        write_json(merged["out"], rows)
    else:
        write_csv(merged["out"], RESULT_COLUMNS, rows)
    if len(engines) > 1:
        for line in compare_summary(rows, tails):
            print(line, file=sys.stderr)
    return 2 if failures else 0


def cmd_compare(merged: dict) -> int:
    engines = tuple(merged["engines"].split(","))
    bad = set(engines) - set(ENGINES)
    if bad:
        raise ContractError(f"unknown engines: {sorted(bad)}")
    if len(set(engines)) < len(engines):
        raise ContractError(f"repeated engines: {merged['engines']}")
    if len(engines) < 2:
        raise ContractError("compare needs at least two engines")
    return _cmd_rows(merged, engines)


# Every subcommand once: name -> (help text, handler of the resolved options).
_COMMANDS = {
    "theory": ("stationary solution at one point", cmd_theory),
    "phase-diagram": ("transition lines along one axis", cmd_phase_diagram),
    "simulate": ("agent-level simulation rows", lambda merged: _cmd_rows(merged, ("simulate",))),
    "kernels": ("two-time kernel iteration rows", lambda merged: _cmd_rows(merged, ("kernels",))),
    "compare": ("multi-engine comparison rows", cmd_compare),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command][1](_resolve(args))
    except SystemExit as exc:  # argparse has printed its usage and error lines
        return 0 if exc.code in (None, 0) else 1
    except (ContractError, OSError, ValueError) as exc:
        print(f"sphmg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
