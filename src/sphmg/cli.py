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
import ctypes
import itertools
import json
import math
import os
import re
import sys
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from .core import ContractError, ExternalBid, GameParams
from .kernels import KernelParams, KernelTail, check_tail, extract_stationary, iterate_kernels
from .simulator import RunObservables, run_experiment
from .theory import StationaryTheory, alpha_c1, alpha_c2, classify_phase, stationary_solution

# Every sweep axis once: axis -> the option whose fixed value it replaces.
AXES = {"alpha": "alpha", "kappa": "kappa", "A_tilde": "A"}
# Every engine once: name -> (suffix of its cells, its name in summary lines).
ENGINES = {"theory": ("theory", "theory"), "simulate": ("sim", "sim"),
           "kernels": ("kernel", "kernels")}
# Every observable once: quantity -> its field in StationaryTheory, RunObservables
# and KernelTail, or None.  Its cell is <quantity>_<engine suffix>, with <cell>_err
# the seed standard error of a simulator mean; theory's susceptibilities keep
# their bare legacy names.
OBSERVABLES = {
    "c0": ("c0", "c0_hat", "c0"),
    "sigma": ("sigma", "sigma", None),
    "sigma_fl": ("sigma_fl", "sigma_fl", "sigma_fl"),
    "lambda": ("lam", "lambda_mean", "lam"),
    "Lambda": ("Lambda", "lambda_slope", "Lambda"),
    "bid_mean": ("bid_mean", "bid_mean", None),
    "bid_staggered": ("bid_staggered", "bid_staggered", None),
    "frozen": (None, "frozen_flag", None),
    "chi": ("chi", None, None),
    "chi_hat_plus": ("chi_hat", None, None),
    "chi_hat_minus": ("chi_hat_minus", None, None),
}
_BARE = ("chi", "chi_hat_plus", "chi_hat_minus")

# Every settable value once: (name, type, default, choices, help).  The flag
# is "--" + name with "_" written "-", the config key is the name; a
# subcommand takes the names its _COMMANDS row lists.
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
    ("init_scale", float, 1.0, None, "initial |q| and lambda(0) of simulator and kernels"),
    ("T", int, 400, None, "kernel iteration horizon"),
    ("tail", float, 0.25, None, "kernel tail fraction for estimates"),
    ("out", str, None, None, "output path ('-' for stdout)"),
    ("format", str, "csv", ("csv", "json"), "output format"),
    ("workers", int, 1, None, "threads for simulations and kernels, at most the CPU count"),
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
    "sigma_fl_sim", "sigma_fl_sim_err", "sigma_fl_kernel", "lambda_sim_err", "lambda_kernel",
    "Lambda_sim_err", "Lambda_kernel", "bid_mean_sim_err", "bid_staggered_sim_err",
    "frozen_sim", "frozen_sim_err",
]


def _cell(quantity: str, engine: str) -> str:
    return quantity if quantity in _BARE else f"{quantity}_{ENGINES[engine][0]}"


def _fmt_cell(x) -> str:
    return "" if x is None else format(x, ".12g") if isinstance(x, float) else str(x)


def _emit(path, text) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_safe(row: dict) -> dict:
    """row with each float that is not finite written as the string "inf" or "-inf"."""
    return {k: ("inf" if v > 0 else "-inf") if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in row.items()}


def _write_rows(merged: dict, columns: list[str], rows: list[dict]) -> None:
    """The rows to merged["out"] in merged["format"]: json, or csv over columns
    below a commented timestamp line."""
    if merged["format"] == "json":
        text = json.dumps(list(map(_json_safe, rows)), indent=1, allow_nan=False)
    else:
        lines = ["# generated " + datetime.now(timezone.utc).isoformat(), ",".join(columns)]
        text = "\n".join(lines + [",".join(_fmt_cell(r[c]) for c in columns) for r in rows])
    _emit(merged["out"], text + "\n")


# ----------------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------------


def _cells(engine: str, results: list) -> dict:
    """The engine's cells from the fields OBSERVABLES names, by one rule for
    every engine: a cell is the mean of the results and <cell>_err its
    standard error over more than one; a value that is not finite, and the
    error of one result, is unknown (None), not 0.  Only RESULT_COLUMNS are
    cells, so theory and the kernels write no _err cell."""
    i = tuple(ENGINES).index(engine)
    names = {_cell(q, engine): named[i] for q, named in OBSERVABLES.items() if named[i]}
    arr = np.array([[getattr(r, f) for f in names.values()] for r in results], dtype=np.float64)
    n = len(results)
    se = arr.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.full(len(names), np.nan)
    cells = {**dict(zip(names, arr.mean(axis=0))), **dict(zip([c + "_err" for c in names], se))}
    return {c: float(v) if math.isfinite(v) else None for c, v in cells.items()
            if c in RESULT_COLUMNS}


def _pool_map(fn, items: list, workers: int) -> list:
    """fn over items on a thread pool in this process, with BLAS at one thread.

    The pool holds at most one thread per CPU this process may use, whatever
    workers asks for, and a multithreaded BLAS under each would oversubscribe
    the cores.  So numpy's OpenBLAS runs one thread, process-wide, while the
    pool runs, and the caller's thread count comes back only after every
    started task has returned.  A task that raises, or an interrupt in the
    caller, cancels the tasks still queued when the caller sees it; the
    running ones finish first.  Where numpy's BLAS has no thread-count call
    (numpy built on another BLAS) the tasks run inline, as at one worker.
    The pool module is imported here, so a run that never fans out does not
    load it.
    """
    from concurrent.futures import ThreadPoolExecutor

    blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    if not hasattr(blas, "scipy_openblas_set_num_threads64_"):
        return list(map(fn, items))
    get, pin = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype, pin.argtypes, pin.restype = [], ctypes.c_int, [ctypes.c_int], None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = get()
    pin(1)
    try:
        with ThreadPoolExecutor(max_workers=min(workers, cpus or 1)) as pool:
            return list(pool.map(fn, items))
    finally:
        pin(threads)


def run_sweep(opts: dict, engines: tuple[str, ...]) -> tuple[list[dict], int]:
    """Run the engines on every grid point: (rows, n_failed).

    Every row and every task, an engine function with its checked inputs, is
    built before any task starts, so a bad point, seed, setting or worker
    count fails the sweep before it runs.  A point's tasks form one group per
    engine, in ENGINES order: theory's one solve, one simulation per seed and
    one kernel iteration.  All of them run through _run_task, theory inline
    and the rest as one list that fans out over _pool_map's thread pool when
    workers > 1, and all finish before any row is assembled.  One pass over
    the groups in grid order then reports each failed task, counts a group
    with a failure once and fills the cells, so the rows and failure lines do
    not depend on completion order.  A failing engine at a point, such as a
    sample over the table budget or a kernel horizon too short for its tail,
    leaves its cells empty and the sweep continues.
    """
    if opts["workers"] < 1:
        raise ContractError(f"workers must be >= 1, got {opts['workers']}")
    points = _grid(opts)
    seeds = _seeds(opts) if "simulate" in engines else []
    if "kernels" in engines:
        check_tail(opts["tail"])
    rows, groups = [], []  # groups: (point, its row, engine, the engine's tasks there)
    for pt in points:
        row = {**dict.fromkeys(RESULT_COLUMNS), **pt, "phase": str(classify_phase(**pt))}
        drive = ExternalBid(zeta=pt["zeta"], amplitude=pt["A_tilde"])
        per_engine = {
            "theory": [(stationary_solution, pt["alpha"], pt["kappa"], pt["A_tilde"], pt["zeta"])],
            "simulate": [(run_experiment, GameParams(
                n_agents=opts["agents"], alpha=pt["alpha"], kappa=pt["kappa"], external=drive,
                init_scale=opts["init_scale"], t_equilibrate=opts["t_eq"],
                t_measure=opts["t_meas"], seed=seed)) for seed in seeds],
            "kernels": [(_kernel_tail, KernelParams(
                alpha=pt["alpha"], kappa=pt["kappa"], external=drive,
                init_scale=opts["init_scale"], T=opts["T"]), opts["tail"])
            ] if "kernels" in engines else [],
        }
        rows.append(row)
        groups += [(pt, row, engine, per_engine[engine]) for engine in ENGINES if engine in engines]
    pooled = [t for _, _, engine, tasks in groups if engine != "theory" for t in tasks]
    pool = opts["workers"] > 1 and len(pooled) > 1
    done = iter(_pool_map(_run_task, pooled, opts["workers"]) if pool else map(_run_task, pooled))
    outcomes = [[_run_task(t) if engine == "theory" else next(done) for t in tasks]
                for _, _, engine, tasks in groups]

    failures = 0
    for (pt, row, engine, tasks), outs in zip(groups, outcomes):
        results = [out for out in outs if not isinstance(out, str)]
        for task, out in zip(tasks, outs):
            if isinstance(out, str):
                seed = f" seed {task[1].seed}" if engine == "simulate" else ""
                print(f"[{engine}] point {pt}{seed} failed: {out}", file=sys.stderr)
        failed = len(tasks) - len(results)
        failures += failed > 0
        if engine == "simulate":
            if failed:
                print(f"[simulate] {failed} seed(s) failed at {pt}", file=sys.stderr)
            row.update(realized_alpha=tasks[0][1].realized_alpha, n_agents=opts["agents"],
                       t_equilibrate=opts["t_eq"], t_measure=opts["t_meas"],
                       seed_count=len(results))
        if results:
            row.update(_cells(engine, results))
    return rows, failures


def _run_task(task: tuple) -> StationaryTheory | RunObservables | KernelTail | str:
    """The result of one (engine function, *its inputs) task, or the failure
    message: theory's solve, a simulation or a kernel iteration."""
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


# Every summary line once: (quantity, engine, reference engine, phases of the
# points compared), labelled "<quantity>: <engine> vs <reference>" and, when
# one phase is compared, " (<phase> phase)".
_COMPARISONS = (
    ("c0", "simulate", "theory", ("F", "O")),
    ("c0", "kernels", "theory", ("F", "O")),
    ("c0", "kernels", "simulate", ("A", "F", "O")),
    ("sigma", "simulate", "theory", ("F", "O")),
    ("lambda", "simulate", "theory", ("O",)),
    ("Lambda", "simulate", "theory", ("F",)),
    ("sigma_fl", "kernels", "theory", ("F", "O")),
    ("lambda", "kernels", "theory", ("O",)),
    ("Lambda", "kernels", "theory", ("F",)),
)


def compare_summary(rows: list[dict]) -> list[str]:
    """Max deviation of each _COMPARISONS engine's cell from its reference
    engine's over the points of its phases.

    The deviation is relative to the reference, except where the reference
    is zero (e.g. Lambda at alpha_c2): those points get their own line with
    the absolute deviation.
    """
    lines = []
    for quantity, engine, reference, phases in _COMPARISONS:
        label = f"{quantity}: {ENGINES[engine][1]} vs {ENGINES[reference][1]}"
        label += f" ({phases[0]} phase)" if len(phases) == 1 else ""
        value, ref = _cell(quantity, engine), _cell(quantity, reference)
        pairs = [(r[value], r[ref]) for r in rows if r["phase"] in phases]
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


def _parse_axis(text: str) -> tuple[str, list[float]]:
    """(name, values) of an axis spec name:min:max:count[:lin|log]."""
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ContractError(f"axis spec must be name:min:max:count[:log], got {text!r}")
    name = parts[0]
    if name not in AXES:
        raise ContractError(f"sweep axis must be one of {tuple(AXES)}, got {name!r}")
    if parts[4:] not in ([], ["lin"], ["log"]):
        raise ContractError(f"axis spacing must be 'lin' or 'log', got {parts[4]!r}")
    lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    if count < 1:
        raise ContractError("axis count must be >= 1")
    if not np.isfinite([lo, hi]).all():
        raise ContractError(f"axis {name}: min {lo} and max {hi} must be finite")
    if lo > hi:
        raise ContractError(f"axis {name}: min {lo} > max {hi}")
    if count == 1:
        return name, [lo]
    if parts[4:] == ["log"]:
        if lo <= 0:
            raise ContractError("log axis needs a positive minimum")
        return name, np.geomspace(lo, hi, count).tolist()
    return name, np.linspace(lo, hi, count).tolist()


def _grid(opts: dict) -> list[dict]:
    """The grid points over the axes the command reads and zeta, the parsed
    sweeps in place of their fixed values."""
    axes = [opts[key] for key in ("sweep", "sweep2") if key in opts and opts[key]]
    base = {axis: opts[option] for axis, option in AXES.items() if option in opts}
    points = [{**base, "zeta": opts["zeta"], **dict(zip([name for name, _ in axes], values))}
              for values in itertools.product(*(values for _, values in axes))]
    if None in points[0].values():  # alpha is the one axis without a default
        raise ContractError("--alpha is required unless alpha is a sweep axis")
    return points


def _seeds(opts: dict) -> list[int]:
    if opts["seeds"]:
        seeds = [_parsed("seeds", int, s) for s in opts["seeds"].split(",") if s.strip()]
    else:
        seeds = [opts["seed"] + i for i in range(opts["n_seeds"])]
    if not seeds:
        raise ContractError("need at least one seed")
    if len(set(seeds)) < len(seeds):
        raise ContractError(f"repeated seeds: {opts['seeds']}")
    return seeds


def _parsed(key: str, parse, text: str):
    """parse(text), a failure named by its key."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ContractError(f"{key}: {exc}") from None


def load_config(path: str) -> dict:
    """Flat key-value file: 'name = value', 'name: value' or 'name value',
    split at the first separator after the name; # comments."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            match = re.fullmatch(r"([^\s=:]*)\s*(?:[=:]\s*|\s)(.*)", line)
            if match is None:
                raise ContractError(f"cannot parse config line: {raw.rstrip()}")
            out[match[1].replace("-", "_")] = match[2]
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sphmg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (helptext, _, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=helptext)
        for name, kind, _, choices, text in _OPTIONS:
            if name in names:
                p.add_argument("--" + name.replace("_", "-"), type=kind, choices=choices, help=text)
        p.add_argument("--config", type=str, help="key-value config file")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags over the command's options, typed and checked
    by _OPTIONS, the sweeps parsed into (axis, values); --seeds excludes --seed and --n-seeds, a
    swept axis its fixed value and the other sweep's axis; --out is a file in a writable
    directory."""
    names = _COMMANDS[args.command][2]
    merged = {name: default for name, _, default, _, _ in _OPTIONS if name in names}
    given = load_config(args.config) if args.config else {}
    unknown = set(given) - set(merged)
    if unknown:
        raise ContractError(f"unknown config keys: {sorted(unknown)}")
    given.update((k, v) for k, v in vars(args).items() if k in merged and v is not None)
    if "seeds" in given and given.keys() & {"seed", "n_seeds"}:
        raise ContractError("--seeds excludes --seed and --n-seeds")
    merged.update(given)
    for name, kind, _, choices, _ in _OPTIONS:
        if merged.get(name) is not None:
            merged[name] = _parsed(name, kind, merged[name])
            if choices and merged[name] not in choices:
                raise ContractError(f"{name} must be one of {choices}, got {merged[name]!r}")
    swept = []
    for key in ("sweep", "sweep2"):
        if merged.get(key) is not None:  # an empty spec is an error, not no sweep
            merged[key] = _parsed(key, _parse_axis, merged[key])
            axis = merged[key][0]
            if AXES[axis] in given:
                raise ContractError(f"{axis} is swept by --{key} and fixed by --{AXES[axis]}")
            if axis in swept:
                raise ContractError(f"--sweep and --sweep2 both sweep {axis}")
            swept.append(axis)
    if merged["out"] not in (None, "-"):
        if os.path.isdir(merged["out"]):
            raise ContractError(f"out: {merged['out']} is a directory")
        folder = os.path.dirname(merged["out"]) or "."
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ContractError(f"out: {folder} is not a writable directory")
    return merged


def cmd_theory(merged: dict) -> int:
    if merged["alpha"] is None:
        raise ContractError("theory requires --alpha")
    pt = _grid(merged)[0]
    sol = stationary_solution(**pt)
    payload = {**pt, "alpha_c1": alpha_c1(pt["A_tilde"], pt["zeta"]),
               "alpha_c2": alpha_c2(pt["A_tilde"], pt["kappa"], pt["zeta"])}
    for f in fields(sol):
        payload["lambda" if f.name == "lam" else f.name] = getattr(sol, f.name)
    payload["phase"] = str(sol.phase)
    if merged["format"] == "json":
        _emit(merged["out"], json.dumps(_json_safe(payload), indent=1, allow_nan=False) + "\n")
    else:
        shown = {k: "n/a" if v is None else format(v, ".8g") if isinstance(v, float) else str(v)
                 for k, v in payload.items()}
        width = max(map(len, shown))
        _emit(merged["out"], "".join(f"{k:<{width}}  {v}\n" for k, v in shown.items()))
    return 0


def cmd_phase_diagram(merged: dict) -> int:
    if not merged["sweep"]:
        raise ContractError("phase-diagram requires --sweep over kappa or A_tilde")
    name = merged["sweep"][0]
    if name not in ("kappa", "A_tilde"):
        raise ContractError("phase-diagram sweeps kappa or A_tilde")
    rows = [{name: pt[name], "alpha_c1": alpha_c1(pt["A_tilde"], pt["zeta"]),
             "alpha_c2": alpha_c2(pt["A_tilde"], pt["kappa"], pt["zeta"])} for pt in _grid(merged)]
    # alpha_c2 = inf at kappa = 1 prints "inf"
    _write_rows(merged, [name, "alpha_c1", "alpha_c2"], rows)
    return 0


def _cmd_rows(merged: dict, engines: tuple[str, ...]) -> int:
    rows, failures = run_sweep(merged, engines)
    _write_rows(merged, RESULT_COLUMNS, rows)
    if len(engines) > 1:
        for line in compare_summary(rows):
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


# Every subcommand once: name -> (help text, handler of the resolved options,
# the options it reads, which are its flags and config keys).  Every row
# command reads _ROW_OPTS; init_scale starts both dynamic engines.
_ROW_OPTS = ("alpha", "kappa", "A", "zeta", "init_scale", "workers", "sweep", "sweep2", "out",
             "format")
_COMMANDS = {
    "theory": ("stationary solution at one point", cmd_theory,
               ("alpha", "kappa", "A", "zeta", "out", "format")),
    "phase-diagram": ("transition lines along one axis", cmd_phase_diagram,
                      ("sweep", "kappa", "A", "zeta", "out", "format")),
    "simulate": ("agent-level simulation rows", lambda merged: _cmd_rows(merged, ("simulate",)),
                 _ROW_OPTS + ("agents", "seed", "seeds", "n_seeds", "t_eq", "t_meas")),
    "kernels": ("two-time kernel iteration rows", lambda merged: _cmd_rows(merged, ("kernels",)),
                _ROW_OPTS + ("T", "tail")),
    "compare": ("multi-engine comparison rows", cmd_compare,
                tuple(name for name, *_ in _OPTIONS)),
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
