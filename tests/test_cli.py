import concurrent.futures
import ctypes
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import sphmg
from sphmg import cli
from sphmg.cli import (
    _COMMANDS, _OPTIONS, RESULT_COLUMNS, _pool_map, _resolve, build_parser, main,
)
from sphmg.kernels import KernelTail
from sphmg.simulator import RunObservables
from sphmg.theory import Phase, StationaryTheory


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def parse_block(text):
    out = {}
    for line in text.strip().splitlines():
        key, val = line.split(None, 1)
        out[key] = val.strip()
    return out


# ---------------------------------------------------------------------------
# theory command
# ---------------------------------------------------------------------------


def test_theory_frozen_point(capsys):
    code, out, _ = run_cli(capsys, "theory", "--alpha", "1", "--kappa", "0", "--A", "0", "--zeta", "0")
    assert code == 0
    block = parse_block(out)
    assert block["phase"] == "F"
    assert float(block["chi"]) == pytest.approx(2.41421, abs=1e-4)
    assert float(block["sigma"]) == pytest.approx(0.29289, abs=1e-4)


def test_theory_anomalous_point(capsys):
    code, out, _ = run_cli(capsys, "theory", "--alpha", "0.3", "--kappa", "0", "--A", "0", "--zeta", "0")
    assert code == 0
    block = parse_block(out)
    assert block["phase"] == "A" and block["chi"] == "inf" and block["sigma"] == "n/a"


def test_theory_oscillating_point_json(capsys):
    code, out, _ = run_cli(
        capsys, "theory", "--alpha", "4", "--kappa", "0", "--A", "0", "--zeta", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["phase"] == "O"
    assert payload["c0"] == pytest.approx(1 / 3, abs=1e-5)
    assert payload["chi_hat_minus"] == pytest.approx(1.0)


THEORY_KEYS = [
    "alpha", "kappa", "A_tilde", "zeta", "alpha_c1", "alpha_c2", "phase", "chi", "chi_hat",
    "chi_hat_minus", "c0", "lambda", "Lambda", "gamma", "psi0", "psi1", "sigma_fl", "sigma",
    "bid_mean", "bid_staggered",
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_theory_key_order(fmt, capsys):
    code, out, _ = run_cli(capsys, "theory", "--alpha", "1", "--format", fmt)
    assert code == 0
    keys = list(json.loads(out)) if fmt == "json" else [l.split()[0] for l in out.splitlines()]
    assert keys == THEORY_KEYS


def test_point_within_rounding_above_alpha_c2_is_frozen(capsys):
    # the oscillating c0 rounds to 1 here, so the point is on the line
    alpha = "2.2480228020241295"
    assert float(alpha) > sphmg.alpha_c2(0.0, 0.03, 0)
    code, out, _ = run_cli(capsys, "theory", "--alpha", alpha, "--kappa", "0.03")
    assert code == 0 and parse_block(out)["phase"] == "F"
    code, out, err = run_cli(capsys, "compare", "--engines", "theory,kernels", "--alpha", alpha,
                             "--kappa", "0.03", "--T", "40")
    assert code == 0 and "failed" not in err
    row = parse_csv(out)[1][0]
    assert row["phase"] == "F" and row["c0_theory"] == "1"
    assert row["sigma_theory"] != "" and row["chi"] != "" and row["c0_kernel"] != ""


# ---------------------------------------------------------------------------
# phase-diagram command
# ---------------------------------------------------------------------------


def test_phase_diagram_kappa_axis(capsys):
    code, out, _ = run_cli(capsys, "phase-diagram", "--sweep", "kappa:0:1:5", "--A", "0", "--zeta", "0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["kappa", "alpha_c1", "alpha_c2"]
    assert float(rows[0]["alpha_c1"]) == 0.5 and float(rows[0]["alpha_c2"]) == 2.0
    assert rows[-1]["alpha_c2"] == "inf"  # kappa = 1 marker


def test_phase_diagram_amplitude_axis_static(capsys):
    code, out, _ = run_cli(capsys, "phase-diagram", "--sweep", "A_tilde:0:4:5", "--kappa", "0", "--zeta", "0")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        a = float(row["A_tilde"])
        assert float(row["alpha_c2"]) == pytest.approx(2.0 * (1.0 + a * a), rel=1e-12)
        assert float(row["alpha_c1"]) == pytest.approx(0.5 / (1.0 + a * a), rel=1e-12)


def test_phase_diagram_amplitude_axis_oscillating(capsys):
    code, out, _ = run_cli(capsys, "phase-diagram", "--sweep", "A_tilde:0:4:9", "--kappa", "0", "--zeta", "1")
    assert code == 0
    _, rows = parse_csv(out)
    assert {row["alpha_c1"] for row in rows} == {"0.5"}
    assert {row["alpha_c2"] for row in rows} == {"2"}


def test_phase_diagram_requires_single_axis(capsys):
    code, out, err = run_cli(capsys, "phase-diagram", "--A", "1")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "sphmg: error: phase-diagram requires --sweep over kappa or A_tilde"]


def unread_error(*args):
    """argparse's stderr for flags the subcommand does not take."""
    usage = build_parser().format_usage()
    return usage + "sphmg: error: unrecognized arguments: " + " ".join(args)


@pytest.mark.parametrize("argv, err_text", [
    (["theory"], "sphmg: error: theory requires --alpha"),
    (["phase-diagram", "--sweep", "alpha:1:4:3"],
     "sphmg: error: phase-diagram sweeps kappa or A_tilde"),
    (["phase-diagram", "--sweep", "kappa:0:1:3", "--sweep2", "A_tilde:0:1:2"],
     unread_error("--sweep2", "A_tilde:0:1:2")),
    (["theory", "--alpha", "1", "--sweep", "alpha:1:3:3"], unread_error("--sweep", "alpha:1:3:3")),
    (["theory", "--alpha", "1", "--sweep2", "kappa:0:1:2"],
     unread_error("--sweep2", "kappa:0:1:2")),
    (["phase-diagram", "--sweep", "kappa:0:1:2", "--kappa", "0.7"],
     "sphmg: error: kappa is swept by --sweep and fixed by --kappa"),
    (["kernels", "--alpha", "9", "--sweep", "alpha:1:2:2", "--T", "40"],
     "sphmg: error: alpha is swept by --sweep and fixed by --alpha"),
    (["kernels", "--sweep", "alpha", "--alpha", "1", "--T", "40"],
     "sphmg: error: sweep: axis spec must be name:min:max:count[:log], got 'alpha'"),
    (["kernels", "--alpha", "1", "--lambda0", "1"], unread_error("--lambda0", "1")),
], ids=["theory-without-alpha", "phase-diagram-alpha-axis", "phase-diagram-two-axes",
        "theory-with-sweep", "theory-with-sweep2", "phase-diagram-swept-and-fixed",
        "kernels-swept-and-fixed", "kernels-malformed-sweep", "kernels-lambda0"])
def test_command_errors_exit_one(argv, err_text, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == err_text + "\n"


def test_axis_spacing_and_single_point():
    name, values = cli._parse_axis("alpha:0.5:8:5:log")
    assert name == "alpha" and np.array_equal(values, np.geomspace(0.5, 8.0, 5))
    assert np.array_equal(cli._parse_axis("kappa:0:1:3:lin")[1], np.linspace(0.0, 1.0, 3))
    assert cli._parse_axis("kappa:0.25:0.75:1")[1] == [0.25]


@pytest.mark.parametrize("spec, error", [
    ("alpha:1:2", "axis spec must be name:min:max:count[:log], got 'alpha:1:2'"),
    ("beta:1:2:3", "sweep axis must be one of ('alpha', 'kappa', 'A_tilde'), got 'beta'"),
    ("alpha:1:2:3:cubic", "axis spacing must be 'lin' or 'log', got 'cubic'"),
    ("alpha:1:2:0", "axis count must be >= 1"),
    ("alpha:2:1:3", "axis alpha: min 2.0 > max 1.0"),
    ("alpha:0:1:3:log", "log axis needs a positive minimum"),
], ids=["parts", "name", "spacing", "count", "order", "log-minimum"])
def test_axis_spec_errors(spec, error):
    with pytest.raises(sphmg.ContractError) as info:
        cli._parse_axis(spec)
    assert str(info.value) == error


# ---------------------------------------------------------------------------
# row commands
# ---------------------------------------------------------------------------


def test_compare_theory_only_rejected(capsys):
    code, _, err = run_cli(capsys, "compare", "--alpha", "1", "--engines", "theory")
    assert code == 1 and "two engines" in err


@pytest.mark.parametrize("engines", ["theory,theory", "theory,simulate,theory"])
def test_compare_repeated_engine_rejected(engines, capsys):
    code, out, err = run_cli(capsys, "compare", "--alpha", "1", "--engines", engines)
    assert code == 1 and out == "" and "repeated engines" in err


def test_compare_theory_kernels_amplitude_invariance(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--engines", "theory,kernels", "--sweep", "A_tilde:0:2:2",
        "--alpha", "2.5", "--kappa", "0", "--zeta", "1", "--T", "150",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["phase"] for r in rows] == ["O", "O"]
    assert rows[0]["c0_theory"] == rows[1]["c0_theory"]
    assert float(rows[0]["c0_kernel"]) == pytest.approx(float(rows[0]["c0_theory"]), rel=0.02)
    # simulation columns stay empty when the engine is not selected, and
    # realized_alpha is the simulator's p/N: the kernels take no N
    assert rows[0]["c0_sim"] == rows[0]["n_agents"] == rows[0]["realized_alpha"] == ""


def test_kernels_start_where_the_simulator_starts(capsys):
    # below alpha_c1 the kernels remember their start, and --init-scale sets it
    code, out, _ = run_cli(
        capsys, "compare", "--engines", "simulate,kernels", "--alpha", "0.3", "--agents", "400",
        "--t-eq", "200", "--t-meas", "400", "--n-seeds", "2", "--T", "200", "--init-scale", "1e-4",
    )
    assert code == 0
    row = parse_csv(out)[1][0]
    state = sphmg.iterate_kernels(sphmg.KernelParams(alpha=0.3, T=200, init_scale=1e-4))
    c0 = sphmg.extract_stationary(state, 0.25).c0
    assert row["c0_kernel"] == format(c0, ".12g") == "0.428545184896"


def test_compare_summary_kernels_vs_sim_at_every_point(capsys):
    # the two dynamic engines start alike, so their c0 is compared at every
    # point both fill, phase A included, where theory gives only c0 = 1
    code, out, err = run_cli(
        capsys, "compare", "--engines", "simulate,kernels", "--sweep", "alpha:0.3:4:2",
        "--agents", "200", "--t-eq", "100", "--t-meas", "200", "--n-seeds", "2", "--T", "100",
        "--init-scale", "1e-4",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["phase"] for r in rows] == ["A", "O"]
    dev = max(abs(float(r["c0_kernel"]) / float(r["c0_sim"]) - 1.0) for r in rows)
    line = re.fullmatch(r"c0: kernels vs sim: max rel deviation (\S+)", err.strip())
    assert line and float(line.group(1)) == pytest.approx(dev, rel=1e-3)


def test_simulator_and_kernel_tasks_share_their_inputs(monkeypatch, capsys):
    # each point's seeds and kernel task agree on alpha, kappa, the drive and
    # the start, so no second setting of a shared input can come back
    games, kernels = [], []

    def recorder(cls, made):
        def make(**kwargs):
            made.append(cls(**kwargs))
            return made[-1]
        return make

    monkeypatch.setattr(cli, "GameParams", recorder(cli.GameParams, games))
    monkeypatch.setattr(cli, "KernelParams", recorder(cli.KernelParams, kernels))
    code, out, _ = run_cli(
        capsys, "compare", "--sweep", "alpha:1.3:3:2", "--kappa", "0.25", "--A", "0.5",
        "--zeta", "1", "--init-scale", "0.5", "--agents", "64", "--t-eq", "30", "--t-meas", "32",
        "--seeds", "1,2", "--T", "40",
    )
    assert code == 0 and len(games) == 4 and len(kernels) == 2

    def shared(params):
        return params.alpha, params.kappa, params.external, params.init_scale

    assert [shared(g) for g in games] == [shared(k) for k in kernels for _ in (1, 2)]
    assert shared(kernels[0]) == (1.3, 0.25, sphmg.ExternalBid(zeta=1, amplitude=0.5), 0.5)
    # a row's realized_alpha is that of its point's first simulation task
    rows = parse_csv(out)[1]
    assert [float(r["realized_alpha"]) for r in rows] == [g.realized_alpha for g in games[::2]]
    assert rows[0]["realized_alpha"] == "1.296875"  # p = 83 patterns over N = 64


def test_both_cells_of_every_comparison_are_result_columns():
    for quantity, engine, reference, phases in cli._COMPARISONS:
        assert engine != reference, quantity
        assert cli._cell(quantity, engine) in RESULT_COLUMNS, (quantity, engine)
        assert cli._cell(quantity, reference) in RESULT_COLUMNS, (quantity, reference)
        assert phases and set(phases) <= {str(phase) for phase in Phase}, quantity


def test_every_engine_cell_is_named_by_the_rule():
    # the observable table names every engine cell, and each names a field of
    # its engine's result: <quantity>_<suffix>, <cell>_err for the simulator
    results = {"theory": StationaryTheory, "simulate": RunObservables, "kernels": KernelTail}
    named = set()
    for quantity, per_engine in cli.OBSERVABLES.items():
        assert len(per_engine) == len(cli.ENGINES)
        for (engine, (suffix, _)), field in zip(cli.ENGINES.items(), per_engine):
            if field is None:
                continue
            assert field in {f.name for f in dataclasses.fields(results[engine])}, field
            cell = cli._cell(quantity, engine)
            assert cell == quantity if quantity in cli._BARE else cell == f"{quantity}_{suffix}"
            named |= {cell, cell + "_err"} if engine == "simulate" else {cell}
    assert named <= set(RESULT_COLUMNS)
    rest = ["alpha", "kappa", "A_tilde", "zeta", "realized_alpha", "phase",
            "n_agents", "t_equilibrate", "t_measure", "seed_count"]
    assert sorted(named) == sorted(set(RESULT_COLUMNS) - set(rest))


def test_kernel_cells_are_the_kernel_tail_fields(monkeypatch, capsys):
    tails, kernel_tail = [], cli._kernel_tail

    def record(*args):
        tails.append(kernel_tail(*args))
        return tails[-1]

    monkeypatch.setattr(cli, "_kernel_tail", record)
    code, out, _ = run_cli(capsys, "kernels", "--sweep", "alpha:1.5:4:2", "--A", "1",
                           "--zeta", "1", "--T", "100")
    assert code == 0 and len(tails) == 2
    cells = ("c0_kernel", "sigma_fl_kernel", "lambda_kernel", "Lambda_kernel")
    for row, tail in zip(parse_csv(out)[1], tails):
        want = (tail.c0, tail.sigma_fl, tail.lam, tail.Lambda)
        assert [row[c] for c in cells] == [format(v, ".12g") for v in want]


def test_frozen_sim_is_the_fraction_of_seeds_frozen(capsys):
    # at alpha = 3, A = 1 a static drive freezes every seed and an alternating
    # one none (test_static_drive_freezes_where_an_alternating_one_does_not)
    argv = ["simulate", "--alpha", "3", "--A", "1", "--agents", "500", "--t-eq", "300",
            "--t-meas", "600", "--n-seeds", "4"]
    frozen = {}
    for zeta in ("0", "1"):
        code, out, _ = run_cli(capsys, *argv, "--zeta", zeta)
        assert code == 0
        row = parse_csv(out)[1][0]
        frozen[zeta] = row["frozen_sim"], row["frozen_sim_err"]
    assert frozen == {"0": ("1", "0"), "1": ("0", "0")}


def test_compare_summary_absolute_deviation_at_zero_reference(capsys):
    # alpha = 2 = alpha_c2 is in phase F with Lambda_theory exactly 0
    code, out, err = run_cli(
        capsys, "compare", "--engines", "theory,simulate", "--sweep", "alpha:1.5:2:2",
        "--agents", "300", "--t-eq", "200", "--t-meas", "400", "--n-seeds", "2",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["phase"] for r in rows] == ["F", "F"] and rows[1]["Lambda_theory"] == "0"
    label = "Lambda: sim vs theory (F phase): "
    lines = [l[len(label):] for l in err.splitlines() if l.startswith(label)]
    assert len(lines) == 2
    rel = re.fullmatch(r"max rel deviation (\S+)", lines[0])
    dev = re.fullmatch(r"max abs deviation (\S+) \(reference 0\)", lines[1])
    assert rel and dev
    expected_rel = abs(float(rows[0]["Lambda_sim"]) / float(rows[0]["Lambda_theory"]) - 1.0)
    assert float(rel.group(1)) == pytest.approx(expected_rel, rel=1e-3)
    assert float(dev.group(1)) == pytest.approx(abs(float(rows[1]["Lambda_sim"])), rel=1e-3)


def test_compare_summary_kernel_Lambda_at_zero_reference(capsys, monkeypatch):
    # criterion 4 checks the kernels' Lambda in phase F: alpha = 1.5 gets a
    # relative deviation, alpha = 2 = alpha_c2, where Lambda_theory is 0, an
    # absolute one
    tails, kernel_tail = [], cli._kernel_tail

    def record(*args):
        tails.append(kernel_tail(*args))
        return tails[-1]

    monkeypatch.setattr(cli, "_kernel_tail", record)
    code, out, err = run_cli(
        capsys, "compare", "--engines", "theory,kernels", "--sweep", "alpha:1.5:2:2",
        "--T", "150",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["phase"] for r in rows] == ["F", "F"] and rows[1]["Lambda_theory"] == "0"
    label = "Lambda: kernels vs theory (F phase): "
    lines = [l[len(label):] for l in err.splitlines() if l.startswith(label)]
    assert len(lines) == 2 and len(tails) == 2
    rel = re.fullmatch(r"max rel deviation (\S+)", lines[0])
    dev = re.fullmatch(r"max abs deviation (\S+) \(reference 0\)", lines[1])
    assert rel and dev
    expected_rel = abs(tails[0].Lambda / float(rows[0]["Lambda_theory"]) - 1.0)
    assert float(rel.group(1)) == pytest.approx(expected_rel, rel=1e-3)
    assert float(dev.group(1)) == pytest.approx(abs(tails[1].Lambda), rel=1e-3)


def test_simulate_row_small(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--alpha", "4", "--agents", "200", "--t-eq", "100",
        "--t-meas", "200", "--n-seeds", "2", "--seed", "7",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == RESULT_COLUMNS
    row = rows[0]
    assert row["phase"] == "O" and row["seed_count"] == "2"
    assert float(row["c0_sim"]) == pytest.approx(1 / 3, abs=0.08)
    assert row["c0_theory"] == ""  # theory engine not selected
    assert float(row["realized_alpha"]) == 4.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_seed_standard_errors_are_unknown(fmt, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--sweep", "A_tilde:0:1:2", "--alpha", "1.5", "--agents", "64",
        "--t-eq", "30", "--t-meas", "32", "--seeds", "1", "--kappa", "0.5", "--format", fmt,
    )
    assert code == 0
    rows = json.loads(out) if fmt == "json" else parse_csv(out)[1]
    assert len(rows) == 2
    errs = [c for c in RESULT_COLUMNS if c.endswith("_sim_err")]
    assert len(errs) == 8
    for row in rows:
        assert row["c0_sim"] not in ("", None) and row["sigma_sim"] not in ("", None)
        assert {row[c] for c in errs} == {"" if fmt == "csv" else None}


@pytest.mark.parametrize("engines, seeds", [
    ("theory,simulate", "5,6"), ("theory,simulate", "5"), ("theory,simulate,kernels", "5,6"),
    ("theory,kernels", "5,6"),
], ids=["theory-simulate-2-seeds", "theory-simulate-1-seed", "all-engines", "theory-kernels"])
def test_outputs_are_deterministic_and_json_round_trips(engines, seeds, tmp_path, capsys):
    # every engine's cells come from one rule: theory and the kernels write no
    # _err cell, and a simulator mean over one seed has an unknown error
    args = [
        "compare", "--engines", engines, "--alpha", "1.2", "--agents", "64",
        "--t-eq", "30", "--t-meas", "32", "--seeds", seeds, "--T", "60",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
    assert strip(out1) == strip(out2)

    jpath = tmp_path / "rows.json"
    code3, _, _ = run_cli(capsys, *args, "--format", "json", "--out", str(jpath))
    assert code3 == 0
    rows = json.loads(jpath.read_text())
    assert rows and all(list(r) == RESULT_COLUMNS for r in rows)
    # lossless round trip
    assert json.loads(json.dumps(rows)) == rows
    # csv and json agree cell by cell
    _, crows = parse_csv(out1)
    assert len(crows) == len(rows)
    for row, crow in zip(rows, crows):
        for col in RESULT_COLUMNS:
            jval, cval = row[col], crow[col]
            if jval is None:
                assert cval == "", col
            elif isinstance(jval, float):
                assert float(cval) == pytest.approx(jval, rel=1e-11), col
            else:
                assert cval == str(jval), col
    errs = [c for c in RESULT_COLUMNS if c.endswith("_err")]
    known = "simulate" in engines and "," in seeds
    assert all((row[c] is not None) == known for row in rows for c in errs)
    for engine, (suffix, _) in cli.ENGINES.items():
        assert (rows[0]["c0_" + suffix] is not None) == (engine in engines), engine


def test_workers_do_not_change_results(capsys):
    base = [
        "simulate", "--sweep", "alpha:1:4:2", "--agents", "64", "--t-eq", "30",
        "--t-meas", "32", "--seeds", "1,2",
    ]
    _, out1, _ = run_cli(capsys, *base, "--workers", "1")
    _, out2, _ = run_cli(capsys, *base, "--workers", "2")
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
    assert strip(out1) == strip(out2)
    # all three engines: simulation seeds and kernel points share the task list
    base = [
        "compare", "--engines", "theory,simulate,kernels", "--sweep", "alpha:0.5:4:3",
        "--agents", "64", "--t-eq", "30", "--t-meas", "32", "--seeds", "1,2", "--T", "60",
    ]
    code1, out1, err1 = run_cli(capsys, *base, "--workers", "1")
    code2, out2, err2 = run_cli(capsys, *base, "--workers", "2")
    assert code1 == code2 == 0
    assert strip(out1) == strip(out2) and len(strip(out1)) == 4
    assert err1 == err2 and "kernels vs theory" in err1


@pytest.fixture
def openblas():
    """The reader of numpy's OpenBLAS thread count, which is 2 for the test
    and restored after it, so a pooled task's 1 differs from the caller's
    count on any host."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    if not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count call")
    get, pin = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype, pin.argtypes, pin.restype = [], ctypes.c_int, [ctypes.c_int], None
    saved = get()
    pin(2)
    yield get
    pin(saved)


def test_pool_workers_run_single_threaded_blas(openblas):
    assert _pool_map(lambda _: openblas(), [0, 1, 2], 2) == [1, 1, 1]
    assert openblas() == 2

    def fail(item):
        if item:
            raise ValueError("task failed")
        return openblas()

    with pytest.raises(ValueError, match="task failed"):
        _pool_map(fail, [0, 1], 2)
    assert openblas() == 2


def test_an_interrupt_cancels_the_queue_and_restores_blas_after_running_tasks(
        openblas, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started, second, counts = [], threading.Event(), []

    def task(item):
        started.append(item)
        if item == 0:  # interrupts once the other thread runs a task
            second.wait(10)
            raise KeyboardInterrupt
        second.set()
        time.sleep(0.2)
        counts.append(openblas())  # as the task returns
        return item

    with pytest.raises(KeyboardInterrupt):
        _pool_map(task, list(range(20)), 2)
    # the thread whose task raised may take one queued task before the caller
    # cancels the rest; no later one starts
    assert {0, 1} <= set(started) <= {0, 1, 2}
    assert counts == [1] * (len(started) - 1)
    assert openblas() == 2


def test_workers_run_inline_where_numpy_blas_has_no_thread_call(monkeypatch, capsys):
    argv = ["simulate", "--sweep", "alpha:1:4:2", "--agents", "64", "--t-eq", "30",
            "--t-meas", "32", "--seeds", "1,2"]
    _, serial, _ = run_cli(capsys, *argv, "--workers", "1")
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)  # no pool can start
    code, out, _ = run_cli(capsys, *argv, "--workers", "2")
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("#")]
    assert code == 0 and strip(out) == strip(serial) and len(strip(out)) == 3


class _InlinePool:
    """Stands in for ThreadPoolExecutor: records the pool size and maps inline."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_never_starts_more_workers_than_cpus(monkeypatch, capsys):
    # no thread starts: the executor is replaced by a recorder that maps inline
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda **kwargs: _InlinePool(sizes, **kwargs))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _pool_map(str, [1, 2], 64) == ["1", "2"]
    assert _pool_map(str, [1, 2], 2) == ["1", "2"]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pool_map(str, [1], 8) == ["1"]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_map(str, [1], 8) == ["1"]
    assert sizes == [3, 2, 4, 1]
    # on one CPU any --workers above 1 still fans out, over one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    argv = ["simulate", "--alpha", "2", "--agents", "64", "--t-eq", "30", "--t-meas", "32",
            "--seeds", "1,2"]
    _, out, _ = run_cli(capsys, *argv, "--workers", "64")
    assert sizes == [3, 2, 4, 1, 1] and len(parse_csv(out)[1]) == 1


def test_rows_identical_for_any_worker_count_at_one_blas_thread():
    # at N = 1500 the float32 coupling product (kappa = 0.25, alpha >= 0.7),
    # the per-pattern route's float32 passes (kappa = 0.25, alpha < 0.7) and
    # the Gram route's band reduction (kappa = 0, p = 375 and 450) give
    # other bits on 1 and 2 BLAS threads; pool workers run one thread, an
    # inline --workers 1 run inherits the process's thread count
    common = ["--A", "1", "--agents", "1500", "--t-eq", "30", "--t-meas", "32", "--seeds", "1,2"]
    src = str(Path(sphmg.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src

    def rows(argv, workers, **extra):
        out = subprocess.run(
            [sys.executable, "-m", "sphmg.cli", *argv, *common, "--workers", str(workers)],
            env={**env, **extra}, capture_output=True, text=True, timeout=120, check=True,
        )
        lines = [l for l in out.stdout.splitlines() if not l.startswith("#")]
        assert len(lines) == 3
        return lines

    for argv in (["simulate", "--sweep", "alpha:2:2.5:2", "--kappa", "0.25", "--zeta", "1"],
                 ["simulate", "--sweep", "alpha:0.25:0.3:2", "--kappa", "0.25", "--zeta", "1"],
                 ["simulate", "--sweep", "alpha:0.25:0.3:2", "--kappa", "0", "--zeta", "0"]):
        assert rows(argv, 1, OPENBLAS_NUM_THREADS="1") == rows(argv, 2, OPENBLAS_NUM_THREADS="1")
        assert rows(argv, 2) == rows(argv, 3)


def test_import_loads_no_scipy():
    # only the tests use scipy; keeping it out of the package keeps start-up cheap
    env = {**os.environ, "PYTHONPATH": str(Path(sphmg.__file__).resolve().parents[1])}
    code = (
        "import sphmg, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_pool_modules(tmp_path):
    # the pool is imported when a run fans out, so --workers 1 never pays for
    # it; a run that fans out starts threads, not processes, and leaves the
    # environment as it found it
    env = {**os.environ, "PYTHONPATH": str(Path(sphmg.__file__).resolve().parents[1])}
    argv = ["simulate", "--alpha", "2", "--agents", "64", "--t-eq", "30", "--t-meas", "32",
            "--seeds", "1,2", "--workers", "2", "--out", str(tmp_path / "rows.csv")]
    code = (
        "import os, sys, sphmg.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules)); "
        "before = dict(os.environ); "
        f"print(sphmg.cli.main({argv!r})); "
        "print('concurrent.futures.thread' in sys.modules, 'multiprocessing' in sys.modules, "
        "dict(os.environ) == before)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert out.stdout.splitlines() == ["[]", "0", "True False True"]


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    text = ("agents = 64\nt-eq = 30\nt-meas: 32\nn_seeds 1\nalpha = 1.0\n"
            "sweep alpha:0.5:1:2\nengines: a=b\n# comment\n")
    cfg.write_text(text)
    # each line splits at its first separator, whatever its value holds
    assert cli.load_config(str(cfg)) == {
        "agents": "64", "t_eq": "30", "t_meas": "32", "n_seeds": "1", "alpha": "1.0",
        "sweep": "alpha:0.5:1:2", "engines": "a=b"}
    argv = ["compare", "--config", str(cfg), "--engines", "theory,simulate"]
    # a swept axis takes no fixed value, from config keys as from flags
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == ["sphmg: error: alpha is swept by --sweep and fixed by --alpha"]
    # explicit flags beat the config values: --engines here, --sweep below
    cfg.write_text(text.replace("alpha = 1.0\n", ""))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["alpha"] for r in rows] == ["0.5", "1"] and rows[0]["n_agents"] == "64"
    code, out, _ = run_cli(capsys, *argv, "--sweep", "alpha:2:3:2")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["alpha"] for r in rows] == ["2", "3"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("agentz = 10\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--alpha", "1")
    assert code == 1 and "agentz" in err


def test_config_line_without_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha\n")
    code, out, err = run_cli(capsys, "theory", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.splitlines() == ["sphmg: error: cannot parse config line: alpha"]


@pytest.mark.parametrize("name, kind, default, choices", [o[:4] for o in _OPTIONS],
                         ids=[o[0] for o in _OPTIONS])
def test_every_option_resolves_alike_from_flag_and_config(name, kind, default, choices, tmp_path):
    # under every subcommand that takes the option; compare takes them all
    specs = {"sweep": "kappa:0:1:2", "sweep2": "A_tilde:0:1:2"}
    text = specs.get(name) or (str(choices[-1]) if choices else
                               {int: "3", float: "0.5", str: "x"}[kind])
    commands = [command for command, row in _COMMANDS.items() if name in row[2]]
    assert "compare" in commands
    parser = build_parser()
    for command in commands:
        want = _resolve(parser.parse_args([command, "--" + name.replace("_", "-"), text]))
        if name in specs:  # a sweep resolves to its parsed (axis, values)
            assert want[name] == cli._parse_axis(text)
        else:
            assert type(want[name]) is kind and want[name] != default
        for key in {name, name.replace("_", "-")}:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {text}\n")
            assert _resolve(parser.parse_args([command, "--config", str(cfg)])) == want


UNREAD = [(command, name) for command, row in _COMMANDS.items()
          for name, *_ in _OPTIONS if name not in row[2]]


@pytest.mark.parametrize("command, name", UNREAD, ids=[f"{c}-{n}" for c, n in UNREAD])
def test_option_a_command_does_not_read_exits_one(command, name, tmp_path, capsys):
    flag = "--" + name.replace("_", "-")
    code, out, err = run_cli(capsys, command, flag, "1")
    assert code == 1 and out == "" and err == unread_error(flag, "1") + "\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = 1\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"sphmg: error: unknown config keys: [{name!r}]"]


def test_each_command_takes_its_table_row():
    # the two tests above check each row's flags and keys against the parser
    assert all(set(row[2]) <= {o[0] for o in _OPTIONS} for row in _COMMANDS.values())
    assert {command: len(row[2]) for command, row in _COMMANDS.items()} == {
        "theory": 6, "phase-diagram": 6, "simulate": 16, "kernels": 12, "compare": 19}


# Small runs that together reach every read of every option a command takes:
# a kappa axis reads A and an A_tilde axis kappa; a derived seed list reads
# seeds, seed and n_seeds.
SMALL_SIM = ["--agents", "64", "--t-eq", "30", "--t-meas", "32", "--n-seeds", "1"]
SMALL_RUNS = {
    "theory": [["--alpha", "1"]],
    "phase-diagram": [["--sweep", "kappa:0:1:2"], ["--sweep", "A_tilde:0:1:2"]],
    "simulate": [["--alpha", "1", *SMALL_SIM]],
    "kernels": [["--alpha", "1", "--T", "40"]],
    "compare": [["--alpha", "1", *SMALL_SIM, "--T", "40"]],
}


def test_every_command_reads_every_option_it_takes(monkeypatch, capsys):
    # a command that read an option outside its row would raise KeyError
    read, resolve = set(), cli._resolve

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    monkeypatch.setattr(cli, "_resolve", lambda args: Recording(resolve(args)))
    assert list(SMALL_RUNS) == list(_COMMANDS)
    for command, runs in SMALL_RUNS.items():
        read.clear()
        for argv in runs:
            assert run_cli(capsys, command, *argv)[0] == 0
        assert sorted(read) == sorted(_COMMANDS[command][2]), command


@pytest.mark.parametrize("line", ["format = xml", "zeta = 2"])
def test_config_values_obey_flag_choices(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "theory", "--config", str(cfg), "--alpha", "1")
    assert code == 1 and out == "" and line.split()[0] in err


def test_axis_in_both_sweeps_rejected(capsys):
    code, out, err = run_cli(capsys, "kernels", "--sweep", "alpha:1:2:2", "--sweep2", "alpha:3:4:2",
                             "--T", "60")
    assert code == 1 and out == "" and "alpha" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_kernel_failure_exit_two_for_any_worker_count(workers, capsys):
    # a horizon too short for the tail window fails every kernel point; the
    # parent reports each one in grid order and keeps the rows
    code, out, err = run_cli(capsys, "kernels", "--sweep", "alpha:1:2:2", "--T", "4",
                             "--workers", workers)
    assert code == 2
    failed = [l for l in err.splitlines() if l.startswith("[kernels]")]
    assert len(failed) == 2 and "'alpha': 1.0" in failed[0] and "tail window" in failed[0]
    _, rows = parse_csv(out)
    assert [r["c0_kernel"] for r in rows] == ["", ""]


def test_argument_errors_exit_one(capsys):
    assert run_cli(capsys, "simulate", "--zeta", "3", "--alpha", "1")[0] == 1
    assert run_cli(capsys, "compare", "--alpha", "1", "--engines", "theory,banana")[0] == 1
    assert run_cli(capsys, "simulate")[0] == 1  # alpha missing


@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha", "1", "--agents", "0"],
    ["kernels", "--alpha", "inf", "--T", "60"],
    ["theory", "--alpha", "0.3", "--A", "1e80"],
    ["phase-diagram", "--sweep", "A_tilde:0:1e80:3"],
    ["theory", "--alpha", "0.3", "--A", "1e200"],
    ["theory", "--alpha", "3", "--A", "1e200", "--zeta", "1"],
    ["kernels", "--alpha", "0.3", "--A", "1e200", "--T", "20"],
    ["phase-diagram", "--sweep", "A_tilde:0:1e200:3"],
    ["simulate", "--alpha", "1e308", "--agents", "8", "--t-eq", "0", "--t-meas", "16",
     "--n-seeds", "1"],
], ids=["no-agents", "infinite-alpha", "amplitude-1e80", "amplitude-1e80-axis", "amplitude-1e200",
        "amplitude-1e200-alternating", "amplitude-1e200-kernels", "amplitude-1e200-axis",
        "alpha-times-agents-overflows"])
def test_bad_point_exits_one_without_traceback(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("sphmg: error: ")


def stop_tasks(monkeypatch):
    def task_ran(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(cli, "run_experiment", task_ran)
    monkeypatch.setattr(cli, "iterate_kernels", task_ran)


@pytest.mark.parametrize("argv, error", [
    (["--sweep", "alpha:0:4:3"], "alpha must be finite and > 0, got 0.0"),
    (["--sweep", "alpha:1:4:3", "--seeds=-1,3"], "seed must be a 64-bit unsigned integer"),
    (["--sweep", "alpha:1:4:3", "--seeds", "1,1"], "repeated seeds: 1,1"),
    (["--sweep", "alpha:1:4:3", "--seeds", ","], "need at least one seed"),
    (["--sweep", "alpha:1:4:3", "--init-scale", "0"], "init_scale must be > 0, got 0.0"),
    (["--sweep", "alpha:1:4:3", "--T", "0"], "T must be >= 1, got 0"),
    (["--sweep", "alpha:1:4:3", "--workers", "0"], "workers must be >= 1, got 0"),
    (["--sweep", "alpha:1:4:3", "--t-meas", "8"], "t_measure must be >= 16 for stable estimates"),
    (["--sweep", "alpha:1:4:3", "--out", "/no/such/dir/x.csv"],
     "out: /no/such/dir is not a writable directory"),
    (["--sweep", "alpha:1:4:3", "--out", "."], "out: . is a directory"),
    (["--sweep", "alpha:1:4:3", "--seeds", "3,4", "--seed", "9", "--n-seeds", "7"],
     "--seeds excludes --seed and --n-seeds"),
    (["--sweep", "alpha:1:4:3", "--alpha", "2"], "alpha is swept by --sweep and fixed by --alpha"),
    (["--alpha", "2", "--sweep2", "A_tilde:0:1:2", "--A", "1"],
     "A_tilde is swept by --sweep2 and fixed by --A"),
    (["--sweep", "alpha:1:4:3", "--tail", "0.9"], "tail must lie in (0, 0.5], got 0.9"),
], ids=["zero-alpha", "negative-seed", "repeated-seeds", "no-seeds", "zero-init-scale", "zero-T",
        "no-workers", "short-measurement", "out-in-missing-dir", "out-is-directory",
        "seeds-with-seed-and-count", "alpha-swept-and-fixed", "amplitude-swept-and-fixed",
        "tail-above-half"])
def test_every_point_checked_before_any_task(argv, error, monkeypatch, capsys):
    stop_tasks(monkeypatch)
    code, out, err = run_cli(capsys, "compare", "--agents", "200", "--T", "100", *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == ["sphmg: error: " + error]


@pytest.mark.parametrize("key, value", [("alpha", "0"), ("kappa", "2"), ("zeta", "2"),
                                        ("init_scale", "0"), ("T", "0"), ("tail", "0.9"),
                                        ("workers", "0")])
def test_a_bad_value_is_named_by_its_key(key, value, tmp_path, monkeypatch, capsys):
    # --t-meas, --agents and --A stay named by their library fields (t_measure,
    # n_agents, amplitude): perfbench builds GameParams and ExternalBid by those
    # keywords
    stop_tasks(monkeypatch)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    runs = [["--config", str(cfg)]]
    if key != "zeta":  # argparse refuses --zeta 2 itself, naming the flag
        runs.append(["--" + key.replace("_", "-"), value])
    for argv in runs:
        if key != "alpha":
            argv = argv + ["--alpha", "1"]
        code, out, err = run_cli(capsys, "compare", *argv)
        assert code == 1 and out == ""
        assert err.splitlines()[-1].startswith(f"sphmg: error: {key} "), err


@pytest.mark.parametrize("command, argv, config, error", [
    ("simulate", ["--alpha", "1"], "agents = x",
     "agents: invalid literal for int() with base 10: 'x'"),
    ("kernels", ["--alpha", "1"], "T = 4.5", "T: invalid literal for int() with base 10: '4.5'"),
    ("theory", [], "alpha = x", "alpha: could not convert string to float: 'x'"),
    ("simulate", ["--alpha", "1", "--seeds", "1,x"], "",
     "seeds: invalid literal for int() with base 10: 'x'"),
    ("simulate", ["--alpha", "1"], "seeds = 1,x",
     "seeds: invalid literal for int() with base 10: 'x'"),
    ("kernels", ["--sweep", "alpha:1:2:x", "--T", "40"], "",
     "sweep: invalid literal for int() with base 10: 'x'"),
    ("phase-diagram", ["--sweep", "kappa:0:1:x"], "",
     "sweep: invalid literal for int() with base 10: 'x'"),
    ("kernels", ["--alpha", "1"], "sweep2 = kappa:0:1", "sweep2: axis spec must be "
     "name:min:max:count[:log], got 'kappa:0:1'"),
    ("simulate", ["--sweep", "", "--alpha", "1"], "",
     "sweep: axis spec must be name:min:max:count[:log], got ''"),
    ("simulate", ["--sweep2", "", "--alpha", "1"], "",
     "sweep2: axis spec must be name:min:max:count[:log], got ''"),
    ("simulate", ["--alpha", "1"], "sweep =",
     "sweep: axis spec must be name:min:max:count[:log], got ''"),
    ("phase-diagram", ["--sweep", ""], "",
     "sweep: axis spec must be name:min:max:count[:log], got ''"),
    ("phase-diagram", ["--sweep", "kappa:0:inf:3"], "",
     "sweep: axis kappa: min 0.0 and max inf must be finite"),
    ("simulate", ["--alpha", "1"], "sweep2 = kappa:-inf:1:2",
     "sweep2: axis kappa: min -inf and max 1.0 must be finite"),
    ("kernels", ["--sweep", "alpha:nan:1:2", "--T", "40"], "",
     "sweep: axis alpha: min nan and max 1.0 must be finite"),
], ids=["agents-config", "T-config", "alpha-config", "seeds-flag", "seeds-config", "sweep-flag",
        "phase-diagram-sweep-flag", "sweep2-config", "empty-sweep-flag", "empty-sweep2-flag",
        "empty-sweep-config", "phase-diagram-empty-sweep-flag", "inf-max", "minus-inf-min",
        "nan-min"])
def test_a_value_that_does_not_parse_is_named_by_its_key(command, argv, config, error, tmp_path,
                                                         monkeypatch, capsys):
    # typed flags (--agents x) keep argparse's own error, which names the flag
    stop_tasks(monkeypatch)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config + "\n")
    code, out, err = run_cli(capsys, command, *argv, "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.splitlines() == ["sphmg: error: " + error]


@pytest.mark.parametrize("lines, argv", [
    ("seeds = 3,4\nseed = 9\n", []),
    ("n-seeds = 7\n", ["--seeds", "3,4"]),
    ("seeds = 3,4\n", ["--seed", "0"]),
], ids=["both-in-config", "count-in-config", "list-in-config"])
def test_seed_list_excludes_seed_and_count_from_config(lines, argv, tmp_path, monkeypatch,
                                                       capsys):
    stop_tasks(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    code, out, err = run_cli(capsys, "simulate", "--alpha", "1", "--config", str(cfg), *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == ["sphmg: error: --seeds excludes --seed and --n-seeds"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_theory_failure_keeps_the_sweep(workers, monkeypatch, capsys):
    # every seed (a sample over the table budget) and kernel point (a horizon
    # too short for the tail) fails in its task; theory fails at alpha = 3
    # only, and its line comes first among that point's lines
    argv = ["compare", "--sweep", "alpha:2.5:3:2", "--agents", "300000", "--t-eq", "5",
            "--t-meas", "16", "--n-seeds", "1", "--T", "4", "--workers", workers]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    want = parse_csv(out)[1]
    solve = cli.stationary_solution

    def fail_at_three(alpha, kappa, A_tilde, zeta):
        if alpha == 3.0:
            raise RuntimeError("theory broke")
        return solve(alpha, kappa, A_tilde, zeta)

    monkeypatch.setattr(cli, "stationary_solution", fail_at_three)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    rows = parse_csv(out)[1]
    pt = {"alpha": 3.0, "kappa": 0.0, "A_tilde": 0.0, "zeta": 0}
    theory = cli._cells("theory", [solve(**pt)])
    assert rows[0] == want[0] and all(want[1][c] != "" for c in theory)
    assert rows[1] == {**want[1], **dict.fromkeys(theory, "")}
    lines = [l for l in err.splitlines() if str(pt) in l]
    assert len(lines) == 4
    assert lines[0] == f"[theory] point {pt} failed: theory broke"
    assert [l.split()[0] for l in lines[1:]] == ["[simulate]", "[simulate]", "[kernels]"]


def test_compare_keeps_rows_when_every_kernel_point_fails(capsys):
    code, out, err = run_cli(capsys, "compare", "--engines", "theory,kernels",
                             "--sweep", "alpha:2.5:3:2", "--T", "4")
    assert code == 2
    _, rows = parse_csv(out)
    assert [r["alpha"] for r in rows] == ["2.5", "3"]
    assert [r["c0_kernel"] for r in rows] == ["", ""] and rows[0]["c0_theory"] != ""
    assert not [l for l in err.splitlines() if "kernels vs theory" in l]


def test_seed_count_counts_the_seeds_averaged(monkeypatch, capsys):
    argv = ["simulate", "--alpha", "4", "--agents", "64", "--t-eq", "30", "--t-meas", "32",
            "--workers", "1"]
    code, out, _ = run_cli(capsys, *argv, "--seeds", "1,3")
    assert code == 0
    want = parse_csv(out)[1][0]
    run = cli.run_experiment

    def fail_seed_two(params):
        if params.seed == 2:
            raise RuntimeError("seed 2 broke")
        return run(params)

    monkeypatch.setattr(cli, "run_experiment", fail_seed_two)
    code, out, err = run_cli(capsys, *argv, "--seeds", "1,2,3")
    assert code == 2
    pt = {"alpha": 4.0, "kappa": 0.0, "A_tilde": 0.0, "zeta": 0}
    assert err.splitlines() == [f"[simulate] point {pt} seed 2 failed: seed 2 broke",
                                f"[simulate] 1 seed(s) failed at {pt}"]
    row = parse_csv(out)[1][0]
    # the means and errors are those of the two seeds that ran
    assert row["seed_count"] == "2" and row == want


def test_seed_failures_print_in_grid_order_for_any_worker_count():
    # a sample over the table budget fails every seed; the lines come from the
    # parent after the tasks, so pool completion order cannot reorder them
    argv = ["simulate", "--sweep", "alpha:0.5:1:2", "--agents", "300000", "--seeds", "1,2,3,4",
            "--t-eq", "0", "--t-meas", "16"]
    env = {**os.environ, "PYTHONPATH": str(Path(sphmg.__file__).resolve().parents[1])}

    def stderr(workers):
        out = subprocess.run(
            [sys.executable, "-m", "sphmg.cli", *argv, "--workers", str(workers)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 2
        return out.stderr

    err = stderr(1)
    assert stderr(2) == stderr(2) == err
    pts = [{"alpha": a, "kappa": 0.0, "A_tilde": 0.0, "zeta": 0} for a in (0.5, 1.0)]
    want = [line for pt in pts for line in
            [f"[simulate] point {pt} seed {s} failed:" for s in (1, 2, 3, 4)]
            + [f"[simulate] 4 seed(s) failed at {pt}"]]
    lines = err.splitlines()
    assert len(lines) == len(want)
    assert all(line.startswith(w) for line, w in zip(lines, want))


def test_partial_failure_exit_two(capsys):
    # a sample over the table budget, or a start whose lambda^2 overflows
    # float64, fails its runs, not the sweep; stderr holds the failure lines
    # and nothing else, no numpy warning (pytest.ini turns one into an error)
    for argv, seeds, error in [(["--alpha", "1", "--agents", "300000"], 1, "disorder sample needs"),
                               (["--alpha", "2", "--agents", "40", "--init-scale", "1e200"], 2,
                                "valuations overflowed at t=1")]:
        for fmt in ("csv", "json"):
            code, out, err = run_cli(capsys, "simulate", *argv, "--t-eq", "5", "--t-meas", "16",
                                     "--n-seeds", str(seeds), "--format", fmt)
            assert code == 2
            *failed, summary = err.splitlines()
            assert len(failed) == seeds and all(" failed: " in l and error in l for l in failed)
            assert summary.startswith(f"[simulate] {seeds} seed(s) failed at ")
            row = json.loads(out)[0] if fmt == "json" else parse_csv(out)[1][0]
            empty = None if fmt == "json" else ""  # row kept, cells empty
            assert [c for c in RESULT_COLUMNS if "_sim" in c and row[c] != empty] == []


@pytest.mark.parametrize("argv", [["--alpha", "3", "--init-scale", "1e300"],
                                  ["--alpha", "3", "--init-scale", "1e200"],
                                  ["--alpha", "1e300"]])
def test_kernel_overflow_fails_once_without_warnings(argv):
    # a subprocess, so that a numpy warning would reach stderr as it does for
    # a user rather than be raised by pytest.ini's filter
    env = {**os.environ, "PYTHONPATH": str(Path(sphmg.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-m", "sphmg.cli", "kernels", "--T", "40", *argv],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    [line] = out.stderr.splitlines()
    assert line.startswith("[kernels] point ") and line.endswith(" failed: <q^2> overflowed at t=1")


def _readme_commands():
    """The argv of every sphmg line in README's sh blocks, with continuations
    joined and each shell variable replaced by 0."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    return [shlex.split(re.sub(r"\$\{?\w+\}?", "0", line), comments=True)[1:]
            for line in map(str.strip, lines.splitlines()) if line.startswith("sphmg ")]


def test_readme_commands_stay_valid():
    # parsed and checked as far as each command checks before it runs
    commands = _readme_commands()
    assert len(commands) == 6
    for argv in commands:
        merged = _resolve(build_parser().parse_args(argv))
        if argv[0] == "theory":
            assert merged["alpha"] is not None
        elif argv[0] == "phase-diagram":
            assert merged["sweep"][0] in ("kappa", "A_tilde")
        else:
            assert cli._grid(merged)
            assert "seeds" not in merged or cli._seeds(merged)
