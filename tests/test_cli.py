import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphmg
from sphmg import cli
from sphmg.cli import _OPTIONS, RESULT_COLUMNS, _pool_map, _resolve, build_parser, main


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
    code, _, err = run_cli(capsys, "phase-diagram", "--alpha", "1")
    assert code == 1 and "sweep" in err


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
    # simulation columns stay empty when the engine is not selected
    assert rows[0]["c0_sim"] == "" and rows[0]["n_agents"] == ""


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
    for row in rows:
        assert row["c0_sim"] not in ("", None) and row["sigma_sim"] not in ("", None)
        assert row["c0_sim_err"] == row["sigma_sim_err"] == ("" if fmt == "csv" else None)


def test_outputs_are_deterministic_and_json_round_trips(tmp_path, capsys):
    args = [
        "compare", "--engines", "theory,simulate", "--alpha", "1.2", "--agents", "64",
        "--t-eq", "30", "--t-meas", "32", "--seeds", "5,6",
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
    assert all(list(r) == RESULT_COLUMNS for r in rows)
    # lossless round trip
    assert json.loads(json.dumps(rows)) == rows
    # csv and json agree cell by cell
    _, crows = parse_csv(out1)
    for col in RESULT_COLUMNS:
        jval = rows[0][col]
        cval = crows[0][col]
        if jval is None:
            assert cval == ""
        elif isinstance(jval, float):
            assert float(cval) == pytest.approx(jval, rel=1e-11)


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


def test_pool_workers_run_single_threaded_blas(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert _pool_map(os.getenv, ["OPENBLAS_NUM_THREADS"] * 2, 2) == ["1", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_rows_identical_for_any_worker_count_at_one_blas_thread():
    # at N = 1500 the float32 coupling product gives other bits on 1 and 2
    # BLAS threads; pool workers run one thread, an inline --workers 1 run
    # inherits the process's thread count
    argv = ["simulate", "--sweep", "alpha:2:2.5:2", "--kappa", "0.25", "--A", "1", "--zeta", "1",
            "--agents", "1500", "--t-eq", "30", "--t-meas", "32", "--seeds", "1,2"]
    src = str(Path(sphmg.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = src

    def rows(workers, **extra):
        out = subprocess.run(
            [sys.executable, "-m", "sphmg.cli", *argv, "--workers", str(workers)],
            env={**env, **extra}, capture_output=True, text=True, timeout=120, check=True,
        )
        lines = [l for l in out.stdout.splitlines() if not l.startswith("#")]
        assert len(lines) == 3
        return lines

    assert rows(1, OPENBLAS_NUM_THREADS="1") == rows(2, OPENBLAS_NUM_THREADS="1")
    assert rows(2) == rows(3)


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


def test_cli_import_loads_no_pool_modules():
    # the pool is imported when a run fans out, so --workers 1 never pays for it
    env = {**os.environ, "PYTHONPATH": str(Path(sphmg.__file__).resolve().parents[1])}
    code = (
        "import sphmg.cli, sys; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("agents = 64\nt-eq = 30\nt-meas: 32\nn_seeds 1\nalpha = 1.0\n# comment\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["alpha"] == "1" and rows[0]["n_agents"] == "64"
    # explicit flag beats the config value
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--alpha", "2.0")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["alpha"] == "2"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("agentz = 10\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--alpha", "1")
    assert code == 1 and "agentz" in err


@pytest.mark.parametrize("name, kind, default, choices", [o[:4] for o in _OPTIONS],
                         ids=[o[0] for o in _OPTIONS])
def test_every_option_resolves_alike_from_flag_and_config(name, kind, default, choices, tmp_path):
    text = str(choices[-1]) if choices else {int: "3", float: "0.5", str: "x"}[kind]
    command = "compare" if name == "engines" else "simulate"
    parser = build_parser()
    want = _resolve(parser.parse_args([command, "--" + name.replace("_", "-"), text]))
    assert type(want[name]) is kind and want[name] != default
    for key in {name, name.replace("_", "-")}:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        assert _resolve(parser.parse_args([command, "--config", str(cfg)])) == want


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


@pytest.mark.parametrize("argv", [["--alpha", "1", "--agents", "0"], ["--alpha", "inf"]],
                         ids=["no-agents", "infinite-alpha"])
def test_bad_point_exits_one_without_traceback(argv, capsys):
    code, out, err = run_cli(capsys, "kernels", *argv, "--T", "60")
    assert code == 1 and out == "" and err.startswith("sphmg: error: ")


@pytest.mark.parametrize("argv, error", [
    (["--sweep", "alpha:0:4:3"], "alpha must be finite and > 0, got 0.0"),
    (["--sweep", "alpha:1:4:3", "--seeds=-1,3"], "seed must be a 64-bit unsigned integer"),
    (["--sweep", "alpha:1:4:3", "--seeds", "1,1"], "repeated seeds: 1,1"),
    (["--sweep", "alpha:1:4:3", "--lambda0", "0"], "lambda0 must be > 0, got 0.0"),
    (["--sweep", "alpha:1:4:3", "--T", "0"], "T must be >= 1, got 0"),
    (["--sweep", "alpha:1:4:3", "--workers", "0"], "workers must be >= 1, got 0"),
], ids=["zero-alpha", "negative-seed", "repeated-seeds", "zero-lambda0", "zero-T", "no-workers"])
def test_every_point_checked_before_any_task(argv, error, monkeypatch, capsys):
    def task_ran(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(cli, "run_experiment", task_ran)
    monkeypatch.setattr(cli, "iterate_kernels", task_ran)
    code, out, err = run_cli(capsys, "compare", "--agents", "200", "--n-seeds", "2",
                             "--T", "100", *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == ["sphmg: error: " + error]


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
    # alpha axis reaching into the anomalous phase: theory rows there are fine
    # (A-phase record), but a sim with t_measure below the contract fails
    code, out, err = run_cli(
        capsys, "simulate", "--alpha", "1", "--agents", "32", "--t-eq", "5",
        "--t-meas", "8", "--n-seeds", "1",
    )
    assert code == 2
    assert "failed" in err
    _, rows = parse_csv(out)
    assert rows[0]["c0_sim"] == ""  # row kept, cells empty
