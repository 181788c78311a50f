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
from sphmg.cli import RESULT_COLUMNS, _pool_map, main


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
    assert [set(r.keys()) == set(RESULT_COLUMNS) for r in rows]
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
