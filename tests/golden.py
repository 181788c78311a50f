"""Golden rows: what ten `sphmg` commands print, kept under tests/golden.

Each file holds one command's exit code, its stdout without the CSV's
"# generated" timestamp line, and its stderr.  The commands cover every
route of the simulator, every engine, a failing run, JSON output, --sweep2
and the largest drive.  All ten run through `sphmg.cli.main` in one child
process on one BLAS thread.

    python tests/golden.py      # write the files from the code in src/

test_golden.py runs the same commands and compares them with the files:
the exit code and stderr's failure lines exactly, and the numbers of stdout
and of stderr's summary lines within 1e-9 |x| + 1e-12 (close).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

COMMANDS = {
    "theory-oscillating": "theory --alpha 4 --kappa 0.25 --A 1 --zeta 1",
    "theory-largest-drive-json": "theory --alpha 3 --A 1e76 --format json",
    "phase-diagram": "phase-diagram --sweep A_tilde:0:2:3 --zeta 1",
    "simulate-coupling-route": ("simulate --alpha 2 --kappa 0.25 --A 0.5 --zeta 1 --agents 200"
                                " --t-eq 100 --t-meas 200 --n-seeds 2"),
    "simulate-gram-route-json": ("simulate --sweep alpha:0.2:0.4:2 --agents 400 --t-eq 100"
                                 " --t-meas 200 --seeds 3,5 --init-scale 1e-4 --format json"),
    "simulate-per-pattern-route": ("simulate --alpha 0.3 --kappa 0.25 --agents 400 --t-eq 100"
                                   " --t-meas 200 --n-seeds 2"),
    "kernels-sweep2": "kernels --sweep alpha:2:6:3 --sweep2 A_tilde:0:1:2 --zeta 1 --T 100",
    "compare-largest-drive": ("compare --alpha 3 --A 1e76 --agents 100 --t-eq 50 --t-meas 100"
                              " --n-seeds 2 --T 100"),
    "kernels-failing": "kernels --alpha 4 --T 8",
    "compare-three-engines": ("compare --engines theory,simulate,kernels --sweep alpha:0.3:6:4"
                              " --agents 200 --t-eq 100 --t-meas 200 --n-seeds 2 --T 100"),
}

# A decimal number that is no part of a name (the 0 of c0 is not one).
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")


def run_commands() -> dict[str, dict]:
    """{name: {"command", "exit", "stdout", "stderr"}} of COMMANDS, run in
    one child process at OPENBLAS_NUM_THREADS=1; stdout and stderr are
    lists of lines."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, __file__, "--child"], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return json.loads(out.stdout)


def _child() -> None:
    from sphmg.cli import main

    results = {}
    for name, command in COMMANDS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(command))
        results[name] = {
            "command": command, "exit": code,
            "stdout": [l for l in out.getvalue().splitlines() if not l.startswith("# generated")],
            "stderr": err.getvalue().splitlines(),
        }
    json.dump(results, sys.stdout)


def close(expected: str, actual: str) -> bool:
    """Whether actual is expected with each number x moved by at most
    1e-9 |x| + 1e-12 and the text between the numbers unchanged."""
    want, got = NUMBER.split(expected), NUMBER.split(actual)
    return (len(want) == len(got) and want[::2] == got[::2]
            and all(abs(float(g) - float(w)) <= 1e-9 * abs(float(w)) + 1e-12
                    for w, g in zip(want[1::2], got[1::2])))


def is_summary(line: str) -> bool:
    """Whether line is one of compare's deviation summary lines."""
    return " max rel deviation " in line or " max abs deviation " in line


def compare(golden: dict, result: dict) -> tuple[list[str], list[str]]:
    """(faults, differences) of a command's result against its golden file:
    a fault is a changed exit code, a changed failure line on stderr, or a
    number of stdout or of a summary line beyond close; a difference is any
    other changed line."""
    faults, diffs = [], []
    if result["exit"] != golden["exit"]:
        faults.append(f"exit {result['exit']}, expected {golden['exit']}")
    for stream in ("stdout", "stderr"):
        want, got = golden[stream], result[stream]
        if len(want) != len(got):
            faults.append(f"{stream}: {len(got)} lines, expected {len(want)}")
            continue
        for w, g in zip(want, got):
            if w == g:
                continue
            line = f"{stream}: {g!r}, expected {w!r}"
            exact = stream == "stderr" and not is_summary(w)
            (faults if exact or not close(w, g) else diffs).append(line)
    return faults, diffs


def write() -> None:
    """The golden files of COMMANDS from the code in src/, one per command."""
    GOLDEN.mkdir(exist_ok=True)
    for name, result in run_commands().items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    else:
        write()
