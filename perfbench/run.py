"""Benchmark of sphmg: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload sim-dense --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``sphmg`` is imported from the checkout's
``src``; no BLAS thread variable is set, so the run sees the machine as a
user does.  With ``--trace 0`` the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics instead.  The full record (provenance, task times, spans) is written
to ``perfbench/out/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fresh processes that only set up, besides the workload's own process.
SETUP_SAMPLES = 5
# Every process of one run must have ended by then; a run may take 180 s.
DEADLINE_S = 170.0


class Child:
    """A worker process in its own session, killed with its group at the deadline."""

    def __init__(self, args: list[str], env: dict, deadline: float) -> None:
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True,
        )
        self.timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), self.kill)
        self.timer.start()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait_ready(self) -> float:
        """Seconds from spawn until the worker reported that set-up is done."""
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")
        return time.perf_counter() - self.t0

    def finish(self) -> str:
        try:
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.timer.cancel()
            self.kill()  # anything the worker left in its session
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "sphmg" / "__init__.py").is_file():
        print(f"run.py: no sphmg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                child = Child(["--setup-only"], env, deadline)
                setups.append(child.wait_ready())
                child.finish()
        child = Child(worker_args, env, deadline)
        setups.append(child.wait_ready())
        record = json.loads(child.finish().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        metrics = record["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(record["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MiB"},
            "passed_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    record["setup_samples_s"] = setups
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(record["provenance"]))
    print(f"workload {args.workload}: {attempted} task(s), task wall s "
          + " ".join(f"{w:.4f}" for w in record["walls"]))
    print("observed " + json.dumps(record["observed"]))
    for err in record["errors"]:
        print(f"FAILED {err}")
    print(f"failed_frac {failed / attempted:.4g} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
