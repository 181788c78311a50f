"""Peak memory of one call, for the footprint tests: traced in process, or
resident in a fresh one."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

# numpy imports numpy.random on its first use; importing it here, before any
# trace starts, keeps that import out of every traced peak
import numpy.random  # noqa: F401

from sphmg import core


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc traces while fn runs)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def route_build_growth(warm_up: tuple[int, float], build: tuple[int, float]) -> tuple[str, int]:
    """(the route's class name, the bytes by which its build raises the
    resident peak) of one simulator._route build at (n_agents, alpha) =
    build, seed 1, in a fresh process, after a warm-up build at warm_up
    that starts the BLAS threads.  tracemalloc cannot see the pages
    OpenBLAS allocates for itself; ru_maxrss (KiB on Linux) counts them."""
    code = ("import resource\n"
            "from sphmg import GameParams, simulator\n"
            "from sphmg.core import init_state\n"
            "def build(n, alpha):\n"
            "    params = GameParams(n_agents=n, alpha=alpha, seed=1)\n"
            "    return simulator._route(params, init_state(params))\n"
            f"build{warm_up}\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            f"route = build{build}\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(type(route).__name__, after - before)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(core.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    kind, grown = out.stdout.split()
    return kind, 1024 * int(grown)
