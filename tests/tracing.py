"""Peak traced memory of one call, for the footprint tests."""

from __future__ import annotations

import tracemalloc

# numpy imports numpy.random on its first use; importing it here, before any
# trace starts, keeps that import out of every traced peak
import numpy.random  # noqa: F401


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc traces while fn runs)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
