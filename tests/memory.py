"""Peak memory of one call, as tracemalloc sees it (numpy reports its data
buffers to tracemalloc)."""

import tracemalloc


def transient_peak(fn):
    """fn() and the most bytes allocated at once while it ran, its result included."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
