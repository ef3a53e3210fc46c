import tracemalloc

import pytest


@pytest.fixture
def heap_peak():
    """heap_peak(f) -> (bytes, f()): how far the traced heap rose above
    its level at the call while f ran."""

    def measure(f):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = f()
            return tracemalloc.get_traced_memory()[1] - start, out
        finally:
            tracemalloc.stop()

    return measure
