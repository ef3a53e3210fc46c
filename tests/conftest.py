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


def all_recipes(max_bits=6):
    """Every classifier factor list over {H, C2} with total rank <= max_bits."""
    out = []

    def extend(prefix, bits):
        if prefix:
            out.append(tuple(prefix))
        if bits + 1 <= max_bits:
            extend(prefix + ["H"], bits + 1)
        if bits + 2 <= max_bits:
            extend(prefix + ["C2"], bits + 2)

    extend([], 0)
    return out
