"""Shared test helpers."""

import itertools

import pytest


def _sorts_every_zero_one_input(m, lo, hi) -> bool:
    """Whether comparators ``(lo[c], hi[c])``, applied in order to plain
    values, sort every 0-1 input of length m (so, by the 0-1 principle, every
    input)."""
    pairs = list(zip(lo.tolist(), hi.tolist()))
    for bits in itertools.product((0, 1), repeat=m):
        out = list(bits)
        for i, j in pairs:
            if out[i] > out[j]:
                out[i], out[j] = out[j], out[i]
        if out != sorted(bits):
            return False
    return True


@pytest.fixture
def sorts_every_zero_one_input():
    return _sorts_every_zero_one_input
