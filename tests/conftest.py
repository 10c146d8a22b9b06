"""Shared test helpers."""

import itertools

import numpy as np
import pytest

from fragility.harness import _oracle_order


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


def oracle_sorted(payloads, ids=None) -> list[int]:
    """``ids`` (by default every index of ``payloads``) in the canonical
    order that ``ComparisonLedger.less`` answers in, payload first, then
    index, taken from the payloads alone and never through a session.

    Payloads that numpy orders as ``less`` does (a 1-D bool, int, uint,
    float, str or bytes array) take the harness oracle, ``_oracle_order``.
    Tuples, the rows of a 2-D array and other objects, which numpy cannot
    order so, sort on (payload, index) keys.  No test sorts NaN, which
    ``less`` breaks against everything by index, or str payloads with
    trailing NULs, which a numpy array drops.
    """
    arr = np.asarray(payloads)
    if arr.ndim == 1 and arr.dtype.kind in "biufUS":
        order = _oracle_order(arr).tolist()
    else:
        keys = arr.tolist()  # a 2-D array's rows compare as lists, as tuples do
        order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    if ids is None:
        return order
    wanted = set(ids)
    return [i for i in order if i in wanted]
