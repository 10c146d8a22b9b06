"""Seeded input generators with controlled disorder.

Every generator returns a 1-D integer array of distinct values, which a
session and the harness oracle take without a conversion; `with_duplicates`
collapses neighbouring values to exercise the equal-payload path.  The
controlled generators hit their disorder target exactly and are self-checked
in tests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InfeasibleTarget


def gen_random(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform permutation of 0..n-1."""
    if n < 1:
        raise InfeasibleTarget("n must be >= 1")
    return rng.permutation(n)


def gen_controlled_runs(n: int, runs: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly `runs` maximal ascending runs: descending staircase of ascending
    chunks with random sizes."""
    if not (1 <= runs <= n):
        raise InfeasibleTarget(f"runs={runs} infeasible for n={n}")
    if runs == 1:
        return np.arange(n)
    cuts = rng.choice(np.arange(1, n), size=runs - 1, replace=False)
    starts = np.concatenate(([0], np.sort(cuts)))
    sizes = np.diff(np.append(starts, n))
    # each chunk holds the values just below those of the chunks before it
    return np.arange(n) + np.repeat(n - 2 * starts - sizes, sizes)


def gen_controlled_inv(n: int, inv: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly `inv` inversions via a random inversion table.

    Entry c_i counts later-but-smaller partners of position i; any table with
    c_i <= n-1-i decodes to a unique permutation with sum(c) inversions.
    Position i takes the c_i-th smallest value not yet used, popped from a
    descending list of the remaining values: each pop moves only c_i entries.
    """
    max_inv = n * (n - 1) // 2
    if not (0 <= inv <= max_inv):
        raise InfeasibleTarget(f"inv={inv} infeasible for n={n}")
    caps = [n - 1 - i for i in range(n)]
    table = [0] * n
    remaining = inv
    for i in rng.permutation(n):
        if remaining == 0:
            break
        take = int(rng.integers(0, min(caps[i], remaining) + 1))
        table[i] = take
        remaining -= take
    if remaining:
        for i in range(n):
            add = min(caps[i] - table[i], remaining)
            table[i] += add
            remaining -= add
            if remaining == 0:
                break
    rem = list(range(n - 1, -1, -1))
    return np.array([rem.pop(-1 - c) for c in table])


def gen_lower_bound_instance(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """floor(sqrt(k)) shuffled small values, then the rest ascending; Inv <= k."""
    if not (0 <= k <= n * n):
        raise InfeasibleTarget(f"k={k} infeasible for n={n}")
    r = min(int(math.isqrt(k)), n)
    return np.concatenate((rng.permutation(r), np.arange(r, n)))


def gen_adversarial_run_plus_one(n: int, rng: np.random.Generator) -> np.ndarray:
    """One ascending run of n-1 elements plus a final element landing inside it."""
    if n < 2:
        raise InfeasibleTarget("needs n >= 2")
    vals = np.arange(0, 2 * n, 2)
    vals[-1] = 2 * int(rng.integers(0, n - 1)) - 1  # odd, strictly inside the run
    return vals


def gen_two_runs(n: int, split: int, rng: np.random.Generator) -> np.ndarray:
    """Random value split into two ascending runs of sizes split and n-split."""
    if not (0 <= split <= n):
        raise InfeasibleTarget(f"split={split} infeasible for n={n}")
    picks = rng.permutation(n)[:split]
    mask = np.zeros(n, dtype=bool)
    mask[picks] = True
    # flatnonzero lists the positions in ascending order
    return np.concatenate((np.flatnonzero(mask), np.flatnonzero(~mask)))


def with_duplicates(values: np.ndarray) -> np.ndarray:
    """Collapse value pairs to introduce controlled ties: ``values // 2``."""
    return np.asarray(values) // 2
