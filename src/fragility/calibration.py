"""Frozen empirical envelope constants.

The adaptive median and sort replace the Theta(log n)-fragility sorting
network of the literature with the Batcher network, so their measured
envelopes carry squared logarithmic factors.  The constants below were
measured once (n = 2^15, 50 seeds per bucket, controlled-disorder
generators) and then frozen; verifiers and acceptance tests assert against
them, they are never fitted at test time.  Each envelope is linear in its
constant, so ``fragility sweep`` re-measures one as the frozen value times
the largest ``value / limit`` ratio it prints for that bound.
"""

from __future__ import annotations

import math

from .primitives import ceil_log2

# median adaptive to the number of runs:
#   max fragility <= C_MED * (log2(Runs) + (log2 log2 n)^2)
C_MED = 8.0

# median adaptive to inversions: max fragility <= C_MI * log2(Inv+2)^2
C_MI = 2.0

# sorting adaptive to inversions: max fragility <= C_S * log2(Inv+2)^2
C_S = 2.0

# randomized predecessor search: mean per-element fragility over a workload of
# m searches <= RANDOMIZED_MEAN_FACTOR * m * max(1, log2(n)) / n; the floor
# covers n = 1, where log2 n is 0 yet every search makes one comparison
RANDOMIZED_MEAN_FACTOR = 4.0

# two-run median: per-element fragility cap (constant by design)
MEDIAN_TWO_RUNS_MAX = 12


def median_runs_envelope(runs: int, n: int) -> float:
    loglog = math.log2(max(2, ceil_log2(n)))
    return C_MED * (math.log2(max(2, runs)) + loglog**2)


def median_inv_envelope(inv: int) -> float:
    return C_MI * math.log2(inv + 2) ** 2


def sort_inv_envelope(inv: int) -> float:
    return C_S * math.log2(inv + 2) ** 2


def randomized_mean_budget(n: int, searches: int) -> float:
    return RANDOMIZED_MEAN_FACTOR * searches * max(1.0, math.log2(n)) / n
