#!/usr/bin/env python3
"""Time a select-large trial's per-array steps outside the algorithm, cold and
warm comparator networks, the inversion-table decoder and a long search
sequence.

``oracle`` times ``_oracle_order(vals)`` followed by
``_measured_disorder(vals, order)`` at each size, on the int64 array that
``gen_random`` returns, as a trial's oracle receives it; a checkout whose
generator returns a Python list is timed on that list.  At n = 2^17,
``oracle_peak_mb`` is the oracle's tracemalloc peak, and the script also
times ``new_session`` on that array (``new_session``, the ledger's set-up
and its release), and one counted ``_filter_at_most`` of the whole id pool
against the rank-8 element (``filter_at_most``), as ``select_kth``'s final
filter runs it.  ``build_schedule`` times a cold ``build_schedule(m)`` and
``network_sort`` a cold ``network_sort`` of a random permutation, each with
every cache in ``fragility.primitives`` cleared before each call, at
``WIRES``; ``network_sort_warm`` times ``network_sort`` of a random
permutation on its cached schedule, inside a phase, at ``WARM_WIRES``.
``gen_controlled_inv`` times one generated input of ``INV_N`` elements per
inversion count in ``INVS``, and ``offset_search`` one
trial of ``run_experiment`` on C3's offset_search spec (n = 1024, 10^4
uniform-rank searches).  ``less`` times scalar ``ComparisonLedger.less``
over the ``LESS_N - 1`` neighbour pairs of a list session of ``LESS_N``
random payloads, outside any phase (``outside``) and inside one
(``in_phase``), in nanoseconds per call.  ``less_batch`` times one
``ComparisonLedger.less_batch`` of ``BATCH_PAIRS`` pairs, about as many as a
small-many trial's batches hold, on an array session of ``BATCH_N`` random
payloads, outside and inside a phase, in nanoseconds per call.  Prints one
JSON object of median and best microseconds per step and size (nanoseconds
per call for ``less`` and ``less_batch``).  ``faults`` runs in a child
process: through ``cli.main``, as ``fragility run`` does, so under the heap
policy that ``main`` sets, it runs select_kth at n = 2^17 for k = 2, 4, 8 with
``FAULT_TRIALS`` trials each, once to warm up and then ``SLOW_SAMPLES`` times,
and gives the minor page faults and milliseconds per trial of those rounds.
To compare two checkouts, run it alternately with each one's ``src``
directory:

    python3 scripts/bench_oracle.py --src src
    python3 scripts/bench_oracle.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import tracemalloc

SIZES = (100, 1 << 12, 1 << 17)  # small-many, a mid size, select-large
LARGE = 1 << 17  # select-large's n, for the session and filter steps
WIRES = (100, 20000, 32768)  # a small-many size; C8's widest networks
WARM_WIRES = (17, 32, 100, 1000)  # above the scalar networks; small-many's n; a mid size
SAMPLES = 15  # timed samples per size
INV_N = 1 << 15  # C8's largest controlled_inv inputs
INVS = (16, 4096)
LESS_N = 1 << 15  # a list session's payloads for the scalar ``less`` step
BATCH_N = 100  # small-many's n, for the ``less_batch`` step
BATCH_PAIRS = 38  # pairs per ``less_batch`` call
SLOW_SAMPLES = 5  # timed samples per step that takes up to seconds
SAMPLE_S = 0.05  # seconds of repetitions per sample
FAULT_TRIALS = 5  # select_kth trials per k in the ``faults`` step, as select-large runs them


def time_step(step, count: int = SAMPLES) -> dict:
    """Median and best microseconds per call of ``step`` over the samples."""
    step()  # warm caches and lazy imports
    t0 = time.perf_counter()
    step()
    reps = max(1, int(SAMPLE_S / max(time.perf_counter() - t0, 1e-7)))
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        for _ in range(reps):
            step()
        samples.append((time.perf_counter() - t0) / reps * 1e6)
    return {"median_us": statistics.median(samples), "best_us": min(samples), "reps": reps}


def time_in_and_out_of_phase(ledger, step, calls: int) -> dict:
    """Median and best nanoseconds per call of ``step``, which makes
    ``calls`` calls, outside a phase and inside one.  The phase is opened
    once around all the samples, so a step of one call does not also time
    entering and leaving it."""
    out = {}
    for mode in ("outside", "in_phase"):
        with ledger.in_phase("bench") if mode == "in_phase" else contextlib.nullcontext():
            us = time_step(step, SLOW_SAMPLES)
        out[mode] = {"median_ns": us["median_us"] * 1e3 / calls,
                     "best_ns": us["best_us"] * 1e3 / calls, "reps": us["reps"]}
    return out


def time_less(ledger, ids) -> dict:
    """Nanoseconds per scalar ``less`` over neighbour pairs."""
    pairs = list(zip(ids[1:], ids[:-1]))

    def scan():
        less = ledger.less
        for a, b in pairs:
            less(a, b)

    return time_in_and_out_of_phase(ledger, scan, len(pairs))


def select_faults(src: str) -> dict:
    """Median and extreme minor faults and milliseconds per select_kth trial
    at n = ``LARGE`` through ``cli.main``; run it in a child process, as
    ``main`` may change the allocator's settings."""
    sys.path.insert(0, src)
    from fragility import cli

    def one_round():
        for k in (2, 4, 8):
            argv = ["run", "--algo", "select_kth", "--n", str(LARGE), "--k", str(k), "--epsilon", "0.25",
                    "--trials", str(FAULT_TRIALS), "--seed", "1", "--out", os.devnull]
            if cli.main(argv) != 0:
                raise RuntimeError(f"fragility {' '.join(argv)} failed")

    one_round()
    faults, ms = [], []
    trials = 3 * FAULT_TRIALS
    for _ in range(SLOW_SAMPLES):
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        one_round()
        ms.append((time.perf_counter() - t0) / trials * 1e3)
        faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / trials)
    return {"faults_per_trial": {"median": statistics.median(faults), "max": max(faults)},
            "ms_per_trial": {"median": statistics.median(ms), "best": min(ms)}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the fragility package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np

    from fragility import generators, primitives
    from fragility.harness import ExperimentSpec, _measured_disorder, _oracle_order, run_experiment
    from fragility.ledger import new_session
    from fragility.selection import _filter_at_most

    out: dict = {"oracle": {}}
    for n in SIZES:
        vals = generators.gen_random(n, np.random.default_rng(n))
        out["oracle"][str(n)] = time_step(lambda: _measured_disorder(vals, _oracle_order(vals)))

    vals = generators.gen_random(LARGE, np.random.default_rng(LARGE))
    tracemalloc.start()
    _measured_disorder(vals, _oracle_order(vals))
    out["oracle_peak_mb"] = {str(LARGE): tracemalloc.get_traced_memory()[1] / 2**20}
    tracemalloc.stop()
    out["new_session"] = {str(LARGE): time_step(lambda: new_session(vals))}
    ledger, _ = new_session(vals)
    pool = np.arange(LARGE, dtype=np.intp)
    z = int(np.flatnonzero(np.asarray(vals) == 8)[0])
    out["filter_at_most"] = {str(LARGE): time_step(lambda: _filter_at_most(ledger, pool, z))}

    caches = [f for f in vars(primitives).values() if callable(getattr(f, "cache_clear", None))]

    def cold(step):
        def run():
            for cached in caches:
                cached.cache_clear()
            step()

        return run

    out["build_schedule"] = {}
    out["network_sort"] = {}
    for m in WIRES:
        ledger, ids = new_session(generators.gen_random(m, np.random.default_rng(m)))
        build = cold(lambda: primitives.build_schedule(m))
        out["build_schedule"][str(m)] = time_step(build, SLOW_SAMPLES)
        sort = cold(lambda: primitives.network_sort(ledger, ids))
        out["network_sort"][str(m)] = time_step(sort, SLOW_SAMPLES)

    out["network_sort_warm"] = {}
    for m in WARM_WIRES:
        ledger, ids = new_session(generators.gen_random(m, np.random.default_rng(m)))

        def warm():
            with ledger.in_phase("bench"):
                primitives.network_sort(ledger, ids)

        out["network_sort_warm"][str(m)] = time_step(warm)

    out["gen_controlled_inv"] = {}
    for inv in INVS:
        decode = lambda: generators.gen_controlled_inv(INV_N, inv, np.random.default_rng(inv))
        out["gen_controlled_inv"][f"{INV_N}/inv={inv}"] = time_step(decode, SLOW_SAMPLES)
    spec = ExperimentSpec(algorithm="offset_search", generator="uniform_ranks", n=1024,
                          searches=10_000, trials=1, seed=3)
    out["offset_search"] = {"1024x10000": time_step(lambda: run_experiment(spec), SLOW_SAMPLES)}
    payloads = generators.gen_random(LESS_N, np.random.default_rng(LESS_N))
    out["less"] = {str(LESS_N): time_less(*new_session(np.asarray(payloads).tolist()))}
    ledger, _ = new_session(generators.gen_random(BATCH_N, np.random.default_rng(BATCH_N)))
    a = np.arange(0, 2 * BATCH_PAIRS, 2, dtype=np.intp)  # disjoint pairs (a, a + 1)
    b = a + 1
    batch = lambda: ledger.less_batch(a, b)
    out["less_batch"] = {f"{BATCH_N}x{BATCH_PAIRS}": time_in_and_out_of_phase(ledger, batch, 1)}
    with multiprocessing.get_context("spawn").Pool(1) as child:
        out["faults"] = {str(LARGE): child.apply(select_faults, (args.src,))}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
