#!/usr/bin/env python3
"""Time the harness's uncounted oracle: the canonical order plus (Runs, Inv).

Each size times ``_oracle_order(vals)`` followed by
``_measured_disorder(vals, order)`` on the int64 array that ``gen_random``
returns, as a trial's oracle receives it; a checkout whose generator returns
a Python list is timed on that list.  Prints one JSON object of median and
best microseconds per size.  To compare two checkouts, run it
alternately with each one's ``src`` directory:

    python3 scripts/bench_oracle.py --src src
    python3 scripts/bench_oracle.py --src /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

SIZES = (100, 1 << 12, 1 << 17)  # small-many, a mid size, select-large
SAMPLES = 15  # timed samples per size
SAMPLE_S = 0.05  # seconds of repetitions per sample


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the fragility package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np

    from fragility import generators
    from fragility.harness import _measured_disorder, _oracle_order

    out = {}
    for n in SIZES:
        vals = generators.gen_random(n, np.random.default_rng(n))

        def step():
            _measured_disorder(vals, _oracle_order(vals))

        step()  # warm caches and lazy imports
        t0 = time.perf_counter()
        step()
        reps = max(1, int(SAMPLE_S / max(time.perf_counter() - t0, 1e-7)))
        samples = []
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            for _ in range(reps):
                step()
            samples.append((time.perf_counter() - t0) / reps * 1e6)
        out[str(n)] = {"median_us": statistics.median(samples), "best_us": min(samples), "reps": reps}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
