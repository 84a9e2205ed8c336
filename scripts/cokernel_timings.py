#!/usr/bin/env python3
"""Cold and warm stage timings on the nf-cokernel shapes.

Each shape runs in a fresh process with one BLAS thread.  The process
decomposes the exact instances ``random_cpd(shape, r, seed)`` of every
seed once (the first of these calls also fills lazy caches), then
``--repeats`` more times warm.  Prints one JSON object with, per shape,
the shift-matrix size, the first calls, the warm medians of the whole
``decompose_with_info`` call and of every stage in ``stage_timings_ms``,
the median number of ``scipy.linalg.cho_solve`` calls per decomposition (the
steps of the cokernel's block iteration, counting its start block), and
the process's peak resident memory.  The package is imported from the
``src`` directory next to this script, so a copy of the script in another
checkout measures that checkout.

    python3 scripts/cokernel_timings.py --seeds 101,102,103,104,105 --repeats 3
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHAPES = {"20,8,4": 20, "50,10,5": 30, "40,8,8": 39}


def measure(shape, r, seeds, repeats):
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.linalg
    from cpdhnf import decompose_with_info, hilbert_dim, random_cpd

    solves = [0]
    cho_solve = scipy.linalg.cho_solve

    def counting(*args, **kwargs):
        solves[0] += 1
        return cho_solve(*args, **kwargs)

    scipy.linalg.cho_solve = counting
    tensors = [random_cpd(shape, r, seed=s)[0] for s in seeds]
    cold, warm_total, warm_stages, steps = [], [], {}, []
    info = None
    for rep in range(repeats + 1):
        for t in tensors:
            solves[0] = 0
            t0 = time.perf_counter()
            _, info = decompose_with_info(t, r)
            total_ms = 1e3 * (time.perf_counter() - t0)
            steps.append(solves[0])
            if rep == 0:
                cold.append({"total_ms": round(total_ms, 1),
                             "cokernel_ms": info["stage_timings_ms"]["cokernel"]})
            else:
                warm_total.append(total_ms)
                for stage, ms in info["stage_timings_ms"].items():
                    warm_stages.setdefault(stage, []).append(ms)
    m, n = shape[1] - 1, shape[2] - 1
    d, e = info["degree_used"]
    return {
        "rank": r,
        "degree": [d, e],
        "shift_matrix": [hilbert_dim(m, n, d, e),
                         ((m + 1) * (n + 1) - r) * hilbert_dim(m, n, d - 1, e - 1)],
        "cold_first_calls": cold,
        "warm_runs": len(warm_total),
        "warm_median_total_ms": round(statistics.median(warm_total), 1),
        "warm_median_stage_ms": {stage: round(statistics.median(ms), 2)
                                 for stage, ms in warm_stages.items()},
        "median_cho_solve_calls": statistics.median(steps),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101,102,103,104,105")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--shape", default=None, help="measure one shape in this process")
    args = parser.parse_args()
    seeds = [int(tok) for tok in args.seeds.split(",")]

    if args.shape:
        shape = tuple(int(tok) for tok in args.shape.split(","))
        print(json.dumps(measure(shape, SHAPES[args.shape], seeds, args.repeats)))
        return 0

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    shapes = {}
    for name in SHAPES:
        proc = subprocess.run(
            [sys.executable, __file__, "--shape", name, "--seeds", args.seeds,
             "--repeats", str(args.repeats)],
            env=env, stdout=subprocess.PIPE, text=True, check=True,
        )
        shapes[name] = json.loads(proc.stdout)
    print(json.dumps({"seeds": seeds, "repeats": args.repeats, "blas_threads": 1,
                      "machine": platform.machine(), "python": platform.python_version(),
                      "shapes": shapes}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
