#!/usr/bin/env python3
"""Cold and warm stage timings on the nf-cokernel shapes.

Each shape runs in a fresh process with one BLAS thread.  The process
decomposes the exact instances ``random_cpd(shape, r, seed)`` of every
seed once (the first of these calls also fills lazy caches), then
``--repeats`` more times warm.  Prints one JSON object with, per shape,
the shift-matrix size, the first calls, the warm medians of the whole
``decompose_with_info`` call and of every stage in ``stage_timings_ms``,
the median number of ``scipy.linalg.cho_solve`` calls per decomposition (the
steps of the cokernel's block iteration, counting its start block), the
rows of the Gram matrix that ``cho_factor`` factored (the stacked matrix's
when the shift matrix splits along x_0, else the shift matrix's), the
warm medians of the cokernel's parts, and the process's peak resident
memory.  The parts are timed by wrapping the functions the cokernel calls
through module attributes: ``lower_chain`` (the QR chain that gives the
nullspace one degree lower), ``cholesky`` (``cho_factor``),
``block_solves`` (every ``cho_solve``), ``rayleigh_ritz`` (every
``_rayleigh_ritz``), ``gram`` (the rest of ``_nullspace_eigs``: the Gram
matrix, its norm for the shift, the start block and the lift) and
``residual_check`` (the rest of ``left_nullspace``: the ||N R|| check),
each a total per decomposition.  ``cho_factor`` and ``cho_solve`` count
only inside ``left_nullspace``, because the refinement calls them too.
The same wrapping works on older checkouts, whose Gram has no function
of its own and which have no ``lower_chain``; that part then reads 0.
The package is imported from the ``src`` directory next to this script,
so a copy of the script in another checkout measures that checkout.

``--crossover`` instead times ``left_nullspace`` by ``svd``, by ``eigs``
and by ``auto`` on the shift matrix of every normal-form instance of the
perfbench ``nf-small`` workload, plus (12,7,3) r=12 and (50,10,5) r=20,
drawn with the first seed: the warm median of ``--repeats`` calls after
one cold call, in one fresh process with one BLAS thread.  The entry count
where ``eigs`` becomes the faster method sets ``EIGS_ENTRY_THRESHOLD``.
Each cell also gives rows - cols - r of its shift matrix (0 at the rank
bound) and the route ``auto`` took, seen from the functions it called:
``cokernel`` (the known row space), ``svd``, ``gram`` (the block
iteration; ``gram+svd`` when it fell back) or ``complement`` (neither; at
the bound, ``svd`` means the complement fell back).

    python3 scripts/cokernel_timings.py --seeds 101,102,103,104,105 --repeats 3
    python3 scripts/cokernel_timings.py --crossover --seeds 101 --repeats 7
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
    from cpdhnf import decompose_with_info, hilbert_dim, polysys, random_cpd, recovery

    spent, calls = {}, {}
    depth = [0]    # left_nullspace calls in progress

    def timed(name, fn, cokernel_only=False):
        def wrapper(*args, **kwargs):
            if cokernel_only and not depth[0]:
                return fn(*args, **kwargs)
            calls[name] = calls.get(name, 0) + 1
            depth[0] += name == "left_nullspace"
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= name == "left_nullspace"
                spent[name] = spent.get(name, 0.0) + 1e3 * (time.perf_counter() - t0)
        return wrapper

    factored = []
    cho_factor = scipy.linalg.cho_factor

    def recording(a, *args, **kwargs):
        if depth[0]:
            factored.append(a.shape[0])
        return cho_factor(a, *args, **kwargs)

    scipy.linalg.cho_factor = timed("cholesky", recording, cokernel_only=True)
    if hasattr(polysys, "lower_chain"):
        polysys.lower_chain = timed("lower_chain", polysys.lower_chain)
    scipy.linalg.cho_solve = timed("block_solves", scipy.linalg.cho_solve, cokernel_only=True)
    polysys._rayleigh_ritz = timed("rayleigh_ritz", polysys._rayleigh_ritz)
    polysys._nullspace_eigs = timed("nullspace_eigs", polysys._nullspace_eigs)
    recovery.left_nullspace = timed("left_nullspace", recovery.left_nullspace)

    def split():
        ms = {name: spent.get(name, 0.0) for name in
              ("lower_chain", "cholesky", "block_solves", "rayleigh_ritz", "nullspace_eigs",
               "left_nullspace")}
        inner = ms["lower_chain"] + ms["cholesky"] + ms["block_solves"] + ms["rayleigh_ritz"]
        return {"lower_chain": ms["lower_chain"],
                "gram": ms["nullspace_eigs"] - inner,
                "cholesky": ms["cholesky"],
                "block_solves": ms["block_solves"],
                "rayleigh_ritz": ms["rayleigh_ritz"],
                "residual_check": ms["left_nullspace"] - ms["nullspace_eigs"]}

    tensors = [random_cpd(shape, r, seed=s)[0] for s in seeds]
    cold, warm_total, warm_stages, warm_parts, steps = [], [], {}, {}, []
    info = None
    for rep in range(repeats + 1):
        for t in tensors:
            spent.clear()
            calls.clear()
            t0 = time.perf_counter()
            _, info = decompose_with_info(t, r)
            total_ms = 1e3 * (time.perf_counter() - t0)
            steps.append(calls.get("block_solves", 0))
            parts = split()
            if rep == 0:
                cold.append({"total_ms": round(total_ms, 1),
                             "cokernel_ms": info["stage_timings_ms"]["cokernel"],
                             "cokernel_parts_ms": {part: round(ms, 2)
                                                   for part, ms in parts.items()}})
            else:
                warm_total.append(total_ms)
                for stage, ms in info["stage_timings_ms"].items():
                    warm_stages.setdefault(stage, []).append(ms)
                for part, ms in parts.items():
                    warm_parts.setdefault(part, []).append(ms)
    m, n = shape[1] - 1, shape[2] - 1
    d, e = info["degree_used"]
    return {
        "rank": r,
        "degree": [d, e],
        "shift_matrix": [hilbert_dim(m, n, d, e),
                         ((m + 1) * (n + 1) - r) * hilbert_dim(m, n, d - 1, e - 1)],
        "factored_rows": factored[-1] if factored else None,
        "cold_first_calls": cold,
        "warm_runs": len(warm_total),
        "warm_median_total_ms": round(statistics.median(warm_total), 1),
        "warm_median_stage_ms": {stage: round(statistics.median(ms), 2)
                                 for stage, ms in warm_stages.items()},
        "warm_median_cokernel_parts_ms": {part: round(statistics.median(ms), 2)
                                          for part, ms in warm_parts.items()},
        "median_cho_solve_calls": statistics.median(steps),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def crossover(seed, repeats):
    sys.path.insert(0, str(ROOT / "src"))
    from cpdhnf import (DecomposeOptions, certifiable_rank, decompose_with_info,
                        left_nullspace, polysys, random_cpd, recovery)

    cases = []
    for m1 in range(2, 9):
        for n1 in range(2, m1 + 1):
            r = certifiable_rank(m1 - 1, n1 - 1, 2)
            if r > m1:
                cases.append(((r, m1, n1), r))
    cases += [((12, 7, 3), 12), ((50, 10, 5), 20)]
    built = []
    build = recovery.build_resultant

    def recording(system, degree):
        built.append(build(system, degree))
        return built[-1]

    recovery.build_resultant = recording
    route = []

    def routed(name, fn):
        def wrapper(*args, **kwargs):
            route.append(name)
            return fn(*args, **kwargs)
        return wrapper

    polysys._nullspace_svd = routed("svd", polysys._nullspace_svd)
    polysys._block_iteration = routed("gram", polysys._block_iteration)
    rows = []
    for shape, r in cases:
        built.clear()
        decompose_with_info(random_cpd(shape, r, seed=seed)[0], r, DecomposeOptions(kernel="svd"))
        res = built[0]
        route.clear()
        N = left_nullspace(res, r)
        taken = "cokernel" if N is res.cokernel else "+".join(route) or "complement"
        row = {"shape": list(shape), "rank": r, "shift_matrix": list(res.shape),
               "entries": res.shape[0] * res.shape[1],
               "excess_over_rank": res.shape[0] - res.shape[1] - r, "auto_route": taken}
        for method in ("svd", "eigs", "auto"):
            times = []
            for _ in range(repeats + 1):
                t0 = time.perf_counter()
                left_nullspace(res, r, method)
                times.append(1e3 * (time.perf_counter() - t0))
            row[f"{method}_ms"] = round(statistics.median(times[1:]), 2)
        rows.append(row)
    return sorted(rows, key=lambda row: row["entries"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101,102,103,104,105")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--shape", default=None, help="measure one shape in this process")
    parser.add_argument("--crossover", action="store_true",
                        help="time svd, eigs and auto on the nf-small shift matrices")
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    seeds = [int(tok) for tok in args.seeds.split(",")]

    if args.crossover and args.in_process:
        print(json.dumps(crossover(seeds[0], args.repeats)))
        return 0
    if args.shape:
        shape = tuple(int(tok) for tok in args.shape.split(","))
        print(json.dumps(measure(shape, SHAPES[args.shape], seeds, args.repeats)))
        return 0

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    if args.crossover:
        proc = subprocess.run(
            [sys.executable, __file__, "--crossover", "--in-process", "--seeds",
             args.seeds, "--repeats", str(args.repeats)],
            env=env, stdout=subprocess.PIPE, text=True, check=True,
        )
        print(json.dumps({"seed": seeds[0], "repeats": args.repeats, "blas_threads": 1,
                          "machine": platform.machine(),
                          "python": platform.python_version(),
                          "cases": json.loads(proc.stdout)}, indent=1))
        return 0
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
