#!/usr/bin/env python3
"""Warm timings of the certifier's Z_p rank, with its split and peak memory.

Each case runs in a fresh process with one BLAS thread:

- ``criterion-11``: ``hilbert_from_points(random_config(5, 5, 3,
  seed=749800425), (3, 3))``, the 3136 x 14553 shift matrix that is the
  largest Hilbert value of acceptance criterion 11;
- ``cert-large``: the perfbench ``cert-large`` value of pass 0 of ``--seed``,
  ``hilbert_from_points(random_config(6, 4, 20), (3, 2))``, 1260 x 2100;
- ``cert-sweep``: pass 0 of the perfbench ``cert-sweep`` workload of
  ``--seed``, the 81 certificates of acceptance criterion 5.

The process runs its case once cold (the first call also fills lazy
caches), then ``--repeats`` times warm, and reports the warm median.  One
more run splits the time spent in ``regcert._rank`` into

- ``per_pivot``: the ``_row_echelon`` passes over the panels;
- ``in_block``: the GEMM updates, each with the addition that applies its
  product, whose right factor is a reduced copy of a panel's pivot rows;
- ``beyond_block``: the GEMM updates, with their additions, whose right
  factor is read in place from the matrix, the pivot rows of an outer block;
- ``other``: the rest of ``_rank``: row swaps, reductions, copies, and the
  cost of the instrumentation itself.

The split times every NumPy ufunc called on the matrix or on arrays derived
from it, through an ndarray subclass, so that run is slower than the warm
ones.  The process's peak resident memory is reported too.  The package is
imported from the ``src`` directory next to this script, so a copy of the
script in another checkout measures that checkout.  ``--block W`` sets
``regcert._BLOCK`` to W in the measuring processes, to compare outer block
widths.

    python3 scripts/regcert_timings.py --repeats 3
    python3 scripts/regcert_timings.py --cases cert-sweep --block 128
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CASES = ("criterion-11", "cert-large", "cert-sweep")
PRIME = 8191


def _seed(seed, j, slot):
    # the derivation of perfbench/workloads.py
    return int(np.random.SeedSequence([seed, j, slot]).generate_state(1)[0])


def case_call(cp, name, seed):
    if name == "criterion-11":
        config = cp.random_config(5, 5, 3, seed=749800425)
        return lambda: cp.hilbert_from_points(config, (3, 3))
    if name == "cert-large":
        config = cp.random_config(6, 4, 20, p=PRIME, seed=_seed(seed, 0, 0))
        return lambda: cp.hilbert_from_points(config, (3, 2))
    args = []
    for m1 in range(2, 11):
        for n1 in range(2, 11):
            m, n = m1 - 1, n1 - 1
            r = math.floor(min(cp.rank_bound(m, n, 2, 1), m * n))
            args.append((m, n, 2, r, _seed(seed, 0, len(args))))
    return lambda: [cp.certify_regularity(m, n, d, r, p=PRIME, trials=3, seed=s)
                    for m, n, d, r, s in args]


def measure(name, seed, repeats, block):
    sys.path.insert(0, str(ROOT / "src"))
    import cpdhnf as cp
    from cpdhnf import regcert

    if block is not None:
        regcert._BLOCK = block
    call = case_call(cp, name, seed)
    t0 = time.perf_counter()
    value = call()
    cold_ms = 1e3 * (time.perf_counter() - t0)
    warm = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        warm.append(1e3 * (time.perf_counter() - t0))

    spent = dict.fromkeys(("rank", "per_pivot", "in_block", "beyond_block"), 0.0)
    matrix = []

    class Timed(np.ndarray):
        """The matrix _rank eliminates, and every array computed from it."""

        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            args = [x.view(np.ndarray) if isinstance(x, Timed) else x for x in inputs]
            if out is not None:
                kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, Timed) else o
                                      for o in out)
            t0 = time.perf_counter()
            result = getattr(ufunc, method)(*args, **kwargs)
            ms = 1e3 * (time.perf_counter() - t0)
            kind = None
            if ufunc is np.matmul:
                kind = ("beyond_block" if np.may_share_memory(args[1], matrix[-1])
                        else "in_block")
            elif ufunc is np.add and len(inputs) > 1:
                kind = getattr(inputs[1], "update", None)
            if kind:
                spent[kind] += ms
            if out is not None:
                return out[0]
            result = result.view(Timed)
            if ufunc is np.matmul:
                result.update = kind
            return result

    rank, row_echelon = regcert._rank, regcert._row_echelon

    def timed_rank(A, p):
        matrix.append(A)
        t0 = time.perf_counter()
        try:
            return rank(A.view(Timed), p)
        finally:
            spent["rank"] += 1e3 * (time.perf_counter() - t0)
            matrix.pop()

    def timed_row_echelon(M, p, reduced=False):
        t0 = time.perf_counter()
        try:
            return row_echelon(M, p, reduced)
        finally:
            if matrix:
                spent["per_pivot"] += 1e3 * (time.perf_counter() - t0)

    regcert._rank, regcert._row_echelon = timed_rank, timed_row_echelon
    call()
    split = {part: round(spent[part], 1)
             for part in ("per_pivot", "in_block", "beyond_block")}
    split["other"] = round(spent["rank"] - sum(split.values()), 1)
    return {
        "value": int(value) if name != "cert-sweep" else sum(c["success"] for c in value),
        "block": getattr(regcert, "_BLOCK", None),
        "cold_ms": round(cold_ms, 1),
        "warm_runs": repeats,
        "warm_median_ms": round(statistics.median(warm), 1),
        "warm_ms": [round(ms, 1) for ms in warm],
        "instrumented_rank_ms": round(spent["rank"], 1),
        "rank_split_ms": split,
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", default=",".join(CASES))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--block", type=int, default=None,
                        help="outer block width to set in the measuring processes")
    parser.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.case:
        print(json.dumps(measure(args.case, args.seed, args.repeats, args.block)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cases = {}
    for name in args.cases.split(","):
        cmd = [sys.executable, __file__, "--case", name, "--seed", str(args.seed),
               "--repeats", str(args.repeats)]
        if args.block is not None:
            cmd += ["--block", str(args.block)]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
        cases[name] = json.loads(proc.stdout)
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "blas_threads": 1,
                      "machine": platform.machine(), "python": platform.python_version(),
                      "numpy": np.__version__, "cases": cases}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
