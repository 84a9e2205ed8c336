#!/usr/bin/env python3
"""Warm timings of the certifier's Z_p Hilbert values, with their split and
peak memory.

Each case runs in a fresh process with one BLAS thread:

- ``criterion-11``: ``hilbert_from_points(random_config(5, 5, 3,
  seed=749800425), (3, 3))``, the 3136 x 14553 shift matrix that is the
  largest Hilbert value of acceptance criterion 11;
- ``cert-large``: the perfbench ``cert-large`` value of pass 0 of ``--seed``,
  ``hilbert_from_points(random_config(6, 4, 20), (3, 2))``, 1260 x 2100;
- ``cert-sweep``: pass 0 of the perfbench ``cert-sweep`` workload of
  ``--seed``, the 81 certificates of acceptance criterion 5.

The process runs its case once cold (the first call also fills lazy
caches), then ``--repeats`` times warm, and reports the warm median.  As
many more runs, with every phase timed, give the median time of each
phase (``split_ms``):

- ``kernel``: the kernel of the evaluation matrix (``_fp_kernel``),
  outside ``regcert._shift_corank``;

and, inside ``_shift_corank``,

- ``build``: the leading rows P, the columns J that lead at them, their
  dependency levels, and the scatter of the rows Q of the shift matrix
  (``_leading_split``);
- ``rank``: the elimination of S, transposed first if it is tall
  (``_rank``);
- ``solve``: the rest, which is the level-scheduled back-substitution
  that gives X in X A = R[Q, J] and then the Schur complement
  S = R[Q, K] - X R[P, K], and the cached shift-table lookup.

The same runs count the pivots of ``_row_echelon`` in the ``kernel`` and
``rank`` phases (``pivots``) and divide its median time in each phase by
them (``us_per_pivot``).

It also reports |P|, the number of dependency levels of J, |Q| and the
shape |Q| x |K| of S: of the one shift matrix of a Hilbert-value case,
and for ``cert-sweep`` the sums over its shift matrices, the most levels
of one of them and the largest S.  The process's peak resident memory is
reported too, with what it imported: ``import_s`` is the time of ``import
cpdhnf`` in the fresh process, after the script has loaded numpy, and
``scipy_loaded`` says whether any ``scipy`` module is loaded at the end of
the case.  The package is imported from the ``src`` directory next to
this script, so a copy of the script in another checkout measures that
checkout.

    python3 scripts/regcert_timings.py --repeats 3
    python3 scripts/regcert_timings.py --cases cert-sweep --seed 102
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

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CASES = ("criterion-11", "cert-large", "cert-sweep")
PHASES = {"kernel": "_fp_kernel", "build": "_leading_split", "rank": "_rank"}
ECHELON_PHASES = ("kernel", "rank")
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
            r = cp.certifiable_rank(m, n, 2)
            args.append((m, n, 2, r, _seed(seed, 0, len(args))))
    return lambda: [cp.certify_regularity(m, n, d, r, p=PRIME, trials=3, seed=s)
                    for m, n, d, r, s in args]


def _timed(spent, name, func, active):
    def timed(*args):
        active.append(name)
        t0 = time.perf_counter()
        try:
            return func(*args)
        finally:
            spent[name] += 1e3 * (time.perf_counter() - t0)
            active.pop()
    return timed


def measure(name, seed, repeats):
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import cpdhnf as cp
    import_s = time.perf_counter() - t0
    from cpdhnf import regcert

    call = case_call(cp, name, seed)
    t0 = time.perf_counter()
    value = call()
    cold_ms = 1e3 * (time.perf_counter() - t0)
    warm = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        warm.append(1e3 * (time.perf_counter() - t0))

    # the wrappers add into these dicts, which each run resets
    spent, echelon_pivots, sizes, active = {}, {}, [], []
    leading_split, row_echelon = regcert._leading_split, regcert._row_echelon

    def recorded_split(*args):
        T, entries, bounds = leading_split(*args)
        npiv = bounds[-2]
        sizes.append((npiv, len(bounds) - 2, T.shape[1], len(T) - npiv))
        return T, entries, bounds

    def counted_echelon(M, p, reduced=False):
        phase = active[-1]
        t0 = time.perf_counter()
        result = row_echelon(M, p, reduced)
        spent["echelon_" + phase] += 1e3 * (time.perf_counter() - t0)
        echelon_pivots[phase] += result[0]
        return result

    for phase, func in PHASES.items():
        inner = recorded_split if phase == "build" else getattr(regcert, func)
        setattr(regcert, func, _timed(spent, phase, inner, active))
    regcert._shift_corank = _timed(spent, "total", regcert._shift_corank, active)
    regcert._row_echelon = counted_echelon
    runs = []
    for _ in range(repeats):
        spent.update(dict.fromkeys(["total", *PHASES], 0.0))
        spent.update(("echelon_" + phase, 0.0) for phase in ECHELON_PHASES)
        echelon_pivots.update(dict.fromkeys(ECHELON_PHASES, 0))
        sizes.clear()
        call()
        runs.append(dict(spent))
    spent = {key: statistics.median(run[key] for run in runs) for key in spent}
    split = {phase: round(spent[phase], 1) for phase in PHASES}
    split["solve"] = round(spent["total"] - spent["build"] - spent["rank"], 1)
    pivots, levels, q_rows, k_cols = (int(x) for x in np.sum(sizes, axis=0))
    largest = max(sizes, key=lambda size: size[2] * size[3])
    return {
        "value": int(value) if name != "cert-sweep" else sum(c["success"] for c in value),
        "cold_ms": round(cold_ms, 1),
        "warm_runs": repeats,
        "warm_median_ms": round(statistics.median(warm), 1),
        "warm_ms": [round(ms, 1) for ms in warm],
        "shift_corank_ms": round(spent["total"], 1),
        "split_ms": split,
        "pivots": echelon_pivots,
        "us_per_pivot": {phase: round(1e3 * spent["echelon_" + phase]
                                      / max(1, echelon_pivots[phase]), 2)
                         for phase in ECHELON_PHASES},
        "shift_matrices": len(sizes),
        "P": pivots,
        "levels": levels,
        "max_levels": max(size[1] for size in sizes),
        "Q": q_rows,
        "S": [q_rows, k_cols],
        "largest_S": list(largest[2:]),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "import_s": round(import_s, 3),
        "scipy_loaded": any(mod.partition(".")[0] == "scipy" for mod in sys.modules),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", default=",".join(CASES))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--case", choices=CASES, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.case:
        print(json.dumps(measure(args.case, args.seed, args.repeats)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cases = {}
    for name in args.cases.split(","):
        cmd = [sys.executable, __file__, "--case", name, "--seed", str(args.seed),
               "--repeats", str(args.repeats)]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
        cases[name] = json.loads(proc.stdout)
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "blas_threads": 1,
                      "machine": platform.machine(), "python": platform.python_version(),
                      "numpy": np.__version__, "cases": cases}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
