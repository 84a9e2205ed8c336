#!/usr/bin/env python3
"""Record and compare the results of a fixed decomposition run set.

``record`` decomposes a fixed set of runs (configurations x seeds 0-2 x
real/complex) and saves, per run, the returned factors and ``info`` with
the timings dropped (only the names of the timed stages are kept), or the
type, stage and message of the ``CpdError`` it raised.  The set covers the
automatic degrees, forced degrees and paths, both nullspace methods (on
the normal form and on the pencil), shift matrices at the rank bound, noisy
inputs, refinement off, orders 4 and 5, rank 1 and every typed failure
``decompose`` tags with a stage.  It also saves a fixed set of certifier
outcomes, which are exact: the 81 degree-2 certificates of acceptance
criterion 5 and the Hilbert values of
(m, n, r) = (6, 4, 20) at degree (3, 2) (seeds 0-2) and of criterion 11's
(5, 5, 3) cell at degree (3, 3).
The package is imported from the ``src`` directory next to this script, so
a copy of the script in another checkout records that checkout.

``compare`` reads two recordings and prints which runs are identical, the
largest relative factor difference, the backward errors of the runs that
differ, the runs whose backward error rose, the info keys that differ,
any error run whose type, stage or message changed, and every certifier
outcome that changed.  A run whose factors differ by more than 1e-12 has
its columns matched, and one that is the same CPD with its rank-1 terms
reordered is reported as the same up to a column permutation, with the
factor difference after matching.

    python3 scripts/fingerprint.py record --output before.npz
    python3 scripts/fingerprint.py compare before.npz after.npz
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# name: (shape, rank, DecomposeOptions fields, noise exponent or None); a
# rank (t, r) decomposes a rank-t instance at rank r
RUNS = {
    "nf-12x7x3-r12": ((12, 7, 3), 12, {}, None),
    "nf-10x6x4-r8": ((10, 6, 4), 8, {}, None),
    "nf-8x5x4-r6": ((8, 5, 4), 6, {}, None),
    "nf-20x8x4-r20": ((20, 8, 4), 20, {}, None),
    "nf-50x10x5-r30": ((50, 10, 5), 30, {}, None),
    "nf-12x7x3-r12-noisy": ((12, 7, 3), 12, {}, -10),
    # at the rank bound: shift matrices with exactly r more rows than
    # columns, one above the Gram route's entry count and one noisy
    "bound-32x8x8-r32": ((32, 8, 8), 32, {}, None),
    "bound-21x7x6-r21-noisy": ((21, 7, 6), 21, {}, -8),
    "pencil-9x6x5-r5": ((9, 6, 5), 5, {}, None),
    "pencil-20x8x4-r8-noisy": ((20, 8, 4), 8, {}, -8),
    "degree-1x5": ((12, 7, 3), 12, {"degree": (1, 5)}, None),
    "degree-4x1": ((12, 7, 3), 12, {"degree": (4, 1)}, None),
    "degree-1x1": ((9, 6, 5), 5, {"degree": (1, 1)}, None),
    # the (3, 3, 2) core of (5, 6, 2) has m*n = 2 < 3, as the (6, 2, 6) core
    # of (6, 2, 8) has 5 < 6; the rank bounds of their degrees still reach r
    "degree-2x1-n2": ((5, 6, 2), 3, {"degree": (2, 1)}, None),
    "core-below-mn-5x6x2-nf": ((5, 6, 2), 3, {"path": "normal-form"}, None),
    "core-below-mn-6x2x8": ((6, 2, 8), 6, {}, None),
    "path-normal-form": ((9, 6, 5), 5, {"path": "normal-form"}, None),
    # a mode of size 2 leaves m*n one below r, which the pencil or the rank
    # bound of the planned degree still reaches
    "pencil-6x6x2-r6": ((6, 6, 2), 6, {}, None),
    "pencil-2x2x2-r2": ((2, 2, 2), 2, {}, None),
    "nf-6x2x6-r6": ((6, 2, 6), 6, {}, None),
    "order4-4x2x2x2-r4": ((4, 2, 2, 2), 4, {}, None),
    "kernel-svd": ((20, 8, 4), 20, {"kernel": "svd"}, None),
    "kernel-eigs": ((12, 7, 3), 12, {"kernel": "eigs"}, None),
    "pencil-kernel-eigs": ((9, 6, 5), 5, {"kernel": "eigs"}, None),
    "newton-0": ((12, 7, 3), 12, {"newton_iters": 0}, None),
    "order4": ((4, 4, 3, 3), 6, {}, None),
    "order5": ((5, 5, 4, 4, 4), 20, {}, None),
    # noisy inputs that the recovered factors fit well above the noise level
    "order5-noisy": ((4, 4, 3, 3, 3), 16, {}, -10),
    "nf-50x10x5-r10-e15": ((50, 10, 5), 10, {}, -15),
    "rank1": ((6, 5, 4), 1, {}, None),
    # r above l+1: the degree plan rejects it before any arithmetic
    "error-degree-range": ((5, 4, 3), 20, {}, None),
    "error-degree": ((9, 6, 5), 8, {"path": "pencil"}, None),
    "error-cokernel-corank": ((12, 7, 3), 12, {"degree": (2, 1)}, None),
    "error-kernel": ((8, 5, 4), (6, 7), {}, None),
    "error-cokernel-noisy": ((8, 5, 4), 6, {}, -1),
    "error-cokernel-memory": ((60, 15, 5), 55, {}, None),
    "error-grouping": ((4, 4, 3, 3, 3), 20, {}, None),
}
SEEDS = (0, 1, 2)
FIELDS = ("real", "complex")
# (m, n, r, degree, configuration seed); the last is the largest Hilbert
# value of acceptance criterion 11, a 3136 x 14553 shift matrix
HILBERT_VALUES = [(6, 4, 20, (3, 2), seed) for seed in SEEDS] + [(5, 5, 3, (3, 3), 749800425)]


def run_one(shape, r, fields, e, seed, scalars):
    from cpdhnf import CpdError, DecomposeOptions, decompose_with_info, random_cpd
    from cpdhnf.recovery import add_noise

    true_rank, r = r if isinstance(r, tuple) else (r, r)
    t, _ = random_cpd(shape, true_rank, seed=seed, scalars=scalars)
    if e is not None:
        t = add_noise(t, e, seed=1000 + seed)
    try:
        dec, info = decompose_with_info(t, r, DecomposeOptions(seed=seed, **fields))
    except CpdError as exc:
        return None, {"error": {"type": type(exc).__name__, "stage": exc.stage,
                                "message": str(exc)}}
    info = dict(info)
    info["stage_keys"] = sorted(info.pop("stage_timings_ms"))
    return dec.factors, info


def certifier_outcomes():
    from cpdhnf import certifiable_rank, certify_regularity, hilbert_from_points, random_config

    outcomes = {}
    for m1 in range(2, 11):
        for n1 in range(2, 11):
            m, n = m1 - 1, n1 - 1
            r = certifiable_rank(m, n, 2)
            outcomes[f"certificate/{m},{n},2,{r}"] = certify_regularity(
                m, n, 2, r, p=8191, trials=3, seed=0)
    for m, n, r, degree, seed in HILBERT_VALUES:
        value = hilbert_from_points(random_config(m, n, r, seed=seed), degree)
        outcomes[f"hilbert/{m},{n},{r}/{degree[0]},{degree[1]}/{seed}"] = int(value)
    return outcomes


def record(output):
    sys.path.insert(0, str(ROOT / "src"))
    arrays, meta = {}, {}
    for name, (shape, r, fields, e) in RUNS.items():
        for scalars in FIELDS:
            for seed in SEEDS:
                key = f"{name}/{scalars}/{seed}"
                factors, info = run_one(shape, r, fields, e, seed, scalars)
                meta[key] = info
                for k, f in enumerate(factors or []):
                    arrays[f"{key}/{k}"] = f
    certifier = certifier_outcomes()
    np.savez(output, meta=json.dumps(meta), certifier=json.dumps(certifier), **arrays)
    print(f"{len(meta)} runs and {len(certifier)} certifier outcomes recorded in {output}")


def load(path):
    data = np.load(path)
    meta = json.loads(str(data["meta"]))
    certifier = json.loads(str(data["certifier"])) if "certifier" in data.files else {}
    factors = {key: [] for key in meta}
    for name in data.files:
        if name not in ("meta", "certifier"):
            key, _, k = name.rpartition("/")
            factors[key].append((int(k), data[name]))
    return meta, certifier, {key: [f for _, f in sorted(fs, key=lambda p: p[0])]
                             for key, fs in factors.items()}


def compare_certifier(cert_a, cert_b):
    """Prints every certifier outcome that differs; returns their count."""
    keys = sorted(set(cert_a) | set(cert_b))
    changed = [k for k in keys if cert_a.get(k) != cert_b.get(k)]
    print(f"{len(keys)} certifier outcomes compared, {len(changed)} changed")
    for key in changed:
        print(f"  certifier changed {key}: {cert_a.get(key)} -> {cert_b.get(key)}")
    return len(changed)


def column_permutation(fac_a, fac_b):
    """Matches the columns of two normalized factor sets; returns the
    permutation perm with fac_b[k][:, perm] closest to fac_a[k] and the
    largest relative factor difference after it."""
    from scipy.optimize import linear_sum_assignment

    cost = np.zeros((fac_a[0].shape[1], fac_b[0].shape[1]))
    for x, y in zip(fac_a, fac_b):
        cost = np.maximum(cost, np.linalg.norm(x[:, :, None] - y[:, None, :], axis=0)
                          / np.linalg.norm(x, axis=0)[:, None])
    perm = linear_sum_assignment(cost)[1]
    rel = max(float(np.linalg.norm(x - y[:, perm]) / np.linalg.norm(x))
              for x, y in zip(fac_a, fac_b))
    return perm, rel


def compare(path_a, path_b):
    meta_a, cert_a, fac_a = load(path_a)
    meta_b, cert_b, fac_b = load(path_b)
    keys = [k for k in meta_a if k in meta_b]
    missing = sorted(set(meta_a) ^ set(meta_b))
    identical, differ, errors_changed = [], [], []
    worst = (0.0, None)
    for key in keys:
        ia, ib = meta_a[key], meta_b[key]
        if "error" in ia or "error" in ib:
            if ia.get("error") == ib.get("error"):
                identical.append(key)
            else:
                errors_changed.append((key, ia.get("error"), ib.get("error")))
            continue
        same_factors = all(np.array_equal(x, y) for x, y in zip(fac_a[key], fac_b[key]))
        info_keys = sorted(k for k in set(ia) | set(ib)
                           if k not in ia or k not in ib or ia[k] != ib[k])
        if same_factors and not info_keys:
            identical.append(key)
            continue
        rel = max(float(np.linalg.norm(x - y) / np.linalg.norm(x))
                  for x, y in zip(fac_a[key], fac_b[key]))
        if rel > worst[0]:
            worst = (rel, key)
        differ.append((key, same_factors, rel, info_keys,
                       ia.get("backward_error"), ib.get("backward_error")))

    print(f"{len(keys)} runs compared, {len(identical)} identical, "
          f"{len(differ)} differ, {len(errors_changed)} error runs changed")
    if missing:
        print(f"runs in only one recording: {', '.join(missing)}")
    print(f"largest relative factor difference: {worst[0]:.3e}"
          + (f" ({worst[1]})" if worst[1] else ""))
    rose = [key for key, _, _, _, berr_a, berr_b in differ
            if berr_a is not None and berr_b is not None and berr_b > berr_a]
    print(f"{len(rose)} runs with a higher backward error"
          + (f": {', '.join(rose)}" if rose else ""))
    by_keys = {}
    for _, same, _, info_keys, _, _ in differ:
        label = ("factors identical" if same else "factors differ") \
            + "; info differs in: " + (", ".join(info_keys) or "nothing")
        by_keys[label] = by_keys.get(label, 0) + 1
    for label, count in sorted(by_keys.items()):
        print(f"  {count:4d} runs: {label}")
    for key, same, rel, info_keys, berr_a, berr_b in differ:
        if not same or "backward_error" in info_keys:
            print(f"  {key}: factor diff {rel:.3e}, backward error "
                  f"{berr_a:.4e} -> {berr_b:.4e}")
        # two joint eigenvalues that come out in the other order reorder
        # the rank-1 terms, which reads as an O(1) factor difference
        if rel > 1e-12:
            perm, matched = column_permutation(fac_a[key], fac_b[key])
            if np.any(perm != np.arange(len(perm))):
                print(f"    same up to a column permutation {perm.tolist()}: "
                      f"factor diff {matched:.3e} after matching")
    for key, ea, eb in errors_changed:
        print(f"  error changed {key}: {ea} -> {eb}")
    certifier_changed = compare_certifier(cert_a, cert_b)
    return 1 if errors_changed or missing or certifier_changed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run the set and save its results")
    rec.add_argument("--output", required=True)
    cmp_ = sub.add_parser("compare", help="compare two recordings")
    cmp_.add_argument("before")
    cmp_.add_argument("after")
    args = parser.parse_args()
    if args.cmd == "record":
        record(args.output)
        return 0
    return compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
