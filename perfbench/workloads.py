"""Workload definitions: seeded instance lists and their correctness checks.

A workload yields one instance list per pass.  Pass ``j`` of workload seed
``s`` is drawn from ``SeedSequence([s, j, slot])`` for each slot, so the same
seed always gives the same inputs, while every pass solves fresh random
entries of the same shapes and ranks.  The shapes fix the work; drawing fresh
entries per pass averages over input-dependent branches (for example the
Gram eigensolver falling back to the dense SVD) instead of freezing one draw
of them into every run.

The program only receives the generated inputs: every decomposition runs with
the default ``DecomposeOptions``, every certificate with a derived seed.  The
package under test is passed in as ``cp``; the worker imports it inside its
timed set-up.
"""

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)
EXACT_BOUND = 1e-10          # backward error bound of acceptance criterion 9
PRIME = 8191


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    berr_excess_log10: float | None = None
    stages: dict | None = None


def _seed(seed, j, slot):
    return int(np.random.SeedSequence([seed, j, slot]).generate_state(1)[0])


def _reconstruct(factors):
    """Dense tensor of a CPD, evaluated independently of the package."""
    r = factors[0].shape[1]
    acc = factors[0]
    for f in factors[1:]:
        acc = (acc[:, None, :] * f[None, :, :]).reshape(-1, r)
    return acc.sum(axis=1).reshape([f.shape[0] for f in factors])


class Decomposition:
    """One ``decompose_with_info`` call on an exact-rank input, checked by the
    backward error of the returned factors."""

    def __init__(self, tensor, rank):
        self.tensor = tensor
        self.rank = rank

    def solve(self, cp):
        return cp.decompose_with_info(self.tensor, self.rank)

    def check(self, result):
        dec, info = result
        data = self.tensor.data
        berr = float(np.linalg.norm((data - _reconstruct(dec.factors)).ravel())
                     / np.linalg.norm(data.ravel()))
        ok = berr <= EXACT_BOUND
        detail = "" if ok else (f"shape {self.tensor.shape} r={self.rank}: backward "
                                f"error {berr:.3e} above {EXACT_BOUND:.0e}")
        return Outcome(ok, detail, math.log10(max(berr, 1e-300) / EPS),
                       info["stage_timings_ms"])


class Certificate:
    """One ``certify_regularity`` call, which must succeed."""

    def __init__(self, m, n, d, r, seed):
        self.args = (m, n, d, r)
        self.seed = seed

    def solve(self, cp):
        return cp.certify_regularity(*self.args, p=PRIME, trials=3, seed=self.seed)

    def check(self, cert):
        ok = bool(cert["success"])
        return Outcome(ok, "" if ok else f"certificate {self.args} failed: {cert}")


class HilbertValue:
    """One ``hilbert_from_points`` call, which must return the point count."""

    def __init__(self, config, degree, expected):
        self.config = config
        self.degree = degree
        self.expected = expected

    def solve(self, cp):
        return cp.hilbert_from_points(self.config, self.degree)

    def check(self, value):
        ok = int(value) == self.expected
        return Outcome(ok, "" if ok else (f"Hilbert value {value} at {self.degree}, "
                                          f"expected {self.expected}"))


def _decompositions(cp, cases, seed, j):
    ops = []
    for slot, (dims, r) in enumerate(cases):
        tensor, _ = cp.random_cpd(dims, r, seed=_seed(seed, j, slot))
        ops.append(Decomposition(tensor, r))
    return ops


def nf_cokernel(cp, seed, j):
    # (40,8,8) at r=39, not 40: same degree (4,1) and 2640-row Gram, but the
    # eigsh ncv escalation happens on every draw instead of on about two in three
    cases = [((20, 8, 4), 20), ((50, 10, 5), 30), ((40, 8, 8), 39)]
    return _decompositions(cp, cases, seed, j)


def _nf_small_cases(cp):
    """Accuracy-grid cells with m+1 <= 8 that need the normal-form path,
    plus one order-5 instance that goes through grouping."""
    cases = []
    for m1 in range(2, 9):
        for n1 in range(2, m1 + 1):
            m, n = m1 - 1, n1 - 1
            r = math.floor(min(cp.rank_bound(m, n, 2, 1), m * n))
            if r > m1:
                cases.append(((r, m1, n1), r))
    cases.append(((4, 4, 3, 3, 3), 16))
    return cases


def nf_small(cp, seed, j):
    return _decompositions(cp, _nf_small_cases(cp), seed, j)


def cert_sweep(cp, seed, j):
    """The 81 certificates of acceptance criterion 5, one per (m+1, n+1)."""
    ops = []
    for m1 in range(2, 11):
        for n1 in range(2, 11):
            m, n = m1 - 1, n1 - 1
            r = math.floor(min(cp.rank_bound(m, n, 2, 1), m * n))
            ops.append(Certificate(m, n, 2, r, _seed(seed, j, len(ops))))
    return ops


def cert_large(cp, seed, j):
    config = cp.random_config(6, 4, 20, p=PRIME, seed=_seed(seed, j, 0))
    return [HilbertValue(config, (3, 2), 20)]


WORKLOADS = {
    "nf-cokernel": nf_cokernel,
    "nf-small": nf_small,
    "cert-sweep": cert_sweep,
    "cert-large": cert_large,
}
