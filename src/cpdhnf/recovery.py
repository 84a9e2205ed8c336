"""Back end of the solver: per-point recovery and Newton refinement, with
all points as the columns of stacked calls, first-mode factors, and the
end-to-end decomposition driver."""

import operator
import time
import warnings
from contextlib import contextmanager

import numpy as np

from .bigraded import check_rank, select_degree
from .config import NEWTON_RCOND, RANK_REL, SOLVE_GAP, DecomposeOptions
from .errors import (AmbiguousKernel, BasisDeficient, CpdError, RankDeficientKR,
                     SingularJacobian)
from .linalg import khatri_rao
from .normalform import (multiplication_matrices, prenormal_general,
                         simultaneous_diagonalize)
from .polysys import (build_resultant, check_dense_fits, evaluate, jacobian,
                      kernel_flattening, left_nullspace)
from .tensors import (REAL, CPDecomposition, add_noise,
                      backward_error, choose_grouping, flatten_mode1,
                      rank1_factorization, reshape_group, st_hosvd)

__all__ = [
    "solve_gamma", "newton_refine", "solve_alpha", "decompose",
    "decompose_with_info", "add_noise",
]


def solve_gamma(system, betas):
    """Second-point coordinates from the forms at fixed first points.

    Points are columns: betas (m+1, k) give gammas (n+1, k), and a 1-D
    beta is the k = 1 case.  For each point the rows beta^T F_j are
    stacked, and the right singular vector of the smallest singular value
    is its gamma; a clear gap between the two smallest singular values
    certifies the one-dimensional kernel the genericity assumption
    promises.  One stacked SVD serves all points, and an AmbiguousKernel
    names the first point that fails.
    """
    if system.s < 1:
        raise ValueError("need at least one form")
    betas = np.asarray(betas)
    cols = betas.reshape(len(betas), -1)
    if not np.all(np.any(cols, axis=0)):
        raise ValueError("zero point")
    n1 = system.n + 1
    if system.s < system.n:
        raise AmbiguousKernel(
            f"only {system.s} forms for {n1} unknowns: kernel cannot be one-dimensional"
        )
    # at s == n the kernel vector is the row that only the full V holds
    _, sv, vh = np.linalg.svd(np.einsum("jkl,ki->ijl", system.coeffs, cols),
                              full_matrices=system.s < n1)
    if sv.shape[1] >= n1:
        small, nxt = sv[:, n1 - 1], sv[:, n1 - 2]
    else:
        # s == n: square-ish system, kernel dimension is 1 iff full row rank
        small, nxt = np.zeros(len(sv)), sv[:, -1]
    # one-dimensional kernel: exactly one singular value collapses
    vanishes = (sv[:, 0] == 0) | (nxt <= RANK_REL * sv[:, 0])
    failed = vanishes | (small > SOLVE_GAP * nxt)
    if failed.any():
        i = int(np.argmax(failed))
        raise AmbiguousKernel(
            f"point {i}: second-smallest singular value {nxt[i]:.3e} vanishes: kernel "
            "has dimension greater than one" if vanishes[i] else
            f"point {i}: two smallest singular values {small[i]:.3e}, {nxt[i]:.3e} "
            "not separated"
        )
    return vh[:, -1, :].T.conj().reshape((n1,) + betas.shape[1:])


def newton_refine(system, betas, gammas, iters=3):
    """Gauss-Newton refinement of approximate simple zeros.

    Points are columns, (m+1, k) and (n+1, k); 1-D vectors are the k = 1
    case.  The forms are bihomogeneous, so by Euler's relation the
    Jacobian J maps both scaling directions (b, 0) and (0, g) onto the
    residual, and a naive step merely rescales the point.  Each step
    therefore solves with the projected Jacobian J - res [b; g]^H, which
    is J restricted to the directions orthogonal to the current unit
    point, by least squares with singular values at or below
    NEWTON_RCOND * sigma_1 cut off: the projective Newton step.  The
    projected Jacobian has rank m + n exactly when the zero is simple.  A
    step is only accepted if the residual does not increase, keeping
    refinement monotone.  A point stops at its first rejected step or
    once its residual reaches the rounding floor; every step takes the
    points still moving through one stacked SVD.
    """
    shape = np.shape(betas), np.shape(gammas)
    dtype = np.result_type(betas, gammas, system.coeffs, float)
    b = np.asarray(betas, dtype).reshape(shape[0][0], -1)
    g = np.asarray(gammas, dtype).reshape(shape[1][0], -1)
    b = b / np.linalg.norm(b, axis=0)
    g = g / np.linalg.norm(g, axis=0)
    res = evaluate(system, b, g)
    rnorm = np.linalg.norm(res, axis=0)
    needed = system.m + system.n
    # unit points on unit-norm forms: residuals at this level are rounding
    # noise and stepping on them only jitters the output
    floor = 10 * np.finfo(float).eps * np.sqrt(max(system.s, 1))
    moving = np.ones(b.shape[1], dtype=bool)
    for _ in range(iters):
        moving &= rnorm > floor
        idx = np.flatnonzero(moving)
        if len(idx) == 0:
            break
        bi, gi, ri = b[:, idx], g[:, idx], res[:, idx].T
        point = np.concatenate([bi, gi]).T.conj()
        J = jacobian(system, bi, gi) - ri[:, :, None] * point[:, None, :]
        u, sv, vh = np.linalg.svd(J, full_matrices=False)
        kept = sv > NEWTON_RCOND * sv[:, :1]
        rank = kept.sum(axis=1)
        if np.any(rank < needed):
            i = int(np.argmax(rank < needed))
            raise SingularJacobian(
                f"point {idx[i]}: chart Jacobian rank {rank[i]} < {needed}: "
                "zero is not simple"
            )
        proj = (ri[:, None, :] @ u.conj())[:, 0]
        coef = np.divide(proj, sv, out=np.zeros_like(proj), where=kept)
        delta = (coef[:, None, :] @ vh.conj())[:, 0].T
        nb = bi - delta[: system.m + 1]
        ng = gi - delta[system.m + 1:]
        nb /= np.linalg.norm(nb, axis=0)
        ng /= np.linalg.norm(ng, axis=0)
        nres = evaluate(system, nb, ng)
        nnorm = np.linalg.norm(nres, axis=0)
        taken = nnorm <= rnorm[idx]
        moving[idx[~taken]] = False
        step = idx[taken]
        b[:, step], g[:, step] = nb[:, taken], ng[:, taken]
        res[:, step], rnorm[step] = nres[:, taken], nnorm[taken]
    return b.reshape(shape[0]), g.reshape(shape[1])


def solve_alpha(flat, betas, gammas):
    """First-mode factors by least squares against the flattening.

    Solves K A = flat^T for the Khatri-Rao matrix K of the recovered point
    coordinates.  Returns (alphas, relative residual).
    """
    K = khatri_rao([np.asarray(betas), np.asarray(gammas)])
    r = K.shape[1]
    if r > K.shape[0]:
        raise RankDeficientKR(f"rank {r} exceeds the {K.shape[0]} Khatri-Rao rows")
    sol, _, rank, _ = np.linalg.lstsq(K, np.asarray(flat).T, rcond=None)
    if rank < r:
        raise RankDeficientKR(f"Khatri-Rao matrix rank {rank} < {r}")
    scale = np.linalg.norm(flat)
    resid = np.linalg.norm(K @ sol - np.asarray(flat).T) / scale if scale else 0.0
    return sol.T, float(resid)


@contextmanager
def _stage(timings, name):
    """Time the block under ``name``; a CpdError raised in it without a
    stage is tagged with ``name`` (an inner stage tags first)."""
    start = time.perf_counter()
    try:
        yield
    except CpdError as exc:
        if exc.stage is None:
            exc.stage = name
        raise
    timings[name] = timings.get(name, 0.0) + (time.perf_counter() - start) * 1e3


def _decompose_order3(t, r, options, rng, timings, info):
    """Rank-r candidates for an order-3 tensor, as (factors, alpha residual)
    pairs; the residual is None on the rank-1 path, which fits no alphas."""
    with _stage(timings, "validation"):
        check_rank(t.shape, r)
    # st_hosvd compresses to exactly these targets, so the plan and its
    # memory check run before any arithmetic
    targets = tuple(min(dim, r) for dim in t.shape)
    if r > 1:
        lc, mc, nc = targets
        with _stage(timings, "degree"):
            plan = select_degree(mc - 1, nc - 1, r, lc - 1, options.degree, options.path)
        info["degree_used"] = tuple(plan.degree)
        info["path"] = plan.path
        with _stage(timings, "cokernel"):
            # the cokernel needs a dense rows x rows buffer
            check_dense_fits((plan.rows, plan.rows), t.data.dtype)

    with _stage(timings, "compression"):
        core, us = st_hosvd(t, targets)
    if r == 1:
        info["degree_used"] = (1, 1)
        info["path"] = "rank-1"
        scale = core.data.reshape(())
        return [([us[0] * scale, us[1].copy(), us[2].copy()], None)]

    flat = flatten_mode1(core)
    with _stage(timings, "kernel"):
        system = kernel_flattening(flat, r, (mc, nc))
    # the joint eigenvalues give the x side of the solved system; degrees
    # (1, e), the pencil's (1, 1) among them, solve the transposed forms
    # at (e, 1)
    d, e = plan.degree
    solved, degree = (system.transposed(), (e, d)) if d == 1 else (system, (d, e))
    with _stage(timings, "resultant"):
        res = build_resultant(solved, degree)
    with _stage(timings, "cokernel"):
        N = left_nullspace(res, r, options.kernel)
    with _stage(timings, "multiplication"):
        try:
            pnf = prenormal_general(N, solved.m, solved.n, degree, rng=rng)
        except BasisDeficient:
            # a drawn combination close to vanishing at a point leaves the
            # basis deficient; one more draw from rng comes before giving up
            pnf = prenormal_general(N, solved.m, solved.n, degree, rng=rng)
        info["basis_cond"] = pnf.cond
        family = multiplication_matrices(pnf)
    with _stage(timings, "diagonalization"):
        coords = simultaneous_diagonalize(family, rng=rng)
    if t.scalars == REAL:
        coords = coords.real

    # the forms restricted to each point give the other side
    with _stage(timings, "recovery"):
        xs = coords / np.linalg.norm(coords, axis=0)
        ys = solve_gamma(solved, xs)
    betas, gammas = (xs, ys) if solved is system else (ys, xs)

    # the unrefined points stay a candidate, so that refinement can never
    # degrade the returned fit
    point_sets = [(betas, gammas)]
    if options.newton_iters > 0:
        with _stage(timings, "refinement"):
            point_sets.insert(0, newton_refine(system, betas, gammas, options.newton_iters))

    candidates, error = [], None
    with _stage(timings, "recovery"):
        for bs, gs in point_sets:
            try:
                alphas, resid = solve_alpha(flat, bs, gs)
            except RankDeficientKR as exc:
                error = error or exc
                continue
            candidates.append(([us[0] @ alphas, us[1] @ bs, us[2] @ gs], resid))
        if not candidates:
            raise error
    return candidates


def _ungroup_factors(factors3, grouping):
    """Split grouped rank-1 factor columns back into per-mode vectors."""
    out = [None] * len(grouping.shape)
    scales = 1.0
    for part, fac in zip(grouping.parts, factors3):
        sigma, vecs = rank1_factorization(fac, [grouping.shape[i - 1] for i in part])
        scales = scales * sigma
        for mode, vec in zip(part, vecs):
            out[mode - 1] = vec
    out[0] = out[0] * scales
    return out


def decompose_with_info(t, r, options=None):
    """Full decomposition pipeline; returns (CPDecomposition, info dict).

    info carries the degree used, the path taken, the backward error and
    the alpha residual of the returned candidate (None on the rank-1 path),
    the basis condition number, per-stage timings in milliseconds, and any
    warnings raised along the way.  A CpdError carries the stage that
    raised it.  A rank that is not an integer raises TypeError, one below 1
    ValueError.  Deterministic for fixed options.seed.
    """
    if operator.index(r) < 1:
        raise ValueError(f"rank must be positive, got {r}")
    options = options or DecomposeOptions()
    rng = np.random.default_rng(options.seed)
    timings = {}
    info = {"seed": options.seed, "warnings": []}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if t.order < 3:
            raise ValueError("decompose expects a tensor of order >= 3")
        if t.order == 3:
            if options.grouping is not None:
                raise ValueError("grouping applies to tensors of order >= 4")
            candidates = _decompose_order3(t, r, options, rng, timings, info)
        else:
            with _stage(timings, "grouping"):
                grouping = options.grouping or choose_grouping(t.shape, r)
                info["grouping"] = [list(p) for p in grouping.parts]
                t3 = reshape_group(t, grouping)
            grouped = _decompose_order3(t3, r, options, rng, timings, info)
            with _stage(timings, "recovery"):
                candidates = [(_ungroup_factors(fs, grouping), resid)
                              for fs, resid in grouped]
        # return whichever candidate fits the input best in the final metric
        best = None
        for factors, resid in candidates:
            dec = CPDecomposition(factors).normalize()
            err = backward_error(t, dec)
            if best is None or err < best[1]:
                best = (dec, err, resid)
        dec, info["backward_error"], info["alpha_residual"] = best
    info["warnings"] = [str(w.message) for w in caught]
    info["stage_timings_ms"] = {k: round(v, 3) for k, v in timings.items()}
    return dec, info


def decompose(t, r, options=None):
    """Compute a rank-r CPD of a tensor of order >= 3.

    Tensors of order above three are reshaped through an automatically
    chosen mode grouping and the grouped rank-1 factors are split back
    afterwards.  The returned decomposition follows the normalization
    convention (unit non-first-mode columns, scale in mode 1).
    """
    return decompose_with_info(t, r, options)[0]
