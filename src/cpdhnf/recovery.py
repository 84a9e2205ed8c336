"""Back end of the solver: per-point recovery, Newton refinement, first-mode
factors, and the end-to-end decomposition driver."""

import operator
import time
import warnings
from contextlib import contextmanager

import numpy as np

from .bigraded import hilbert_dim, select_degree
from .config import NEWTON_RCOND, RANK_REL, SOLVE_GAP, DecomposeOptions
from .errors import (AmbiguousKernel, CpdError, RankDeficientKR, RankOutOfRange,
                     SingularJacobian)
from .linalg import khatri_rao
from .normalform import (multiplication_matrices, pencil_prenormal,
                         prenormal_general, simultaneous_diagonalize)
from .polysys import (build_resultant, check_dense_fits, evaluate, jacobian,
                      kernel_flattening, left_nullspace)
from .tensors import (REAL, CPDecomposition, add_noise,
                      backward_error, choose_grouping, flatten_mode1,
                      rank1_factorization, reshape_group, st_hosvd)

__all__ = [
    "solve_gamma", "newton_refine", "solve_alpha", "decompose",
    "decompose_with_info", "add_noise",
]


def solve_gamma(system, beta):
    """Second-point coordinates from the forms at a fixed first point.

    Stacks the rows beta^T F_j and takes the right singular vector of the
    smallest singular value; a clear gap between the two smallest singular
    values certifies the one-dimensional kernel the genericity assumption
    promises.
    """
    if system.s < 1:
        raise ValueError("need at least one form")
    beta = np.asarray(beta)
    if not np.any(beta):
        raise ValueError("zero point")
    A = np.einsum("jkl,k->jl", system.coeffs, beta)
    n1 = system.n + 1
    if system.s < system.n:
        raise AmbiguousKernel(
            f"only {system.s} forms for {n1} unknowns: kernel cannot be one-dimensional"
        )
    _, sv, vh = np.linalg.svd(A, full_matrices=True)
    if len(sv) >= n1:
        small, nxt = sv[n1 - 1], sv[n1 - 2]
    else:
        # s == n: square-ish system, kernel dimension is 1 iff full row rank
        small, nxt = 0.0, sv[-1]
    # one-dimensional kernel: exactly one singular value collapses
    if sv[0] == 0 or nxt <= RANK_REL * sv[0]:
        raise AmbiguousKernel(
            f"second-smallest singular value {nxt:.3e} vanishes: kernel has "
            "dimension greater than one"
        )
    if small > SOLVE_GAP * nxt:
        raise AmbiguousKernel(
            f"two smallest singular values {small:.3e}, {nxt:.3e} not separated"
        )
    return vh[-1, :].conj()


def newton_refine(system, beta, gamma, iters=3):
    """Gauss-Newton refinement of an approximate simple zero.

    The forms are bihomogeneous, so by Euler's relation the Jacobian J maps
    both scaling directions (b, 0) and (0, g) onto the residual, and a
    naive step merely rescales the point.  Each step therefore solves with
    the projected Jacobian J - res [b; g]^H, which is J restricted to the
    directions orthogonal to the current unit point, by least squares with
    singular values below NEWTON_RCOND * sigma_1 cut off: the projective
    Newton step.  The projected Jacobian has rank m + n exactly when the
    zero is simple.  A step is only accepted if the residual does not
    increase, keeping refinement monotone.
    """
    b = np.asarray(beta) / np.linalg.norm(beta)
    g = np.asarray(gamma) / np.linalg.norm(gamma)
    res = evaluate(system, b, g)
    rnorm = np.linalg.norm(res)
    needed = system.m + system.n
    # unit points on unit-norm forms: residuals at this level are rounding
    # noise and stepping on them only jitters the output
    floor = 10 * np.finfo(float).eps * np.sqrt(max(system.s, 1))
    for _ in range(iters):
        if rnorm <= floor:
            break
        J = jacobian(system, b, g) - np.outer(res, np.concatenate([b, g]).conj())
        delta, _, rank, _ = np.linalg.lstsq(J, res, rcond=NEWTON_RCOND)
        if rank < needed:
            raise SingularJacobian(
                f"chart Jacobian rank {rank} < {needed}: zero is not simple"
            )
        nb = b - delta[: system.m + 1]
        ng = g - delta[system.m + 1:]
        nb /= np.linalg.norm(nb)
        ng /= np.linalg.norm(ng)
        nres = evaluate(system, nb, ng)
        nnorm = np.linalg.norm(nres)
        if nnorm > rnorm:
            break
        b, g, res, rnorm = nb, ng, nres, nnorm
    return b, g


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


def _resolve_degree(options, r, mc, nc, lc):
    """Degree plan for the compressed core; returns (degree, path)."""
    if options.degree is not None:
        degree = options.degree
    elif options.path == "pencil" or (options.path == "auto" and r <= mc):
        degree = (1, 1)
    else:
        degree = select_degree(mc - 1, nc - 1, r, lc - 1, beta_independent=False).degree
    if degree != (1, 1):
        return tuple(degree), "normal-form"
    if r > mc:
        raise RankOutOfRange(f"pencil degree (1, 1) needs rank <= {mc}, got {r}")
    return (1, 1), "pencil"


def _decompose_order3(t, r, options, rng, timings, info):
    """Rank-r candidates for an order-3 tensor, as (factors, alpha residual)
    pairs; the residual is None on the rank-1 path, which fits no alphas."""
    l1, m1, n1 = t.shape
    with _stage(timings, "validation"):
        if r > min(l1, (m1 - 1) * (n1 - 1)):
            raise RankOutOfRange(
                f"rank {r} exceeds min(l+1, m*n) = {min(l1, (m1 - 1) * (n1 - 1))} "
                f"for shape {t.shape}"
            )

    with _stage(timings, "compression"):
        targets = (min(l1, r), min(m1, r), min(n1, r))
        core, us = st_hosvd(t, targets)
    if r == 1:
        info["degree_used"] = (1, 1)
        info["path"] = "rank-1"
        scale = core.data.reshape(())
        return [([us[0] * scale, us[1].copy(), us[2].copy()], None)]

    lc, mc, nc = core.shape
    with _stage(timings, "degree"):
        (d, e), path = _resolve_degree(options, r, mc, nc, lc)
    info["degree_used"] = (d, e)
    info["path"] = path

    flat = flatten_mode1(core)
    with _stage(timings, "kernel"):
        system = kernel_flattening(flat, r, (mc, nc))
    # the joint eigenvalues give the x side of the solved system; degrees
    # (1, e), the pencil's (1, 1) among them, solve the transposed forms
    # at (e, 1)
    solved, degree = (system.transposed(), (e, d)) if d == 1 else (system, (d, e))
    with _stage(timings, "cokernel"):
        # the cokernel needs a dense rows x rows buffer; when that cannot
        # fit, fail before the shift matrix is built
        check_dense_fits(hilbert_dim(solved.m, solved.n, *degree), solved.coeffs.dtype)
    with _stage(timings, "resultant"):
        res = build_resultant(solved, degree)
    with _stage(timings, "cokernel"):
        N = left_nullspace(res, r, options.kernel)
    with _stage(timings, "multiplication"):
        if path == "pencil":
            pnf = pencil_prenormal(N, solved.m, solved.n, rng=rng)
        else:
            pnf = prenormal_general(N, solved.m, solved.n, degree, rng=rng)
        info["basis_cond"] = pnf.cond
        family = multiplication_matrices(pnf)
    with _stage(timings, "diagonalization"):
        coords = simultaneous_diagonalize(family, rng=rng)
    if t.scalars == REAL:
        coords = coords.real

    # the forms restricted to each point give the other side
    with _stage(timings, "recovery"):
        xs = coords / [np.linalg.norm(c) for c in coords.T]
        ys = np.empty((solved.n + 1, r), dtype=coords.dtype)
        for i in range(r):
            ys[:, i] = solve_gamma(solved, xs[:, i])
    betas, gammas = (xs, ys) if solved is system else (ys, xs)

    # the unrefined points stay a candidate, so that refinement can never
    # degrade the returned fit
    point_sets = [(betas, gammas)]
    if options.newton_iters > 0:
        with _stage(timings, "refinement"):
            refined_b, refined_g = betas.copy(), gammas.copy()
            for i in range(r):
                b, g = newton_refine(system, betas[:, i], gammas[:, i], options.newton_iters)
                refined_b[:, i], refined_g[:, i] = b, g
        point_sets.insert(0, (refined_b, refined_g))

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


def _ungroup_factors(factors3, grouping, r):
    """Split grouped rank-1 factor columns back into per-mode vectors."""
    d = len(grouping.shape)
    out = [np.empty(0)] * d
    scales = np.ones(r, dtype=np.result_type(*[f.dtype for f in factors3]))
    for part, fac in zip(grouping.parts, factors3):
        dims = [grouping.shape[i - 1] for i in part]
        mats = [np.empty((dim, r), dtype=fac.dtype) for dim in dims]
        for i in range(r):
            sigma, vecs = rank1_factorization(fac[:, i], dims)
            scales[i] *= sigma
            for mat, v in zip(mats, vecs):
                mat[:, i] = v
        for mode, mat in zip(part, mats):
            out[mode - 1] = mat
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
            candidates = _decompose_order3(t, r, options, rng, timings, info)
        else:
            with _stage(timings, "grouping"):
                grouping = options.grouping or choose_grouping(t.shape, r)
                info["grouping"] = [list(p) for p in grouping.parts]
                t3 = reshape_group(t, grouping)
            grouped = _decompose_order3(t3, r, options, rng, timings, info)
            with _stage(timings, "recovery"):
                candidates = [(_ungroup_factors(fs, grouping, r), resid)
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
