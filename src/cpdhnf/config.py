"""Tolerance and pipeline option dataclasses."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the pipeline.

    The iterative eigensolver runs at tolerance 1e-6 with 25 restarts; under
    ``kernel="auto"`` it takes over from the dense SVD at 10,000 entries and
    hands back to it, with a warning, when it cannot certify the corank.
    The remaining values are engineering defaults.  Override any per call.
    """

    # kernel extraction from the flattening
    rank_rel: float = 1e-8        # sigma_r / sigma_1 must exceed this
    kernel_sep: float = 1e2       # sigma_r / sigma_{r+1} must exceed this
    gap_rel: float = 1e-6         # sigma_{r+1}/sigma_1 above this only warns

    # left nullspace of the resultant matrix
    null_rel: float = 1e-8        # ||N R|| / ||R|| above this only warns
    # singular-value separation certifying the corank: genuine mismatches
    # show ratios near 1, while noisy instances near the rank bound can
    # legitimately drop below 1e3
    sep_ratio: float = 1e2
    eigs_tol: float = 1e-6
    eigs_maxiter: int = 25
    eigs_entry_threshold: int = 10_000   # auto uses the Gram eigensolver from here

    # basis choice and multiplication matrices
    piv_rel: float = 1e-8         # smallest/largest pivot ratio in the QR
    comm_rel: float = 1e-6        # relative commutator norm
    diag_rel: float = 1e-6        # off-diagonal residual that triggers a reseed
    diag_fail: float = 0.3        # best residual above this is a hard failure
    diag_retries: int = 3

    # per-point recovery
    solve_gap: float = 0.1        # sigma_min/sigma_next certifying a 1-dim kernel
    newton_rcond: float = 1e-12   # pseudo-inverse cutoff relative to sigma_1


DEFAULT_TOLERANCES = Tolerances()


@dataclass
class DecomposeOptions:
    """Options for :func:`cpdhnf.recovery.decompose`.

    degree    forced bidegree (d, e) >= (1, 1), or None for automatic choice
    kernel    nullspace method: "auto", "svd" or "eigs"
    path      "auto" routes ranks r <= m+1 to the pencil shortcut
    grouping  forced mode partition for tensors of order > 3
    """

    degree: tuple | None = None
    kernel: str = "auto"
    path: str = "auto"
    newton_iters: int = 3
    seed: int = 0
    grouping: object = None
    tolerances: Tolerances = field(default_factory=Tolerances)
