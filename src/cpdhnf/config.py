"""Numerical thresholds and pipeline options.

Every threshold the pipeline checks is a constant here.  The Gram
eigensolver stops within 25 steps, once the r nullspace pairs reach
relative residual 1e-6 and pair r+1, which the gap test reads, reaches
1e-3; under ``kernel="auto"`` it takes over from the dense SVD at 20,000
entries, and hands back to it, with a warning, when it cannot certify the
corank.  That crossover was measured again after the Gram route came to
apply the shift matrix through its shift table and to split it along x_0,
in three runs of ``scripts/cokernel_timings.py --crossover --seeds 101
--repeats 7`` at one BLAS thread: the SVD was faster up to 12,000 entries,
13,608 was a tie (1.30-1.44 against 1.33-1.35 ms), and the Gram
eigensolver was faster from 18,522 (1.63-1.64 against 1.79-1.81 ms).
The remaining values are engineering defaults.
"""

import operator
from dataclasses import dataclass

from .tensors import Grouping

# kernel extraction from the flattening
RANK_REL = 1e-8        # sigma_r / sigma_1 must exceed this
KERNEL_SEP = 1e2       # sigma_r / sigma_{r+1} must exceed this
GAP_REL = 1e-6         # sigma_{r+1}/sigma_1 above this only warns

# left nullspace of the resultant matrix
NULL_REL = 1e-8        # ||N R|| / ||R|| above this only warns
# singular-value separation certifying the corank: genuine mismatches
# show ratios near 1, while noisy instances near the rank bound can
# legitimately drop below 1e3
SEP_RATIO = 1e2
EIGS_TOL = 1e-6        # relative residual ||F^-1 x - mu x|| / |mu| of the r
                       # returned Ritz pairs of the block inverse iteration;
                       # pair r+1 stops at its square root
EIGS_MAXITER = 25      # step cap of the block iteration; then it gives up
EIGS_ENTRY_THRESHOLD = 20_000   # auto uses the Gram eigensolver from here

# basis choice and multiplication matrices
PIV_REL = 1e-8         # smallest/largest pivot ratio in the QR
COMM_REL = 1e-6        # relative commutator norm
DIAG_REL = 1e-6        # off-diagonal residual that triggers a reseed
DIAG_FAIL = 0.3        # best residual above this is a hard failure
DIAG_RETRIES = 3

# per-point recovery and the joint Gauss-Newton refinement
SOLVE_GAP = 0.1        # sigma_min/sigma_next certifying a 1-dim kernel
GN_DAMPING = 1e-10     # damping relative to the trace of the mode-1 block
GN_FLOOR = 2.0 ** -51  # stop at 2 eps, the least at which no measured exact run took 2 steps


@dataclass
class DecomposeOptions:
    """Options for :func:`cpdhnf.recovery.decompose`.

    degree        forced bidegree (d, e) >= (1, 1), or None for automatic choice
    kernel        nullspace method: "auto", "svd" or "eigs"
    path          "auto" routes ranks r <= m+1 to the pencil shortcut
    newton_iters  most joint Gauss-Newton steps on all factors; 0 turns them off
    seed          seed of the random combinations; fixes the result
    grouping      forced mode partition, a Grouping, for tensors of order > 3

    An unknown path or kernel, a degree below (1, 1) or contradicting the
    path ("pencil" is (1, 1), "normal-form" any other), or a negative
    newton_iters raises ValueError when the options are built; a degree
    entry or newton_iters that is not an integer, or a grouping that is not
    a Grouping, raises TypeError.
    """

    degree: tuple | None = None
    kernel: str = "auto"
    path: str = "auto"
    newton_iters: int = 3
    seed: int = 0
    grouping: Grouping | None = None

    def __post_init__(self):
        if self.path not in ("auto", "pencil", "normal-form"):
            raise ValueError(f"unknown path {self.path!r}")
        if self.kernel not in ("auto", "svd", "eigs"):
            raise ValueError(f"unknown nullspace method {self.kernel!r}")
        if self.degree is not None:
            self.degree = tuple(operator.index(x) for x in self.degree)
            if len(self.degree) != 2 or min(self.degree) < 1:
                raise ValueError("forced degree must be at least (1, 1) componentwise")
            if self.path != "auto" and (self.path == "pencil") != (self.degree == (1, 1)):
                raise ValueError(f"path {self.path!r} contradicts the forced degree {self.degree}")
        self.newton_iters = operator.index(self.newton_iters)
        if self.newton_iters < 0:
            raise ValueError(f"newton_iters must be at least 0, got {self.newton_iters}")
        if self.grouping is not None and not isinstance(self.grouping, Grouping):
            raise TypeError(f"grouping must be a Grouping, got {type(self.grouping).__name__}")
