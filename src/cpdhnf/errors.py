"""Exception hierarchy for the decomposition pipeline.

Every error raised by the pipeline derives from :class:`CpdError`.  The
``stage`` attribute is filled in by the driver's stage that raised it so
that callers (and the CLI) can report where a failure happened.
"""


class CpdError(Exception):
    """Base class for all pipeline errors."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage

    def __str__(self):
        base = super().__str__()
        if self.stage:
            return f"[{self.stage}] {base}"
        return base


class RankOutOfRange(CpdError):
    """The degree plan cannot reach the requested rank: it is above l+1,
    it is at least 2 while a mode has size 1, or it is above the rank
    bound of every degree the plan may take (m+1 for the pencil)."""


class NoFeasibleGrouping(CpdError):
    """No three-way mode partition has a grouped shape whose degree plan
    reaches the rank."""


class FlatteningRankMismatch(CpdError):
    """Singular spectrum of the mode-1 flattening contradicts the supplied rank."""


class CorankMismatch(CpdError):
    """Resultant matrix corank differs from the expected rank.

    Signals either a degree outside the regularity or a misspecified rank.
    """


class InsufficientMemory(CpdError):
    """A dense matrix the stage needs could not be allocated.

    ``nbytes`` is the estimated size of that matrix in bytes.
    """

    def __init__(self, message, nbytes, stage=None):
        super().__init__(message, stage)
        self.nbytes = nbytes


class BasisDeficient(CpdError):
    """Column-pivoted QR found fewer than r well-conditioned pivot columns."""


class DefectiveEigenvectors(CpdError):
    """Simultaneous diagonalization failed after all reseeds."""


class AmbiguousKernel(CpdError):
    """The per-point linear system does not have a one-dimensional kernel."""


class RankDeficientKR(CpdError):
    """Khatri-Rao matrix of the recovered points is rank deficient."""


class ConfigNotInW(CpdError):
    """Finite-field point configuration has linearly dependent evaluations."""
