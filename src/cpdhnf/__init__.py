"""Exact-rank CP decomposition of unbalanced third-order (and reshaped
higher-order) tensors via structured polynomial systems and eigenvalue
computations, plus finite-field certification of the degree choice."""

from .bigraded import (Bidegree, DegreePlan, MonomialBasis, certifiable_rank,
                       hilbert_dim, monomial_basis, rank_bound, select_degree)
from .config import DecomposeOptions
from .errors import (AmbiguousKernel, BasisDeficient, ConfigNotInW,
                     CorankMismatch, CpdError, DefectiveEigenvectors,
                     FlatteningRankMismatch, InsufficientMemory,
                     NoFeasibleGrouping, RankDeficientKR, RankOutOfRange)
from .linalg import khatri_rao
from .polysys import (BilinearSystem, ResultantMatrix, build_resultant,
                      evaluate, jacobian, kernel_flattening, left_nullspace)
from .normalform import (MultiplicationFamily, PreNormalForm, choose_basis,
                         make_h0, multiplication_matrices, pencil_prenormal,
                         prenormal_general, shifted_submatrix,
                         simultaneous_diagonalize)
from .recovery import (add_noise, decompose, decompose_with_info,
                       newton_refine, solve_alpha, solve_gamma)
from .regcert import (DEFAULT_PRIME, PointConfigFp, certify_regularity,
                      fp_rank, hilbert_from_points, random_config)
from .tensors import (COMPLEX, REAL, CPDecomposition, DenseTensor, Grouping,
                      backward_error, choose_grouping, cpd_eval, flatten_mode1,
                      random_cpd, rank1_factorization, reshape_group,
                      st_hosvd)
from .tensorio import read_tensor, write_tensor

__version__ = "0.1.0"
