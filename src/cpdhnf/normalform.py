"""Pre-normal forms and multiplication matrices.

A pre-normal form is a rank-r map on a graded piece whose kernel is the
ideal's piece in that degree.  Restricting it to a well-conditioned column
subset turns multiplication by degree-raising polynomials into commuting
r x r matrices whose joint eigenvalues are homogeneous coordinates of the
solution points; at degree (1, 1) this is the classical pencil method.
Every pull-back along a shift, and the shift of each h-monomial by
each x-variable in the multiplication maps, reads its columns from
``bigraded.shift_table``, where the monomial order lives.  scipy is
imported in the functions that call it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .bigraded import Bidegree, hilbert_dim, monomial_basis, shift_table
from .config import COMM_REL, DIAG_FAIL, DIAG_REL, DIAG_RETRIES, PIV_REL
from .errors import BasisDeficient, DefectiveEigenvectors


def shifted_submatrix(N, m, n, degree, shift):
    """Columns of N pulled back along multiplication by x^{a'} y^{b'}.

    Column (k, l) of the result is the column of N at the monomial
    x^{a'+e_k} y^{b'+e_l}; pairs (k, l) run row-major.
    """
    d, e = degree
    row = monomial_basis(m, n, (d - 1, e - 1)).index_of(*shift)
    return N[:, shift_table(m, n, (d, e))[row]]


def _split_degree(degree):
    """Degrees of the pivot columns and of h in the degree-(d, e) form.

    The pivots are the x_k y_l when d >= 2 and the y_l at (1, 1).  h0 has
    the rest of the degree and h one x-degree less, so h is 1 at (2, 1)
    and (1, 1).
    """
    d, e = degree
    if d >= 2:
        columns = Bidegree(1, 1)
    elif (d, e) == (1, 1):
        columns = Bidegree(0, 1)
    else:
        raise ValueError(f"pre-normal form needs x-degree >= 2 or degree (1, 1), got {(d, e)}")
    return columns, Bidegree(d - columns.d - 1, e - columns.e)


def make_h0(N, m, n, degree, rng=None, coeffs=None):
    """Random (or caller-supplied) combination of the shifted submatrices.

    One coefficient per monomial of h0's degree.  Coefficients are i.i.d.
    standard normal; with probability one the corresponding polynomial
    does not vanish at any solution point.  A bad draw surfaces downstream
    as a pivot-rank deficiency.
    """
    table = shift_table(m, n, degree, _split_degree(degree)[0])
    if coeffs is None:
        if rng is None:
            raise ValueError("need rng when no coefficients are supplied")
        coeffs = rng.standard_normal(len(table))
    coeffs = np.asarray(coeffs)
    if len(coeffs) != len(table):
        raise ValueError("one coefficient per shift monomial required")
    return coeffs, np.tensordot(coeffs, N[:, table], axes=([0], [1]))


@dataclass
class PreNormalForm:
    """Pre-normal form with a chosen pivot basis.

    Its multiplication family acts by the x-variables, so the joint
    eigenvalues are x-coordinates of the points.  ``h`` holds the
    coefficients of the auxiliary polynomial, one x-degree below h0; it is
    the constant 1 at (2, 1) and at the pencil's (1, 1).  ``tri`` holds the
    full triangular QR factor; the leading r columns are the invertible
    restriction to the pivot basis.
    """

    N: np.ndarray
    m: int
    n: int
    degree: Bidegree
    h0: np.ndarray
    h: np.ndarray
    q: np.ndarray
    tri: np.ndarray
    pivots: np.ndarray
    cond: float

    @property
    def r(self):
        return self.N.shape[0]

    @property
    def basis(self):
        return self.pivots[: self.r]


def choose_basis(n_h0):
    """Column-pivoted QR picking r well-conditioned basis columns.

    Raises BasisDeficient when the r-th pivot collapses, which flags a
    combination vanishing at a solution point or a rank misspecification.
    """
    import scipy.linalg
    r = n_h0.shape[0]
    if n_h0.shape[1] < r:
        raise BasisDeficient(
            f"need at least {r} columns to pick a basis, found {n_h0.shape[1]}"
        )
    q, tri, piv = scipy.linalg.qr(n_h0, mode="economic", pivoting=True)
    diag = np.abs(np.diagonal(tri)[:r])
    if diag[0] == 0 or diag[-1] / diag[0] < PIV_REL:
        raise BasisDeficient(
            f"pivot ratio {0.0 if diag[0] == 0 else diag[-1] / diag[0]:.2e} below "
            f"{PIV_REL:.0e}: restricted map is numerically singular"
        )
    cond = float(np.linalg.cond(tri[:, :r]))
    return q, tri, piv, cond


def prenormal_general(N, m, n, degree, rng=None, h0_coeffs=None):
    """Assemble the degree-(d, e) pre-normal form from a left nullspace.

    Takes d >= 2 or (1, 1); callers solve (1, e) on the transposed system
    at (e, 1).  h is drawn from rng unless it is the constant 1.  At
    (1, 1), the pencil, the pivots are y-variables, and a pivot failure
    reports y-side points that are not linearly independent.
    """
    h0, n_h0 = make_h0(N, m, n, degree, rng=rng, coeffs=h0_coeffs)
    q, tri, piv, cond = choose_basis(n_h0)
    h_degree = _split_degree(degree)[1]
    h = np.ones(1) if h_degree == (0, 0) else rng.standard_normal(hilbert_dim(m, n, *h_degree))
    return PreNormalForm(N, m, n, Bidegree(*degree), h0, h, q, tri, np.asarray(piv), cond)


def pencil_prenormal(N, m, n, rng=None, h0_coeffs=None):
    """The pencil: ``prenormal_general`` at (1, 1), for ranks r <= n+1."""
    return prenormal_general(N, m, n, (1, 1), rng=rng, h0_coeffs=h0_coeffs)


@dataclass
class MultiplicationFamily:
    """Commuting r x r matrices, one per x-variable."""

    matrices: np.ndarray  # shape (count, r, r)

    def __len__(self):
        return self.matrices.shape[0]

    def commutation_residual(self):
        """max ||M_i M_j - M_j M_i||_F / (||M_i||_F ||M_j||_F)."""
        mats = self.matrices
        i, j = np.triu_indices(len(mats), 1)
        norms = np.linalg.norm(mats, axis=(1, 2))
        comm = mats[i] @ mats[j] - mats[j] @ mats[i]
        return _worst_ratio(np.linalg.norm(comm, axis=(1, 2)), norms[i] * norms[j])


def _worst_ratio(num, denom):
    """The largest num / denom over the nonzero denominators, else 0."""
    nonzero = denom > 0
    return float(np.max(num[nonzero] / denom[nonzero], initial=0.0))


def multiplication_matrices(pnf):
    """Form the family M_k = (restricted h0-map)^{-1} (restricted g_k-map).

    g_k = h * x_k has h0's degree, and k runs over the m+1 x-variables.
    The maps of all k side by side form one r x (m+1)r right-hand side, so
    one back-substitution against the triangular factor, which is never
    inverted explicitly, gives the whole family.
    """
    import scipy.linalg
    r, m, n = pnf.r, pnf.m, pnf.n
    columns, h_degree = _split_degree(pnf.degree)
    # the shift h-monomial * x_k, for every k and every h-monomial
    shifts = shift_table(m, n, (h_degree.d + 1, h_degree.e), (1, 0)).T
    # one (h-monomial, basis column) block of N per k; gathering all k at
    # once holds (m+1) times as much and raised the peak RSS of a
    # (40,8,8) r=39 decomposition by 0.3 MiB
    maps = np.concatenate(
        [np.tensordot(pnf.h, pnf.N[:, cols], axes=([0], [1]))
         for cols in shift_table(m, n, pnf.degree, columns)[shifts][..., pnf.basis]], axis=1)
    solved = scipy.linalg.solve_triangular(pnf.tri[:, :r], pnf.q.conj().T @ maps)
    family = MultiplicationFamily(np.ascontiguousarray(solved.reshape(r, m + 1, r).swapaxes(0, 1)))
    resid = family.commutation_residual()
    if resid > COMM_REL:
        warnings.warn(f"multiplication family commutes only to {resid:.2e}", stacklevel=2)
    return family


def simultaneous_diagonalize(family, seed=0, rng=None):
    """Joint eigenvalues of a commuting family.

    Eigen-decomposes a random combination and reads each matrix's
    eigenvalues off its (approximately) diagonalized conjugate.  Returns
    the raw coordinate matrix with one column per solution point; column i
    is a set of homogeneous x-coordinates for point i.
    Retries with fresh combinations before giving up.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    mats = family.matrices
    count, r, _ = mats.shape
    best = None
    for _ in range(DIAG_RETRIES):
        t = rng.standard_normal(count)
        combo = np.tensordot(t, mats, axes=1)
        _, vecs = np.linalg.eig(combo)
        try:
            conj = np.linalg.solve(vecs, mats @ vecs)
        except np.linalg.LinAlgError:
            continue
        diag = np.diagonal(conj, axis1=1, axis2=2)
        worst = _worst_ratio(np.linalg.norm(conj - diag[:, :, None] * np.eye(r), axis=(1, 2)),
                             np.linalg.norm(conj, axis=(1, 2)))
        coords = diag.astype(complex)
        if worst <= DIAG_REL:
            return coords
        if best is None or worst < best[0]:
            best = (worst, coords)
    if best is None or best[0] > DIAG_FAIL:
        detail = "singular eigenvector matrix" if best is None else (
            f"best off-diagonal residual {best[0]:.2e} above {DIAG_FAIL:.0e}"
        )
        raise DefectiveEigenvectors(f"simultaneous diagonalization failed: {detail}")
    # Approximately commuting input (e.g. a noisy tensor): the diagonal
    # entries are still the right estimates and refinement follows.
    warnings.warn(
        f"off-diagonal residual {best[0]:.2e} above {DIAG_REL:.0e}; "
        "continuing with the best attempt", stacklevel=2,
    )
    return best[1]
