"""Pre-normal forms and multiplication matrices.

A pre-normal form is a rank-r map on a graded piece whose kernel is the
ideal's piece in that degree.  Restricting it to a well-conditioned column
subset turns multiplication by degree-raising polynomials into commuting
r x r matrices whose joint eigenvalues are homogeneous coordinates of the
solution points.  Every pull-back along a shift reads its columns from
``bigraded.shift_table``, where the monomial order lives.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bigraded import Bidegree, monomial_basis, monomial_index, shift_table
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


def make_h0(N, m, n, degree, rng=None, coeffs=None):
    """Random (or caller-supplied) combination of the shifted submatrices.

    Coefficients are i.i.d. standard normal; with probability one the
    corresponding polynomial does not vanish at any solution point.  A
    bad draw surfaces downstream as a pivot-rank deficiency.
    """
    d, e = degree
    table = shift_table(m, n, (d, e))
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
    eigenvalues are x-coordinates of the points.  ``h`` is the auxiliary
    polynomial of the general degree-(d, e) form and None for the pencil
    form at (1, 1).  ``tri`` holds the full triangular QR factor; the
    leading r columns are the invertible restriction to the pivot basis.
    """

    N: np.ndarray
    m: int
    n: int
    degree: Bidegree
    h0: np.ndarray
    h: np.ndarray | None
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


def prenormal_general(N, m, n, degree, rng=None, h0_coeffs=None, h_coeffs=None):
    """Assemble the degree-(d, e) pre-normal form from a left nullspace.

    Requires d >= 2 (callers solve (1, e) on the transposed system at
    (e, 1)).  The auxiliary polynomial h lives one x-degree below the shift
    degree and degenerates to the constant 1 when (d, e) = (2, 1).
    """
    d, e = degree
    if d < 2:
        raise ValueError("general path needs x-degree >= 2")
    h0, n_h0 = make_h0(N, m, n, degree, rng=rng, coeffs=h0_coeffs)
    q, tri, piv, cond = choose_basis(n_h0)
    h_degree = (d - 2, e - 1)
    nh = len(monomial_basis(m, n, h_degree))
    if h_coeffs is None:
        if h_degree == (0, 0):
            h = np.ones(1)
        else:
            h = rng.standard_normal(nh)
    else:
        h = np.asarray(h_coeffs)
    if len(h) != nh:
        raise ValueError("h must have one coefficient per degree-(d-2, e-1) monomial")
    return PreNormalForm(N, m, n, Bidegree(d, e), h0, h, q, tri, np.asarray(piv), cond)


def pencil_prenormal(N, m, n, rng=None, h0_coeffs=None):
    """Pre-normal form on the bilinear piece, for ranks r <= n+1.

    N is the degree-(1, 1) cokernel, which spans the flattening row space.
    The combination polynomial h0 is linear in the x-variables and the
    pivot basis lies among the y-variables, so the restricted maps are
    the slices N[:, k, :] of N as an r x (m+1) x (n+1) array.  This needs
    the y-side points to be linearly independent, which a pivot failure
    reports a posteriori.
    """
    r = N.shape[0]
    if h0_coeffs is None:
        if rng is None:
            raise ValueError("need rng when no coefficients are supplied")
        h0 = rng.standard_normal(m + 1)
    else:
        h0 = np.asarray(h0_coeffs)
    n_h0 = np.tensordot(h0, N.reshape(r, m + 1, n + 1), axes=([0], [1]))
    q, tri, piv, cond = choose_basis(n_h0)
    return PreNormalForm(N, m, n, Bidegree(1, 1), h0, None, q, tri, np.asarray(piv), cond)


@dataclass
class MultiplicationFamily:
    """Commuting r x r matrices, one per x-variable."""

    matrices: np.ndarray  # shape (count, r, r)

    def __len__(self):
        return self.matrices.shape[0]

    def commutation_residual(self):
        """max ||M_i M_j - M_j M_i||_F / (||M_i||_F ||M_j||_F)."""
        mats = self.matrices
        norms = [np.linalg.norm(M) for M in mats]
        worst = 0.0
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                denom = norms[i] * norms[j]
                if denom > 0:
                    worst = max(worst, np.linalg.norm(comm) / denom)
        return worst


def multiplication_matrices(pnf):
    """Form the family M_k = (restricted h0-map)^{-1} (restricted g_k-map).

    On the general path g_k = h * x_k; on the pencil path g_k = x_k; k
    runs over the m+1 x-variables either way.  The triangular factor is
    never inverted explicitly; each matrix comes from a back-substitution.
    """
    r, m, n = pnf.r, pnf.m, pnf.n
    sel = pnf.basis
    if pnf.h is None:
        # the columns x_k y_l of the bilinear piece, l in the basis, per k
        maps = np.moveaxis(pnf.N.reshape(r, m + 1, n + 1)[:, :, sel], 1, 0)
    else:
        d, e = pnf.degree
        h_rows = monomial_basis(m, n, (d - 2, e - 1)).rows
        x_rows = monomial_basis(m, n, (1, 0)).rows
        # the shift h-monomial * x_k, for every k and every h-monomial
        shifts = monomial_index(m, n, (d - 1, e - 1), x_rows[:, None, :] + h_rows)
        # one (h-monomial, basis column) block of N per k; gathering all k
        # at once would hold (m+1) times as much
        maps = (np.tensordot(pnf.h, pnf.N[:, cols], axes=([0], [1]))
                for cols in shift_table(m, n, (d, e))[shifts][..., sel])
    tri_r = pnf.tri[:, :r]
    family = MultiplicationFamily(np.array(
        [scipy.linalg.solve_triangular(tri_r, pnf.q.conj().T @ nk) for nk in maps]))
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
        coords = np.empty((count, r), dtype=complex)
        worst = 0.0
        try:
            for j in range(count):
                dj = np.linalg.solve(vecs, mats[j] @ vecs)
                off = dj - np.diag(np.diagonal(dj))
                denom = np.linalg.norm(dj)
                if denom > 0:
                    worst = max(worst, np.linalg.norm(off) / denom)
                coords[j] = np.diagonal(dj)
        except np.linalg.LinAlgError:
            continue
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
    # entries are still the right estimates and Newton refinement follows.
    warnings.warn(
        f"off-diagonal residual {best[0]:.2e} above {DIAG_REL:.0e}; "
        "continuing with the best attempt", stacklevel=2,
    )
    return best[1]
