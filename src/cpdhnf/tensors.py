"""Dense tensor storage, flattenings, reshaping, compression and CPD utilities."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bigraded import select_degree
from .errors import NoFeasibleGrouping, RankOutOfRange
from .linalg import khatri_rao, normalize_columns

REAL = "real"
COMPLEX = "complex"


def _as_array(data, scalars):
    dtype = np.complex128 if scalars == COMPLEX else np.float64
    return np.ascontiguousarray(np.asarray(data, dtype=dtype))


@dataclass(frozen=True)
class DenseTensor:
    """Order-d tensor stored as a C-contiguous (row-major) ndarray."""

    data: np.ndarray
    scalars: str = REAL

    def __post_init__(self):
        if self.scalars not in (REAL, COMPLEX):
            raise ValueError(f"unknown scalar field {self.scalars!r}")
        object.__setattr__(self, "data", _as_array(self.data, self.scalars))
        if self.data.size == 0:
            raise ValueError("empty tensor")
        if not np.all(np.isfinite(self.data.view(np.float64))):
            raise ValueError("tensor contains NaN or Inf")

    @property
    def shape(self):
        return self.data.shape

    @property
    def order(self):
        return self.data.ndim

    def norm(self):
        return float(np.linalg.norm(self.data.ravel()))

    def ravel(self):
        """Flat row-major view (last index fastest)."""
        return self.data.reshape(-1)


@dataclass
class CPDecomposition:
    """Rank-r CPD: one (n_k+1) x r factor matrix per mode.

    When ``normalized`` every column of every factor except the first has
    unit 2-norm with a real nonnegative leading entry; scale sits in the
    first mode.
    """

    factors: list
    normalized: bool = False

    def __post_init__(self):
        self.factors = [np.atleast_2d(np.asarray(f)) for f in self.factors]
        r = self.factors[0].shape[1]
        if any(f.shape[1] != r for f in self.factors):
            raise ValueError("factor matrices must share the column count")
        if self.normalized:
            for f in self.factors[1:]:
                nrms = np.linalg.norm(f, axis=0)
                if np.any(np.abs(nrms - 1.0) > 1e-12):
                    raise ValueError("normalization flag set but columns not unit norm")

    @property
    def rank(self):
        return self.factors[0].shape[1]

    @property
    def order(self):
        return len(self.factors)

    @property
    def shape(self):
        return tuple(f.shape[0] for f in self.factors)

    def normalize(self):
        return CPDecomposition(normalize_columns(self.factors), normalized=True)


def flatten_mode1(t):
    """Mode-1 flattening: (l+1) x (m+1)(n+1), column (k, l) row-major.

    Column (k, l) holds the entries A[:, k, l]; the pair order matches the
    reverse-order Kronecker product convention.
    """
    if t.order != 3:
        raise ValueError("flatten_mode1 expects an order-3 tensor")
    l1, m1, n1 = t.shape
    return t.data.reshape(l1, m1 * n1)


def cpd_eval(dec, shape=None):
    """Evaluate a CPD back into a dense tensor."""
    if shape is not None and tuple(shape) != dec.shape:
        raise ValueError(f"factor shapes {dec.shape} inconsistent with {tuple(shape)}")
    factors = dec.factors
    rest = khatri_rao(factors[1:]) if len(factors) > 1 else np.ones((1, dec.rank))
    flat = factors[0] @ rest.T
    data = flat.reshape(dec.shape)
    scalars = COMPLEX if np.iscomplexobj(data) else REAL
    return DenseTensor(data, scalars)


def backward_error(t, dec):
    """Relative residual ||A - eval(D)||_F / ||A||_F."""
    if dec.shape != t.shape:
        raise ValueError("shape mismatch between tensor and decomposition")
    denom = t.norm()
    if denom == 0:
        raise ValueError("zero tensor has no relative error")
    approx = cpd_eval(dec)
    return float(np.linalg.norm((t.data - approx.data).ravel())) / denom


def random_cpd(shape, r, seed=0, scalars=REAL):
    """Random rank-r instance with i.i.d. standard normal factor entries.

    Returns the evaluated tensor together with its ground-truth factors.
    Deterministic for a fixed (shape, r, seed) triple.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    rng = np.random.default_rng(seed)
    factors = []
    for dim in shape:
        f = rng.standard_normal((dim, r))
        if scalars == COMPLEX:
            f = (f + 1j * rng.standard_normal((dim, r))) / math.sqrt(2.0)
        factors.append(f)
    dec = CPDecomposition(factors)
    return cpd_eval(dec), dec


def add_noise(t, e, seed=0):
    """Add white Gaussian noise of exact relative Frobenius magnitude 10^e.

    ``e = None`` is the no-noise sentinel.  The perturbation is scaled so
    that ||A' - A||_F / ||A||_F equals 10^e to machine precision.
    """
    if e is None:
        return DenseTensor(t.data.copy(), t.scalars)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(t.shape)
    if t.scalars == COMPLEX:
        noise = (noise + 1j * rng.standard_normal(t.shape)) / math.sqrt(2.0)
    scale = (10.0 ** e) * t.norm() / np.linalg.norm(noise.ravel())
    return DenseTensor(t.data + scale * noise, t.scalars)


@dataclass(frozen=True)
class Grouping:
    """Partition of modes 1..d into three nonempty groups (1-based).

    Groups are ordered so the grouped dimensions are nonincreasing, keeping
    the l+1 >= m+1 >= n+1 convention for the third-order reshaping.
    """

    parts: tuple
    shape: tuple

    def __post_init__(self):
        parts = tuple(tuple(int(i) for i in p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        d = len(self.shape)
        flat = sorted(i for p in parts for i in p)
        if len(parts) != 3 or any(len(p) == 0 for p in parts):
            raise ValueError("grouping needs three nonempty parts")
        if flat != list(range(1, d + 1)):
            raise ValueError(f"parts {parts} do not partition modes 1..{d}")
        dims = self.grouped_shape
        if not dims[0] >= dims[1] >= dims[2]:
            raise ValueError(f"grouped shape {dims} must be nonincreasing")

    @property
    def grouped_shape(self):
        return tuple(math.prod(self.shape[i - 1] for i in p) for p in self.parts)


def reshape_group(t, grouping):
    """Reshape an order-d tensor to the grouped third-order tensor.

    This is the linear isomorphism sending an elementary tensor to the
    elementary tensor of the per-group Kronecker factors; it preserves the
    Frobenius norm, and the inverse transpose undoes it bit-exactly.
    """
    if grouping.shape != t.shape:
        raise ValueError("grouping built for a different shape")
    perm = [i - 1 for p in grouping.parts for i in p]
    data = t.data.transpose(perm).reshape(grouping.grouped_shape)
    return DenseTensor(data, t.scalars)


def _three_partitions(d):
    for labels in itertools.product(range(3), repeat=d):
        parts = [[], [], []]
        for mode, lab in enumerate(labels, start=1):
            parts[lab].append(mode)
        if all(parts):
            yield tuple(tuple(p) for p in parts)


def choose_grouping(shape, r):
    """Exhaustively score all three-way mode partitions and pick the best.

    Feasible partitions satisfy r <= min(l+1, m*n) for the grouped shape;
    among them the expected solver cost rows^2 * cols of the planned
    resultant matrix is minimized.  Exhaustive enumeration (3^d partitions)
    is cheap at tool scale (d <= 10 or so).
    """
    shape = tuple(int(s) for s in shape)
    d = len(shape)
    if d < 4:
        raise ValueError("grouping applies to tensors of order >= 4")
    best = None
    seen = set()
    for parts in _three_partitions(d):
        ordered = tuple(sorted(parts, key=lambda p: (-math.prod(shape[i - 1] for i in p), p)))
        if ordered in seen:
            continue
        seen.add(ordered)
        l1, m1, n1 = (math.prod(shape[i - 1] for i in p) for p in ordered)
        try:
            plan = select_degree(m1 - 1, n1 - 1, r, l1 - 1)
        except RankOutOfRange:
            continue
        cost = plan.rows * plan.rows * plan.cols
        key = (cost, (l1, m1, n1), ordered)
        if best is None or key < best[0]:
            best = (key, ordered)
    if best is None:
        raise NoFeasibleGrouping(
            f"no mode partition of shape {shape} supports rank {r}"
        )
    return Grouping(best[1], shape)


def st_hosvd(t, targets):
    """Sequentially truncated orthogonal compression.

    Returns (core, factors) with orthonormal factor columns so that
    expanding the core reproduces the input exactly whenever its
    multilinear rank is within the targets.  Modes are processed in order
    of decreasing dimension.
    """
    targets = tuple(int(x) for x in targets)
    if len(targets) != t.order:
        raise ValueError("one target rank per mode required")
    if any(tk > dim for tk, dim in zip(targets, t.shape)):
        raise ValueError("targets must not exceed the mode dimensions")
    core = t.data
    factors = [None] * t.order
    order = sorted(range(t.order), key=lambda k: -t.shape[k])
    for k in order:
        mat = np.moveaxis(core, k, 0).reshape(core.shape[k], -1)
        u = np.linalg.svd(mat, full_matrices=False)[0][:, : targets[k]]
        factors[k] = u
        core = np.moveaxis(
            np.tensordot(u.conj().T, core, axes=(1, k)), 0, k
        )
    return DenseTensor(core, t.scalars), factors


def rank1_factorization(v, shape):
    """Best-effort rank-1 factorization of a vector reshaped to `shape`.

    Sequential dominant-SVD peeling: exact for genuinely rank-1 input.
    Returns (sigma, [unit mode vectors]).
    """
    v = np.asarray(v)
    arr = v.reshape(shape)
    if np.linalg.norm(v) == 0:
        raise ValueError("zero vector has no rank-1 factorization")
    vectors = []
    rest = arr
    for dim in shape[:-1]:
        mat = rest.reshape(dim, -1)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        vectors.append(u[:, 0])
        rest = s[0] * vh[0, :]
    sigma = float(np.linalg.norm(rest))
    vectors.append(rest / sigma)
    return sigma, vectors
