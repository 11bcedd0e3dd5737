"""Dispersal kernels, crowding weights, and their structural certificates.

A kernel K(x, y) >= 0 drives the nonlocal dispersal operator; a crowding
weight Q(x, y) >= 0 together with an exponent p > 0 drives the nonlocal
reaction term.  Both are described by small frozen spec objects.  Over a
quadrature grid each spec has a dense matrix (`kernel_matrix`,
`weight_matrix`), which the certificates below read, and, where its form
allows, a structured one that the solver applies without forming n x n
arrays:

    LowRank(left, right) = left @ right.T, kept as its factors: the
        constant and rank-one kernels (rank 1), the constant and
        separable weights (rank 1) and the polynomial dip (rank 2).
    Kron(a, b) = a (x) b on the ij-ordered nodes of a 2-D grid: the
        gaussian kernel, exp(-|x - y|^2 / l^2) = Kx(x1, y1) Ky(x2, y2).
    Toeplitz(col), the symmetric Toeplitz matrix of first column col,
        applied by FFT in O(n log n): the 1-D gaussian on the evenly
        spaced trapezoid and midpoint nodes, where
        K(x_i, x_j) = exp(-(x_|i-j| - x_0)^2 / l^2) depends on |i - j|.

The 1-D gaussian on Gauss-Legendre nodes and the tabulated forms exist
only densely.  Each kernel form is chosen in one place, `_kernel`, from
the spec form, the rule and the dimension, and each weight form, row
scale included, in `_weight`; `kernel_matrix` and `weight_matrix` are
the dense forms of the same structures.  The solver holds exactly these
matrices and applies the quadrature weights at the product, K (w u) and
Q (w |u|^p), so no other module knows the forms.  Every form applies
with ``@`` and materializes with ``np.asarray``.

The checkers in this module certify, at grid level, the structural
hypotheses the solver relies on: symmetry of K, positivity of K near the
diagonal, a positive floor of Q on nearby pairs (locally or globally), the
existence of a maximizing point x0 with Q(x0, .) >= Q(x, .), and, for the
polynomial-dip preset, a certified comparison function a(x) with
Q(x0, y) >= Q(x, y) + a(x) and integrable inverse.  `check_weight_floor`
reads every fact about Q in one pass over its matrix, including the
oscillation sup_{x,z,y} |Q(x,y) - Q(z,y)| that closes the solvability
window and the sup of Q.

`build_a_eps` and `build_q_eps` produce the regularized weight family: a
dip profile a_eps vanishing at x0 and the row-scaled weight
Q_eps(x, y) = Q(x, y) (2 - a_eps(x)), which satisfies
Q <= Q_eps <= 2 Q and Q_eps(x0, y) - Q_eps(x, y) >= Q(x, y) a_eps(x).
Q_eps is the base spec with ``row_scale = 2 - a_eps``, so it keeps the
rank of Q.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# NumPy loads these submodules on first use; importing them here keeps
# that cost out of the first solve
from numpy import fft as np_fft
from numpy.polynomial import polynomial as np_poly

from .geometry import QuadratureGrid

__all__ = [
    "FloorReport",
    "HypothesisReport",
    "KernelSpec",
    "Kron",
    "LowRank",
    "ModelError",
    "Toeplitz",
    "WeightSpec",
    "build_a_eps",
    "build_q_eps",
    "certify",
    "check_weight_floor",
    "eps_ceiling",
    "kernel_matrix",
    "weight_matrix",
]

_SYM_TOL = 1e-12
_MAX_TOL = 1e-12


class ModelError(ValueError):
    """Invalid kernel/weight parameters or an uncertifiable request."""


def _polyval(coeffs, x: np.ndarray) -> np.ndarray:
    return np_poly.polyval(x, np.asarray(coeffs, dtype=float))


def _coords_1d(grid: QuadratureGrid, what: str) -> np.ndarray:
    if grid.domain.dim != 1:
        raise ModelError(f"{what} is defined for 1-D domains only")
    return grid.nodes[:, 0]


class _Structured:
    """A matrix applied through its structure: ``@`` on a vector is
    `matvec`, and ``np.asarray`` materializes it with `dense`."""

    dtype = np.dtype(float)
    # numpy arithmetic with an ndarray raises instead of materializing
    __array_ufunc__ = None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)

    def __array__(self, dtype=None, copy=None):
        return self.dense()


class LowRank(_Structured):
    """The matrix left @ right.T, kept as its (n, k) and (m, k) factors."""

    def __init__(self, left: np.ndarray, right: np.ndarray):
        # a 1-D factor is one column
        self.left = np.array(left, dtype=float).reshape(len(left), -1)
        self.right = np.array(right, dtype=float).reshape(len(right), -1)
        self.left.setflags(write=False)
        self.right.setflags(write=False)
        self.shape = (self.left.shape[0], self.right.shape[0])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.left @ (self.right.T @ v)

    def dense(self) -> np.ndarray:
        """sum_k outer(left_k, right_k), entry by entry."""
        out = np.multiply.outer(self.left[:, 0], self.right[:, 0])
        for lk, rk in zip(self.left.T[1:], self.right.T[1:]):
            out += np.multiply.outer(lk, rk)
        return out


class Kron(_Structured):
    """The Kronecker product a (x) b of square matrices, applied on
    ij-ordered tensor nodes.

    Node i * len(b) + j pairs row i of ``a`` with row j of ``b``, as
    `build_grid` orders them, so (a (x) b) v = (a @ V @ b.T).ravel()
    with V = v.reshape(len(a), len(b)).
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.array(a, dtype=float)
        self.b = np.array(b, dtype=float)
        self.a.setflags(write=False)
        self.b.setflags(write=False)
        n = len(self.a) * len(self.b)
        self.shape = (n, n)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v).reshape(len(self.a), len(self.b))
        return (self.a @ v @ self.b.T).ravel()

    def dense(self) -> np.ndarray:
        return np.kron(self.a, self.b)


def _smooth_len(target: int) -> int:
    """The least 2^a 3^b 5^c >= target, a length the FFT handles fast."""
    m = target
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


class Toeplitz(_Structured):
    """The symmetric Toeplitz matrix T of first column ``col``, applied
    by FFT.

    T is the leading n x n block of the circulant of 5-smooth length
    m >= 2n - 1 whose first column is col, m - 2n + 1 zeros, then col
    reversed without its first entry.  The DFT diagonalizes that
    circulant, so T v is the first n entries of
    irfft(rfft(c) rfft(v, m)) (Chan & Ng, SIAM Rev. 38, 1996).
    """

    def __init__(self, col: np.ndarray):
        self.col = np.array(col, dtype=float)
        n = len(self.col)
        self._m = _smooth_len(2 * n - 1)
        c = np.zeros(self._m)
        c[:n] = self.col
        c[self._m - n + 1:] = self.col[:0:-1]
        self._c_hat = np_fft.rfft(c)
        for a in (self.col, self._c_hat):
            a.setflags(write=False)
        self.shape = (n, n)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        vh = np_fft.rfft(v, self._m)
        return np_fft.irfft(self._c_hat * vh, self._m)[: self.shape[0]]

    def dense(self) -> np.ndarray:
        """T[i, j] = col[|i - j|]."""
        i = np.arange(self.shape[0])
        return self.col[np.abs(i[:, None] - i[None, :])]


def _pairwise_sq_dist(grid: QuadratureGrid) -> np.ndarray:
    """|x_i - x_j|^2, summed one axis at a time: no (n, n, dim) array."""
    d2 = np.zeros((grid.n, grid.n))
    for c in grid.nodes.T:
        d2 += np.subtract.outer(c, c) ** 2
    return d2


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Dispersal kernel K(x, y), one of four forms.

    constant:  K = value
    rank_one:  K(x, y) = f(x) f(y) for a 1-D polynomial f (coeffs low to high)
    gaussian:  K(x, y) = exp(-|x - y|^2 / length_scale^2)
    tabulated: explicit (n, n) matrix over the grid nodes
    """

    FORMS = ("constant", "rank_one", "gaussian", "tabulated")

    form: str
    value: float = 1.0
    coeffs: Optional[tuple] = None
    length_scale: float = 1.0
    matrix: Optional[np.ndarray] = None

    @classmethod
    def constant(cls, value: float = 1.0) -> "KernelSpec":
        if value < 0:
            raise ModelError("constant kernel value must be nonnegative")
        return cls(form="constant", value=float(value))

    @classmethod
    def rank_one(cls, coeffs) -> "KernelSpec":
        return cls(form="rank_one", coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def gaussian(cls, length_scale: float = 1.0) -> "KernelSpec":
        if length_scale <= 0:
            raise ModelError("gaussian length_scale must be positive")
        return cls(form="gaussian", length_scale=float(length_scale))

    @classmethod
    def tabulated(cls, matrix: np.ndarray) -> "KernelSpec":
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelError("tabulated kernel must be a square matrix")
        return cls(form="tabulated", matrix=m)


def _gaussian(x: np.ndarray, length_scale: float) -> np.ndarray:
    """exp(-(x_i - x_j)^2 / length_scale^2) over 1-D coordinates."""
    k = np.subtract.outer(x, x) ** 2
    k /= -length_scale**2
    return np.exp(k, out=k)


def _kernel(kernel: KernelSpec, grid: QuadratureGrid):
    """K over the nodes: a LowRank (constant, rank_one), a Kron (2-D
    gaussian), a Toeplitz (1-D gaussian on evenly spaced nodes) or a
    fresh dense array (1-D gaussian on Gauss-Legendre nodes, tabulated).
    Entries must be >= 0."""
    n = grid.n
    if kernel.form == "constant":
        return LowRank(np.full((n, 1), kernel.value), np.ones((n, 1)))
    if kernel.form == "rank_one":
        f = _polyval(kernel.coeffs, _coords_1d(grid, "rank_one kernel"))
        if f.min() * f.max() < 0:
            raise ModelError("kernel is negative at a sampled pair")
        return LowRank(f[:, None], f[:, None])
    if kernel.form == "gaussian":
        if grid.domain.dim == 2:
            return Kron(
                *(_gaussian(x, kernel.length_scale) for x, _ in grid.axes())
            )
        x = grid.nodes[:, 0]
        if grid.rule in ("trapezoid", "midpoint"):  # evenly spaced
            col = np.exp(-((x - x[0]) ** 2) / kernel.length_scale**2)
            return Toeplitz(col)
        return _gaussian(x, kernel.length_scale)
    if kernel.form == "tabulated":
        if kernel.matrix.shape != (n, n):
            raise ModelError(
                f"tabulated kernel has shape {kernel.matrix.shape}, "
                f"grid needs ({n}, {n})"
            )
        if kernel.matrix.min() < 0:
            raise ModelError("kernel is negative at a sampled pair")
        return kernel.matrix.copy()
    raise ModelError(f"unknown kernel form {kernel.form!r}")


def kernel_matrix(kernel: KernelSpec, grid: QuadratureGrid) -> np.ndarray:
    """Materialize K(x_i, x_j) over the grid nodes; entries must be >= 0."""
    return np.asarray(_kernel(kernel, grid))


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Crowding weight Q(x, y) >= 0 plus the reaction exponent p > 0.

    constant:       Q = value
    separable:      Q(x, y) = g(x) h(y), 1-D polynomials
    polynomial_dip: Q(x, y) = h(y) [level - prod_i |x - x_i|^(q_i)] + g(y)
    tabulated:      explicit (n, n) matrix over the grid nodes

    ``row_scale``, set only by `build_q_eps`, multiplies row x by
    row_scale(x) on every materialization.
    """

    FORMS = ("constant", "separable", "polynomial_dip", "tabulated")

    form: str
    p: float
    value: float = 1.0
    g: Optional[tuple] = None
    h: Optional[tuple] = None
    points: Optional[tuple] = None
    exponents: Optional[tuple] = None
    level: float = 1.0
    matrix: Optional[np.ndarray] = None
    row_scale: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.p <= 0:
            raise ModelError("reaction exponent p must be positive")

    @classmethod
    def constant(cls, value: float = 1.0, p: float = 1.0) -> "WeightSpec":
        if value < 0:
            raise ModelError("constant weight value must be nonnegative")
        return cls(form="constant", p=float(p), value=float(value))

    @classmethod
    def separable(cls, g, h, p: float = 1.0) -> "WeightSpec":
        return cls(
            form="separable",
            p=float(p),
            g=tuple(float(c) for c in g),
            h=tuple(float(c) for c in h),
        )

    @classmethod
    def polynomial_dip(
        cls, *, points, exponents, level: float, p: float = 1.0,
        h=(1.0,), g=(0.0,),
    ) -> "WeightSpec":
        pts = tuple(float(c) for c in points)
        exps = tuple(float(c) for c in exponents)
        if len(pts) != len(exps) or not pts:
            raise ModelError("polynomial_dip needs matching points and exponents")
        if any(q <= 0 for q in exps):
            raise ModelError("dip exponents must be positive")
        return cls(
            form="polynomial_dip",
            p=float(p),
            h=tuple(float(c) for c in h),
            g=tuple(float(c) for c in g),
            points=pts,
            exponents=exps,
            level=float(level),
        )

    @classmethod
    def tabulated(cls, matrix: np.ndarray, p: float = 1.0) -> "WeightSpec":
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelError("tabulated weight must be a square matrix")
        return cls(form="tabulated", p=float(p), matrix=m)


def _dip_profile(weight: WeightSpec, x: np.ndarray) -> np.ndarray:
    """prod_i |x - x_i|^(q_i) over 1-D coordinates."""
    prod = np.ones_like(x)
    for xi, qi in zip(weight.points, weight.exponents):
        prod = prod * np.abs(x - xi) ** qi
    return prod


def _weight(weight: WeightSpec, grid: QuadratureGrid):
    """Q over the nodes, row scale included: a LowRank (constant,
    separable, polynomial_dip) or a fresh dense array (tabulated).

    Entries must be >= 0, and a row scale must hold one positive value
    per node, so it keeps the sign.  Every column of the plain left
    factor but the first is constant, so a LowRank's smallest entry lies
    on the row where that column is smallest or largest.
    """
    n = grid.n
    scale = weight.row_scale
    if scale is not None and (
        np.shape(scale) != (n,) or not np.all(scale > 0)
    ):
        raise ModelError("row_scale must hold one positive value per node")
    if weight.form == "tabulated":
        if weight.matrix.shape != (n, n):
            raise ModelError(
                f"tabulated weight has shape {weight.matrix.shape}, "
                f"grid needs ({n}, {n})"
            )
        q = weight.matrix.copy()
        if scale is not None:
            q *= scale[:, None]
        if q.min() < 0:
            raise ModelError("weight is negative at a sampled pair")
        return q
    if weight.form == "constant":
        q = LowRank(np.full((n, 1), weight.value), np.ones((n, 1)))
    elif weight.form == "separable":
        x = _coords_1d(grid, "separable weight")
        q = LowRank(_polyval(weight.g, x), _polyval(weight.h, x))
    elif weight.form == "polynomial_dip":
        x = _coords_1d(grid, "polynomial_dip weight")
        dip = weight.level - _dip_profile(weight, x)
        q = LowRank(
            np.column_stack([dip, np.ones(n)]),
            np.column_stack([_polyval(weight.h, x), _polyval(weight.g, x)]),
        )
    else:
        raise ModelError(f"unknown weight form {weight.form!r}")
    first = q.left[:, 0]
    extreme = LowRank(q.left[[first.argmin(), first.argmax()]], q.right)
    if extreme.dense().min() < 0:
        raise ModelError("weight is negative at a sampled pair")
    if scale is None:
        return q
    return LowRank(scale[:, None] * q.left, q.right)


def weight_matrix(weight: WeightSpec, grid: QuadratureGrid) -> np.ndarray:
    """Materialize Q(x_i, x_j) over the grid nodes; entries must be >= 0."""
    return np.asarray(_weight(weight, grid))


def _k1(k: np.ndarray) -> tuple[bool, float]:
    asym = float(np.abs(k - k.T).max())
    return asym <= _SYM_TOL, asym


def _k2(
    k: np.ndarray, grid: QuadratureGrid, delta: float
) -> tuple[bool, float]:
    if delta <= 0:
        raise ModelError("delta must be positive")
    near = _pairwise_sq_dist(grid) <= delta**2
    return bool(np.min(k, where=near, initial=np.inf) > 0), delta


@dataclass(frozen=True, eq=False)
class FloorReport:
    """Weight floor, maximizing-point and oscillation facts over one grid."""

    q2: bool
    sigma: float          # min Q over pairs with |x - y| <= r
    r: float
    q2pp: bool
    sigma_global: float   # min Q over all pairs
    q4: bool
    x0_index: int
    x0: np.ndarray
    q4_defect: float      # max over (x, y) of Q(x, y) - Q(x0, y)
    oscillation: float    # max over (x, z, y) of |Q(x, y) - Q(z, y)|
    q_sup: float          # max Q over all pairs


def check_weight_floor(
    weight: WeightSpec, grid: QuadratureGrid, r: float
) -> FloorReport:
    """Certify the positive floor of Q and locate a maximizing node x0.

    One `weight_matrix` call; the advantage of each row over the column
    maxima is taken in place, so one n x n array is held.
    """
    if r <= 0:
        raise ModelError("r must be positive")
    q = weight_matrix(weight, grid)
    sigma_global = float(q.min())
    if r >= grid.domain.diameter:
        # every pair of nodes in the box lies within its diameter
        sigma = sigma_global
    else:
        near = _pairwise_sq_dist(grid) <= r**2
        sigma = float(np.min(q, where=near, initial=np.inf))

    col_max = q.max(axis=0)
    osc = float((col_max - q.min(axis=0)).max())
    q -= col_max[None, :]
    advantage = q.min(axis=1)
    i0 = int(np.argmax(advantage))
    defect = float(-advantage[i0])
    return FloorReport(
        q2=sigma > 0,
        sigma=sigma,
        r=float(r),
        q2pp=sigma_global > 0,
        sigma_global=sigma_global,
        q4=defect <= _MAX_TOL,
        x0_index=i0,
        x0=grid.nodes[i0].copy(),
        q4_defect=defect,
        oscillation=osc,
        q_sup=float(col_max.max()),
    )


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """Certificates for one (kernel, weight, grid) triple.

    ``q3`` is None when the weight form carries no symbolic certificate
    (only the polynomial_dip preset does).  When present, ``q3_a`` samples
    the certified comparison function a(x) = m * (P(x) - min P) with
    m = min h, and ``q3_integrals`` records the quadrature values of
    a^(-1), a^(-p) and a^(-q) for q = max(1, p), over nodes with
    a >= 1e-14.
    """

    k1: bool
    max_asymmetry: float
    k2: bool
    delta: float
    floor: FloorReport
    q3: Optional[bool]
    q3_x0_index: Optional[int]
    q3_a: Optional[np.ndarray]
    q3_integrals: Optional[dict]


def _certify_q3(weight: WeightSpec, grid: QuadratureGrid):
    if weight.form != "polynomial_dip" or weight.row_scale is not None:
        return None, None, None, None
    x = _coords_1d(grid, "polynomial_dip weight")
    n_dim = grid.domain.dim
    exponents_ok = all(qi < n_dim / weight.p for qi in weight.exponents)

    prof = _dip_profile(weight, x)
    i0 = int(np.argmin(prof))
    q = _weight(weight, grid)
    h = q.right[:, 0]
    m_coef = float(h.min())
    a = m_coef * (prof - prof[i0])

    # Q(x0, y) - Q(x, y) = d(x) h(y), d the change of the dip column of
    # the factors, so its minimum over y is d(x) min h or d(x) max h
    d = q.left[i0, 0] - q.left[:, 0]
    gap = np.where(d >= 0, d * m_coef, d * h.max())
    pointwise_ok = bool((gap - a).min() >= -_MAX_TOL)

    supported = a >= 1e-14
    integrals = {}
    for label, expo in (
        ("l1", 1.0),
        ("lp", weight.p),
        ("lq", max(1.0, weight.p)),
    ):
        integrals[label] = float(
            grid.weights[supported] @ a[supported] ** (-expo)
        )
    ok = exponents_ok and pointwise_ok and m_coef > 0
    return ok, i0, a, integrals


def certify(
    kernel: KernelSpec,
    weight: WeightSpec,
    grid: QuadratureGrid,
    r: float,
    delta: Optional[float] = None,
) -> HypothesisReport:
    """Run every grid-level certificate and collect the results."""
    if r <= 0:
        raise ModelError("r must be positive")
    if delta is None:
        delta = r
    k = kernel_matrix(kernel, grid)
    k1, asym = _k1(k)
    k2, delta = _k2(k, grid, delta)
    floor = check_weight_floor(weight, grid, r)
    q3, q3_i0, q3_a, q3_int = _certify_q3(weight, grid)
    return HypothesisReport(
        k1=k1,
        max_asymmetry=asym,
        k2=k2,
        delta=delta,
        floor=floor,
        q3=q3,
        q3_x0_index=q3_i0,
        q3_a=q3_a,
        q3_integrals=q3_int,
    )


def eps_ceiling(weight: WeightSpec, grid: QuadratureGrid) -> float:
    """Largest admissible dip exponent, N / (2 p)."""
    return grid.domain.dim / (2.0 * weight.p)


def build_a_eps(
    weight: WeightSpec, grid: QuadratureGrid, x0: np.ndarray, eps: float
) -> np.ndarray:
    """Dip profile a_eps over the nodes: |x - x0|^eps where |x - x0| <= 1,
    and 1 farther out.  Requires 0 < eps <= N / (2 p)."""
    eps0 = eps_ceiling(weight, grid)
    if not 0 < eps <= eps0:
        raise ModelError(
            f"eps must lie in (0, {eps0}] (ceiling N/(2p)), got {eps}"
        )
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = np.linalg.norm(grid.nodes - x0[None, :], axis=1)
    return np.where(d <= 1.0, d**eps, 1.0)


def build_q_eps(
    weight: WeightSpec, grid: QuadratureGrid, a_eps: np.ndarray
) -> WeightSpec:
    """Row-scaled weight Q_eps(x, y) = Q(x, y) (2 - a_eps(x)).

    The result is ``weight`` with ``row_scale = 2 - a_eps`` (times any row
    scale it already has), so it keeps the form and rank of Q.
    """
    a = np.asarray(a_eps, dtype=float)
    if a.shape != (grid.n,):
        raise ModelError("a_eps must have one value per grid node")
    if a.min() < 0 or a.max() > 1 + 1e-12:
        raise ModelError("a_eps values must lie in [0, 1]")
    scale = 2.0 - a
    if weight.row_scale is not None:
        scale *= weight.row_scale
    scale.setflags(write=False)
    return replace(weight, row_scale=scale)
