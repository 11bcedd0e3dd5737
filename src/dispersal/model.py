"""Dispersal kernels, crowding weights, and their structural certificates.

A kernel K(x, y) >= 0 drives the nonlocal dispersal operator; a crowding
weight Q(x, y) >= 0 together with an exponent p > 0 drives the nonlocal
reaction term.  Both are described by small frozen spec objects.  Over a
quadrature grid each spec has one matrix, structured where its form
allows, that the solver and the certificates read without forming n x n
arrays:

    LowRank(left, right) = left @ right.T, kept as its factors: the
        constant and rank-one kernels (rank 1), the constant and
        separable weights (rank 1) and the polynomial dip (rank 2).
    Kron(f_1, ..., f_N) = f_1 (x) ... (x) f_N on the ij-ordered nodes
        of a tensor grid in any dimension N: the gaussian kernel,
        exp(-|x - y|^2 / l^2) = prod_k exp(-(x_k - y_k)^2 / l^2).
    Toeplitz(col), the symmetric Toeplitz matrix of first column col,
        applied by FFT in O(n log n): the gaussian on one evenly spaced
        axis (trapezoid and midpoint nodes), where
        K(x_i, x_j) = exp(-(x_|i-j| - x_0)^2 / l^2) depends on |i - j|.

Only the tabulated forms are dense.  Each kernel form is chosen in one
place, `_kernel`, from the spec form, the rule and the number of axes,
and each weight form in `_weight`.  They are also the one place that
decides whether K and Q are valid: each refuses a negative entry and an
entry that can overflow float64, so every K and Q downstream is finite.
Every structured K is symmetric by construction: a LowRank K is
f(x) f(y) or constant, a Toeplitz is symmetric, and a Kron's gaussian
factors hold exp(-(x_i - x_j)^2 / l^2), whose square is the same bits
both ways round.  The solver holds exactly these matrices and applies
the quadrature weights at the product, K (w u) and Q (w |u|^p), so no
other module knows the forms.  Every form applies with ``@``, forms a
block of its rows with ``rows``, and materializes with ``np.asarray``.
No form can be written in place: the factors and a tabulated spec's
matrix are read-only arrays.

The checkers in this module certify, at grid level, the structural
hypotheses the solver relies on: symmetry of K, positivity of K near the
diagonal, a positive floor of Q on nearby pairs (locally or globally), the
existence of a maximizing point x0 with Q(x0, .) >= Q(x, .), and, for the
polynomial-dip preset, the exponent gate of Q3 with the comparison
function a(x) and the integrals of its inverse.  They read K and Q
in the form `_kernel` and `_weight` return, and each value equals the
reduction of the dense matrix bit for bit.  Only a tabulated K has its
symmetry measured.  When delta reaches the diameter of the box, k2
reads the least entry of K: a tabulated K's minimum, or the least
entry its structure gives.  The structure also gives the floor and x0
of a LowRank Q, whose left columns but the first are constant.
Everything else streams in blocks of about 2^20 entries, with the
squared distances of each block built one axis at a time.
`_floor` gives every fact about Q that a certificate reads: the local
and global floors, the maximizing node x0 with its defect, and the
oscillation sup_{x,z,y} |Q(x,y) - Q(z,y)| that closes the solvability
window.  `certify` reads K from the operator `assemble` built, so K is
built in one place.

`build_a_eps` and `build_q_eps` produce the regularized weight family: a
dip profile a_eps vanishing at x0 and the row-scaled weight
Q_eps(x, y) = Q(x, y) (2 - a_eps(x)), which satisfies
Q <= Q_eps <= 2 Q and Q_eps(x0, y) - Q_eps(x, y) >= Q(x, y) a_eps(x).
`build_q_eps` scales the rows of a built Q in its form, so Q_eps keeps
the rank of Q; it is for the solver, and no certificate reads it.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

# NumPy loads this submodule on first use; importing it here keeps that
# cost out of the first solve
from numpy import fft as np_fft

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
    "eps_ceiling",
]

_SYM_TOL = 1e-12
_MAX_TOL = 1e-12
# entries in one block of rows that a certificate streams
_BLOCK = 1 << 20


class ModelError(ValueError):
    """Invalid kernel/weight parameters or an uncertifiable request."""


def _polyval(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k by Horner's rule, in the operation order of
    `numpy.polynomial.polynomial.polyval`, so the values are its bits."""
    c = np.asarray(coeffs, dtype=float)
    out = c[-1] + x * 0
    for ck in c[-2::-1]:
        out = ck + out * x
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _frozen(a) -> Optional[np.ndarray]:
    """``a`` as a read-only float array: itself if it is one, else a
    read-only copy, so a spec cannot change under its holders."""
    if a is None or (
        isinstance(a, np.ndarray) and a.dtype == float
        and not a.flags.writeable
    ):
        return a
    return _read_only(np.array(a, dtype=float))


def _refuse_non_finite(spec) -> None:
    """Raise a ModelError naming the first numeric field of ``spec`` that
    holds a NaN or an infinity."""
    for f in fields(spec):
        v = getattr(spec, f.name)
        if f.name != "form" and v is not None and not np.isfinite(v).all():
            got = "" if isinstance(v, np.ndarray) else f", got {v!r}"
            raise ModelError(
                f"{type(spec).__name__} {f.name} must be finite{got}"
            )


def _coords_1d(grid: QuadratureGrid, what: str) -> np.ndarray:
    if grid.domain.dim != 1:
        raise ModelError(f"{what} is defined for 1-D domains only")
    return grid.nodes[:, 0]


class _Structured:
    """A matrix applied through its structure: ``@`` on a vector is
    `matvec`, ``rows(s)`` forms the rows s alone, and ``np.asarray``
    materializes every row."""

    # numpy arithmetic with an ndarray raises instead of materializing
    __array_ufunc__ = None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)

    def __array__(self, dtype=None, copy=None):
        return self.rows(slice(None))


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
        # the bits of left @ (right.T @ v), without NumPy's slow path for
        # an (n, 1) @ (1,) product
        return (v @ self.right) @ self.left.T

    def rows(self, s) -> np.ndarray:
        """sum_k outer(left_k[s], right_k), entry by entry."""
        left = self.left[s]
        out = np.multiply.outer(left[:, 0], self.right[:, 0])
        for lk, rk in zip(left.T[1:], self.right.T[1:]):
            out += np.multiply.outer(lk, rk)
        return out


class Kron(_Structured):
    """The Kronecker product f_1 (x) ... (x) f_N of square matrices on
    ij-ordered tensor nodes (Van Loan, J. Comput. Appl. Math. 123, 2000).

    Node (i_1, ..., i_N), the last index fastest as `build_grid` orders
    them, pairs row i_k of each f_k.  Each factor but the last
    left-multiplies the node values as a stack of (n_k, rest) blocks,
    and the last right-multiplies rows of length n_N, so two factors
    give (f_1 @ V @ f_2.T).ravel() with V = v.reshape(n_1, n_2).
    """

    def __init__(self, *factors: np.ndarray):
        self.factors = tuple(
            _read_only(np.array(f, dtype=float)) for f in factors
        )
        n = math.prod(len(f) for f in self.factors)
        self.shape = (n, n)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        pre = 1
        for f in self.factors[:-1]:
            v = f @ v.reshape(pre, len(f), -1)
            pre *= len(f)
        last = self.factors[-1]
        return (v.reshape(-1, len(last)) @ last.T).ravel()

    def rows(self, s) -> np.ndarray:
        """Entry (i, j) is the product over k of f_k[i_k, j_k], taken
        left to right, as in np.kron."""
        index = np.arange(self.shape[0])[s]
        sizes = [len(f) for f in self.factors]
        out = np.ones((len(index), 1))
        for f, i in zip(self.factors, np.unravel_index(index, sizes)):
            out = (out[:, :, None] * f[i][:, None, :]).reshape(len(index), -1)
        return out


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

    def rows(self, s) -> np.ndarray:
        """T[i, j] = col[|i - j|]."""
        i = np.arange(self.shape[0])
        return self.col[np.abs(i[s, None] - i[None, :])]


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Dispersal kernel K(x, y), one of four forms.

    constant:  K = value
    rank_one:  K(x, y) = f(x) f(y) for a 1-D polynomial f (coeffs low to high)
    gaussian:  K(x, y) = exp(-|x - y|^2 / length_scale^2)
    tabulated: explicit (n, n) matrix over the grid nodes

    ``matrix`` is held read-only: a writable array is copied.  Every
    number of the spec must be finite, else it raises a ModelError.
    """

    FORMS = ("constant", "rank_one", "gaussian", "tabulated")

    form: str
    value: float = 1.0
    coeffs: Optional[tuple] = None
    length_scale: float = 1.0
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        _refuse_non_finite(self)

    @classmethod
    def constant(cls, value: float = 1.0) -> "KernelSpec":
        if not value >= 0:
            raise ModelError("constant kernel value must be nonnegative")
        return cls(form="constant", value=float(value))

    @classmethod
    def rank_one(cls, coeffs) -> "KernelSpec":
        return cls(form="rank_one", coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def gaussian(cls, length_scale: float = 1.0) -> "KernelSpec":
        if not length_scale > 0:
            raise ModelError("gaussian length_scale must be positive")
        return cls(form="gaussian", length_scale=float(length_scale))

    @classmethod
    def tabulated(cls, matrix: np.ndarray) -> "KernelSpec":
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ModelError("tabulated kernel must be a square matrix")
        return cls(form="tabulated", matrix=_read_only(m))


def _gaussian(x: np.ndarray, length_scale: float) -> np.ndarray:
    """exp(-(x_i - x_j)^2 / length_scale^2) over 1-D coordinates."""
    k = np.subtract.outer(x, x) ** 2
    k /= -length_scale**2
    return np.exp(k, out=k)


def _kernel(kernel: KernelSpec, grid: QuadratureGrid):
    """K over the nodes: a LowRank (constant, rank_one), a Toeplitz (the
    gaussian on one evenly spaced axis), a Kron of the per-axis
    gaussians (every other grid) or the spec's own read-only matrix
    (tabulated).  Entries must be >= 0 and finite."""
    n = grid.n
    if kernel.form == "constant":
        return LowRank(np.full((n, 1), kernel.value), np.ones((n, 1)))
    if kernel.form == "rank_one":
        with np.errstate(over="ignore", invalid="ignore"):
            f = _polyval(kernel.coeffs, _coords_1d(grid, "rank_one kernel"))
        # the largest entry is max|f|^2; a NaN in f makes it NaN
        big = float(np.abs(f).max())
        if not math.isfinite(big * big):
            raise ModelError("kernel entries overflow float64")
        if f.min() * f.max() < 0:
            raise ModelError("kernel is negative at a sampled pair")
        return LowRank(f, f)
    if kernel.form == "gaussian":
        axes = [x for x, _ in grid.axes()]
        if len(axes) == 1 and grid.rule in ("trapezoid", "midpoint"):
            # evenly spaced, so K(x_i, x_j) depends on |i - j| alone
            x = axes[0]
            col = np.exp(-((x - x[0]) ** 2) / kernel.length_scale**2)
            return Toeplitz(col)
        return Kron(*(_gaussian(x, kernel.length_scale) for x in axes))
    if kernel.form == "tabulated":
        if kernel.matrix.shape != (n, n):
            raise ModelError(
                f"tabulated kernel has shape {kernel.matrix.shape}, "
                f"grid needs ({n}, {n})"
            )
        if kernel.matrix.min() < 0:
            raise ModelError("kernel is negative at a sampled pair")
        return kernel.matrix
    raise ModelError(f"unknown kernel form {kernel.form!r}")


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Crowding weight Q(x, y) >= 0 plus the reaction exponent p > 0.

    constant:       Q = value
    separable:      Q(x, y) = g(x) h(y), 1-D polynomials
    polynomial_dip: Q(x, y) = h(y) [level - prod_i |x - x_i|^(q_i)] + g(y)
    tabulated:      explicit (n, n) matrix over the grid nodes

    ``matrix`` is held read-only: a writable array is copied.  Every
    number of the spec must be finite, else it raises a ModelError.
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

    def __post_init__(self):
        if not self.p > 0:
            raise ModelError("reaction exponent p must be positive")
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        _refuse_non_finite(self)

    @classmethod
    def constant(cls, value: float = 1.0, p: float = 1.0) -> "WeightSpec":
        if not value >= 0:
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
        if not all(q > 0 for q in exps):
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
        return cls(form="tabulated", p=float(p), matrix=_read_only(m))


def _dip_profile(weight: WeightSpec, x: np.ndarray) -> np.ndarray:
    """prod_i |x - x_i|^(q_i) over 1-D coordinates."""
    prod = np.ones_like(x)
    for xi, qi in zip(weight.points, weight.exponents):
        prod = prod * np.abs(x - xi) ** qi
    return prod


def _weight(weight: WeightSpec, grid: QuadratureGrid):
    """Q over the nodes: a LowRank (constant, separable, polynomial_dip)
    or the spec's own read-only matrix (tabulated).  Entries must be >= 0
    and finite: `_extreme_rows` holds a LowRank's least entry, and a NaN
    or infinite factor entry shows in it."""
    n = grid.n
    if weight.form == "tabulated":
        if weight.matrix.shape != (n, n):
            raise ModelError(
                f"tabulated weight has shape {weight.matrix.shape}, "
                f"grid needs ({n}, {n})"
            )
        if weight.matrix.min() < 0:
            raise ModelError("weight is negative at a sampled pair")
        return weight.matrix
    with np.errstate(over="ignore", invalid="ignore"):
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
                np.column_stack(
                    [_polyval(weight.h, x), _polyval(weight.g, x)]
                ),
            )
        else:
            raise ModelError(f"unknown weight form {weight.form!r}")
        ext = _extreme_rows(q)
    if not np.isfinite(ext).all():
        raise ModelError("weight entries overflow float64")
    if ext.min() < 0:
        raise ModelError("weight is negative at a sampled pair")
    return q


def _factors(m) -> Optional[tuple]:
    """The (left, right) factors of K or Q if `_kernel` or `_weight`
    returned a LowRank, else None."""
    return (m.left, m.right) if isinstance(m, LowRank) else None


def _rows(m, s) -> np.ndarray:
    """Rows s of K or Q in the form `_kernel` or `_weight` returns, with
    the arithmetic of its dense form."""
    return m[s] if isinstance(m, np.ndarray) else m.rows(s)


def _row_blocks(n: int) -> list:
    """Slices of rows covering range(n), each of about _BLOCK entries."""
    step = max(1, _BLOCK // n)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _sq_dist(grid: QuadratureGrid, s) -> np.ndarray:
    """|x_i - x_j|^2 for the nodes i in s, summed one axis at a time."""
    d2 = np.zeros((len(grid.nodes[s]), grid.n))
    for c in grid.nodes.T:
        d2 += np.subtract.outer(c[s], c) ** 2
    return d2


def _near_min(m, grid: QuadratureGrid, r: float) -> float:
    """min m_ij over the pairs with |x_i - x_j| <= r, row block by block."""
    low = np.inf
    for s in _row_blocks(grid.n):
        near = _sq_dist(grid, s) <= r**2
        low = np.minimum(low, np.min(_rows(m, s), where=near, initial=np.inf))
    return float(low)


def _extreme_rows(m: LowRank) -> np.ndarray:
    """The rows of a LowRank K or Q where its first left column is least
    and greatest.  `_kernel` and `_weight` keep every other left column
    constant, so entry (i, j) is a monotone function of left[i, 0], as
    floating-point x -> x r and x -> x + c are: the two rows hold every
    column's least and greatest entry, and every entry is finite when
    they are."""
    first = m.left[:, 0]
    return m.rows([first.argmin(), first.argmax()])


def _least(k) -> float:
    """The least entry of K.  A Toeplitz holds its entries in its
    column, and a LowRank K has one left column, so `_extreme_rows`
    holds its least entry.  A Kron's entries are products of its
    factors' entries, all >= 0, and multiplying values >= 0 is
    monotone, so its least entry is the product of the factors' least."""
    if isinstance(k, np.ndarray):
        return k.min()
    if isinstance(k, Toeplitz):
        return k.col.min()
    if isinstance(k, Kron):
        return math.prod(f.min() for f in k.factors)
    return _extreme_rows(k).min()


def _k1(k) -> tuple[bool, float]:
    """max |K - K^T|: 0 for a structured K, symmetric by construction,
    and streamed over blocks of rows of K and of K^T for a tabulated K."""
    asym = 0.0
    if isinstance(k, np.ndarray):
        asym = float(np.max([
            np.abs(k[s] - k.T[s]).max() for s in _row_blocks(len(k))
        ]))
    return asym <= _SYM_TOL, asym


def _k2(k, grid: QuadratureGrid, delta: float) -> bool:
    """Whether K > 0 on every pair with |x - y| <= delta."""
    if delta >= grid.domain.diameter:
        # every pair of nodes in the box lies within its diameter
        return bool(_least(k) > 0)
    return _near_min(k, grid, delta) > 0


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


def _lead_row(q: LowRank, col_max: np.ndarray) -> int:
    """The first row i maximizing min_j (Q_ij - col_max_j), for a LowRank
    Q that `_weight` built, in O(n log n).

    Row i depends on t = left[i, 0] alone.  Its gaps Q_ij - col_max_j
    rise with t where right[j, 0] >= 0 and fall where it is negative, so
    the least gap of each kind, up(t) and down(t), is monotone and their
    minimum rises, then falls.  Bisection over the distinct values of t
    finds where up and down cross, then the run of values at the top;
    the row wanted is the first whose t lies in that run.
    """
    t = q.left[:, 0]
    values, first = np.unique(t, return_index=True)
    rising = q.right[:, 0] >= 0

    @functools.cache
    def parts(k):
        gap = q.rows([first[k]])[0] - col_max
        return (
            gap[rising].min(initial=np.inf),
            gap[~rising].min(initial=np.inf),
        )

    def adv(k):
        return min(parts(k))

    def crossed(k):
        up, down = parts(k)
        return up >= down

    m = len(values)
    cross = bisect_left(range(m), True, key=crossed)
    peak = max((k for k in (cross - 1, cross) if 0 <= k < m), key=adv)
    top = adv(peak)
    lo = bisect_left(range(peak + 1), True, key=lambda k: adv(k) >= top)
    hi = peak - 1 + bisect_left(
        range(peak, m), True, key=lambda k: adv(k) < top
    )
    return int(np.argmax((t >= values[lo]) & (t <= values[hi])))


def _floor(q, grid: QuadratureGrid, r: float) -> FloorReport:
    """Certify the positive floor of a Q that `_weight` built and locate
    a maximizing node x0.

    For a LowRank, two rows (`_extreme_rows`) give the column extremes
    and `_lead_row` gives x0; a tabulated Q streams in blocks of rows,
    with O(n b) memory.  Every value equals the dense computation bit for
    bit.
    """
    if isinstance(q, np.ndarray):
        col_min, col_max = np.full(grid.n, np.inf), np.full(grid.n, -np.inf)
        for s in _row_blocks(grid.n):
            rows = _rows(q, s)
            np.minimum(col_min, rows.min(axis=0), out=col_min)
            np.maximum(col_max, rows.max(axis=0), out=col_max)
        i0 = int(np.argmax(np.concatenate([
            (_rows(q, s) - col_max).min(axis=1) for s in _row_blocks(grid.n)
        ])))
    else:
        ext = _extreme_rows(q)
        col_min, col_max = ext.min(axis=0), ext.max(axis=0)
        i0 = _lead_row(q, col_max)
    sigma_global = float(col_min.min())
    if r >= grid.domain.diameter:
        # every pair of nodes in the box lies within its diameter
        sigma = sigma_global
    else:
        sigma = _near_min(q, grid, r)
    defect = float(-(_rows(q, [i0]) - col_max).min())
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
        oscillation=float((col_max - col_min).max()),
    )


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """Certificates for one (kernel, weight, grid) triple.

    ``q3`` is None when the weight form carries no symbolic certificate
    (only the polynomial_dip preset does).  When present, it is the
    exponent gate q_i < N / p for every dip exponent together with
    min h > 0 over the nodes, and nothing else.  ``q3_a`` samples the
    comparison function a(x) = m * (P(x) - min P) with m = min h, and
    ``q3_integrals`` records the quadrature values of a^(-1), a^(-p) and
    a^(-q) for q = max(1, p), over nodes with a >= 1e-14.

    No pointwise comparison is made: Q(x0, y) - Q(x, y) >= a(x) holds
    by construction, since m is the minimum of h over the nodes y runs
    over, so the difference is (P(x) - P(x0)) (h(y) - m) >= 0.
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
    if weight.form != "polynomial_dip":
        return None, None, None, None
    x = _coords_1d(grid, "polynomial_dip weight")
    n_dim = grid.domain.dim
    exponents_ok = all(qi < n_dim / weight.p for qi in weight.exponents)

    prof = _dip_profile(weight, x)
    i0 = int(np.argmin(prof))
    m_coef = float(_polyval(weight.h, x).min())
    a = m_coef * (prof - prof[i0])

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
    ok = exponents_ok and m_coef > 0
    return ok, i0, a, integrals


def certify(
    op,
    weight: WeightSpec,
    r: float,
    delta: Optional[float] = None,
) -> HypothesisReport:
    """Run every grid-level certificate and collect the results.

    K is read as ``op.k`` over ``op.grid``, in the form `assemble` built
    it (``op`` is a `DiscreteOperator`); Q is built by `_weight` and read
    by `_floor`.
    """
    if delta is None:
        delta = r
    if not r > 0:
        raise ModelError("r must be positive")
    if not delta > 0:
        raise ModelError("delta must be positive")
    grid = op.grid
    k1, asym = _k1(op.k)
    floor = _floor(_weight(weight, grid), grid, r)
    q3, q3_i0, q3_a, q3_int = _certify_q3(weight, grid)
    return HypothesisReport(
        k1=k1,
        max_asymmetry=asym,
        k2=_k2(op.k, grid, delta),
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


def build_q_eps(q, a_eps: np.ndarray):
    """Q_eps(x, y) = Q(x, y) (2 - a_eps(x)) of a Q that `_weight` built
    (``Reaction.q``), in its form: a LowRank with its left factor scaled,
    or a read-only scaled copy of a tabulated Q.  a_eps holds one value
    in [0, 1] per node, so the sign stays; a Q_eps that can overflow
    float64 is refused."""
    a = np.asarray(a_eps, dtype=float)
    if a.shape != (q.shape[0],) or a.min() < 0 or a.max() > 1 + 1e-12:
        raise ModelError("a_eps must hold one value in [0, 1] per node")
    scale = 2.0 - a
    with np.errstate(over="ignore"):
        if isinstance(q, LowRank):
            q = LowRank(scale[:, None] * q.left, q.right)
            # entry (i, j) sums left[i, k] right[j, k] over k in order, so
            # by monotone rounding this sum bounds its magnitude
            big = sum(np.abs(q.left).max(axis=0) * np.abs(q.right).max(axis=0))
        else:
            q = _read_only(q * scale[:, None])
            big = q.max()
    if not np.isfinite(big):
        raise ModelError("weight entries overflow float64")
    return q
