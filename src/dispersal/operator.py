"""Nystrom discretization of the dispersal operator and its principal pair.

The operator (Lu)(x) = integral of K(x, y) u(y) dy becomes the matrix
A = K * diag(w) acting on node values.  A is similar to the symmetric
matrix S = diag(sqrt w) K diag(sqrt w), so its spectrum is real and the
largest eigenvalue is the maximum of the weighted Rayleigh quotient.
Only S is stored; `DiscreteOperator.apply` applies A as
diag(sqrt w)^-1 S diag(sqrt w), so A is never formed.  S is built once,
in the form the kernel allows: a rank-one `LowRank` for the constant and
rank-one kernels, `Kron(Sx, Sy)` of the per-axis matrices
Sa = diag(sqrt wa) Ka diag(sqrt wa) for a gaussian on a 2-D tensor grid,
`Toeplitz(col, sqrt w)`, applied by FFT in O(n log n), for a 1-D
gaussian on the evenly spaced trapezoid and midpoint rules, and a dense
read-only array for a 1-D gaussian on Gauss-Legendre nodes and for
tabulated kernels.  Every form applies with ``@``, so `apply` and the
eigensolver do not depend on it; only certificates materialize S, by
``np.asarray``.
For a symmetric kernel that is positive near the diagonal the principal
eigenvalue is simple and its eigenfunction can be taken strictly
positive; `principal_eigenpair` enforces exactly that and refuses to
return anything violating it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from .geometry import QuadratureGrid
from .model import KernelSpec, Kron, LowRank, Toeplitz, _kernel

__all__ = [
    "DiscreteOperator",
    "OperatorError",
    "PrincipalEigenpair",
    "assemble",
    "collatz_wielandt_sup",
    "principal_eigenpair",
    "rayleigh",
]


class OperatorError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Symmetrized matrix ``s`` of the operator and the grid it lives on.

    ``s`` is a `LowRank`, a `Kron`, a `Toeplitz` or a read-only ndarray
    (see the module docstring).
    """

    s: LowRank | Kron | Toeplitz | np.ndarray
    grid: QuadratureGrid
    kernel: KernelSpec

    @property
    def n(self) -> int:
        return self.grid.n

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u = (S (sqrt(w) u)) / sqrt(w)."""
        root_w = np.sqrt(self.grid.weights)
        return (self.s @ (root_w * np.asarray(u, dtype=float))) / root_w


def assemble(kernel: KernelSpec, grid: QuadratureGrid) -> DiscreteOperator:
    k = _kernel(kernel, grid)
    root_w = np.sqrt(grid.weights)[:, None]
    if isinstance(k, LowRank):
        s = LowRank(root_w * k.left, root_w * k.right)
    elif isinstance(k, Kron):
        ra, rb = (np.sqrt(w)[:, None] for _, w in grid.axes())
        s = Kron(ra * k.a * ra.T, rb * k.b * rb.T)
    elif isinstance(k, Toeplitz):
        s = Toeplitz(k.col, root_w[:, 0] * k.scale)
    else:
        s = k
        s *= root_w
        s *= root_w.T
        s.setflags(write=False)
    return DiscreteOperator(s=s, grid=grid, kernel=kernel)


@dataclass(frozen=True, eq=False)
class PrincipalEigenpair:
    """Largest eigenvalue of the operator with its positive eigenfunction.

    ``phi1`` is sup-normalized and strictly positive; ``gap`` is the
    distance to the second eigenvalue and certifies simplicity;
    ``residual`` is the sup norm of A phi1 - lambda1 phi1.
    """

    lambda1: float
    phi1: np.ndarray
    gap: float
    residual: float


def principal_eigenpair(op: DiscreteOperator) -> PrincipalEigenpair:
    # ARPACK from the fixed start sqrt(w), the constant function in the
    # symmetric frame.  Rank-deficient kernels exhaust the Krylov space and
    # make ARPACK restart from random vectors, so the generator is seeded
    # too: repeated runs give identical bits.  tol=0 asks for machine
    # precision.  A kernel that vanishes on every node (a zero constant
    # or rank-one kernel) leaves ARPACK a zero start.  On two nodes
    # k = n, and eigsh hands the pair to eigh with a warning.
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "k >= N", RuntimeWarning)
            evals, evecs = eigsh(
                op.s, k=2, which="LA", v0=np.sqrt(op.grid.weights), tol=0,
                rng=0,
            )
    except ArpackError as exc:
        raise OperatorError(f"no principal eigenpair: {exc}") from exc
    lam1, lam2, z = evals[-1], evals[-2], evecs[:, -1]
    if lam1 <= 0:
        raise OperatorError(
            f"principal eigenvalue must be positive, got {lam1}"
        )
    phi = z / np.sqrt(op.grid.weights)
    if op.grid.inner(phi, np.ones(op.n)) < 0:
        phi = -phi
    if phi.min() <= 1e-12 * phi.max():
        raise OperatorError(
            "principal eigenfunction is not strictly positive "
            "(positivity of the principal pair fails; the kernel likely "
            "violates symmetry or near-diagonal positivity)"
        )
    phi = phi / np.abs(phi).max()
    residual = float(np.abs(op.apply(phi) - lam1 * phi).max())
    if residual > 1e-10 * lam1:
        raise OperatorError(
            f"eigen residual {residual} exceeds tolerance for lambda1={lam1}"
        )
    return PrincipalEigenpair(
        lambda1=float(lam1), phi1=phi, gap=float(lam1 - lam2), residual=residual
    )


def rayleigh(op: DiscreteOperator, u: np.ndarray) -> float:
    """Weighted Rayleigh quotient <A u, u>_w / <u, u>_w."""
    u = np.asarray(u, dtype=float)
    denom = op.grid.inner(u, u)
    if denom <= 0:
        raise OperatorError("rayleigh quotient needs a nonzero state")
    return op.grid.inner(op.apply(u), u) / denom


def collatz_wielandt_sup(op: DiscreteOperator, u: np.ndarray) -> float:
    """sup of (A u) / u for strictly positive u.

    For any positive u this is an upper Collatz-Wielandt value, so it is
    always >= lambda1; equality holds at the principal eigenfunction.
    """
    u = np.asarray(u, dtype=float)
    if u.min() <= 0:
        raise OperatorError("collatz_wielandt_sup needs strictly positive u")
    return float((op.apply(u) / u).max())
