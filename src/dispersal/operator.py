"""Nystrom discretization of the dispersal operator and its principal pair.

The operator (Lu)(x) = integral of K(x, y) u(y) dy becomes the matrix
A = K diag(w) acting on node values.  `DiscreteOperator` holds K exactly
as `model` builds it, in the form its structure allows, and `apply`
computes K (w u), so A is never formed.  A is similar to the symmetric
matrix S = diag(sqrt w) K diag(sqrt w), so its spectrum is real and the
largest eigenvalue is the maximum of the weighted Rayleigh quotient.  S
exists only as a matrix-vector product inside `_pencil`, which solves
the pencil S v = nu diag(c) v for a positive field c: one Lanczos run
with full reorthogonalization on C^-1/2 S C^-1/2, applied as
d (K (d v)) with d = sqrt(w / c), from a fixed start that breaks the
grid's symmetry; a breakdown at its first step, where that start is an
eigenvector (a zero kernel), raises OperatorError.  It needs NumPy alone
and returns the same bits on every call.  `principal_eigenpair` is that
pencil at c = 1, and the spectral oracle of the tests
(`tests/oracles.py`) solves it at its own c.
For a symmetric kernel that is positive near the diagonal the principal
eigenvalue is simple and its eigenfunction can be taken strictly
positive; `principal_eigenpair` enforces exactly that and refuses to
return anything violating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import QuadratureGrid
from .model import KernelSpec, Kron, LowRank, Toeplitz, _kernel

__all__ = [
    "DiscreteOperator",
    "OperatorError",
    "PrincipalEigenpair",
    "assemble",
    "principal_eigenpair",
]


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class OperatorError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Kernel matrix ``k`` over the nodes of ``grid``, in the form
    `model` builds it (a `LowRank`, `Kron`, `Toeplitz` or ndarray)."""

    k: LowRank | Kron | Toeplitz | np.ndarray
    grid: QuadratureGrid

    @property
    def n(self) -> int:
        return self.grid.n

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u = K (w u)."""
        return self.k @ (self.grid.weights * np.asarray(u, dtype=float))


def assemble(kernel: KernelSpec, grid: QuadratureGrid) -> DiscreteOperator:
    return DiscreteOperator(k=_kernel(kernel, grid), grid=grid)


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


def _weyl(n: int) -> np.ndarray:
    """frac(g i) for i = 1 .. n, g the golden ratio.

    A fixed sequence with no symmetry under any reflection or swap of the
    grid axes, so it has components along odd and even eigenvectors
    alike.
    """
    return np.modf(_GOLDEN * np.arange(1, n + 1))[0]


def _lanczos(apply_s, start: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Top two eigenvalues of the symmetric matrix that ``apply_s``
    applies and the unit eigenvector of the first, by Lanczos with full
    reorthogonalization.

    Every new basis vector is orthogonalized twice against the whole
    basis (CGS2), so the basis stays orthonormal to rounding and the
    Ritz residual bound |beta_k y_k| is the true residual.  The loop stops
    when both top Ritz pairs have a bound at most eps |theta|max, or when
    the basis spans all n dimensions, where the Ritz pairs are exact.  A
    breakdown (beta_k = 0: the Krylov space is invariant) leaves the Ritz
    pairs exact, so it stops the loop once there are two: a rank-one S
    stops after two steps with lambda2 = 0.  A breakdown at the first
    step, where the start is an eigenvector (a zero S), raises
    OperatorError.
    """
    n = start.size
    eps = np.finfo(float).eps
    basis = np.empty((min(n, 32), n))
    alpha: list[float] = []
    beta: list[float] = []
    q = start / np.linalg.norm(start)
    for k in range(n):
        if k == len(basis):
            basis = np.concatenate((basis, np.empty((min(k, n - k), n))))
        basis[k] = q
        v = basis[: k + 1]
        w = apply_s(q)
        h = v @ w
        w -= h @ v
        c = v @ w
        w -= c @ v
        alpha.append(float(h[k] + c[k]))
        b = float(np.linalg.norm(w))
        t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        theta, y = np.linalg.eigh(t)
        tol = eps * np.abs(theta).max()
        if k == n - 1 or (k > 0 and (b * np.abs(y[-1, -2:]) <= tol).all()):
            break
        if b <= tol:  # only at k == 0: from k = 1 on, this meets the stop test
            raise OperatorError(
                "Lanczos broke down at its first step: the start vector is "
                f"an eigenvector of S, with eigenvalue {alpha[0]}"
            )
        q = w / b
        beta.append(b)
    return float(theta[-1]), float(theta[-2]), y[:, -1] @ v


def _pencil(
    op: DiscreteOperator, c: np.ndarray | float
) -> tuple[float, float, np.ndarray]:
    """Top two eigenvalues of the pencil S v = nu diag(c) v, c > 0, with
    the node values u = v / sqrt(w) of the first eigenvector, sign-fixed
    to a positive integral and sup-normalized.

    Lanczos runs on C^-1/2 S C^-1/2 = D K D, D = diag(sqrt(w / c)), from
    sqrt(w c) (1 + frac(g i)): node values 1 plus a part that breaks the
    grid's symmetry, without which the odd eigenvectors, and with them
    the second eigenvalue, stay out of the Krylov space.  The constant
    lies close to the positive eigenvector.  Every step is
    deterministic, so repeated runs give identical bits.
    """
    w = op.grid.weights
    d = np.sqrt(w / c)
    e = np.sqrt(w * c)
    nu1, nu2, y = _lanczos(
        lambda v: d * (op.k @ (d * v)), e * (1.0 + _weyl(op.n))
    )
    u = y / e
    if op.grid.integrate(u) < 0:
        u = -u
    return nu1, nu2, u / np.abs(u).max()


def principal_eigenpair(op: DiscreteOperator) -> PrincipalEigenpair:
    lam1, lam2, phi = _pencil(op, 1.0)
    if lam1 <= 0:
        raise OperatorError(
            f"principal eigenvalue must be positive, got {lam1}"
        )
    if phi.min() <= 1e-12:
        raise OperatorError(
            "principal eigenfunction is not strictly positive "
            "(positivity of the principal pair fails; the kernel likely "
            "violates symmetry or near-diagonal positivity)"
        )
    residual = float(np.abs(op.apply(phi) - lam1 * phi).max())
    if residual > 1e-10 * lam1:
        raise OperatorError(
            f"eigen residual {residual} exceeds tolerance for lambda1={lam1}"
        )
    return PrincipalEigenpair(
        lambda1=float(lam1), phi1=phi, gap=float(lam1 - lam2), residual=residual
    )

