"""Residual, Jacobian, and reaction term of the nonlocal logistic equation.

The equation solved along branches is

    (L u)(x) = u(x) (lambda - Phi_u(x)),
    Phi_u(x) = integral of Q(x, y) |u(y)|^p dy,

whose discrete residual is A u + Phi_u * u - lambda u.  Phi is
p-homogeneous in the amplitude of u, bounded by ||Q||_inf ||u||_inf^p |O|,
and nonnegative whenever Q is.  With gamma = 1 / lambda the equation is
equivalent to the fixed-point form u = gamma A u + G(gamma, u) with

    G(gamma, u) = gamma^2 Phi_u (A u) / (1 - gamma Phi_u),

defined on the admissible set gamma ||Phi_u||_inf < 1.  All functions are
pure.  The reaction term is one `Reaction` value: the matrix
QW = Q diag(w) together with the exponent p, built by
`reaction(weight, grid)` once per entry point (a solve, a trace, a
checker) and passed down, so a QW always meets the exponent of its own
weight.  For the constant, separable and polynomial-dip weights, and for
their row-scaled eps-family, QW is a `LowRank` of rank 1 or 2, so Phi_u
costs O(n) per evaluation; only a tabulated weight gives a dense
read-only array.  The dispersal part goes through
`DiscreteOperator.apply`, and `residual` is the one place that forms
A u + Phi_u u - lambda u.  `jacobian` materializes the n x n derivative,
A and QW included, as a certificate; `JacobianAction` applies the same
derivative without forming it (``shape``, ``matvec`` and ``@``), which
is what the Newton-Krylov solver uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import QuadratureGrid
from .model import LowRank, WeightSpec, _weight
from .operator import DiscreteOperator

__all__ = [
    "JacobianAction",
    "Reaction",
    "ReactionError",
    "jacobian",
    "phi",
    "reaction",
    "residual",
]


class ReactionError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Reaction:
    """The reaction term of one weight on one grid: Phi_u = qw |u|^p.

    ``qw`` is QW = Q diag(w), a `LowRank` (L, w R) when Q = L R^T has
    factors, else a dense read-only array; ``p`` is the weight's exponent.
    """

    qw: LowRank | np.ndarray
    p: float


def reaction(weight: WeightSpec, grid: QuadratureGrid) -> Reaction:
    """The `Reaction` of ``weight`` over ``grid``, QW built once."""
    q = _weight(weight, grid)
    if isinstance(q, LowRank):
        q = LowRank(q.left, grid.weights[:, None] * q.right)
    else:
        q *= grid.weights[None, :]
        q.setflags(write=False)
    return Reaction(qw=q, p=weight.p)


def phi(rx: Reaction, u: np.ndarray) -> np.ndarray:
    """The reaction field Phi_u = QW |u|^p at the nodes."""
    return rx.qw @ np.abs(np.asarray(u, dtype=float)) ** rx.p


def residual(
    op: DiscreteOperator, rx: Reaction, lam: float, u: np.ndarray
) -> np.ndarray:
    """A u + Phi_u u - lambda u."""
    u = np.asarray(u, dtype=float)
    return op.apply(u) + phi(rx, u) * u - lam * u


def _reaction_slope(p: float, u: np.ndarray) -> np.ndarray:
    """p |u|^(p-1) sgn(u), the derivative of |u|^p."""
    if p < 1 and np.abs(u).min() <= 1e-10:
        raise ReactionError(
            "jacobian with p < 1 needs min |u| > 1e-10; "
            "stay on the positive branch"
        )
    if p == 1:
        return np.sign(u)
    return p * np.abs(u) ** (p - 1) * np.sign(u)


def jacobian(
    op: DiscreteOperator, rx: Reaction, lam: float, u: np.ndarray
) -> np.ndarray:
    """Derivative of the residual in u, as a dense n x n matrix.

    The dispersal part is A = diag(sqrt w)^-1 S diag(sqrt w); A and a
    structured QW are materialized only here.  The reaction contributes
    diag(Phi_u) plus the rank-structure term
    D_ij = u_i p Q_ij |u_j|^(p-1) sgn(u_j) w_j.  For p < 1 that factor is
    singular at zero, so states must stay bounded away from zero there.
    """
    u = np.asarray(u, dtype=float)
    slope = _reaction_slope(rx.p, u)
    root_w = np.sqrt(op.grid.weights)
    a = np.asarray(op.s) / root_w[:, None] * root_w[None, :]
    rank_term = u[:, None] * np.asarray(rx.qw) * slope[None, :]
    return a + np.diag(phi(rx, u) - lam) + rank_term


class JacobianAction:
    """``jacobian(op, rx, lam, u)`` applied without forming it.

    v -> A v + (Phi_u - lam) v + u * (QW (p |u|^(p-1) sgn(u) v)), one
    product with S and one with QW, each in its structured form;
    ``action @ v`` is ``action.matvec(v)``.  ``shift`` is the diagonal
    Phi_u - lam of the local part.  Raises ReactionError where
    `jacobian` does.
    """

    def __init__(
        self, op: DiscreteOperator, rx: Reaction, lam: float, u: np.ndarray
    ):
        u = np.asarray(u, dtype=float)
        self._slope = _reaction_slope(rx.p, u)
        self._op, self._qw, self._u = op, rx.qw, u
        self.shift = phi(rx, u) - lam
        self.shape = (op.n, op.n)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return (
            self._op.apply(v)
            + self.shift * v
            + self._u * (self._qw @ (self._slope * v))
        )

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)
