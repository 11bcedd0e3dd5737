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
pure.  The reaction term is one `Reaction` value: the matrix Q exactly as
`model` builds it, the quadrature weights w and the exponent p, built by
`reaction(weight, grid)` once per entry point (a solve, a trace, a
verification, a regularized run) and passed down, so a Q always meets
the exponent of its own weight.  A member of the regularized family is
the same `Reaction` with its Q row-scaled by `model.build_q_eps`.  `phi`
computes Q (w |u|^p), so Phi_u costs what one product with Q costs in
its form: O(n) for every weight but a tabulated one.  The dispersal part
goes through `DiscreteOperator.apply`, and `residual` forms
A u + Phi_u u - lambda u; `verify_branch` writes the same expression out
with the A u it also reads positivity from.  `JacobianAction` applies
its derivative in u without forming it (``@``), and carries the factors
of its low-rank part when K and Q are both LowRank; it is the only
Jacobian, the one the Newton solver uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import QuadratureGrid
from .model import LowRank, WeightSpec, _factors, _weight
from .operator import DiscreteOperator

__all__ = [
    "JacobianAction",
    "Reaction",
    "ReactionError",
    "phi",
    "reaction",
    "residual",
]


class ReactionError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Reaction:
    """The reaction term of one weight on one grid: Phi_u = Q (w |u|^p).

    ``q`` is Q in the form `model` builds it (a `LowRank`, or an ndarray
    for a tabulated weight), ``w`` the grid's quadrature weights and
    ``p`` the weight's exponent.
    """

    q: LowRank | np.ndarray
    w: np.ndarray
    p: float


def reaction(weight: WeightSpec, grid: QuadratureGrid) -> Reaction:
    """The `Reaction` of ``weight`` over ``grid``, Q built once."""
    return Reaction(q=_weight(weight, grid), w=grid.weights, p=weight.p)


def phi(rx: Reaction, u: np.ndarray) -> np.ndarray:
    """The reaction field Phi_u = Q (w |u|^p) at the nodes."""
    return rx.q @ (rx.w * np.abs(np.asarray(u, dtype=float)) ** rx.p)


def residual(
    op: DiscreteOperator,
    rx: Reaction,
    lam: float,
    u: np.ndarray,
    phi_u: np.ndarray | None = None,
) -> np.ndarray:
    """A u + Phi_u u - lambda u; ``phi_u`` is `phi(rx, u)` when the
    caller has it already."""
    u = np.asarray(u, dtype=float)
    if phi_u is None:
        phi_u = phi(rx, u)
    return op.apply(u) + phi_u * u - lam * u


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


class JacobianAction:
    """The derivative of `residual` in u at (lam, u), applied without
    forming it.

    v -> A v + (Phi_u - lam) v + u * (Q (w p |u|^(p-1) sgn(u) v)), with
    A = K diag(w): one product with K and one with Q, each in its
    structured form; ``action @ v`` applies it to a float vector v.
    ``shift`` is the diagonal Phi_u - lam of the local part, with
    ``phi_u`` = `phi(rx, u)` when the caller has it already.  For p < 1
    the factor |u|^(p-1) is singular at zero, so a state with
    min |u| <= 1e-10 raises ReactionError.

    When K and Q are both LowRank, the action is diag(shift) + U V^T
    with U = [K.left | u Q.left] and V = [w K.right | slope Q.right],
    slope = w p |u|^(p-1) sgn(u); ``low_rank`` holds (U, V), and is
    None for every other pair of forms.
    """

    def __init__(
        self,
        op: DiscreteOperator,
        rx: Reaction,
        lam: float,
        u: np.ndarray,
        phi_u: np.ndarray | None = None,
    ):
        u = np.asarray(u, dtype=float)
        self._slope = rx.w * _reaction_slope(rx.p, u)
        self._k, self._w, self._q, self._u = op.k, op.grid.weights, rx.q, u
        if phi_u is None:
            phi_u = phi(rx, u)
        self.shift = phi_u - lam
        k, q = _factors(op.k), _factors(rx.q)
        self.low_rank = None if k is None or q is None else (
            np.hstack([k[0], u[:, None] * q[0]]),
            np.hstack([self._w[:, None] * k[1], self._slope[:, None] * q[1]]),
        )

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return (
            self._k @ (self._w * v)
            + self.shift * v
            + self._u * (self._q @ (self._slope * v))
        )
