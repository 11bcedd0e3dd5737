"""One checker per quantitative bound, and `verify_branch` to run them.

Checkers return BoundReport records with the convention margin >= 0
means the bound is satisfied, and every checker can report its bound
violated.  `verify_branch` runs them over a stored branch from its
states (lambda, u) alone; it is the one place that reads the weight
floor and the ball covering of the a-priori L^p bound, which the tracer
does not compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .continuation import _branch_point
from .geometry import Covering, QuadratureGrid, cover
from .logistic import Reaction, phi, reaction
from .model import WeightSpec, check_weight_floor
from .operator import (
    DiscreteOperator,
    collatz_wielandt_sup,
    principal_eigenpair,
)

__all__ = [
    "BoundReport",
    "VerificationError",
    "check_admissibility",
    "check_collatz_wielandt",
    "check_covering_bound",
    "check_phi_floor",
    "check_positivity",
    "verify_branch",
]


class VerificationError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class BoundReport:
    name: str
    holds: bool
    margin: float
    context: dict = field(default_factory=dict)
    applicable: bool = True


def check_admissibility(point) -> BoundReport:
    """gamma ||Phi_u||_inf < 1 with gamma = 1 / lambda."""
    margin = 1.0 - point.gamma_phi_sup
    return BoundReport(
        name="admissibility",
        holds=margin > 0,
        margin=margin,
        context={"lambda": point.lam, "gamma_phi_sup": point.gamma_phi_sup},
    )


def check_covering_bound(
    point, covering: Covering, sigma: float, p: float
) -> BoundReport:
    """||u||_p <= (m lambda / sigma)^(1/p) from the ball covering."""
    if sigma <= 0:
        raise VerificationError("covering bound needs a positive sigma")
    bound = (covering.m * point.lam / sigma) ** (1.0 / p)
    margin = bound - point.p_norm
    return BoundReport(
        name="lp_covering_bound",
        holds=margin >= -1e-8,
        margin=margin,
        context={
            "lambda": point.lam,
            "m": covering.m,
            "sigma": sigma,
            "p": p,
            "p_norm": point.p_norm,
            "bound": bound,
        },
    )


def check_phi_floor(
    rx: Reaction,
    grid: QuadratureGrid,
    u: np.ndarray,
    sigma: float,
) -> BoundReport:
    """min_x Phi_u(x) >= sigma ||u||_p^p under a global weight floor."""
    floor_val = sigma * grid.lp_norm(u, rx.p) ** rx.p
    margin = float(phi(rx, u).min()) - floor_val
    return BoundReport(
        name="phi_floor",
        holds=margin >= -1e-8,
        margin=margin,
        context={"sigma": sigma, "floor": floor_val},
    )


def check_positivity(op: DiscreteOperator, u: np.ndarray) -> BoundReport:
    """u > 0 at every node and the rate c = (L0 u) / u positive with it."""
    u = np.asarray(u, dtype=float)
    sup = float(np.abs(u).max())
    if sup <= 1e-12:
        return BoundReport(
            name="positivity",
            holds=True,
            margin=math.nan,
            context={"note": "trivial solution"},
            applicable=False,
        )
    min_u = float(u.min())
    if min_u <= 0:
        return BoundReport(
            name="positivity",
            holds=False,
            margin=min_u,
            context={"min_u": min_u},
        )
    c = op.apply(u) / u
    min_c = float(c.min())
    return BoundReport(
        name="positivity",
        holds=min_c > 0,
        margin=min_u,
        context={"min_u": min_u, "min_c": min_c},
    )


def check_collatz_wielandt(
    op: DiscreteOperator, lambda1: float, u: np.ndarray
) -> BoundReport:
    """lambda1 <= sup_x (L0 u)(x) / u(x) for any positive u."""
    cw = collatz_wielandt_sup(op, u)
    margin = cw - lambda1
    return BoundReport(
        name="collatz_wielandt",
        holds=margin >= -1e-8,
        margin=margin,
        context={"sup_ratio": cw, "lambda1": lambda1},
    )


def _worst(name: str, reports: list, **context) -> BoundReport | None:
    """One report over a branch: the worst margin, and whether all hold."""
    if not reports:
        return None
    worst = min(reports, key=lambda r: r.margin)
    return BoundReport(
        name=name,
        holds=all(r.holds for r in reports),
        margin=worst.margin,
        context=worst.context | context | {"points": len(reports)},
    )


def _check_residual(point) -> BoundReport:
    """|A u + Phi_u u - lambda u|_inf <= 1e-8 max(1, |u|_inf)."""
    bound = 1e-8 * max(1.0, point.sup_norm)
    return BoundReport(
        name="residual",
        holds=point.residual_norm <= bound,
        margin=bound - point.residual_norm,
        context={"lambda": point.lam, "residual": point.residual_norm},
    )


def verify_branch(
    op: DiscreteOperator,
    weight: WeightSpec,
    branch,
) -> list[BoundReport]:
    """Run every applicable checker over all points of a stored branch.

    Only the states (lambda, u) are read: ``branch.points`` may hold any
    records with ``lam`` and ``u``.  Each point is rebuilt from them by the
    tracer's own `_branch_point`; lambda1 comes from
    `principal_eigenpair(op)`, and the weight floor sigma at r = the domain
    diameter and the count m of the ball covering of that radius from the
    weight and the grid.  The recorded scalars and the branch metadata,
    ``seed_lambda1`` included, are ignored.  Aggregated reports carry the
    worst margin over the branch.
    """
    grid = op.grid
    lambda1 = principal_eigenpair(op).lambda1
    rx = reaction(weight, grid)
    floor = check_weight_floor(weight, grid, r=grid.domain.diameter)
    pts = [_branch_point(op, rx, pt.lam, pt.u, 0) for pt in branch.points]
    positivity = [check_positivity(op, pt.u) for pt in pts]
    reports = [
        _worst("residual", [_check_residual(pt) for pt in pts]),
        _worst("admissibility", [check_admissibility(pt) for pt in pts]),
        _worst("positivity", [r for r in positivity if r.applicable]),
        _worst(
            "collatz_wielandt",
            [check_collatz_wielandt(op, lambda1, pt.u)
             for pt in pts if pt.min_u > 0],
        ),
    ]
    if floor.q2pp:
        covering = cover(grid, floor.r)
        reports.append(_worst(
            "lp_covering_bound",
            [check_covering_bound(pt, covering, floor.sigma, weight.p)
             for pt in pts],
            r=floor.r,
        ))
        reports.append(_worst(
            "phi_floor",
            [check_phi_floor(rx, grid, pt.u, floor.sigma_global)
             for pt in pts],
        ))
    return [r for r in reports if r is not None]
