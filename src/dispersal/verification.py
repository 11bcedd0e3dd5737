"""Every quantitative bound of a stored branch, checked by `verify_branch`.

`verify_branch` reads the states (lambda, u) of a branch alone and
recomputes from them, in one pass over the points, the four reports it
returns as BoundReport records, margin >= 0 meaning the bound holds:

- ``residual``: |A u + Phi_u u - lambda u|_inf <= 1e-8 max(1, |u|_inf);
- ``admissibility``: gamma ||Phi_u||_inf < 1 with gamma = 1 / lambda;
- ``positivity``: u > 0 at every node and the rate (L0 u) / u positive
  with it, its margin min u; the trivial state is not a case of it;
- ``lp_covering_bound``: ||u||_p <= (m lambda / sigma)^(1/p) from the ball
  covering, under a global weight floor.

Each report carries the worst margin over the branch, whether the bound
holds at every point, the context of the worst point and the count of
points it covers.  It is the one place that reads the weight floor and
the ball count of the a-priori L^p bound, which the tracer does not
compute.  Bounds that hold for every state they could be computed on are
not reported: min Phi_u >= sigma ||u||_p^p for any u, and the
Collatz-Wielandt bound sup (L0 u) / u >= lambda1 for any positive u
under K >= 0.  Both are property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .continuation import _branch_point
from .geometry import cover
from .logistic import phi, reaction
from .model import WeightSpec, _floor
from .operator import DiscreteOperator

__all__ = ["BoundReport", "verify_branch"]


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One bound over a branch: its ``name`` (see the module docstring),
    whether it ``holds`` at every point, and its worst ``margin``, >= 0
    where it holds.  ``context`` holds the worst point's values and the
    count of points the bound covers."""

    name: str
    holds: bool
    margin: float
    context: dict = field(default_factory=dict)


def verify_branch(
    op: DiscreteOperator,
    weight: WeightSpec,
    branch,
) -> list[BoundReport]:
    """The four reports of the module docstring over a stored branch.

    Only the states (lambda, u) are read: ``branch.points`` may hold any
    records with ``lam`` and ``u``.  Each point is rebuilt from them by the
    tracer's own `_branch_point`, from Phi_u and A u formed once per point;
    the weight floor sigma at r = the domain diameter and the ball count m
    of the covering of that radius come from the same Q and the domain.
    The recorded scalars and the branch metadata, ``seed_lambda1``
    included, are ignored.  The covering report is left out when the
    weight has no global floor.
    """
    grid = op.grid
    rx = reaction(weight, grid)
    floor = _floor(rx.q, grid, r=grid.domain.diameter)
    names = ["residual", "admissibility", "positivity"]
    if floor.q2pp:
        names.append("lp_covering_bound")
        m = cover(grid.domain, floor.r)
    # per report, one (margin, holds, context) row per point it covers
    rows = {name: [] for name in names}
    for stored in branch.points:
        u = np.asarray(stored.u, dtype=float)
        phi_u, au = phi(rx, u), op.apply(u)
        pt = _branch_point(
            op, rx, stored.lam, u, 0, phi_u, au + phi_u * u - stored.lam * u
        )
        bound = 1e-8 * max(1.0, pt.sup_norm)
        rows["residual"].append((
            bound - pt.residual_norm, pt.residual_norm <= bound,
            {"lambda": pt.lam, "residual": pt.residual_norm},
        ))
        margin = 1.0 - pt.gamma_phi_sup
        rows["admissibility"].append((
            margin, margin > 0,
            {"lambda": pt.lam, "gamma_phi_sup": pt.gamma_phi_sup},
        ))
        # the rate (L0 u) / u is formed where no node divides by zero; a
        # NaN state has a NaN rate and fails with it
        if not pt.sup_norm <= 1e-12:
            if pt.min_u <= 0:
                rows["positivity"].append(
                    (pt.min_u, False, {"min_u": pt.min_u})
                )
            else:
                min_c = float((au / u).min())
                rows["positivity"].append((
                    pt.min_u, min_c > 0, {"min_u": pt.min_u, "min_c": min_c}
                ))
        if floor.q2pp:
            bound = (m * pt.lam / floor.sigma) ** (1.0 / weight.p)
            margin = bound - pt.p_norm
            rows["lp_covering_bound"].append((margin, margin >= -1e-8, {
                "lambda": pt.lam, "m": m, "sigma": floor.sigma,
                "p": weight.p, "p_norm": pt.p_norm, "bound": bound,
                "r": floor.r,
            }))
    reports = []
    for name, found in rows.items():
        if found:
            margin, _, context = min(found, key=lambda row: row[0])
            reports.append(BoundReport(
                name=name,
                holds=all(row[1] for row in found),
                margin=margin,
                context=context | {"points": len(found)},
            ))
    return reports
