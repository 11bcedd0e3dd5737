"""Regularized weight family and the vanishing-regularization limit.

For a fixed growth rate lambda above the principal eigenvalue, the weight
Q, built once, is replaced by Q_eps(x, y) = Q(x, y)(2 - a_eps(x)), its
rows scaled by `build_q_eps`, with the dip profile
a_eps(x) = min(|x - x0|, 1)^eps vanishing at a certified maximum node x0.
Each regularized problem has a positive solution u_eps whose reaction
field stays below lambda by a quantified margin:

    lambda - Phi^eps_u(x) >= theta a_eps(x),   theta = min(lambda1,
                                                          lambda - lambda1).

Driving eps = 1/n to zero gives a sequence u_n whose dispersal and
reaction fields converge.  Two extrapolation methods are available:
"richardson" (one first-order step in 1/n on u_n itself) and "fields"
(polynomial extrapolation of the smooth fields L0 u_n and Phi_{u_n} to
eps = 0, then u = L / (lambda - Phi)).

What the limit can solve is bounded twice over.

Doubled-weight obstruction.  At x0 the margin reads
lambda - 2 Phi_{u_n}(x0) >= 0, so the limiting reaction there is capped
at lambda / 2.  A positive solution of the original problem needs
Phi(x0) >= lambda - lambda1: Q(x0, .) dominates every row, so
L0 u = (lambda - Phi) u >= (lambda - Phi(x0)) u, and Collatz-Wielandt
gives lambda1 >= lambda - Phi(x0), with equality only when Phi is
constant.  The two are incompatible above lambda = 2 lambda1, and at
2 lambda1 for any weight whose rows differ.  `limit_procedure` checks
this before its first solve.  The check is necessary, not sufficient:
with the dip weight 3 - |x - 1/2|^0.4 (constant kernel, 129 trapezoid
nodes) the direct solution already breaks the cap at lambda =
1.75 lambda1, where Phi(x0) = 0.912 > 0.875.

Fixed-grid limit.  The sampled profile has a_eps(x0) = 0 for every eps,
so on a fixed grid u_n converges to u0, the solution of the problem whose
x0 row stays doubled, not to the solution of the original problem.  On
the grid above, |u_n - u0| halves as n doubles, down to 2.8e-4 at
n = 4096 with lambda = 1.25 lambda1.  "richardson" reproduces u0's
residual in the original equation: 0.145, 0.78 and 5.80 at
lambda / lambda1 = 1.25, 1.5 and 2.  "fields" does not escape the x0
node either: its quadrature weight carries u_n(x0) into both fields,
which leaves a residual of 2.2e-3 at lambda = 1.25 lambda1.

One family, two extrapolants.  The eps = 1/n solves, the L0 u_n and Phi
fields, the dip margins, the near-center mass and the Cauchy gaps do not
depend on the extrapolation method, so `limit_procedure` keeps the last
family it solved in a one-slot memo, and the second method of a pair
costs one extrapolation.  The memo keys on ``op`` and ``weight`` by
identity, through weak references that keep neither alive, and on lam,
n_values, cfg, the validated x0_index and strict by value.  Validation,
the eigenpair, the weight floor, the obstruction check and the
lambda > lambda1 check run on every call, before the lookup, so every
refusal comes whether the memo holds the family or not.  The memo holds
one family, shared by the runs built from it, and every array in that
family is read-only, as is every array reachable from its key: the forms
of K and Q, a tabulated spec's matrix and the grid.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .continuation import ContinuationConfig, _solve_at, newton_correct
from .logistic import phi, reaction, residual
from .model import (
    FloorReport,
    WeightSpec,
    _floor,
    _read_only,
    build_a_eps,
    build_q_eps,
    eps_ceiling,
)
from .operator import DiscreteOperator, principal_eigenpair

__all__ = [
    "EXTRAPOLATION_METHODS",
    "RegularizedError",
    "RegularizedRun",
    "limit_procedure",
    "near_center_mass_bound",
    "theta_margin",
]

EXTRAPOLATION_METHODS = ("richardson", "fields")
# radius of the ball around x0 whose L^p mass the run bounds
_MASS_RADIUS = 0.5


class RegularizedError(RuntimeError):
    pass


class _InputError(RegularizedError, ValueError):
    """A refused argument of `limit_procedure`, not a failed bound."""


def _locate_x0(floor: FloorReport) -> int:
    """Index of a grid node x0 with Q(x0, y) >= Q(x, y) for all x, y."""
    if not floor.q4:
        raise RegularizedError(
            "weight has no certified maximum node "
            f"(defect {floor.q4_defect:.3e}); regularization needs one"
        )
    return floor.x0_index


def _node_index(x0_index, n: int) -> int:
    """``x0_index`` as a node index in [0, n); a bool or a non-integral
    value is refused, a NumPy integer accepted."""
    if (
        isinstance(x0_index, bool)
        or not isinstance(x0_index, numbers.Integral)
        or not 0 <= x0_index < n
    ):
        raise _InputError(
            f"x0_index must be an integer node index in [0, {n}), "
            f"got {x0_index!r}"
        )
    return int(x0_index)


def _n_values(n_values, weight: WeightSpec, grid) -> tuple:
    """``n_values`` as a tuple of ints: at least two, increasing, with
    eps = 1/n at most the `eps_ceiling` from the first on.  None stands
    for five doublings from the least power of two n >= 4 within the
    ceiling.  As in `_node_index`, a bool or a non-integral entry is
    refused, a NumPy integer accepted."""
    ceiling = eps_ceiling(weight, grid)
    if n_values is None:
        first = 4
        while 1.0 / first > ceiling:
            first *= 2
        return tuple(first << k for k in range(5))
    try:
        values = tuple(n_values)
    except TypeError:
        values = ()
    if (
        len(values) < 2
        or any(
            isinstance(n, bool) or not isinstance(n, numbers.Integral)
            for n in values
        )
        or any(b <= a for a, b in zip(values, values[1:]))
    ):
        raise _InputError(
            f"n_values must be at least two increasing integers, "
            f"got {n_values!r}"
        )
    if values[0] < 1 or 1.0 / values[0] > ceiling:
        raise _InputError(
            f"n_values must start at an n >= 1 with eps = 1/n at most the "
            f"ceiling N/(2p) = {ceiling}, got n = {values[0]}"
        )
    return tuple(int(n) for n in values)


def theta_margin(lambda1: float, lam: float) -> float:
    return min(lambda1, lam - lambda1)


def _doubled_weight_obstruction(
    lam: float, lambda1: float, osc: float
) -> str | None:
    """Why the eps-limit cannot solve the original problem, or None.

    The doubled-weight family caps the limiting reaction at x0 at
    lambda / 2; a positive solution needs lambda - lambda1 there, with
    equality only when the rows of Q agree, that is when the oscillation
    ``osc`` of Q vanishes.  lambda is compared with 2 lambda1 to the
    eigenpair's relative tolerance 1e-10.
    """
    ratio = lam / lambda1
    if ratio < 2.0 * (1.0 - 1e-10):
        return None
    if ratio <= 2.0 * (1.0 + 1e-10) and osc <= 1e-12:
        return None
    return (
        f"lambda/lambda1 = {ratio:.12g} reaches 2: the doubled-weight "
        "family caps the limiting reaction at x0 at "
        f"lambda/2 = {lam / 2:.6g}, while a positive solution needs "
        f"lambda - lambda1 = {lam - lambda1:.6g} there, with equality only "
        f"for rows of Q that agree (oscillation {osc:.3e}); the limit "
        "cannot solve the original problem"
    )


def near_center_mass_bound(
    sup_dispersal: float,
    theta: float,
    p: float,
    eps: float,
    radius: float,
    dim: int,
) -> float:
    """Upper bound for the p-mass of u inside B_radius(x0).

    From u <= ||L0 u||_inf / (theta d^eps) on d <= 1:
    integral of u^p over the ball is at most
    (||L0 u||_inf / theta)^p * surf * R^(dim - p eps) / (dim - p eps),
    with surf = 2 pi^(dim/2) / Gamma(dim/2) the surface measure of the
    unit sphere (2 in 1-D, 2 pi in 2-D, 4 pi in 3-D).
    """
    if not 0 < radius <= 1:
        raise RegularizedError("radius must lie in (0, 1]")
    s = p * eps
    if s >= dim:
        raise RegularizedError("p * eps must stay below the dimension")
    surf = 2.0 * math.pi ** (dim / 2) / math.gamma(dim / 2)
    return (sup_dispersal / theta) ** p * surf * radius ** (dim - s) / (
        dim - s
    )


def _neville_at_zero(eps_values: np.ndarray, samples: list) -> np.ndarray:
    """Polynomial extrapolation of vector samples f(eps_i) to eps = 0."""
    tableau = [np.asarray(s, dtype=float).copy() for s in samples]
    k = len(tableau)
    for level in range(1, k):
        for i in range(k - level):
            e_lo, e_hi = eps_values[i], eps_values[i + level]
            tableau[i] = (
                e_lo * tableau[i + 1] - e_hi * tableau[i]
            ) / (e_lo - e_hi)
    return tableau[0]


@dataclass(frozen=True, eq=False)
class RegularizedRun:
    """The eps = 1/n family at one lambda and its extrapolated limit.

    ``lam`` is the fixed growth rate, ``theta`` the margin constant
    min(lambda1, lam - lambda1) and ``x0_index`` the node where the dip
    profile vanishes.  For each n of ``n_values``, with eps = 1/n in
    ``eps_sequence``, ``solutions`` holds the `BranchPoint` u_n,
    ``margins`` the least dip margin min(lam - Phi^eps_u - theta a_eps)
    and ``near_mass`` the pair (p-mass of u_n within 0.5 of x0, its
    bound).  ``cauchy_gaps`` are |u_n - u_next|_inf over consecutive n.
    ``margins_ok``, ``gaps_contracting`` and ``near_mass_ok`` say whether
    each of these held.  ``limit`` is the state extrapolated by
    ``method``, and ``limit_residual`` its sup residual in the original
    equation.  ``obstruction`` describes the doubled-weight obstruction
    where it applies (a run with strict=False), and is None elsewhere.
    """

    lam: float
    theta: float
    x0_index: int
    n_values: tuple
    eps_sequence: tuple
    solutions: tuple
    margins: tuple
    margins_ok: bool
    cauchy_gaps: tuple
    gaps_contracting: bool
    near_mass: tuple
    near_mass_ok: bool
    method: str
    limit: np.ndarray
    limit_residual: float
    obstruction: str | None


class _Memo:
    """One solved family with the arguments it was solved for, as the
    module docstring keys it; it empties itself when ``op`` or ``weight``
    dies."""

    def __init__(self, op, weight, key: tuple, family: dict, plain: tuple,
                 disp: tuple):
        self.refs = (weakref.ref(op, _forget), weakref.ref(weight, _forget))
        self.key, self.family = key, family
        self.plain, self.disp = plain, disp

    def holds(self, op, weight, key: tuple) -> bool:
        return (
            self.refs[0]() is op
            and self.refs[1]() is weight
            and self.key == key
        )


# the family of the last `limit_procedure` call that solved one, or None
_last_family: _Memo | None = None


def _forget(ref) -> None:
    global _last_family
    memo = _last_family
    if memo is not None and any(ref is r for r in memo.refs):
        _last_family = None


def _solve_family(
    op, weight, rx, eigen, lam, theta, n_values, cfg, x0_index, strict
) -> tuple[dict, tuple, tuple]:
    """The eps = 1/n solves and every check on them, none of which
    depends on the extrapolation method.  Returns the `RegularizedRun`
    fields they fill, the plain-weight reaction fields Phi_{u_n} and the
    dispersal fields L0 u_n; every array in them is read-only."""
    grid = op.grid
    inside = (
        np.linalg.norm(grid.nodes - grid.nodes[x0_index][None, :], axis=1)
        < _MASS_RADIUS
    )

    eps_seq, sols, margins, near = [], [], [], []
    plain, disp = [], []
    near_ok = True
    warm = None
    for n in n_values:
        eps = 1.0 / n
        a = build_a_eps(weight, grid, grid.nodes[x0_index], eps)
        rx_eps = replace(rx, q=build_q_eps(rx.q, a))
        if warm is None:
            point = _solve_at(op, rx_eps, eigen, lam, cfg)
        else:
            point = newton_correct(op, rx_eps, lam, warm, cfg)
        # Phi reads |u|^p, so -u solves wherever u does and would pass
        # every check below; the family must stay positive
        if not point.min_u > 0:
            raise RegularizedError(
                f"the solve at n={n} is not positive: min u = "
                f"{point.min_u:.3e}"
            )
        u = warm = _read_only(point.u)
        # lambda - Phi^eps_u >= theta a_eps; at x0 it reduces to
        # lambda - Phi^eps_u(x0) >= 0, which u > 0 already implies
        margin = float((point.lam - phi(rx_eps, u) - theta * a).min())
        if not margin >= -1e-8 and strict:
            raise RegularizedError(
                f"margin bound violated by {margin:.3e} at eps={eps}; "
                "the grid resolution is too coarse for this margin check"
            )
        eps_seq.append(eps)
        sols.append(point)
        plain.append(_read_only(phi(rx, u)))
        margins.append(margin)

        disp.append(_read_only(op.apply(u)))
        sup_disp = float(np.abs(disp[-1]).max())
        bound = near_center_mass_bound(
            sup_disp, theta, weight.p, eps, _MASS_RADIUS, grid.domain.dim
        )
        measured = float(grid.weights[inside] @ np.abs(u[inside]) ** weight.p)
        if measured > bound + 1e-10:
            if strict:
                raise RegularizedError(
                    f"near-center mass {measured:.3e} exceeds its bound "
                    f"{bound:.3e} at n={n}"
                )
            near_ok = False
        near.append((measured, bound))
    margins_ok = min(margins) >= -1e-8

    gaps = [
        float(np.abs(a.u - b.u).max()) for a, b in zip(sols, sols[1:])
    ]
    contracting = all(b < a for a, b in zip(gaps, gaps[1:]))
    for i in range(len(gaps) - 2):
        if gaps[i] < gaps[i + 1] < gaps[i + 2]:
            if strict:
                raise RegularizedError(
                    "gap sequence is growing over three consecutive pairs; "
                    "the family is not contracting at this resolution"
                )
            break

    family = dict(
        eps_sequence=tuple(eps_seq),
        solutions=tuple(sols),
        margins=tuple(margins),
        margins_ok=margins_ok,
        cauchy_gaps=tuple(gaps),
        gaps_contracting=contracting,
        near_mass=tuple(near),
        near_mass_ok=near_ok,
    )
    return family, tuple(plain), tuple(disp)


def limit_procedure(
    op: DiscreteOperator,
    weight: WeightSpec,
    lam: float,
    n_values,
    cfg: ContinuationConfig,
    method: str = "richardson",
    x0_index: int | None = None,
    strict: bool = True,
) -> RegularizedRun:
    """Solve the eps = 1/n family and extrapolate to the original problem.

    method "richardson" takes the last solution plus one Richardson step
    in 1/n; "fields" extrapolates the dispersal and plain-reaction
    fields to eps = 0 and reconstructs u = L/(lambda - F), which
    measures one to two orders more accurate.  Neither solves the
    original problem on a fixed grid: u_n converges to the solution
    whose x0 row stays doubled (see the module docstring for the
    measured residuals).

    Before the first solve the run checks the doubled-weight
    obstruction: lambda >= 2 lambda1 (relative tolerance 1e-10) with
    rows of Q that differ, or lambda above 2 lambda1 for any weight.
    There the limiting reaction at x0 is capped at lambda/2 below the
    lambda - lambda1 a positive solution needs.  The check is necessary,
    not sufficient: the limit can fail below 2 lambda1 as well.

    lambda must exceed lambda1.  n_values must be at least two increasing
    integers with 1/n <= N/(2p) throughout, None taking five doublings
    from the least power of two n >= 4 that fits, and x0_index, when
    given, an integer node index; a refused method, n_values or x0_index
    raises a `RegularizedError` that is also a ValueError.  With
    strict=True the run fails loudly if the obstruction applies, the dip
    margin is violated, the gap sequence ||u_n - u_next||_inf grows over
    three consecutive pairs, or the near-center mass exceeds its bound.
    With strict=False each finding is recorded in the run report instead
    (the obstruction in `obstruction`), so the degradation itself can be
    measured.  A solve u_n with min u_n <= 0 raises in both modes.

    The family is memoized, so a call that differs from the previous one
    in ``method`` alone only extrapolates (see the module docstring).
    """
    global _last_family
    grid = op.grid
    if method not in EXTRAPOLATION_METHODS:
        raise _InputError(
            f"unknown extrapolation method {method!r}; "
            f"expected one of {EXTRAPOLATION_METHODS}"
        )
    n_values = _n_values(n_values, weight, grid)
    if x0_index is not None:
        x0_index = _node_index(x0_index, grid.n)
    eigen = principal_eigenpair(op)
    rx = reaction(weight, grid)
    floor = _floor(rx.q, grid, r=grid.domain.diameter)
    if x0_index is None:
        x0_index = _locate_x0(floor)
    theta = theta_margin(eigen.lambda1, lam)
    obstruction = _doubled_weight_obstruction(
        lam, eigen.lambda1, floor.oscillation
    )
    if obstruction is not None and strict:
        raise RegularizedError(obstruction)
    if lam <= eigen.lambda1:
        raise RegularizedError(
            f"lambda={lam} must exceed the principal eigenvalue "
            f"{eigen.lambda1}"
        )

    key = (float(lam), n_values, cfg, x0_index, bool(strict))
    memo = _last_family
    if memo is None or not memo.holds(op, weight, key):
        memo = _last_family = _Memo(op, weight, key, *_solve_family(
            op, weight, rx, eigen, lam, theta, n_values, cfg, x0_index,
            strict,
        ))
    sols = memo.family["solutions"]

    if method == "richardson":
        n1, n2 = n_values[-2], n_values[-1]
        u_lim = (n2 * sols[-1].u - n1 * sols[-2].u) / (n2 - n1)
    else:
        eps_arr = np.array(memo.family["eps_sequence"])
        disp_lim = _neville_at_zero(eps_arr, memo.disp)
        reac_lim = _neville_at_zero(eps_arr, memo.plain)
        denom = lam - reac_lim
        if denom.min() <= 1e-10:
            if strict:
                raise RegularizedError(
                    "extrapolated reaction field reaches lambda; "
                    "no stable limit"
                )
            denom = np.maximum(denom, 1e-10)
        u_lim = disp_lim / denom

    limit_residual = float(np.abs(residual(op, rx, lam, u_lim)).max())
    return RegularizedRun(
        lam=float(lam),
        theta=theta,
        x0_index=x0_index,
        n_values=n_values,
        method=method,
        limit=u_lim,
        limit_residual=limit_residual,
        obstruction=obstruction,
        **memo.family,
    )
