"""Positive solution branches by pseudo-arclength continuation.

A branch of positive solutions of A u + Phi_u u = lambda u bifurcates from
the trivial state at lambda = lambda1, the principal eigenvalue.  Near
that point it runs through (lambda1 + kappa s^p, s phi1), with the
Galerkin coefficient kappa = <Phi_phi1 phi1, phi1>_w / <phi1, phi1>_w
(exact for constant-coefficient problems).  The tracer makes one seed
there, at s = ``s0``, and corrects it with damped Newton at fixed lambda;
a seed that fails ends the trace with a `ContinuationError` naming the
cause.  It then follows the branch with secant predictors and the same
Newton routine with lambda freed by the arclength constraint, until lambda
reaches ``lambda_max``, clamping the final point exactly onto it.  Step
length halves on corrector failure, doubles after three fast successes,
and stays inside [ds_min, ds_max].  `solve_at_lambda` inverts the same
relation for its amplitude.

Newton is Jacobian-free (Knoll & Keyes, JCP 193, 2004): each step solves
J y = -r on `JacobianAction`, and the `Reaction` (Q, w and p) is built
once per entry point, the fallback trace of `solve_at_lambda` included.
The forms of K and Q choose the solve, in `_solve`.  When both are
LowRank, J = diag(Phi_u - lambda) + U V^T with rank r <= 3, and the
Sherman-Morrison-Woodbury identity gives the exact step in O(n r^2)
wherever Phi_u - lambda has no zero.  Otherwise the step is
`_krylov`, one NumPy GMRES cycle of at most min(n, 50) iterations,
left-preconditioned by diag(Phi_u - lambda)^-1, with 1 at a node where
Phi_u = lambda.  The arclength border is eliminated with a second solve
J y2 = u (Keller's block elimination), so no bordered matrix is formed.

The corrector `_newton` returns the `BranchPoint` of the state it
converged to or raises `StepFailure` naming why there is none.  The
tracer halves ds on a StepFailure and on a converged state that is not
positive or has collapsed onto zero.

Accepted points carry diagnostics: the admissibility value
gamma ||Phi_u||_inf (always < 1 on true solutions), the L^p norm, Newton
iteration counts and residual norms.  The tracer reads no certificate:
the weight floor and the covering-based a-priori bound are checked after
the fact, from the stored states, by `verification.verify_branch`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .logistic import (
    JacobianAction,
    Reaction,
    ReactionError,
    phi,
    reaction,
    residual,
)
from .model import WeightSpec
from .operator import DiscreteOperator, PrincipalEigenpair

__all__ = [
    "Branch",
    "BranchPoint",
    "ContinuationConfig",
    "ContinuationError",
    "StepFailure",
    "newton_correct",
    "solve_at_lambda",
    "trace_branch",
]


class ContinuationError(RuntimeError):
    pass


class StepFailure(ContinuationError):
    """Newton found no solution; the message names why."""


@dataclass(frozen=True)
class ContinuationConfig:
    """Continuation settings: a trace stops at ``lambda_max``, its
    arclength step starts at ``ds`` and stays in [``ds_min``, ``ds_max``],
    and ``s0`` is the seed amplitude.  Newton stops once the sup
    residual is at most ``newton_tol`` max(1, |u|_inf) and fails after
    ``newton_max_iters`` iterations; a branch holds at most
    ``max_points`` points."""

    lambda_max: float = 3.0
    ds: float = 0.02
    ds_min: float = 1e-5
    ds_max: float = 0.1
    s0: float = 0.01
    newton_tol: float = 1e-10
    newton_max_iters: int = 25
    max_points: int = 5000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            integral = f.type == "int"
            if isinstance(value, bool) or not (
                isinstance(value, numbers.Integral) if integral
                else isinstance(value, numbers.Real) and math.isfinite(value)
            ):
                what = "an integer" if integral else "a finite real number"
                raise ContinuationError(
                    f"{f.name} must be {what}, got {value!r}"
                )
        if self.max_points < 1:
            raise ContinuationError(
                f"max_points must be at least 1, got {self.max_points}"
            )
        if not (0 < self.ds_min <= self.ds <= self.ds_max):
            raise ContinuationError(
                "need 0 < ds_min <= ds <= ds_max in the continuation config"
            )
        if self.s0 <= 0 or self.newton_tol <= 0 or self.newton_max_iters < 1:
            raise ContinuationError("invalid continuation config")


@dataclass(frozen=True, eq=False)
class BranchPoint:
    """One state (lam, u) on the grid with ``sup_norm``, ``p_norm`` (L^p
    for the weight's p) and ``min_u`` of u; ``gamma_phi_sup`` is
    max Phi_u / lam, below 1 on an admissible state, ``newton_iters`` the
    Newton iterations that gave it, and ``residual_norm`` the sup norm of
    A u + Phi_u u - lam u."""

    lam: float
    u: np.ndarray
    sup_norm: float
    p_norm: float
    min_u: float
    gamma_phi_sup: float
    newton_iters: int
    residual_norm: float


@dataclass(frozen=True, eq=False)
class Branch:
    """The accepted ``points`` of a trace in order, seeded just off
    (``seed_lambda1``, 0); ``termination`` says why it stopped (see
    `trace_branch`), ``fold_indices`` index the points where lambda turned
    back, and ``p`` is the weight's exponent."""

    points: tuple
    seed_lambda1: float
    termination: str
    fold_indices: tuple
    p: float


def _branch_point(op, rx, lam, u, iters, phi_u=None, r=None) -> BranchPoint:
    """The record of the state (lam, u); ``phi_u`` and the residual ``r``
    at that state are computed unless the caller has them already."""
    u = np.asarray(u, dtype=float)
    if phi_u is None:
        phi_u = phi(rx, u)
    if r is None:
        r = residual(op, rx, lam, u, phi_u)
    return BranchPoint(
        lam=float(lam),
        u=u.copy(),
        sup_norm=float(np.abs(u).max()),
        p_norm=op.grid.lp_norm(u, rx.p),
        min_u=float(u.min()),
        gamma_phi_sup=float(phi_u.max()) / lam if lam > 0 else math.inf,
        newton_iters=int(iters),
        residual_norm=float(np.abs(r).max()),
    )


_EPS = float(np.finfo(float).eps)


def _krylov(jac: JacobianAction, rhs: np.ndarray) -> np.ndarray:
    """GMRES on J x = rhs, left-preconditioned by M = diag(Phi_u - lambda)^-1
    (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986); a node where
    Phi_u = lambda exactly is preconditioned by 1.

    One cycle from x = 0, with no restart: Arnoldi orthogonalizes each
    new vector twice against the basis (CGS2), and Givens rotations keep
    the least-squares residual ||M r|| as it goes.  The cycle stops when
    ||M r|| <= 1e-12 ||M b||, on breakdown (the Krylov space is
    invariant), or after min(n, 50) iterations.  At a singular J (the
    trivial state at lambda = lambda1) it cannot converge, and its iterate
    then goes to the line search instead of failing the step.
    """
    n = rhs.size
    m = min(n, 50)
    shift = np.where(jac.shift == 0, 1.0, jac.shift)
    b = rhs / shift
    # sqrt(w @ w) is what np.linalg.norm computes for a real vector
    g = [math.sqrt(b @ b)]
    if g[0] == 0:
        return np.zeros(n)
    tol = 1e-12 * g[0]
    basis = np.empty((m + 1, n))
    basis[0] = b / g[0]
    tri = np.zeros((m, m))
    rot: list[tuple[float, float]] = []
    for j in range(m):
        v = basis[: j + 1]
        w = (jac @ v[j]) / shift
        w_norm = math.sqrt(w @ w)
        h = v @ w
        w -= h @ v
        c = v @ w
        w -= c @ v
        h_next = math.sqrt(w @ w)
        h = (h + c).tolist()
        for i, (cs, sn) in enumerate(rot):
            h[i], h[i + 1] = (
                cs * h[i] + sn * h[i + 1], cs * h[i + 1] - sn * h[i]
            )
        diag = math.hypot(h[j], h_next)
        cs, sn = (h[j] / diag, h_next / diag) if diag else (1.0, 0.0)
        rot.append((cs, sn))
        h[j] = diag
        tri[: j + 1, j] = h
        g.append(-sn * g[j])
        g[j] *= cs
        if abs(g[j + 1]) <= tol or h_next <= _EPS * w_norm:
            break
        basis[j + 1] = w / h_next
    # tri y = g is upper triangular; only its last pivot can vanish (at a
    # singular J), and then that direction is dropped
    k = j + 1 if tri[j, j] else j
    y = np.linalg.solve(tri[:k, :k], g[:k])
    return y @ basis[:k]


def _solve(jac: JacobianAction, rhs: np.ndarray) -> np.ndarray:
    """J x = rhs: exactly when J = D + U V^T is low rank, else `_krylov`.

    With D = diag(Phi_u - lambda) and (U, V) = ``jac.low_rank``, the
    Sherman-Morrison-Woodbury identity (Hager, SIAM Rev. 31, 1989) gives
    x = D^-1 b - D^-1 U (I + V^T D^-1 U)^-1 V^T D^-1 b in O(n r^2).  A D
    with a zero entry, or an exactly singular capacitance I + V^T D^-1 U
    (the trivial state at lambda = lambda1 under a constant kernel), goes
    to `_krylov`, whose iterate at a singular J reaches the line search.
    """
    if jac.low_rank is None or not jac.shift.all():
        return _krylov(jac, rhs)
    left, right = jac.low_rank
    d_left = left / jac.shift[:, None]
    d_rhs = rhs / jac.shift
    try:
        y = np.linalg.solve(
            np.eye(left.shape[1]) + right.T @ d_left, right.T @ d_rhs
        )
    except np.linalg.LinAlgError:
        return _krylov(jac, rhs)
    return d_rhs - d_left @ y


def _newton(op, rx, lam, u0, cfg, border=None) -> BranchPoint:
    """Damped Newton with affine-covariant damping (Deuflhard, *Newton
    Methods for Nonlinear Problems*, 2004, sec. 3.3): the `BranchPoint`
    of the converged state, or `StepFailure` naming why there is none.

    Without ``border`` lambda is pinned.  With ``border = (t_u, t_lam,
    u_prev, lam_prev, ds)`` lambda is unknown too, tied down by the secant
    arclength constraint <t_u, u - u_prev>_w + t_lam (lam - lam_prev) = ds.
    The bordered step solves J y1 = -r and J y2 = u, then
    dlam = (-cons - c.y1) / (c.y2 + t_lam) with c = w t_u, and
    du = y1 + dlam y2.

    A trial step alpha dx, dx = (du, dlam), is accepted by the first of
    two tests that holds.  The residual test asks for a sup-residual
    decrease, fn_t <= (1 - 1e-4 alpha) fn, or fn_t <= newton_tol.  Only
    when it fails is the simplified Newton correction bar formed: J stays
    frozen at the current iterate, the same solve is applied to -F at the
    trial, and the border is eliminated with the same y2.  The restricted
    monotonicity test then accepts when ||bar|| / ||dx|| < 1 - alpha / 4,
    in the 2-norm of (u-part, lambda-part).  Otherwise alpha becomes
    min(alpha / 2, mu), with the Kantorovich estimate
    mu = ||dx|| alpha^2 / (2 ||bar - (1 - alpha) dx||).  A step accepted
    by the monotonicity test starts the next iteration's search at
    min(1, mu); every other one at 1.  For p < 1 every iterate must stay
    strictly positive, and the search halves the step until it does.

    StepFailure is raised after ``newton_max_iters`` iterations, once
    alpha < 1e-8 (in the damping or in the p < 1 halving), on a zero or
    non-finite dx, and on a state whose Jacobian `JacobianAction` refuses.
    """
    grid = op.grid
    u = np.asarray(u0, dtype=float).copy()
    if border is not None:
        t_u, t_lam, u_prev, lam_prev, ds = border
        c = grid.weights * t_u

    def merit(u_, lam_):
        phi_ = phi(rx, u_)
        r_ = residual(op, rx, lam_, u_, phi_)
        cons_ = 0.0
        if border is not None:
            cons_ = (
                grid.inner(t_u, u_ - u_prev) + t_lam * (lam_ - lam_prev) - ds
            )
        return phi_, r_, cons_, max(float(np.abs(r_).max()), abs(cons_))

    def step(jac, r_, cons_):
        # J^-1 (-r_) with the border eliminated by the iterate's y2
        d = _solve(jac, -r_)
        if border is None:
            return d, 0.0
        d_lam = float((-cons_ - c @ d) / (c @ y2 + t_lam))
        return d + d_lam * y2, d_lam

    def failure(why):
        return StepFailure(f"Newton {why} at lambda={lam}")

    phi_u, r, cons, fn = merit(u, lam)
    alpha_next = 1.0
    for it in range(cfg.newton_max_iters + 1):
        if fn <= cfg.newton_tol * max(1.0, float(np.abs(u).max())):
            return _branch_point(op, rx, lam, u, it, phi_u, r)
        if it == cfg.newton_max_iters:
            raise failure(f"did not converge in {it} iterations")
        try:
            jac = JacobianAction(op, rx, lam, u, phi_u)
        except ReactionError as exc:
            raise failure(f"met a state with no Jacobian ({exc})") from exc
        if border is not None:
            y2 = _solve(jac, u)
        du, dlam = step(jac, r, cons)
        du_norm = math.sqrt(du @ du + dlam * dlam)
        if not 0 < du_norm < math.inf:
            raise failure("took a zero or non-finite step")
        alpha, alpha_next = alpha_next, 1.0
        while True:
            u_t = u + alpha * du
            lam_t = lam if border is None else lam + alpha * dlam
            if rx.p < 1 and u_t.min() <= 1e-10:
                alpha *= 0.5
                if alpha < 1e-8:
                    raise failure("could not keep u positive (p < 1)")
                continue
            phi_t, r_t, cons_t, fn_t = merit(u_t, lam_t)
            if fn_t <= (1.0 - 1e-4 * alpha) * fn or fn_t <= cfg.newton_tol:
                break
            mu = math.inf
            if math.isfinite(fn_t):
                # the simplified Newton correction, J frozen at (u, lam)
                bar, bar_lam = step(jac, r_t, cons_t)
                dev = bar - (1.0 - alpha) * du
                dev_lam = bar_lam - (1.0 - alpha) * dlam
                dev_norm = math.sqrt(dev @ dev + dev_lam * dev_lam)
                if dev_norm:
                    mu = 0.5 * du_norm * alpha * alpha / dev_norm
                theta = math.sqrt(bar @ bar + bar_lam * bar_lam) / du_norm
                if theta < 1.0 - 0.25 * alpha:
                    alpha_next = min(1.0, mu)
                    break
            alpha = min(0.5 * alpha, mu)
            if alpha < 1e-8:
                raise failure("damped its step below alpha = 1e-8")
        u, lam, phi_u, r, cons, fn = u_t, lam_t, phi_t, r_t, cons_t, fn_t


def newton_correct(
    op: DiscreteOperator,
    rx: Reaction,
    lam: float,
    u0: np.ndarray,
    cfg: ContinuationConfig,
) -> BranchPoint:
    """Correct u0 to a solution at fixed lambda, or raise `StepFailure`
    naming why Newton found none.

    Converging onto the trivial solution is a legitimate outcome (it is
    how nonexistence below the principal eigenvalue shows up); callers
    decide what to do with a vanishing sup norm.  ``rx`` is
    `reaction(weight, op.grid)`.
    """
    return _newton(op, rx, lam, u0, cfg)


def _kappa(grid, rx, phi1) -> float:
    """The Galerkin coefficient <Phi_phi1 phi1, phi1>_w / <phi1, phi1>_w:
    near (lambda1, 0) the branch runs through (lambda1 + kappa s^p,
    s phi1)."""
    return grid.inner(phi(rx, phi1) * phi1, phi1) / grid.inner(phi1, phi1)


def _off_zero(op, rx, lam, amp, phi1, cfg) -> BranchPoint:
    """Newton at lam from amp phi1: the point if it is positive and has
    not collapsed toward the trivial state (sup >= 0.05 amp), else
    `StepFailure` naming why not."""
    pt = _newton(op, rx, lam, amp * phi1, cfg)
    if pt.sup_norm < 0.05 * amp:
        raise StepFailure(
            f"Newton collapsed toward the trivial state at lambda={lam} "
            f"(sup {pt.sup_norm:.3g} < 0.05 amp = {0.05 * amp:.3g})"
        )
    if pt.min_u <= 0:
        raise StepFailure(
            f"Newton converged to min u = {pt.min_u:.3g} <= 0 at lambda={lam}"
        )
    return pt


def _unit_secant(grid, du, dlam):
    """The secant (du, dlam) scaled to unit length in the w-weighted norm,
    or None when it is zero."""
    norm = math.sqrt(grid.inner(du, du) + dlam**2)
    return (du / norm, dlam / norm) if norm else None


def _bootstrap_first_point(op, rx, eigen, cfg):
    """The seed of a trace: Newton at lambda1 + kappa s0^p from s0 phi1."""
    lam = eigen.lambda1 + _kappa(op.grid, rx, eigen.phi1) * cfg.s0**rx.p
    try:
        return _off_zero(op, rx, lam, cfg.s0, eigen.phi1, cfg)
    except StepFailure as exc:
        raise ContinuationError(
            "failed to leave the trivial solution near the bifurcation "
            f"point: {exc}"
        ) from exc


def trace_branch(
    op: DiscreteOperator,
    weight: WeightSpec,
    eigen: PrincipalEigenpair,
    cfg: ContinuationConfig,
) -> Branch:
    """Trace the positive branch from (lambda1, 0) up to cfg.lambda_max.

    The branch's termination is "reached_lambda_max", "max_points" (the
    point budget ran out first), "step_failure" (ds fell below ds_min)
    or "left_admissible_set".
    """
    if cfg.lambda_max <= eigen.lambda1:
        raise ContinuationError(
            f"lambda_max={cfg.lambda_max} must exceed lambda1={eigen.lambda1}"
        )
    return _trace(op, reaction(weight, op.grid), eigen, cfg)


def _trace(op, rx, eigen, cfg) -> Branch:
    """`trace_branch` with the `Reaction` built, for lambda_max > lambda1."""
    grid = op.grid
    first = _bootstrap_first_point(op, rx, eigen, cfg)
    points = [first]
    folds: list[int] = []
    t_u, t_lam = _unit_secant(grid, first.u, first.lam - eigen.lambda1)

    ds = cfg.ds
    fast = 0
    while True:
        cur = points[-1]
        if cur.lam >= cfg.lambda_max - 1e-12:
            termination = "reached_lambda_max"
            break
        if len(points) >= cfg.max_points:
            termination = "max_points"
            break
        clamp = t_lam > 0 and cur.lam + ds * t_lam > cfg.lambda_max
        if clamp:
            # land exactly on lambda_max, with lambda pinned there
            lam_pred = cfg.lambda_max
            u_pred = cur.u + t_u * (cfg.lambda_max - cur.lam) / t_lam
            border = None
        else:
            u_pred = cur.u + ds * t_u
            lam_pred = cur.lam + ds * t_lam
            border = (t_u, t_lam, cur.u, cur.lam, ds)
        try:
            pt = _newton(op, rx, lam_pred, u_pred, cfg, border)
        except StepFailure:
            pt = None
        if pt is None or pt.min_u <= 0 or pt.sup_norm <= 1e-10:
            ds *= 0.5
            fast = 0
            if ds < cfg.ds_min:
                termination = "step_failure"
                break
            continue
        if pt.gamma_phi_sup >= 1.0:
            termination = "left_admissible_set"
            break
        secant = _unit_secant(grid, pt.u - cur.u, pt.lam - cur.lam)
        if secant is None:
            termination = "step_failure"
            break
        t_u_new, t_lam_new = secant
        if (
            abs(t_lam) > 1e-12
            and abs(t_lam_new) > 1e-12
            and math.copysign(1, t_lam_new) != math.copysign(1, t_lam)
        ):
            folds.append(len(points))
        t_u, t_lam = t_u_new, t_lam_new
        points.append(pt)
        if not clamp:
            fast = fast + 1 if pt.newton_iters <= 4 else 0
            if fast >= 3:
                ds = min(2.0 * ds, cfg.ds_max)
                fast = 0
    return Branch(
        points=tuple(points),
        seed_lambda1=eigen.lambda1,
        termination=termination,
        fold_indices=tuple(folds),
        p=rx.p,
    )


def solve_at_lambda(
    op: DiscreteOperator,
    weight: WeightSpec,
    eigen: PrincipalEigenpair,
    lam: float,
    cfg: ContinuationConfig,
) -> BranchPoint:
    """Solve at one fixed lambda.

    Above lambda1 the seed inverts the Galerkin amplitude relation; if the
    direct Newton solve collapses onto the trivial solution the routine
    falls back to a short branch trace clamped at lambda.  At or below
    lambda1 the trivial point u = 0 is returned unsolved: no positive
    solution exists there (the paper's nonexistence result, which the
    spectral oracle of `tests/oracles.py` certifies on the grid), and for
    p < 1 Newton cannot converge onto u = 0, where |u|^p has no
    derivative.  To correct a known state at lambda instead, call
    `newton_correct`.
    """
    return _solve_at(op, reaction(weight, op.grid), eigen, lam, cfg)


def _solve_at(op, rx, eigen, lam, cfg) -> BranchPoint:
    """`solve_at_lambda` with the `Reaction` built."""
    if not math.isfinite(lam):
        raise ContinuationError(
            f"lambda must be a finite real number, got {lam!r}"
        )
    grid = op.grid
    if lam <= eigen.lambda1:
        return _branch_point(op, rx, lam, np.zeros(grid.n), 0)
    phi1 = eigen.phi1
    kappa = _kappa(grid, rx, phi1)
    if kappa <= 0:
        raise ContinuationError(
            "weight has no reaction at the principal eigenfunction"
        )
    amp = ((lam - eigen.lambda1) / kappa) ** (1.0 / rx.p)
    try:
        return _off_zero(op, rx, lam, amp, phi1, cfg)
    except StepFailure:
        pass
    branch = _trace(op, rx, eigen, replace(cfg, lambda_max=lam))
    if branch.termination != "reached_lambda_max":
        raise ContinuationError(
            f"could not continue the branch to lambda={lam} "
            f"({branch.termination})"
        )
    return branch.points[-1]
