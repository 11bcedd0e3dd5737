"""Independent oracles for the paper's two results, read only by the tests.

The paper proves that no positive solution exists for lambda <= lambda1
and that the branch bifurcates from (lambda1, 0).  The oracles here check
both on the grid by routes other than the tracer.  They share with the
solver only the pencil solver `operator._pencil` and, in the
nonexistence search, `continuation.newton_correct`:

``oracle_fixed_point`` iterates the literal rearrangement
u <- (1 - w) u + w L0 u / (lambda - Phi_u) with damping.  The positive
solution is an exact stationary point of this map, but its linearized
multiplier there is 1 + w p (lambda - lambda1) / lambda1-scale > 1, so
the iteration started off the solution drains to the trivial state (or
leaves the admissible region).  The result records that honestly via its
status; agreement with Newton is asserted only where the iteration
actually converges.

``oracle_spectral`` solves the same rearrangement as a shape/amplitude
problem: the shape is the principal eigenvector of the symmetric pencil
S v = nu diag(lambda - Phi_u) v, and the amplitude is the root of
nu(t) = 1 along u = t shape.  nu(0) = lambda1 / lambda, and nu is
increasing in t, so the root exists exactly when lambda > lambda1; below
that the oracle certifies nonexistence of a positive solution.  The pencil
is applied through the structured K and solved by Lanczos, and the root
by a bracketed Brent iteration, so a run holds no n x n array.

`bifurcation_estimate` recovers lambda1 from a traced branch alone.
`collatz_wielandt_sup` gives the upper Collatz-Wielandt value
sup (A u) / u of a positive state, which is >= lambda1.
`window_bounds` gives the solvability window
(lambda1, lambda1 + lambda1 sigma / [Q]), a sufficient condition that no
stored state can violate, so no report of `verify_branch` carries it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from dispersal import (
    BoundReport,
    Branch,
    ContinuationConfig,
    ContinuationError,
    DiscreteOperator,
    OperatorError,
    WeightSpec,
    newton_correct,
    phi,
    principal_eigenpair,
    reaction,
    residual,
)
from dispersal.operator import _pencil

# stopping rules of the two oracles
_FIXED_POINT_TOL = 1e-11
_FIXED_POINT_MAX_ITERS = 4000
_SPECTRAL_TOL = 1e-12
_SPECTRAL_MAX_OUTER = 120
# stopping rule of the amplitude root
_ROOT_XTOL = 1e-14
_ROOT_RTOL = 1e-15
_ROOT_MAX_ITERS = 100
# random starts of the subcritical nonexistence search
_SEARCH_SEED = 0


class VerificationError(RuntimeError):
    """A refused oracle input, or an oracle that could not decide."""


@dataclass(frozen=True, eq=False)
class OracleResult:
    u: np.ndarray
    status: str          # converged | inadmissible | not_converged |
    #                      no_positive_solution
    iters: int
    final_change: float
    residual: float


def collatz_wielandt_sup(op: DiscreteOperator, u: np.ndarray) -> float:
    """sup of (A u) / u for strictly positive u.

    For any positive u this is an upper Collatz-Wielandt value, so it is
    always >= lambda1; equality holds at the principal eigenfunction.
    """
    u = np.asarray(u, dtype=float)
    if u.min() <= 0:
        raise OperatorError("collatz_wielandt_sup needs strictly positive u")
    return float((op.apply(u) / u).max())


def _problem_residual(op, rx, lam, u) -> float:
    return float(np.abs(residual(op, rx, lam, u)).max())


def oracle_fixed_point(
    op: DiscreteOperator,
    weight: WeightSpec,
    lam: float,
    u0: np.ndarray,
    relaxation: float = 0.5,
) -> OracleResult:
    """Damped rearrangement iteration u <- (1-w) u + w L0 u / (lambda - Phi_u).

    Stops when the sup-change drops below ``_FIXED_POINT_TOL``.  When an
    iterate leaves the region lambda - Phi_u > 0 the step is retried from
    the previous iterate with half the damping; exhausting the damping
    budget yields status "inadmissible" (inconclusive, not fatal).
    """
    if not 0 < relaxation <= 1:
        raise VerificationError("relaxation must lie in (0, 1]")
    if lam <= 0:
        raise VerificationError("lambda must be positive")
    u = np.asarray(u0, dtype=float).copy()
    if u.min() <= 0:
        raise VerificationError("starting state must be positive")
    rx = reaction(weight, op.grid)
    omega = relaxation
    prev = None
    change = math.inf
    for it in range(1, _FIXED_POINT_MAX_ITERS + 1):
        c = lam - phi(rx, u)
        if c.min() <= 0:
            if prev is None or omega < 1e-6:
                return OracleResult(
                    u=u,
                    status="inadmissible",
                    iters=it,
                    final_change=change,
                    residual=_problem_residual(op, rx, lam, u),
                )
            u = prev
            omega *= 0.5
            continue
        nxt = (1.0 - omega) * u + omega * op.apply(u) / c
        change = float(np.abs(nxt - u).max())
        prev, u = u, nxt
        if change < _FIXED_POINT_TOL:
            return OracleResult(
                u=u,
                status="converged",
                iters=it,
                final_change=change,
                residual=_problem_residual(op, rx, lam, u),
            )
    return OracleResult(
        u=u,
        status="not_converged",
        iters=_FIXED_POINT_MAX_ITERS,
        final_change=change,
        residual=_problem_residual(op, rx, lam, u),
    )


def pencil_eigenvalue(
    op: DiscreteOperator, c: np.ndarray
) -> tuple[float, np.ndarray]:
    """Principal eigenpair of S v = nu diag(c) v with c > 0 finite.

    The pencil of `principal_eigenpair`, at this c: Lanczos on the
    symmetric C^-1/2 S C^-1/2, applied through the structured K.
    Returns (nu1, u) with u the eigenvector as node values, sign-fixed
    to a positive integral and sup-normalized.
    """
    c = np.asarray(c, dtype=float)
    if not (np.isfinite(c).all() and c.min() > 0):
        raise VerificationError(
            "pencil needs a strictly positive, finite field c"
        )
    nu, _, u = _pencil(op, c)
    return nu, u


def _bracketed_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f in [a, b] with f(a) f(b) < 0, by Brent's method.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4:
    inverse quadratic or secant steps, with bisection whenever a step
    leaves the bracket or shrinks it too slowly.  Stops when the bracket
    [b, c] is narrower than xtol + rtol |b|.
    """
    c, fc = a, fa
    d = e = b - a
    for _ in range(_ROOT_MAX_ITERS):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * (_ROOT_XTOL + _ROOT_RTOL * abs(b))
        m = 0.5 * (c - b)
        if fb == 0 or abs(m) <= tol:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    raise VerificationError(
        f"amplitude root not converged in {_ROOT_MAX_ITERS} iterations"
    )


def oracle_spectral(
    op: DiscreteOperator,
    weight: WeightSpec,
    lam: float,
) -> OracleResult:
    """Shape/amplitude fixed point built on the symmetric pencil.

    Status "no_positive_solution" is a genuine certificate: the
    amplitude equation nu(t) = 1 has no positive root when
    lambda <= lambda1.
    """
    grid = op.grid
    if lam <= 0:
        raise VerificationError("lambda must be positive")
    rx = reaction(weight, grid)

    def amplitude(shape: np.ndarray):
        fhat = phi(rx, shape)
        fsup = float(fhat.max())
        if fsup <= 0:
            raise VerificationError(
                "weight produces no reaction at the shape; amplitude "
                "equation is degenerate"
            )

        def excess(t: float) -> float:
            nu, _ = pencil_eigenvalue(op, lam - t**weight.p * fhat)
            return nu - 1.0

        lo = excess(0.0)
        if lo >= -1e-14:
            return None
        t_hi = (lam * (1.0 - 1e-10) / fsup) ** (1.0 / weight.p)
        hi = excess(t_hi)
        if hi <= 0:
            raise VerificationError(
                "amplitude equation fails to bracket a root"
            )
        return _bracketed_root(excess, 0.0, t_hi, lo, hi)

    shape = principal_eigenpair(op).phi1
    t = amplitude(shape)
    if t is None:
        return OracleResult(
            u=np.zeros(grid.n),
            status="no_positive_solution",
            iters=0,
            final_change=0.0,
            residual=0.0,
        )
    u = t * shape
    change = math.inf
    for it in range(1, _SPECTRAL_MAX_OUTER + 1):
        c = lam - phi(rx, u)
        _, shape_new = pencil_eigenvalue(op, c)
        if shape_new.min() <= 0:
            raise VerificationError("pencil eigenvector lost positivity")
        if it > 30:
            mix = 0.5 * shape + 0.5 * shape_new
            shape_new = mix / np.abs(mix).max()
        t_new = amplitude(shape_new)
        if t_new is None:
            raise VerificationError(
                "amplitude root vanished during shape iteration"
            )
        u_new = t_new * shape_new
        change = float(np.abs(u_new - u).max())
        u, shape, t = u_new, shape_new, t_new
        if change <= _SPECTRAL_TOL * max(1.0, float(np.abs(u).max())):
            return OracleResult(
                u=u,
                status="converged",
                iters=it,
                final_change=change,
                residual=_problem_residual(op, rx, lam, u),
            )
    return OracleResult(
        u=u,
        status="not_converged",
        iters=_SPECTRAL_MAX_OUTER,
        final_change=change,
        residual=_problem_residual(op, rx, lam, u),
    )


def check_subcritical_nonexistence(
    op: DiscreteOperator,
    weight: WeightSpec,
    lam: float,
    trials: int = 20,
) -> BoundReport:
    """Multi-start search for positive solutions; holds if none is found.

    Newton and the damped rearrangement both run from each random
    positive start.  A find requires sup norm > 1e-6, strictly positive
    values, and residual <= 1e-9.  Calling this above lambda1 is the
    checker's own self-test: it must come back not holding.
    """
    cfg = ContinuationConfig(lambda_max=max(2.0 * lam, 4.0))
    rng = np.random.default_rng(_SEARCH_SEED)
    n = op.grid.n
    rx = reaction(weight, op.grid)
    tight = replace(cfg, newton_tol=1e-14, newton_max_iters=60)
    found_sup = 0.0
    for _ in range(trials):
        u0 = rng.uniform(0.05, 1.0, n)
        try:
            pt = newton_correct(op, rx, lam, u0, cfg)
            if (
                pt.sup_norm > 1e-6
                and pt.min_u > 0
                and pt.residual_norm <= 1e-9
            ):
                # at lambda = lambda1 the trivial root is degenerate and
                # Newton can stall at a small residual while the iterate
                # is still above the cut; polish before counting a find
                pt = newton_correct(op, rx, lam, pt.u, tight)
                if pt.sup_norm > 1e-6 and pt.min_u > 0:
                    found_sup = max(found_sup, pt.sup_norm)
        except ContinuationError:
            pass
        orc = oracle_fixed_point(op, weight, lam, u0)
        if orc.status == "converged":
            sup = float(np.abs(orc.u).max())
            if sup > 1e-6 and orc.u.min() > 0 and orc.residual <= 1e-9:
                found_sup = max(found_sup, sup)
    margin = 1e-6 - found_sup
    return BoundReport(
        name="subcritical_nonexistence",
        holds=found_sup == 0.0,
        margin=margin,
        context={"lambda": lam, "trials": trials, "max_sup_found": found_sup},
    )


def window_bounds(
    lambda1: float, sigma: float, osc: float
) -> tuple[float, float]:
    """Solvability window (lambda1, lambda1 + lambda1 sigma / [Q]).

    [Q] = 0 means the weight is x-independent and the window is unbounded.
    """
    if sigma <= 0:
        raise ContinuationError("window needs a positive weight floor sigma")
    if osc <= 1e-14:
        return lambda1, math.inf
    return lambda1, lambda1 + lambda1 * sigma / osc


def bifurcation_estimate(branch: Branch, p: float | None = None) -> float:
    """Recover the bifurcation value by extrapolating ||u||_inf -> 0.

    Fits lambda = b0 + b1 s^p + b2 s^(2p) through the three
    smallest-amplitude points and returns b0.
    """
    if p is None:
        p = branch.p
    pts = sorted(branch.points, key=lambda q: q.sup_norm)[:3]
    if len(pts) < 3:
        raise ContinuationError("need at least three branch points")
    s = np.array([q.sup_norm for q in pts])
    lam = np.array([q.lam for q in pts])
    vander = np.column_stack([np.ones(3), s**p, s ** (2 * p)])
    coef = np.linalg.solve(vander, lam)
    return float(coef[0])


def monotone_points(branch: Branch) -> tuple:
    """The lambda-increasing sub-path of the branch."""
    kept = []
    last = -math.inf
    for pt in branch.points:
        if pt.lam > last:
            kept.append(pt)
            last = pt.lam
    return tuple(kept)
