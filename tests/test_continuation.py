"""Branch continuation from the bifurcation point."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from dispersal import (
    ContinuationConfig,
    ContinuationError,
    Domain,
    JacobianAction,
    KernelSpec,
    WeightSpec,
    assemble,
    build_grid,
    build_a_eps,
    build_q_eps,
    certify,
    newton_correct,
    phi,
    principal_eigenpair,
    reaction,
    residual,
    solve_at_lambda,
    trace_branch,
    verify_branch,
)
from dispersal import continuation
from dispersal.continuation import _krylov, _newton, _solve

from .conftest import (
    const_weight,
    dense_jacobian,
    dip_weight,
    peak_bytes,
    unit_grid,
)
from .oracles import (
    bifurcation_estimate,
    monotone_points,
    oracle_spectral,
    window_bounds,
)


def test_newton_finds_constant_solution(const_op):
    cfg = ContinuationConfig()
    rx = reaction(const_weight(), const_op.grid)
    pt = newton_correct(
        const_op, rx, 2.0, np.full(const_op.n, 0.8), cfg
    )
    np.testing.assert_allclose(pt.u, 1.0, atol=1e-12)
    assert pt.newton_iters <= 6
    assert pt.residual_norm < 1e-12


def test_newton_collapses_below_threshold(const_op):
    """Below the principal eigenvalue only the trivial state survives
    correction.  At lambda1 exactly the trivial root is degenerate, so
    Newton halts with a tiny residual while the iterate is still small
    but nonzero; a tighter tolerance drives it further down."""
    cfg = ContinuationConfig()
    rx = reaction(const_weight(), const_op.grid)
    pt = newton_correct(
        const_op, rx, 0.9, np.full(const_op.n, 0.5), cfg
    )
    assert pt.sup_norm < 1e-8

    pt = newton_correct(
        const_op, rx, 1.0, np.full(const_op.n, 0.5), cfg
    )
    assert pt.sup_norm < 1e-4
    assert pt.residual_norm < 1e-10
    import dataclasses

    tight = dataclasses.replace(cfg, newton_tol=1e-14, newton_max_iters=60)
    pt2 = newton_correct(const_op, rx, 1.0, pt.u, tight)
    assert pt2.sup_norm < 1e-6


@pytest.mark.parametrize("case, p, start, cause", [
    ("cap", 2.0, 5.0, "did not converge in 2 iterations"),
    ("nan", 2.0, math.nan, "took a zero or non-finite step"),
    ("zero", 0.5, 0.0, "met a state with no Jacobian"),
    ("negative", 0.5, -0.5, r"could not keep u positive \(p < 1\)"),
], ids=["cap", "nan", "zero", "negative"])
def test_newton_failure_exits_raise_step_failure(const_op, case, p, start,
                                                 cause):
    """Every way Newton can fail raises StepFailure naming its cause: the
    iteration cap, a NaN start, a p < 1 start with a zero node, where the
    Jacobian is refused, and a p < 1 start of -u, whose Newton steps lead
    to -u's solution, so no damping keeps the iterate positive."""
    u0 = np.full(const_op.n, 0.5)
    u0[const_op.n // 2] = start
    if case == "negative":
        u0[:] = start
    cfg = ContinuationConfig(newton_max_iters=2 if case == "cap" else 25)
    rx = reaction(const_weight(p=p), const_op.grid)
    with pytest.raises(continuation.StepFailure, match=cause):
        newton_correct(const_op, rx, 2.0, u0, cfg)


def test_trace_constant_branch_closed_form(const_op, const_eigen):
    """The seed is exact for a constant kernel and weight: the first point
    sits at lambda = 1 + s0^p, also for a seed amplitude s0 near 0."""
    for p, s0 in itertools.product((1.0, 2.0), (0.01, 1e-8)):
        cfg = ContinuationConfig(lambda_max=3.0, s0=s0)
        branch = trace_branch(
            const_op, const_weight(p=p), const_eigen, cfg
        )
        assert abs(branch.points[0].lam - (1.0 + s0**p)) <= 1e-12
        assert branch.termination == "reached_lambda_max"
        assert branch.fold_indices == ()
        assert len(branch.points) >= 10
        for pt in branch.points:
            exact = (pt.lam - 1.0) ** (1.0 / p)
            assert abs(pt.sup_norm - exact) <= 1e-8
            assert np.abs(pt.u - exact).max() <= 1e-8
        # endpoint lands on lambda_max exactly
        assert abs(branch.points[-1].lam - 3.0) < 1e-12


def test_trace_branch_invariants(const_op, const_eigen):
    cfg = ContinuationConfig(lambda_max=2.5)
    weight = const_weight(p=1.0)
    branch = trace_branch(const_op, weight, const_eigen, cfg)
    mono = monotone_points(branch)
    lams = [pt.lam for pt in mono]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    for pt in branch.points:
        assert pt.min_u > 0
        assert pt.gamma_phi_sup < 1.0
        assert pt.residual_norm < 1e-9
    # the worst covering-bound margin over every point of the branch
    (lp,) = [
        r for r in verify_branch(const_op, weight, branch)
        if r.name == "lp_covering_bound"
    ]
    assert lp.context["points"] == len(branch.points)
    assert lp.margin >= -1e-8


def test_trace_gaussian_branch_against_spectral_oracle():
    grid = unit_grid("trapezoid", 65)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    eigen = principal_eigenpair(op)
    cfg = ContinuationConfig(lambda_max=3.0)
    branch = trace_branch(op, const_weight(p=1.0), eigen, cfg)
    assert branch.termination == "reached_lambda_max"
    sups = [pt.sup_norm for pt in branch.points]
    assert all(b > a for a, b in zip(sups, sups[1:]))
    for pt in branch.points[:: max(1, len(branch.points) // 5)]:
        orc = oracle_spectral(op, const_weight(p=1.0), pt.lam)
        assert orc.status == "converged"
        assert np.abs(orc.u - pt.u).max() <= 1e-8


def test_trace_gaussian_newton_counts_pinned():
    """Gaussian kernel, 129 trapezoid nodes, Q = 1, p = 2, lambda_max =
    2.5: the points and the per-point Newton counts are those of the
    dense direct-solve corrector that preceded Newton-Krylov, and the
    clamped last point sits on lambda_max exactly."""
    grid = unit_grid("trapezoid", 129)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    eigen = principal_eigenpair(op)
    branch = trace_branch(
        op, const_weight(p=2.0), eigen, ContinuationConfig(lambda_max=2.5)
    )
    assert branch.termination == "reached_lambda_max"
    assert [pt.newton_iters for pt in branch.points] == (
        [0] + [2] * 6 + [3] * 12 + [2] * 9
    )
    assert branch.points[-1].lam == 2.5


def test_trace_accepts_every_full_step_at_its_first_trial(monkeypatch):
    """The benchmark's trace-1d problem (gaussian kernel of length 1, 513
    trapezoid nodes, Q = 1, p = 2, lambda_max = 2.5): every Newton step
    passes the residual test at its first trial, so the damping never
    computes a simplified Newton correction.  The linear solves and the
    residuals are exactly those of the residual-only line search."""
    calls = {"_solve": 0, "residual": 0}

    def counted(name):
        f = getattr(continuation, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(continuation, name, counted(name))
    op = assemble(KernelSpec.gaussian(1.0), unit_grid("trapezoid", 513))
    branch = trace_branch(
        op, const_weight(p=2.0), principal_eigenpair(op),
        ContinuationConfig(lambda_max=2.5),
    )
    assert branch.termination == "reached_lambda_max"
    assert len(branch.points) == 28
    assert sum(pt.newton_iters for pt in branch.points) == 66
    assert calls == {"_solve": 130, "residual": 94}


def test_trace_requires_room_above_lambda1(const_op, const_eigen):
    with pytest.raises(ContinuationError):
        trace_branch(
            const_op,
            const_weight(),
            const_eigen,
            ContinuationConfig(lambda_max=0.5),
        )


def test_window_bounds_values():
    lo, hi = window_bounds(1.0, 1.0, 0.0)
    assert lo == 1.0 and hi == math.inf
    lo, hi = window_bounds(1.0, 1.0, 0.5)
    assert (lo, hi) == (1.0, 3.0)
    with pytest.raises(ContinuationError):
        window_bounds(1.0, 0.0, 0.5)


def _window(weight, grid, lambda1):
    op = assemble(KernelSpec.constant(1.0), grid)
    floor = certify(op, weight, r=grid.domain.diameter).floor
    return window_bounds(lambda1, floor.sigma_global, floor.oscillation)


def test_solvability_window_dip(grid65):
    lo, hi = _window(dip_weight(), grid65, 1.0)
    sigma = 3.0 - 0.5**0.4
    osc = 0.5**0.4
    assert abs(lo - 1.0) < 1e-14
    assert abs(hi - (1.0 + sigma / osc)) < 1e-9


def test_trace_inside_dip_window(const_op, const_eigen):
    cfg = ContinuationConfig(lambda_max=3.0)
    branch = trace_branch(const_op, dip_weight(), const_eigen, cfg)
    assert branch.termination == "reached_lambda_max"
    _, hi = _window(dip_weight(), const_op.grid, 1.0)
    assert branch.points[-1].lam < hi
    for pt in branch.points:
        assert pt.min_u > 0


def test_trace_reports_max_points():
    """Q = 0 leaves the problem linear: the branch stands vertical at
    lambda1 and spends its point budget without reaching lambda_max, and
    `solve_at_lambda` above lambda1 is refused by name."""
    grid = build_grid(Domain((0.0,), (1.0,)), "trapezoid", 33)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    eigen = principal_eigenpair(op)
    cfg = ContinuationConfig(lambda_max=2.5, max_points=40)
    branch = trace_branch(op, WeightSpec.constant(0.0, p=2.0), eigen, cfg)
    assert branch.termination == "max_points"
    assert len(branch.points) == 40
    assert branch.points[-1].lam < cfg.lambda_max
    with pytest.raises(ContinuationError, match="weight has no reaction at "
                                                "the principal eigenfunction"):
        solve_at_lambda(op, WeightSpec.constant(0.0, p=2.0), eigen, 2.0, cfg)


@pytest.mark.parametrize("failures", [math.inf, 3])
def test_trace_halves_ds_on_a_failed_step(monkeypatch, failures):
    """A corrector step that raises StepFailure halves ds and retries.
    With every arclength step rejected, the trace stops as "step_failure"
    at its bootstrap point after 11 tries, since 0.02 / 2^11 < ds_min =
    1e-5; with only the first 3 rejected, it still reaches lambda_max."""
    newton = continuation._newton
    tried = []

    def failing(op, rx, lam, u0, cfg, border=None):
        if border is None or len(tried) >= failures:
            return newton(op, rx, lam, u0, cfg, border)
        tried.append(border[4])
        raise continuation.StepFailure("rejected by the test")

    monkeypatch.setattr(continuation, "_newton", failing)
    grid = build_grid(Domain((0.0,), (1.0,)), "trapezoid", 33)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    cfg = ContinuationConfig(lambda_max=2.5)
    branch = trace_branch(op, const_weight(p=2.0), principal_eigenpair(op),
                          cfg)
    if failures == math.inf:
        assert branch.termination == "step_failure"
        assert len(branch.points) == 1
        assert tried == [cfg.ds / 2**k for k in range(11)]
    else:
        assert branch.termination == "reached_lambda_max"
        assert branch.points[-1].lam == cfg.lambda_max
        assert tried == [cfg.ds / 2**k for k in range(3)]


def test_solve_at_lambda_constant(const_op, const_eigen):
    cfg = ContinuationConfig()
    pt = solve_at_lambda(const_op, const_weight(p=2.0), const_eigen, 2.5, cfg)
    np.testing.assert_allclose(pt.u, 1.5**0.5, atol=1e-10)


def _assert_solves(op, weight, lam, pt):
    """pt is a positive solution at exactly lam: its residual, recomputed
    from the state, is within the residual gate 1e-8 max(1, |u|_inf)."""
    r = residual(op, reaction(weight, op.grid), lam, pt.u)
    assert np.abs(r).max() <= 1e-8 * max(1.0, np.abs(pt.u).max())
    assert pt.u.min() > 0 and pt.lam == lam


def test_solve_at_lambda_falls_back_to_a_trace(monkeypatch):
    """With a weight that grows steeply in x the direct Newton solve
    collapses, and one clamped trace reaches lambda instead: at 3 lambda1
    under a constant kernel (the Woodbury step) and at 1.5 lambda1 under a
    length-0.1 gaussian (the GMRES step)."""
    calls = []
    trace = continuation._trace

    def counted(*args, **kwargs):
        calls.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(continuation, "_trace", counted)
    grid = unit_grid("trapezoid", 33)
    for kernel, weight, ratio in (
        (KernelSpec.constant(1.0),
         WeightSpec.separable((0.1, 2.0), (1.0, -0.5), p=1.0), 3.0),
        (KernelSpec.gaussian(0.1),
         WeightSpec.separable((1.0, 2.0), (1.0, -0.5), p=2.0), 1.5),
    ):
        op = assemble(kernel, grid)
        eigen = principal_eigenpair(op)
        lam = ratio * eigen.lambda1
        calls.clear()
        pt = solve_at_lambda(op, weight, eigen, lam, ContinuationConfig())
        assert len(calls) == 1
        _assert_solves(op, weight, lam, pt)


@pytest.mark.parametrize("kernel, p", [
    pytest.param(KernelSpec.gaussian(1.0), 3.0, id="gmres"),
    pytest.param(KernelSpec.constant(1.0), 0.5, id="woodbury"),
])
def test_solve_at_lambda_crosses_a_zero_shift(kernel, p):
    """An iterate of these solves at 3 lambda1 makes Phi_u - lambda exactly
    0 at a node.  GMRES preconditions that node by 1, and the Woodbury
    step, which would divide by it, hands the step to GMRES; no division
    by zero warns (the suite runs with warnings as errors)."""
    grid = unit_grid("trapezoid", 33)
    weight = WeightSpec.separable((1.0, 2.0), (1.0, -0.5), p=p)
    op = assemble(kernel, grid)
    eigen = principal_eigenpair(op)
    lam = 3.0 * eigen.lambda1
    pt = solve_at_lambda(op, weight, eigen, lam, ContinuationConfig())
    _assert_solves(op, weight, lam, pt)


def test_solve_at_lambda_below_threshold(const_op, const_eigen):
    cfg = ContinuationConfig()
    pt = solve_at_lambda(const_op, const_weight(), const_eigen, 0.8, cfg)
    assert pt.sup_norm < 1e-8


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_solve_at_lambda_refuses_a_non_finite_lambda(
    monkeypatch, const_op, const_eigen, lam
):
    """A non-finite lambda is refused by name before any Newton run."""
    calls = []
    monkeypatch.setattr(continuation, "_newton",
                        lambda *args: calls.append(args))
    with pytest.raises(ContinuationError,
                       match="lambda must be a finite real number"):
        solve_at_lambda(const_op, const_weight(), const_eigen, lam,
                        ContinuationConfig())
    assert calls == []


def test_bifurcation_estimate_recovers_lambda1(const_op, const_eigen):
    cfg = ContinuationConfig(lambda_max=2.0)
    for p in (1.0, 2.0):
        branch = trace_branch(const_op, const_weight(p=p), const_eigen, cfg)
        est = bifurcation_estimate(branch)
        assert abs(est - const_eigen.lambda1) < 1e-4


def test_bifurcation_estimate_gaussian():
    grid = unit_grid("trapezoid", 65)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    eigen = principal_eigenpair(op)
    branch = trace_branch(
        op, const_weight(p=1.0), eigen, ContinuationConfig(lambda_max=2.0)
    )
    assert abs(bifurcation_estimate(branch) - eigen.lambda1) < 1e-4


def test_config_validation():
    with pytest.raises(ContinuationError):
        ContinuationConfig(ds=0.0)
    with pytest.raises(ContinuationError):
        ContinuationConfig(ds=0.2, ds_max=0.1)
    with pytest.raises(ContinuationError):
        ContinuationConfig(s0=-0.1)
    with pytest.raises(ContinuationError):
        ContinuationConfig(newton_tol=0.0)
    for bad in (
        {"newton_max_iters": 2.5},
        {"max_points": 10.5},
        {"max_points": 0},
        {"lambda_max": "2.5"},
        {"lambda_max": float("nan")},
        {"ds": None},
        {"newton_tol": True},
    ):
        (key,) = bad
        with pytest.raises(ContinuationError, match=key):
            ContinuationConfig(**bad)


def test_trace_on_64_squared_grid():
    """A 2-D trace on 64 x 64 nodes (n = 4096) reaches lambda_max: the
    gaussian S is a Kronecker product and Q = 1 has rank one."""
    grid = build_grid(Domain((0.0, 0.0), (1.0, 1.0)), "trapezoid", 64)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    cfg = ContinuationConfig(lambda_max=2.5)
    branch = trace_branch(
        op, WeightSpec.constant(1.0, p=2.0), principal_eigenpair(op), cfg
    )
    assert branch.termination == "reached_lambda_max"
    assert branch.points[-1].lam == 2.5
    assert min(pt.min_u for pt in branch.points) > 0


def test_trace_holds_no_n_squared_array():
    """On 64 x 64 nodes the trace reads no certificate: with the gaussian
    S a Kronecker product and Q = 1 of rank one it peaks below n^2 bytes,
    an eighth of one n x n float array."""
    grid = build_grid(Domain((0.0, 0.0), (1.0, 1.0)), "trapezoid", 64)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    eigen = principal_eigenpair(op)
    peak = peak_bytes(
        trace_branch, op, WeightSpec.constant(1.0, p=2.0), eigen,
        ContinuationConfig(lambda_max=2.5),
    )
    assert peak < grid.n**2


def test_krylov_matches_dense_solve():
    """One GMRES cycle solves J x = b as np.linalg.solve does on the dense
    reference Jacobian, for S and QW in each form and on n above and below the
    50-iteration cap; at the singular trivial state lambda = lambda1 (where
    p >= 1 lets the jacobian exist) its iterate is finite."""
    rng = np.random.default_rng(11)
    square = Domain((0.0, 0.0), (1.0, 1.0))
    table = rng.uniform(0.0, 2.0, (33, 33))
    cases = (
        (KernelSpec.gaussian(1.0), unit_grid("trapezoid", 33),
         dip_weight(2.0)),
        (KernelSpec.gaussian(0.2), unit_grid("trapezoid", 65),
         const_weight(1.0)),
        (KernelSpec.gaussian(0.5), unit_grid("gauss-legendre-tensor", 33),
         dip_weight(0.5)),
        (KernelSpec.constant(1.0), unit_grid("midpoint", 33),
         WeightSpec.tabulated(table, p=1.5)),
        (KernelSpec.gaussian(0.3), build_grid(square, "trapezoid", 6),
         const_weight(2.0)),
    )
    for kernel, grid, weight in cases:
        op = assemble(kernel, grid)
        rx = reaction(weight, grid)
        eigen = principal_eigenpair(op)
        b = rng.standard_normal(grid.n)
        for lam in (0.5 * eigen.lambda1, 2.0 * eigen.lambda1):
            u = rng.uniform(0.2, 1.5, grid.n)
            x = _krylov(JacobianAction(op, rx, lam, u), b)
            ref = np.linalg.solve(dense_jacobian(op, rx, lam, u), b)
            assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()
        if weight.p >= 1:
            zero = np.zeros(grid.n)
            trivial = JacobianAction(op, rx, eigen.lambda1, zero)
            assert np.isfinite(_krylov(trivial, b)).all()


def test_low_rank_solve_matches_dense_solve():
    """When K and Q are both LowRank, `_solve` is the exact Woodbury step:
    it matches np.linalg.solve on the dense reference Jacobian to 1e-12
    relative for the constant and rank_one kernels against the constant,
    separable, polynomial_dip and row-scaled dip weights, p in {0.5, 1, 2}.

    lambda lies lambda1 below or above every Phi_u, so |D| >= lambda1 and
    J is well conditioned; where D = diag(Phi_u - lambda) nearly vanishes,
    the two solves differ by up to about cond(J) eps."""
    rng = np.random.default_rng(17)
    grid = unit_grid("trapezoid", 33)
    a_eps = build_a_eps(dip_weight(), grid, np.array([0.5]), 0.25)
    for kernel in (KernelSpec.constant(1.0), KernelSpec.rank_one((1.0, 0.5))):
        op = assemble(kernel, grid)
        lambda1 = principal_eigenpair(op).lambda1
        for p in (0.5, 1.0, 2.0):
            dip = reaction(dip_weight(p), grid)
            for rx in (
                reaction(const_weight(p), grid),
                reaction(
                    WeightSpec.separable((0.5, 1.0), (1.0, -0.5), p=p), grid
                ),
                dip,
                replace(dip, q=build_q_eps(dip.q, a_eps)),
            ):
                u = rng.uniform(0.2, 1.5, grid.n)
                phi_u = phi(rx, u)
                for lam in (phi_u.min() - lambda1, phi_u.max() + lambda1):
                    b = rng.standard_normal(grid.n)
                    jac = JacobianAction(op, rx, lam, u)
                    assert jac.low_rank is not None
                    x = _solve(jac, b)
                    ref = np.linalg.solve(dense_jacobian(op, rx, lam, u), b)
                    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_low_rank_solve_at_singular_capacitance():
    """At the trivial state at lambda1 under a constant kernel on
    trapezoid nodes, I + V^T D^-1 U is exactly singular: the step is the
    GMRES iterate, finite, and a bordered Newton from there raises
    nothing."""
    grid = unit_grid("trapezoid", 65)
    op = assemble(KernelSpec.constant(1.0), grid)
    eigen = principal_eigenpair(op)
    rx = reaction(const_weight(2.0), grid)
    zero = np.zeros(grid.n)
    trivial = JacobianAction(op, rx, eigen.lambda1, zero)
    left, right = trivial.low_rank
    capacitance = np.eye(left.shape[1]) + right.T @ (
        left / trivial.shift[:, None]
    )
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(capacitance, np.ones(left.shape[1]))
    b = np.random.default_rng(5).standard_normal(grid.n)
    x = _solve(trivial, b)
    assert np.isfinite(x).all()
    assert np.array_equal(x, _krylov(trivial, b))
    border = (eigen.phi1, 1.0, zero, eigen.lambda1, 0.01)
    _newton(op, rx, eigen.lambda1, zero, ContinuationConfig(), border)


def _krylov_calls(monkeypatch, kernel) -> int:
    """The `_krylov` calls of one fixed-lambda solve at 1.5 lambda1."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _krylov(*args)

    monkeypatch.setattr(continuation, "_krylov", counted)
    op = assemble(kernel, unit_grid("trapezoid", 33))
    eigen = principal_eigenpair(op)
    pt = solve_at_lambda(
        op, dip_weight(2.0), eigen, 1.5 * eigen.lambda1, ContinuationConfig()
    )
    assert pt.newton_iters > 0
    return len(calls)


def test_forms_choose_the_newton_solve(monkeypatch):
    """A constant kernel with a LowRank Q solves every Newton step
    exactly; a gaussian kernel takes the GMRES cycle."""
    assert _krylov_calls(monkeypatch, KernelSpec.constant(1.0)) == 0
    assert _krylov_calls(monkeypatch, KernelSpec.gaussian(1.0)) >= 1
