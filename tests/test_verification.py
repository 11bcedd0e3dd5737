"""Independent oracles and the bound reports of `verify_branch`."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dispersal import (
    ContinuationConfig,
    KernelSpec,
    Domain,
    WeightSpec,
    assemble,
    build_grid,
    principal_eigenpair,
    solve_at_lambda,
    trace_branch,
    verify_branch,
)
from dispersal.cli import RunContext, _load_branch

from .conftest import const_weight, dip_weight, peak_bytes, unit_grid
from .oracles import (
    VerificationError,
    check_subcritical_nonexistence,
    oracle_fixed_point,
    oracle_spectral,
    pencil_eigenvalue,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_fixed_point_oracle_stationary_at_solution(const_op):
    """u = 1 is an exact fixed point of the rearrangement at lambda = 2."""
    res = oracle_fixed_point(
        const_op, const_weight(), 2.0, np.ones(const_op.n)
    )
    assert res.status == "converged"
    np.testing.assert_allclose(res.u, 1.0, atol=1e-10)
    assert res.residual < 1e-10


def test_fixed_point_oracle_drains_from_off_solution_starts(const_op):
    """Started below the solution the iteration contracts to the trivial
    state: the positive solution is unstable for this map."""
    res = oracle_fixed_point(
        const_op, const_weight(), 2.0, np.full(const_op.n, 0.5)
    )
    assert res.status == "converged"
    assert np.abs(res.u).max() < 1e-8


def test_fixed_point_oracle_subcritical_inconclusive(const_op):
    """Below lambda1 small starts drift toward the admissibility wall
    and the oracle reports that honestly instead of inventing a root."""
    res = oracle_fixed_point(
        const_op, const_weight(), 0.9, np.full(const_op.n, 0.05)
    )
    assert res.status in ("inadmissible", "not_converged")


def test_fixed_point_oracle_validates_inputs(const_op):
    with pytest.raises(VerificationError):
        oracle_fixed_point(
            const_op, const_weight(), 2.0, np.zeros(const_op.n)
        )
    with pytest.raises(VerificationError):
        oracle_fixed_point(
            const_op, const_weight(), 2.0, np.ones(const_op.n),
            relaxation=1.5,
        )


def test_pencil_reduces_to_plain_eigenproblem(const_op, const_eigen):
    lam = 2.0
    nu, u = pencil_eigenvalue(const_op, np.full(const_op.n, lam))
    assert abs(nu - const_eigen.lambda1 / lam) < 1e-12
    np.testing.assert_allclose(u, const_eigen.phi1, atol=1e-10)


def test_pencil_is_one_at_solution(const_op):
    # at the solution u = 1, lambda - Phi_u = 1 and S phi = 1 * 1 * phi
    nu, _ = pencil_eigenvalue(const_op, np.ones(const_op.n))
    assert abs(nu - 1.0) < 1e-10


def test_spectral_oracle_constant_closed_form(const_op):
    res = oracle_spectral(const_op, const_weight(p=1.0), 2.0)
    assert res.status == "converged"
    np.testing.assert_allclose(res.u, 1.0, atol=1e-10)

    res2 = oracle_spectral(const_op, const_weight(p=2.0), 5.0)
    assert res2.status == "converged"
    np.testing.assert_allclose(res2.u, 2.0, atol=1e-9)


def test_spectral_oracle_certifies_nonexistence(const_op):
    for lam in (0.5, 1.0):
        res = oracle_spectral(const_op, const_weight(), lam)
        assert res.status == "no_positive_solution"


def test_spectral_oracle_matches_newton_gaussian():
    grid = unit_grid("trapezoid", 65)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    eigen = principal_eigenpair(op)
    cfg = ContinuationConfig(lambda_max=3.0)
    pt = solve_at_lambda(op, const_weight(), eigen, 2.0, cfg)
    res = oracle_spectral(op, const_weight(), 2.0)
    assert res.status == "converged"
    assert np.abs(res.u - pt.u).max() <= 1e-8


@pytest.mark.parametrize(
    "dim, resolution, weight",
    [(1, 4097, dip_weight(p=2.0)), (2, 64, const_weight(p=2.0))],
    ids=["1d-4097-dip", "2d-64x64-const"],
)
def test_spectral_oracle_holds_no_n_squared_array(dim, resolution, weight):
    """On 4097 1-D trapezoid nodes with the dip weight and on 64 x 64 with
    Q = 1 (gaussian length 1, 1.5 lambda1) the oracle converges to
    Newton's solution to 1e-8 and peaks below n^2 bytes, an eighth of one
    n x n float array: the pencil is applied on the Toeplitz and Kron
    forms of S, never formed."""
    grid = build_grid(
        Domain((0.0,) * dim, (1.0,) * dim), "trapezoid", resolution
    )
    op = assemble(KernelSpec.gaussian(1.0), grid)
    eigen = principal_eigenpair(op)
    lam = 1.5 * eigen.lambda1
    pt = solve_at_lambda(
        op, weight, eigen, lam, ContinuationConfig(lambda_max=lam + 0.5)
    )
    results = []
    peak = peak_bytes(lambda: results.append(oracle_spectral(op, weight, lam)))
    assert results[0].status == "converged"
    assert np.abs(results[0].u - pt.u).max() <= 1e-8
    assert peak < grid.n**2


def _branch(lam, *states):
    """A stored branch as `verify_branch` reads it: states at ``lam``."""
    return SimpleNamespace(points=tuple(
        SimpleNamespace(lam=lam, u=np.asarray(u, dtype=float))
        for u in states
    ))


def _report(op, weight, branch, name):
    """The report ``name`` of `verify_branch`, or None when it is absent."""
    found = [r for r in verify_branch(op, weight, branch) if r.name == name]
    return found[0] if found else None


def test_admissibility_margin(const_op, const_eigen):
    cfg = ContinuationConfig()
    pt = solve_at_lambda(const_op, const_weight(), const_eigen, 2.0, cfg)
    rep = _report(const_op, const_weight(), _branch(2.0, pt.u),
                  "admissibility")
    assert rep.holds
    assert abs(rep.margin - 0.5) < 1e-10

    bad = _branch(2.0, np.full(const_op.n, 3.0))
    assert not _report(const_op, const_weight(), bad, "admissibility").holds


def test_covering_bound_constant_solution(const_op):
    # Q = 1: sigma = 1, and one ball of radius 1/2 covers the unit interval
    ones = _branch(2.0, np.ones(const_op.n))
    rep = _report(const_op, const_weight(), ones, "lp_covering_bound")
    assert rep.context["m"] == 1 and rep.context["sigma"] == 1.0
    assert rep.holds
    assert abs(rep.margin - 1.0) < 1e-10  # bound 2, ||u||_1 = 1

    trivial = _branch(2.0, np.zeros(const_op.n))
    rep0 = _report(const_op, const_weight(), trivial, "lp_covering_bound")
    assert rep0.holds and abs(rep0.margin - 2.0) < 1e-12

    # Q(x, y) = x has no positive floor: no covering bound to check
    no_floor = WeightSpec.separable(g=(0.0, 1.0), h=(1.0,))
    names = {r.name for r in verify_branch(const_op, no_floor, ones)}
    assert "lp_covering_bound" not in names


def test_positivity_checker(const_op):
    weight = const_weight()
    ones = _branch(2.0, np.ones(const_op.n))
    assert _report(const_op, weight, ones, "positivity").holds

    # the trivial state is no case of positivity
    trivial = _branch(2.0, np.zeros(const_op.n))
    assert _report(const_op, weight, trivial, "positivity") is None

    u = np.ones(const_op.n)
    u[5] = -0.2
    assert not _report(const_op, weight, _branch(2.0, u), "positivity").holds


def test_verify_branch_applies_k_once_per_point(tmp_path, monkeypatch):
    """On the benchmark's stored trace-2d branch (29 closed-form states
    on 33 x 33 nodes, the Kron form of K) `verify_branch` makes one
    product with K per stored point and no eigen solve: 29."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    p = workloads.params("trace-2d", 0)
    workloads.prepare(p, workloads.problem(p), tmp_path)
    # the parsed arguments of `verify` with --branch
    args = SimpleNamespace(config=str(tmp_path / "config.json"),
                           output_dir=str(tmp_path / "out"),
                           branch=str(tmp_path / "branch.csv"))
    run = RunContext(args)
    branch = _load_branch(run, args)
    op = run.operator()
    calls = []
    matvec = type(op.k).matvec

    def counted(self, v):
        calls.append(1)
        return matvec(self, v)

    monkeypatch.setattr(type(op.k), "matvec", counted)
    reports = verify_branch(op, run.weight, branch)
    assert all(r.holds for r in reports)
    assert (len(calls), len(branch.points)) == (29, 29)


def test_subcritical_nonexistence_holds_below(const_op):
    for lam in (0.5, 1.0):
        rep = check_subcritical_nonexistence(
            const_op, const_weight(), lam, trials=20
        )
        assert rep.holds
        assert rep.context["max_sup_found"] == 0.0


def test_subcritical_checker_self_test_above(const_op):
    """Above lambda1 the same search must find the positive solution;
    anything else would mean the checker cannot see solutions at all."""
    rep = check_subcritical_nonexistence(
        const_op, const_weight(), 1.5, trials=5
    )
    assert not rep.holds
    assert rep.context["max_sup_found"] > 0.4


def test_verify_branch_all_hold(const_op, const_eigen):
    cfg = ContinuationConfig(lambda_max=2.5)
    branch = trace_branch(const_op, const_weight(), const_eigen, cfg)
    reports = verify_branch(const_op, const_weight(), branch)
    # only bounds that can fail are reported: the solvability window,
    # the reaction floor and Collatz-Wielandt hold for every state
    assert [r.name for r in reports] == [
        "residual", "admissibility", "positivity", "lp_covering_bound",
    ]
    assert all(r.holds for r in reports)
