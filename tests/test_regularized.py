"""Regularized weight family, its margin bound, and the limit run."""

import numpy as np
import pytest

from dispersal import (
    ContinuationConfig,
    Domain,
    KernelSpec,
    RegularizedError,
    assemble,
    build_grid,
    limit_procedure,
    near_center_mass_bound,
    phi,
    reaction,
    solve_regularized,
    theta_margin,
)
from dispersal import regularized

from .conftest import const_weight, dip_weight


def _op129():
    grid = build_grid(Domain((0.0,), (1.0,)), "trapezoid", 129)
    return assemble(KernelSpec.constant(1.0), grid)


def test_theta_margin_values():
    assert theta_margin(1.0, 1.5) == 0.5
    assert theta_margin(1.0, 3.0) == 1.0


def test_solve_regularized_frozen_point():
    """Constant weight, p = 2, eps = 1/4, lambda = 2, center 1/2: the
    regularized solution exists, is positive, and is far from constant."""
    op = _op129()
    cfg = ContinuationConfig(lambda_max=3.0)
    rs = solve_regularized(
        op, const_weight(p=2.0), 2.0, 0.25, cfg, x0_index=64
    )
    u = rs.point.u
    assert abs(float(np.abs(u).max()) - 1.6556155231407552) < 1e-8
    assert u.min() > 0
    assert float(np.abs(u).max()) - float(u.min()) > 0.5
    assert rs.point.residual_norm < 1e-9
    assert rs.margin_min >= -1e-8


def test_regularized_reaction_dominates_plain():
    op = _op129()
    grid = op.grid
    cfg = ContinuationConfig(lambda_max=3.0)
    rs = solve_regularized(op, const_weight(), 2.0, 0.5, cfg, x0_index=64)
    plain = phi(reaction(const_weight(), grid), rs.point.u)
    reg = phi(reaction(rs.weight_eps, grid), rs.point.u)
    assert (reg >= plain - 1e-12).all()


def test_solve_regularized_needs_supercritical_lambda():
    op = _op129()
    cfg = ContinuationConfig(lambda_max=3.0)
    with pytest.raises(RegularizedError):
        solve_regularized(op, const_weight(), 0.9, 0.5, cfg, x0_index=64)


def test_limit_procedure_validates_inputs():
    op = _op129()
    cfg = ContinuationConfig(lambda_max=3.0)
    with pytest.raises(RegularizedError):
        limit_procedure(op, const_weight(p=2.0), 2.0, (2, 4), cfg)
    with pytest.raises(RegularizedError):
        limit_procedure(op, const_weight(), 2.0, (8, 4), cfg)
    with pytest.raises(RegularizedError):
        limit_procedure(op, const_weight(), 2.0, (8,), cfg)
    with pytest.raises(RegularizedError):
        limit_procedure(op, const_weight(), 2.0, (4, 8), cfg, method="spline")


def test_limit_procedure_constant_weight_clean():
    """x-independent weight in the interior of the window: margins, tail
    contraction, near-center mass, and the modulus bound all hold, and
    the field extrapolant recovers the direct solution to grid accuracy."""
    op = _op129()
    cfg = ContinuationConfig(lambda_max=3.0)
    run = limit_procedure(
        op, const_weight(), 1.5, (4, 8, 16, 32, 64), cfg,
        method="fields", x0_index=64,
    )
    assert run.margins_ok
    assert run.gaps_contracting
    assert run.near_mass_ok
    assert run.modulus_ok
    assert run.obstruction is None
    assert np.abs(run.limit - 0.5).max() <= 2e-2

    rich = limit_procedure(
        op, const_weight(), 1.5, (4, 8, 16, 32, 64), cfg,
        method="richardson", x0_index=64,
    )
    assert rich.obstruction is None
    # the one-step extrapolant keeps the doubled-row defect at the center
    assert run.limit_residual <= rich.limit_residual

    # equal rows allow lambda - lambda1 = lambda/2 at twice lambda1;
    # beyond it the cap excludes every weight
    assert limit_procedure(
        op, const_weight(), 2.0, (4, 8), cfg, x0_index=64, strict=False
    ).obstruction is None
    with pytest.raises(RegularizedError, match="caps the limiting reaction"):
        limit_procedure(op, const_weight(), 2.5, (4, 8), cfg, x0_index=64)


def test_limit_family_newton_counts_pinned():
    """Criterion 8's family (dip weight, constant kernel, 129 trapezoid
    nodes, lambda = 2, n = 4..64): one Newton count per n, those of the
    dense direct-solve corrector that preceded Newton-Krylov."""
    for method in ("richardson", "fields"):
        run = limit_procedure(
            _op129(), dip_weight(p=2.0), 2.0, (4, 8, 16, 32, 64),
            ContinuationConfig(lambda_max=3.0), method=method, strict=False,
        )
        assert [pt.newton_iters for pt in run.solutions] == [6, 8, 8, 5, 4]


def test_limit_procedure_theta_and_bookkeeping():
    op = _op129()
    cfg = ContinuationConfig(lambda_max=3.0)
    run = limit_procedure(
        op, const_weight(), 1.5, (4, 8, 16), cfg, x0_index=64
    )
    assert abs(run.theta - 0.5) < 1e-10
    assert run.n_values == (4, 8, 16)
    assert run.eps_sequence == (0.25, 0.125, 0.0625)
    assert len(run.solutions) == 3
    assert len(run.cauchy_gaps) == 2
    assert run.method == "richardson"


def test_limit_procedure_dip_concentration(monkeypatch):
    """x-dependent weight at lambda = 2 lambda1: every per-n certificate
    holds and the tail contracts, but the mass bound near the center
    breaks and no extrapolant solves the un-regularized equation.  The
    run reports the doubled-weight obstruction; strict mode refuses
    before any solve."""
    op = _op129()
    cfg = ContinuationConfig(lambda_max=3.0)
    run = limit_procedure(
        op, dip_weight(p=2.0), 2.0, (4, 8, 16, 32, 64), cfg, strict=False
    )
    assert run.x0_index == 64
    assert run.margins_ok
    gaps = run.cauchy_gaps
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert not run.near_mass_ok
    assert run.limit_residual > 1e-4
    assert "lambda/2 = 1," in run.obstruction
    assert "lambda - lambda1 = 1 there" in run.obstruction

    # below twice lambda1 the pre-flight stays silent
    assert limit_procedure(
        op, dip_weight(p=2.0), 1.5, (4, 8), cfg, strict=False
    ).obstruction is None

    def no_solve(*args, **kwargs):
        raise AssertionError("pre-flight must refuse before any solve")

    monkeypatch.setattr(regularized, "solve_at_lambda", no_solve)
    with pytest.raises(RegularizedError, match="lambda/lambda1 = 2 reaches 2"):
        limit_procedure(
            op, dip_weight(p=2.0), 2.0, (4, 8, 16, 32, 64), cfg, strict=True
        )


def test_near_center_mass_bound_value():
    val = near_center_mass_bound(
        sup_dispersal=1.0, theta=0.5, p=1.0, eps=0.5, radius=0.5, dim=1
    )
    assert abs(val - 4.0 * np.sqrt(2.0)) < 1e-14


def test_near_center_mass_bound_gates():
    with pytest.raises(RegularizedError):
        near_center_mass_bound(1.0, 0.5, 1.0, 0.5, 1.5, 1)
    with pytest.raises(RegularizedError):
        near_center_mass_bound(1.0, 0.5, 2.0, 0.5, 0.5, 1)
