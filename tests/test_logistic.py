"""Reaction field, residual and Jacobian."""

import numpy as np
import pytest

from dispersal import (
    JacobianAction,
    KernelSpec,
    LowRank,
    ReactionError,
    WeightSpec,
    assemble,
    certify,
    phi,
    reaction,
    residual,
)

from .conftest import (
    const_weight,
    dense_a,
    dense_jacobian,
    dip_weight,
    unit_grid,
    weight_matrix,
)


def test_phi_constant_cases(grid65):
    u = np.full(grid65.n, 2.0)
    w1, w2 = const_weight(p=1.0), const_weight(p=2.0)
    fld = phi(reaction(w1, grid65), u)
    np.testing.assert_allclose(fld, 2.0, atol=1e-14)
    assert abs(fld.max() - 2.0) < 1e-14
    fld2 = phi(reaction(w2, grid65), u)
    np.testing.assert_allclose(fld2, 4.0, atol=1e-13)


def test_phi_homogeneous_in_amplitude(grid65, rng):
    w = const_weight(p=0.7)
    u = rng.uniform(0.1, 1.0, grid65.n)
    rx = reaction(w, grid65)
    base = phi(rx, u)
    for t in (0.0, 0.5, 2.0):
        scaled = phi(rx, t * u)
        assert np.abs(scaled - t**0.7 * base).max() < 1e-13


def test_phi_uniform_bound(grid65, rng):
    w = dip_weight(p=1.5)
    qsup = weight_matrix(w, grid65).max()
    rx = reaction(w, grid65)
    vol = grid65.domain.volume
    for _ in range(100):
        u = rng.standard_normal(grid65.n)
        fld = phi(rx, u)
        assert fld.max() <= qsup * np.abs(u).max() ** 1.5 * vol + 1e-12


def test_phi_difference_bound(grid65, rng):
    w = const_weight(p=2.0)
    rx = reaction(w, grid65)
    for _ in range(50):
        u = rng.standard_normal(grid65.n)
        v = rng.standard_normal(grid65.n)
        du = phi(rx, u) - phi(rx, v)
        lip = grid65.integrate(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2))
        assert np.abs(du).max() <= lip + 1e-12


def test_residual_trivial_and_constant(const_op):
    grid = const_op.grid
    rx = reaction(const_weight(), grid)
    zero = residual(const_op, rx, 2.0, np.zeros(grid.n))
    np.testing.assert_allclose(zero, 0.0)
    # u = 1 solves the constant problem at lambda = 2 exactly
    r = residual(const_op, rx, 2.0, np.ones(grid.n))
    assert np.abs(r).max() < 1e-14


def test_residual_at_eigenfunction(const_op, const_eigen):
    """At lambda1 the linear part cancels and the crowding term remains."""
    rx = reaction(const_weight(), const_op.grid)
    r = residual(const_op, rx, const_eigen.lambda1, const_eigen.phi1)
    fld = phi(rx, const_eigen.phi1)
    np.testing.assert_allclose(r, fld * const_eigen.phi1, atol=1e-10)
    assert r.min() > 0


def test_jacobian_at_zero_state(const_op, rng):
    n = const_op.n
    w = const_weight(p=2.0)
    rx = reaction(w, const_op.grid)
    action = JacobianAction(const_op, rx, 1.7, np.zeros(n))
    a = dense_a(KernelSpec.constant(1.0), const_op.grid)
    v = rng.standard_normal(n)
    np.testing.assert_allclose(action @ v, a @ v - 1.7 * v, atol=1e-14)


def test_jacobian_constant_row_sums(const_op):
    n = const_op.n
    w = const_weight(p=1.0)
    rx = reaction(w, const_op.grid)
    action = JacobianAction(const_op, rx, 2.0, np.ones(n))
    # A + diag(Phi) - 2 I contributes zero row sum; the rank term adds one
    np.testing.assert_allclose(action @ np.ones(n), 1.0, atol=1e-13)


def test_jacobian_matches_finite_differences(rng):
    """The dense reference Jacobian of the tests matches central
    differences of the residual."""
    grid = unit_grid("trapezoid", 21)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    lam = 1.8
    for p in (0.5, 1.0, 2.0):
        w = dip_weight(p=p)
        rx = reaction(w, grid)
        for _ in range(3):
            u = rng.uniform(0.3, 1.2, grid.n)
            j = dense_jacobian(op, rx, lam, u)
            h = 1e-6
            fd = np.empty_like(j)
            for k in range(grid.n):
                e = np.zeros(grid.n)
                e[k] = h
                fd[:, k] = (
                    residual(op, rx, lam, u + e)
                    - residual(op, rx, lam, u - e)
                ) / (2.0 * h)
            denom = max(np.abs(j).max(), 1.0)
            assert np.abs(j - fd).max() / denom < 1e-6


def test_jacobian_p_below_one_needs_interior_state(const_op):
    u = np.full(const_op.n, 0.5)
    u[7] = 0.0
    w = const_weight(p=0.5)
    with pytest.raises(ReactionError):
        JacobianAction(const_op, reaction(w, const_op.grid), 2.0, u)


def test_jacobian_action_matches_dense(rng):
    """The matrix-free action is the dense reference Jacobian applied to
    v, to relative 1e-12, on the finite-difference gate's grid (gaussian
    kernel, 21 trapezoid nodes, lambda = 1.8) for the dip weight at three
    exponents and for a tabulated weight, with the dispersal part
    checked against an independently built K diag(w)."""
    grid = unit_grid("trapezoid", 21)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    lam = 1.8
    table = rng.uniform(0.5, 2.0, (grid.n, grid.n))
    weights = [dip_weight(p=p) for p in (0.5, 1.0, 2.0)]
    weights.append(WeightSpec.tabulated(table, p=1.5))
    for w in weights:
        rx = reaction(w, grid)
        for _ in range(5):
            u = rng.uniform(0.2, 1.5, grid.n)
            if w.p >= 1:
                u *= rng.choice((-1.0, 1.0), grid.n)
            v = rng.standard_normal(grid.n)
            dense = dense_jacobian(op, rx, lam, u) @ v
            scale = np.abs(dense).max()
            action = JacobianAction(op, rx, lam, u)
            assert np.abs(action @ v - dense).max() <= 1e-12 * scale
    w = weights[2]
    action = JacobianAction(op, reaction(w, grid), lam, np.zeros(grid.n))
    a = dense_a(KernelSpec.gaussian(1.0), grid)
    v = rng.standard_normal(grid.n)
    np.testing.assert_allclose(action @ v, a @ v - lam * v, rtol=0, atol=1e-14)


def test_reaction_reproduces_phi(grid65, rng):
    w = dip_weight(p=1.5)
    rx = reaction(w, grid65)
    assert rx.p == 1.5
    # the dip weight is kept as rank-two read-only factors
    q = rx.q
    assert isinstance(q, LowRank) and q.left.shape == (grid65.n, 2)
    assert not (q.left.flags.writeable or q.right.flags.writeable)
    u = rng.standard_normal(grid65.n)
    q = weight_matrix(w, grid65)
    expected = (q * grid65.weights[None, :]) @ np.abs(u) ** 1.5
    np.testing.assert_allclose(phi(rx, u), expected, rtol=1e-14)


def test_phi_floor_for_dip_weight(grid65, rng):
    w = dip_weight(p=1.0)
    op = assemble(KernelSpec.constant(1.0), grid65)
    rep = certify(op, w, r=grid65.domain.diameter).floor
    assert rep.q2pp
    rx = reaction(w, grid65)
    for _ in range(20):
        u = rng.uniform(0.0, 2.0, grid65.n)
        fld = phi(rx, u)
        floor_val = rep.sigma_global * grid65.lp_norm(u, 1.0)
        assert fld.min() >= floor_val - 1e-12
