"""Grids, quadrature weights, and ball covering counts."""

import math

import numpy as np
import pytest

from dispersal import Domain, GeometryError, build_grid, cover

from .conftest import UNIT, unit_grid


def test_domain_basics():
    dom = Domain((0.0, -1.0), (2.0, 1.0))
    assert dom.dim == 2
    assert dom.sides == (2.0, 2.0)
    assert dom.volume == 4.0
    assert abs(dom.diameter - math.sqrt(8.0)) < 1e-15


def test_domain_rejects_degenerate():
    with pytest.raises(GeometryError):
        Domain((0.0,), (0.0,))
    with pytest.raises(GeometryError):
        Domain((0.0, 0.0), (1.0,))
    with pytest.raises(GeometryError, match="at least one axis"):
        Domain((), ())
    # a NaN bound passes every comparison test; it must still be refused
    for lower, upper in [
        ((0.0,), (math.inf,)),
        ((-math.inf,), (1.0,)),
        ((math.nan,), (1.0,)),
        ((0.0, 0.0), (1.0, math.nan)),
    ]:
        with pytest.raises(GeometryError, match="finite"):
            Domain(lower, upper)


def test_domain_refuses_boxes_out_of_float_range():
    """A box whose side, lower + upper or volume overflows would give a
    grid with infinite or NaN nodes, and one whose volume is below
    1e-280 a grid whose weights lose their precision or underflow to 0.
    Each is refused where it is built."""
    for lower, upper in [
        ((-1e308,), (1e308,)),
        ((1e308,), (1.5e308,)),
        ((0.0, 0.0), (1e200, 1e200)),
        ((0.0,), (1e-320,)),
        ((0.0,) * 3, (1e-110,) * 3),
    ]:
        with pytest.raises(GeometryError, match="out of float64 range"):
            Domain(lower, upper)
    grid = build_grid(
        Domain((0.0,), (1e-280,)), "gauss-legendre-tensor", 64
    )
    assert grid.weights.min() > 0


def test_midpoint_nodes_and_weights():
    grid = unit_grid("midpoint", 4)
    np.testing.assert_allclose(
        grid.nodes[:, 0], [0.125, 0.375, 0.625, 0.875]
    )
    np.testing.assert_allclose(grid.weights, 0.25)


def test_trapezoid_nodes_and_weights():
    grid = unit_grid("trapezoid", 3)
    np.testing.assert_allclose(grid.nodes[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(grid.weights, [0.25, 0.5, 0.25])


def test_tensor_grid_2d():
    dom = Domain((0.0, 0.0), (1.0, 1.0))
    grid = build_grid(dom, "midpoint", 2)
    assert grid.n == 4
    np.testing.assert_allclose(grid.weights, 0.25)
    assert grid.nodes.shape == (4, 2)


def test_rules_reject_low_resolution():
    with pytest.raises(GeometryError):
        build_grid(UNIT, "midpoint", 1)
    # a rule is named as in RULES, with no alias spelling
    for rule in ("simpson", "gauss", "gauss-legendre"):
        with pytest.raises(GeometryError, match="unknown rule"):
            build_grid(UNIT, rule, 8)
    # a resolution is an integer: no truncation, parsing or bool
    for resolution in (16.9, 17.0, "17", True):
        with pytest.raises(GeometryError, match="must be an integer"):
            build_grid(UNIT, "midpoint", resolution)
    assert build_grid(UNIT, "midpoint", np.int64(4)).n == 4


def test_weights_partition_volume():
    dom = Domain((0.0, -2.0), (3.0, 2.0))
    for rule in ("midpoint", "trapezoid", "gauss-legendre-tensor"):
        grid = build_grid(dom, rule, 9)
        assert grid.weights.min() > 0
        assert abs(grid.weights.sum() - dom.volume) <= 1e-12 * dom.volume
        assert (grid.nodes >= dom.lower).all()
        assert (grid.nodes <= dom.upper).all()


def test_integrate_constant_exact():
    for rule in ("midpoint", "trapezoid", "gauss-legendre-tensor"):
        grid = unit_grid(rule, 17)
        assert abs(grid.integrate(np.ones(grid.n)) - 1.0) < 1e-14


def test_integrate_linear():
    grid = unit_grid("trapezoid", 101)
    x = grid.nodes[:, 0]
    assert abs(grid.integrate(x) - 0.5) < 1e-12


def test_integrate_quadratic_error_scale():
    # trapezoid error for x^2 on n panels is h^2/12 * integral of f''
    grid = unit_grid("trapezoid", 101)
    x = grid.nodes[:, 0]
    h = 0.01
    err = grid.integrate(x**2) - 1.0 / 3.0
    assert abs(err - h**2 / 12.0 * 2.0) < 1e-12


def test_trapezoid_second_order():
    errs = []
    for res in (33, 65, 129):
        grid = unit_grid("trapezoid", res)
        x = grid.nodes[:, 0]
        errs.append(abs(grid.integrate(np.exp(x)) - (math.e - 1.0)))
    orders = [
        math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)
    ]
    assert min(orders) >= 1.9


def test_gauss_rule_is_spectrally_accurate():
    grid = unit_grid("gauss-legendre-tensor", 12)
    x = grid.nodes[:, 0]
    assert abs(grid.integrate(np.exp(x)) - (math.e - 1.0)) < 1e-14


def test_inner_and_lp_norm():
    grid = unit_grid("trapezoid", 201)
    x = grid.nodes[:, 0]
    assert abs(grid.inner(x, x) - 1.0 / 3.0) < 1e-4
    assert abs(grid.lp_norm(np.ones(grid.n), 2.0) - 1.0) < 1e-14
    # ||x||_1 over (0,1) is 1/2
    assert abs(grid.lp_norm(x, 1.0) - 0.5) < 1e-12


def test_cover_unit_interval():
    assert cover(UNIT, 0.5) == 2
    assert cover(UNIT, 2.0) == 1


def test_cover_square():
    # cells no longer than 1/sqrt(2): 2 x 2
    assert cover(Domain((0.0, 0.0), (1.0, 1.0)), 1.0) == 4
    # cells no longer than 1/sqrt(3) on sides 2, 1, 1.5: 4 x 2 x 3
    assert cover(Domain((0.0, 0.0, -1.0), (2.0, 1.0, 0.5)), 1.0) == 24


def test_cover_radius_positive():
    for r in (0.0, -1.0, math.nan):
        with pytest.raises(GeometryError):
            cover(UNIT, r)


def test_cover_counts_within_the_cell_slack():
    """At r = 10 (1 - 5e-13) on a box of side 10 one cell is longer than
    r by 5e-12, inside the relative 1e-12 slack of the per-axis count, so
    one ball covers it.  A reach check with an absolute 1e-12 refused
    this radius."""
    assert cover(Domain((0.0,), (10.0,)), 10.0 * (1.0 - 5e-13)) == 1
    assert cover(Domain((0.0,), (1e6,)), 1e6 * (1.0 - 1e-15)) == 1
