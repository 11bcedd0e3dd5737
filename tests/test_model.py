"""Kernel/weight construction and the structural certificates."""

import math
import sys

import numpy as np
import pytest

from dispersal import (
    RULES,
    ContinuationConfig,
    Domain,
    KernelSpec,
    ModelError,
    WeightSpec,
    assemble,
    build_a_eps,
    build_grid,
    build_q_eps,
    certify,
    eps_ceiling,
    limit_procedure,
    principal_eigenpair,
    reaction,
    solve_at_lambda,
    trace_branch,
    verify_branch,
)

from dispersal import continuation, model, regularized
from dispersal.model import _certify_q3, _polyval

from .conftest import dip_weight, peak_bytes, unit_grid, weight_matrix

SQUARE = Domain((0.0, 0.0), (1.0, 1.0))


def _kernel_report(kernel, grid, delta=None):
    """`certify` of ``kernel`` with Q = 1 at r = 0.25, for its k1/k2."""
    return certify(assemble(kernel, grid), WeightSpec.constant(1.0), 0.25,
                   delta)


def _const_op(grid):
    """The constant-kernel operator, for a certificate that reads Q."""
    return assemble(KernelSpec.constant(1.0), grid)


def _weight_floor(weight, grid, r):
    """The weight floor report of `certify` over ``grid``."""
    return certify(_const_op(grid), weight, r).floor


def test_k1_constant_and_gaussian():
    grid = unit_grid("trapezoid", 33)
    rep = _kernel_report(KernelSpec.constant(2.0), grid)
    assert rep.k1 and rep.max_asymmetry == 0.0
    rep = _kernel_report(KernelSpec.gaussian(0.7), grid)
    assert rep.k1 and rep.max_asymmetry <= 1e-15


def test_k1_detects_asymmetry():
    grid = unit_grid("midpoint", 8)
    k = np.ones((8, 8))
    k[0, 1] += 0.1
    rep = _kernel_report(KernelSpec.tabulated(k), grid)
    assert not rep.k1
    assert abs(rep.max_asymmetry - 0.1) < 1e-15


def test_k2_positive_near_diagonal():
    grid = unit_grid("midpoint", 16)
    assert _kernel_report(KernelSpec.constant(1.0), grid, 0.2).k2
    rep = _kernel_report(KernelSpec.gaussian(1.0), grid, 0.2)
    assert rep.k2 and rep.delta == 0.2
    k = np.ones((16, 16))
    np.fill_diagonal(k, 0.0)
    assert not _kernel_report(KernelSpec.tabulated(k), grid, 0.1).k2
    with pytest.raises(ModelError):
        _kernel_report(KernelSpec.constant(1.0), grid, 0.0)


def test_k2_reads_only_pairs_within_delta():
    """exp(-1 / 0.03^2) underflows to 0 on the two ends of [0, 1], and
    only there: k2 fails once delta reaches that pair, not before."""
    grid = unit_grid("trapezoid", 3)
    kernel = KernelSpec.gaussian(0.03)
    assert _kernel_report(kernel, grid, 1.0 - 1e-9).k2
    assert not _kernel_report(kernel, grid, 1.0).k2


def test_kernel_matrix_rejects_negative():
    grid = unit_grid("midpoint", 4)
    k = np.ones((4, 4))
    k[2, 3] = k[3, 2] = -0.5
    with pytest.raises(ModelError):
        assemble(KernelSpec.tabulated(k), grid)


def test_weight_matrix_rejects_negative():
    grid = unit_grid("trapezoid", 9)
    # g(x) = x - 1/2 changes sign on the interval
    w = WeightSpec.separable(g=(-0.5, 1.0), h=(1.0,), p=1.0)
    with pytest.raises(ModelError):
        reaction(w, grid)


def test_floor_constant_weight():
    grid = unit_grid("trapezoid", 33)
    rep = _weight_floor(WeightSpec.constant(1.0, p=1.0), grid, r=0.25)
    assert rep.q2 and rep.q2pp and rep.q4
    assert rep.sigma == 1.0
    assert rep.sigma_global == 1.0
    assert rep.q4_defect <= 1e-15


def test_floor_locates_dip_center():
    """Q(x, y) = level - |x - 1/2|^0.4 is maximized in x exactly at 1/2."""
    grid = unit_grid("trapezoid", 65)
    rep = _weight_floor(dip_weight(), grid, r=grid.domain.diameter)
    assert rep.q4
    assert rep.x0_index == 32
    assert abs(rep.x0[0] - 0.5) < 1e-15
    assert rep.q2pp
    # floor over all pairs: level minus the largest dip value
    assert abs(rep.sigma_global - (3.0 - 0.5**0.4)) < 1e-12


def test_floor_separable_vanishing_edge():
    grid = unit_grid("trapezoid", 33)
    w = WeightSpec.separable(g=(0.0, 1.0), h=(1.0,), p=1.0)
    rep = _weight_floor(w, grid, r=0.25)
    assert not rep.q2pp
    assert rep.sigma_global == 0.0
    # x-dependent rows are never uniformly dominated by a single x0
    assert rep.x0_index == grid.n - 1


def test_floor_at_diameter_counts_every_pair():
    """At r = diameter the farthest pairs, the opposite corners of the
    square, are near too, so the local floor is the global one."""
    grid = build_grid(SQUARE, "trapezoid", 9)
    x = grid.nodes
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    w = WeightSpec.tabulated(3.0 - d2, p=1.0)  # 1 exactly at the corners
    rep = _weight_floor(w, grid, r=grid.domain.diameter)
    assert rep.sigma == rep.sigma_global == 1.0
    near = _weight_floor(w, grid, r=0.99 * grid.domain.diameter)
    assert near.sigma > 1.0


def test_weight_floor_peak_memory():
    """On 33 x 33 nodes the floor check of a constant weight reads its
    rank-one factors: its peak stays below 16 float arrays of length n."""
    grid = build_grid(SQUARE, "trapezoid", 33)
    peak = peak_bytes(
        certify, _const_op(grid), WeightSpec.constant(1.0, p=2.0),
        r=grid.domain.diameter,
    )
    assert peak <= 16 * grid.n * 8


def test_certify_holds_no_n_squared_array():
    """On 64 x 64 nodes (gaussian K as a Kron, Q = 1) every certificate
    reads the structure: the peak stays below n^2 bytes, an eighth of
    one n x n float array."""
    grid = build_grid(SQUARE, "trapezoid", 64)
    peak = peak_bytes(
        certify, assemble(KernelSpec.gaussian(1.0), grid),
        WeightSpec.constant(1.0, p=2.0), r=grid.domain.diameter,
    )
    assert peak < grid.n**2


@pytest.mark.parametrize(
    "domain", [Domain((0.0, 0.0), (1.5, 1.5)), Domain((0.0,) * 3, (1.0,) * 3)]
)
def test_certify_at_the_diameter_streams_no_pair(domain, monkeypatch):
    """At r = delta = the diameter every pair of nodes lies within delta,
    so k2 and the floor come from the structure and no pair is streamed.
    On these boxes the squared node spans sum to more than the rounded
    diameter squared."""

    def streamed(*args):
        raise AssertionError("certify streamed the pairs within delta")

    monkeypatch.setattr(model, "_near_min", streamed)
    grid = build_grid(domain, "trapezoid", 16)
    d = domain.diameter
    rep = certify(
        assemble(KernelSpec.gaussian(1.0), grid),
        WeightSpec.constant(1.0, p=2.0), d, d,
    )
    assert rep.k1 and rep.k2 and rep.floor.q2


def test_x_dependent_forms_refuse_a_cube():
    """The rank-one kernel and the separable and dip weights are defined
    on an interval; on a cube they refuse by name."""
    grid = build_grid(Domain((0.0,) * 3, (1.0,) * 3), "trapezoid", 4)
    with pytest.raises(ModelError, match="1-D domains only"):
        assemble(KernelSpec.rank_one((1.0, 1.0)), grid)
    separable = WeightSpec.separable((1.0,), (1.0, 0.5), p=2.0)
    for weight in (separable, dip_weight(p=2.0)):
        with pytest.raises(ModelError, match="1-D domains only"):
            reaction(weight, grid)
        with pytest.raises(ModelError, match="1-D domains only"):
            certify(_const_op(grid), weight, 1.0)


def test_dip_floor_at_65537_nodes_peaks_under_64_mib():
    """The dip weight's floor on 65537 nodes comes from its rank-2
    factors, where a dense Q would take 32 GiB."""
    grid = unit_grid("trapezoid", 65537)
    peak = peak_bytes(
        certify, _const_op(grid), dip_weight(p=2.0), r=grid.domain.diameter
    )
    assert peak < 64 * 2**20


@pytest.mark.parametrize("g0", [50.0, 1e16])
def test_floor_x0_from_factors_matches_dense(g0):
    """x0 and the q4 defect of a dip weight come from its factors, and
    equal the dense argmax and maximum bit for bit.  h changes sign, so
    some columns rise with the dip and others fall; g0 = 1e16 swamps the
    dip, so rounding makes distinct rows equal and the first of them
    must win."""
    rng = np.random.default_rng(int(g0) % 2**32)
    for _ in range(60):
        lo = float(rng.uniform(0.0, 1.0))
        hi = lo + float(rng.uniform(0.25, 2.0))
        grid = build_grid(
            Domain((lo,), (hi,)), str(rng.choice(RULES)),
            int(rng.integers(3, 40)),
        )
        weight = WeightSpec.polynomial_dip(
            h=(1.0, -float(rng.uniform(0.0, 3.0))), g=(g0,),
            points=(float(rng.uniform(lo, hi)),),
            exponents=(float(rng.uniform(0.2, 2.0)),), level=5.0,
        )
        q = weight_matrix(weight, grid)
        advantage = (q - q.max(axis=0)).min(axis=1)
        floor = _weight_floor(weight, grid, r=grid.domain.diameter)
        assert floor.x0_index == int(np.argmax(advantage))
        assert floor.q4_defect == -advantage.max()


def test_floor_requires_positive_radius():
    grid = unit_grid("midpoint", 8)
    with pytest.raises(ModelError):
        _weight_floor(WeightSpec.constant(1.0, p=1.0), grid, r=-1.0)


def _oscillation(weight, grid):
    return _weight_floor(weight, grid, r=grid.domain.diameter).oscillation


def test_oscillation_constant_zero():
    grid = unit_grid("trapezoid", 17)
    assert _oscillation(WeightSpec.constant(3.0, p=1.0), grid) == 0.0


def test_oscillation_separable_brute_force():
    grid = unit_grid("trapezoid", 9)
    w = WeightSpec.separable(g=(1.0, 1.0), h=(1.0, 1.0), p=1.0)
    q = weight_matrix(w, grid)
    best = 0.0
    for i in range(grid.n):
        for k in range(grid.n):
            best = max(best, np.abs(q[i] - q[k]).max())
    val = _oscillation(w, grid)
    assert abs(val - best) < 1e-15
    assert abs(val - 2.0) < 1e-12  # max_y (1+y) * (max_x - min_x)


def test_oscillation_tabulated_exact():
    grid = unit_grid("midpoint", 4)
    x = grid.nodes[:, 0]
    w = WeightSpec.tabulated(x[:, None] + x[None, :], p=1.0)
    assert abs(_oscillation(w, grid) - 0.75) < 1e-15


def test_certify_dip_preset():
    grid = unit_grid("trapezoid", 65)
    rep = certify(_const_op(grid), dip_weight(), r=0.5)
    assert rep.k1 and rep.k2
    assert rep.floor.q2 and rep.floor.q4
    assert rep.q3 is True
    assert rep.q3_x0_index == rep.floor.x0_index == 32
    assert abs(rep.floor.oscillation - 0.5**0.4) < 1e-12
    for key in ("l1", "lp", "lq"):
        assert np.isfinite(rep.q3_integrals[key])
        assert rep.q3_integrals[key] > 0
    # the certified comparison function vanishes only at the center
    a = rep.q3_a
    assert a[32] == 0.0
    assert np.delete(a, 32).min() > 0


def test_certify_q3_exponent_gate():
    # q = 0.4 >= N / p once p reaches 3 on a 1-D domain
    grid = unit_grid("trapezoid", 33)
    rep = certify(_const_op(grid), dip_weight(p=3.0), r=0.5)
    assert rep.q3 is False


def test_certify_q3_none_outside_preset():
    grid = unit_grid("trapezoid", 17)
    rep = certify(_const_op(grid), WeightSpec.constant(1.0, p=1.0), r=0.5)
    assert rep.q3 is None
    assert rep.q3_a is None


def test_certify_q3_holds_no_n_squared_array():
    """On 2049 dip nodes the q3 certificate reads Q's factors: it peaks
    below n^2 bytes, an eighth of one n x n float array."""
    grid = unit_grid("trapezoid", 2049)
    assert _certify_q3(dip_weight(), grid)[0] is True
    assert peak_bytes(_certify_q3, dip_weight(), grid) < grid.n**2


def test_certify_q3_is_scale_invariant():
    """Scaling Q by a positive constant leaves Q3 as it is: the dip
    weight on 129 trapezoid nodes certifies at level 3 and at level 1e5,
    with h = 1 and with h = 1e4."""
    grid = unit_grid("trapezoid", 129)
    for level, h in ((3.0, (1.0,)), (3.0, (1e4,)), (1e5, (1.0,))):
        weight = WeightSpec.polynomial_dip(
            h=h, g=(0.0,), points=(0.5,), exponents=(0.4,), level=level,
            p=2.0,
        )
        rep = certify(_const_op(grid), weight, r=0.5)
        assert rep.q3 is True, (level, h)


@pytest.mark.parametrize("seed", range(12))
def test_certify_q3_matches_dense_comparison(seed):
    """On random dip parameters the q3 verdict from the factors equals
    the one from the dense comparison Q(x0, y) - Q(x, y) >= a(x)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    weight = WeightSpec.polynomial_dip(
        points=rng.uniform(0.0, 1.0, k),
        exponents=rng.uniform(0.1, 1.5, k),
        level=1.0 + rng.uniform(0.1, 3.0),
        p=rng.uniform(0.5, 3.0),
        h=(rng.uniform(-0.2, 2.0), rng.uniform(-0.5, 0.5)),
        g=(rng.uniform(5.0, 6.0), rng.uniform(-0.5, 0.5)),
    )
    grid = unit_grid("trapezoid", int(rng.integers(5, 130)))
    ok, i0, a, _ = _certify_q3(weight, grid)
    q = weight_matrix(weight, grid)
    pointwise = (q[i0][None, :] - q - a[:, None]).min() >= -1e-12
    h = np.polynomial.polynomial.polyval(grid.nodes[:, 0], weight.h)
    gate = max(weight.exponents) < 1 / weight.p
    expected = pointwise and h.min() > 0 and gate
    assert ok == expected


@pytest.mark.parametrize("seed", range(8))
def test_polyval_matches_numpy_bitwise(seed):
    """Horner's rule in `_polyval` gives the bits of NumPy's polyval, for
    one to six coefficients, at signed and large arguments."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    coeffs = tuple(rng.standard_normal(seed % 6 + 1) * scale)
    x = np.concatenate([rng.uniform(-3.0, 3.0, 50), [0.0, -0.0, 1e8]])
    expected = np.polynomial.polynomial.polyval(x, np.asarray(coeffs))
    np.testing.assert_array_equal(_polyval(coeffs, x), expected)


def test_eps_ceiling_value():
    grid = unit_grid("midpoint", 8)
    assert eps_ceiling(WeightSpec.constant(1.0, p=2.0), grid) == 0.25
    assert eps_ceiling(WeightSpec.constant(1.0, p=0.5), grid) == 1.0


def test_build_a_eps_values():
    grid = unit_grid("trapezoid", 11)
    w = WeightSpec.constant(1.0, p=1.0)
    a = build_a_eps(w, grid, np.array([0.5]), 0.5)
    i03 = int(np.argmin(np.abs(grid.nodes[:, 0] - 0.3)))
    assert abs(a[i03] - 0.2**0.5) < 1e-14
    assert a[5] == 0.0  # vanishes at the center node
    assert a.min() >= 0 and a.max() <= 1


def test_build_a_eps_caps_far_field():
    from dispersal import Domain, build_grid

    grid = build_grid(Domain((0.0,), (3.0,)), "trapezoid", 13)
    a = build_a_eps(
        WeightSpec.constant(1.0, p=1.0), grid, np.array([0.0]), 0.5
    )
    far = np.linalg.norm(grid.nodes - 0.0, axis=1) > 1.0
    np.testing.assert_allclose(a[far], 1.0)


def test_build_a_eps_rejects_eps_above_ceiling():
    grid = unit_grid("trapezoid", 11)
    with pytest.raises(ModelError, match="0.25"):
        build_a_eps(
            WeightSpec.constant(1.0, p=2.0), grid, np.array([0.5]), 0.3
        )
    with pytest.raises(ModelError):
        build_a_eps(
            WeightSpec.constant(1.0, p=1.0), grid, np.array([0.5]), 0.0
        )


def test_build_a_eps_ceiling_inclusive():
    grid = unit_grid("trapezoid", 11)
    a = build_a_eps(WeightSpec.constant(1.0, p=2.0), grid, np.array([0.5]), 0.25)
    assert a.max() <= 1.0


def test_a_eps_decreases_with_eps():
    grid = unit_grid("trapezoid", 41)
    w = WeightSpec.constant(1.0, p=1.0)
    prev = None
    for eps in (0.1, 0.2, 0.35, 0.5):
        a = build_a_eps(w, grid, np.array([0.5]), eps)
        if prev is not None:
            assert (a <= prev + 1e-15).all()
        prev = a


def test_build_q_eps_rows():
    grid = unit_grid("trapezoid", 11)
    w = WeightSpec.constant(1.0, p=1.0)
    a = build_a_eps(w, grid, np.array([0.5]), 0.5)
    q = np.array(build_q_eps(reaction(w, grid).q, a))
    i03 = int(np.argmin(np.abs(grid.nodes[:, 0] - 0.3)))
    np.testing.assert_allclose(q[i03], 2.0 - 0.2**0.5)
    np.testing.assert_allclose(q[5], 2.0)  # doubled at the center


def test_q_eps_sandwich_and_gap():
    grid = unit_grid("trapezoid", 65)
    w = dip_weight()
    q = weight_matrix(w, grid)
    rng = np.random.default_rng(3)
    for _ in range(5):
        eps = float(rng.uniform(0.05, 0.5))
        a = build_a_eps(w, grid, np.array([0.5]), eps)
        qe = np.array(build_q_eps(reaction(w, grid).q, a))
        assert (qe >= q - 1e-12).all()
        assert (qe <= 2.0 * q + 1e-12).all()
        # Q_eps(x0, y) - Q_eps(x, y) >= Q(x, y) a(x) entrywise
        gap = qe[32][None, :] - qe
        assert (gap - q * a[:, None]).min() >= -1e-12


def test_build_q_eps_validates_profile():
    grid = unit_grid("trapezoid", 11)
    q = reaction(WeightSpec.constant(1.0, p=1.0), grid).q
    with pytest.raises(ModelError):
        build_q_eps(q, np.ones(grid.n - 1))
    with pytest.raises(ModelError):
        build_q_eps(q, np.full(grid.n, 1.5))


def test_weight_spec_validation():
    with pytest.raises(ModelError):
        WeightSpec.constant(1.0, p=0.0)
    with pytest.raises(ModelError):
        WeightSpec.constant(-1.0, p=1.0)
    # NaN fails every comparison, so each sign check must fail on it too
    with pytest.raises(ModelError, match="p must be positive"):
        WeightSpec.constant(1.0, p=math.nan)
    with pytest.raises(ModelError, match="nonnegative"):
        WeightSpec.constant(math.nan, p=1.0)
    with pytest.raises(ModelError, match="exponents must be positive"):
        WeightSpec.polynomial_dip(
            h=(1.0,), g=(0.0,), points=(0.5,), exponents=(math.nan,),
            level=2.0, p=1.0,
        )
    with pytest.raises(ModelError):
        WeightSpec.polynomial_dip(
            h=(1.0,), g=(0.0,), points=(0.5,), exponents=(), level=2.0, p=1.0
        )
    with pytest.raises(ModelError):
        WeightSpec.polynomial_dip(
            h=(1.0,), g=(0.0,), points=(0.5,), exponents=(-0.4,),
            level=2.0, p=1.0,
        )


def test_kernel_spec_validation():
    with pytest.raises(ModelError):
        KernelSpec.constant(-1.0)
    with pytest.raises(ModelError):
        KernelSpec.gaussian(0.0)
    with pytest.raises(ModelError, match="nonnegative"):
        KernelSpec.constant(math.nan)
    with pytest.raises(ModelError, match="length_scale must be positive"):
        KernelSpec.gaussian(math.nan)
    with pytest.raises(ModelError):
        KernelSpec.tabulated(np.ones((3, 4)))


_DIP = {"points": (0.5,), "exponents": (0.4,), "level": 3.0}


@pytest.mark.parametrize("spec, form, kwargs, name", [
    pytest.param(KernelSpec, "constant", {"value": math.inf}, "value",
                 id="kernel-constant"),
    pytest.param(KernelSpec, "gaussian", {"length_scale": math.inf},
                 "length_scale", id="kernel-gaussian"),
    pytest.param(KernelSpec, "rank_one", {"coeffs": (math.nan,)}, "coeffs",
                 id="kernel-rank_one"),
    pytest.param(KernelSpec, "tabulated", {"matrix": [[math.inf]]},
                 "matrix", id="kernel-tabulated"),
    pytest.param(WeightSpec, "constant", {"value": math.inf}, "value",
                 id="weight-constant"),
    pytest.param(WeightSpec, "constant", {"value": 1.0, "p": math.inf}, "p",
                 id="weight-constant-p"),
    pytest.param(WeightSpec, "separable", {"g": (math.inf,), "h": (1.0,)},
                 "g", id="weight-separable"),
    pytest.param(WeightSpec, "polynomial_dip", _DIP | {"level": math.nan},
                 "level", id="weight-dip-nan-level"),
    pytest.param(WeightSpec, "polynomial_dip", _DIP | {"level": math.inf},
                 "level", id="weight-dip-inf-level"),
    pytest.param(WeightSpec, "polynomial_dip", _DIP | {"points": (math.nan,)},
                 "points", id="weight-dip-point"),
    pytest.param(WeightSpec, "polynomial_dip",
                 _DIP | {"exponents": (math.inf,)}, "exponents",
                 id="weight-dip-exponent"),
    pytest.param(WeightSpec, "tabulated",
                 {"matrix": [[1.0, math.nan], [1.0, 1.0]]}, "matrix",
                 id="weight-tabulated"),
])
def test_spec_constructors_refuse_non_finite_numbers(spec, form, kwargs,
                                                      name):
    """A NaN or an infinity anywhere in a kernel or weight spec is
    refused where the spec is built, naming the parameter; the sign
    checks alone let +inf through, to fail far from the cause."""
    with pytest.raises(ModelError, match=rf"\b{name} must be finite"):
        getattr(spec, form)(**kwargs)


_NEGATIVE_Q = np.ones((9, 9))
_NEGATIVE_Q[4, 2] = -0.5


@pytest.mark.parametrize("spec, named", [
    pytest.param(KernelSpec.rank_one((1e200,)), "overflow",
                 id="kernel-rank-one-overflow"),
    pytest.param(KernelSpec.rank_one((-1.0, 2.0)), "negative",
                 id="kernel-rank-one-sign"),
    pytest.param(WeightSpec.separable((1e200,), (1e200,)), "overflow",
                 id="weight-separable-overflow"),
    pytest.param(WeightSpec.polynomial_dip(points=(10.0,),
                                           exponents=(400.0,), level=1.0),
                 "overflow", id="weight-dip-overflow"),
    pytest.param(WeightSpec.tabulated(_NEGATIVE_Q), "negative",
                 id="weight-tabulated-negative"),
])
def test_invalid_kernel_or_weight_is_refused_by_every_reader(spec, named):
    """A K or Q with an entry that overflows float64 or is negative is
    refused where it is built, by each entry point that reads it, with a
    ModelError that names the fault and no overflow warning."""
    grid = unit_grid("trapezoid", 9)
    if isinstance(spec, KernelSpec):
        calls = [
            lambda: assemble(spec, grid),
            lambda: certify(assemble(spec, grid), WeightSpec.constant(1.0),
                            1.0),
        ]
    else:
        calls = [
            lambda: reaction(spec, grid),
            lambda: certify(_const_op(grid), spec, 1.0),
        ]
    for call in calls:
        with pytest.raises(ModelError, match=named):
            call()


@pytest.mark.parametrize("weight", [
    pytest.param(WeightSpec.separable((1e154,), (1e154,)), id="separable"),
    pytest.param(WeightSpec.tabulated(np.full((9, 9), 1e308)),
                 id="tabulated"),
])
def test_build_q_eps_refuses_overflow(weight):
    """1e154 * 1e154 and 1e308 are finite and twice them is not: Q is
    valid, and its eps-family member with a_eps = 0 (every row doubled)
    is refused with a ModelError that names the overflow, and no
    overflow warning."""
    q = reaction(weight, unit_grid("trapezoid", 9)).q
    with pytest.raises(ModelError, match="overflow"):
        build_q_eps(q, np.zeros(9))


def test_tabulated_shape_must_match_grid():
    grid = unit_grid("midpoint", 8)
    k = KernelSpec.tabulated(np.ones((4, 4)))
    with pytest.raises(ModelError):
        assemble(k, grid)



# each builds what its entry point reads, then returns the call to count

def _limit_pair(op, eigen):
    """The regularized workload's pair: one family, both extrapolants."""
    weight, cfg = dip_weight(p=2.0), ContinuationConfig(lambda_max=3.0)
    return lambda: [
        limit_procedure(op, weight, 2.0, (4, 8, 16, 32, 64), cfg,
                        method=method, strict=False)
        for method in ("richardson", "fields")
    ]


def _verify(op, eigen):
    branch = trace_branch(op, dip_weight(), eigen,
                          ContinuationConfig(lambda_max=1.5))
    return lambda: verify_branch(op, dip_weight(), branch)


def _fallback(op, eigen):
    # the weight of `test_solve_at_lambda_falls_back_to_a_trace`, whose
    # direct Newton solve collapses at 3 lambda1
    weight = WeightSpec.separable((0.1, 2.0), (1.0, -0.5), p=1.0)
    return lambda: solve_at_lambda(op, weight, eigen, 3.0 * eigen.lambda1,
                                   ContinuationConfig())


def _trace(op, eigen):
    return lambda: trace_branch(op, dip_weight(), eigen,
                                ContinuationConfig(lambda_max=1.5))


def _certify(op, eigen):
    return lambda: certify(op, dip_weight(), r=0.5)


@pytest.mark.parametrize("entry, kernels, weights, traces", [
    pytest.param(_limit_pair, 0, 2, 0, id="limit_procedure-pair"),
    pytest.param(_verify, 0, 1, 0, id="verify_branch"),
    pytest.param(_fallback, 0, 1, 1, id="solve_at_lambda-fallback"),
    pytest.param(_trace, 0, 1, 1, id="trace_branch"),
    pytest.param(_certify, 0, 1, 0, id="certify"),
])
def test_each_entry_point_builds_k_and_q_once(monkeypatch, entry, kernels,
                                              weights, traces):
    """Each entry point builds K and Q once, and everything below it
    reads the built forms: the fallback trace of `solve_at_lambda`, the
    weight floor of `verify_branch` and `limit_procedure`, and each
    member of the eps-family, which row-scales the one Q.  Every module
    attribute that refers to `_kernel` or `_weight` is counted, and
    `_bootstrap_first_point` shows how many traces ran."""
    op = assemble(KernelSpec.constant(1.0), unit_grid("trapezoid", 33))
    monkeypatch.setattr(regularized, "_last_family", None)
    call = entry(op, principal_eigenpair(op))
    counts = {"_kernel": 0, "_weight": 0, "_bootstrap_first_point": 0}
    modules = [m for name, m in sys.modules.items()
               if name == "dispersal" or name.startswith("dispersal.")]
    for name in counts:
        home = continuation if name == "_bootstrap_first_point" else model
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        holders = [m for m in modules if getattr(m, name, None) is original]
        assert holders
        for module in holders:
            monkeypatch.setattr(module, name, counted)
    call()
    assert counts == {"_kernel": kernels, "_weight": weights,
                      "_bootstrap_first_point": traces}
