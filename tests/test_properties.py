"""Property tests of the invariants the paper states, on random grids.

Hypothesis runs derandomized with no example database, so the suite is
deterministic; `conftest` keeps its constants cache out of the checkout.
"""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispersal import (
    Domain,
    JacobianAction,
    KernelSpec,
    Kron,
    LowRank,
    Toeplitz,
    WeightSpec,
    assemble,
    build_q_eps,
    ContinuationConfig,
    build_grid,
    certify,
    check_weight_floor,
    cover,
    phi,
    principal_eigenpair,
    reaction,
    residual,
    solve_at_lambda,
)
from dispersal import model
from dispersal.cli import main

from .conftest import (
    dense_a,
    dense_jacobian,
    dense_s,
    kernel_matrix,
    weight_matrix,
)
from .oracles import (
    collatz_wielandt_sup,
    oracle_spectral,
    pencil_eigenvalue,
)

PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=40
)
RULES = ("trapezoid", "midpoint", "gauss-legendre-tensor")


@st.composite
def grids(draw):
    dim = draw(st.sampled_from((1, 2, 3)))
    res = draw(st.integers(3, {1: 40, 2: 9, 3: 4}[dim]))
    lower = tuple(draw(st.floats(0.0, 1.0)) for _ in range(dim))
    sides = tuple(draw(st.floats(0.25, 2.0)) for _ in range(dim))
    upper = tuple(lo + h for lo, h in zip(lower, sides))
    return build_grid(Domain(lower, upper), draw(st.sampled_from(RULES)), res)


@st.composite
def kernels(draw, grid):
    """A kernel with a positive principal pair on ``grid``."""
    forms = ["constant", "gaussian", "tabulated"]
    if grid.domain.dim == 1:
        forms.append("rank_one")
    form = draw(st.sampled_from(forms))
    if form == "constant":
        return KernelSpec.constant(draw(st.floats(0.1, 5.0)))
    if form == "gaussian":
        # long enough against the grid spacing (at most 1) that the
        # eigenfunction stays certifiably positive
        return KernelSpec.gaussian(draw(st.floats(0.5, 3.0)))
    if form == "rank_one":
        return KernelSpec.rank_one(
            (draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 2.0)))
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.uniform(0.1, 1.0, (grid.n, grid.n))
    return KernelSpec.tabulated(table + table.T)


@st.composite
def weights(draw, grid, p):
    """A nonnegative weight of every form, optionally row-scaled into its
    eps-family by `build_q_eps`."""
    forms = ["constant", "tabulated"]
    if grid.domain.dim == 1:
        forms += ["separable", "polynomial_dip"]
    form = draw(st.sampled_from(forms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if form == "constant":
        weight = WeightSpec.constant(float(rng.uniform(0.1, 3.0)), p=p)
    elif form == "tabulated":
        weight = WeightSpec.tabulated(
            rng.uniform(0.0, 2.0, (grid.n, grid.n)), p=p
        )
    elif form == "separable":
        weight = WeightSpec.separable((1.0, 0.5), (2.0, 0.1), p=p)
    else:
        center = float(grid.nodes[grid.n // 2, 0])
        weight = WeightSpec.polynomial_dip(
            h=(1.0,), g=(0.5,), points=(center,), exponents=(0.4,),
            level=5.0, p=p,
        )
    if draw(st.booleans()):
        weight = build_q_eps(weight, grid, rng.uniform(0.0, 1.0, grid.n))
    return weight


def _state(seed, n, positive=False):
    rng = np.random.default_rng(seed)
    if positive:
        return rng.uniform(0.01, 1.0, n)
    return rng.standard_normal(n)


@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_apply_matches_dense_action(data, seed):
    """op.apply(u) is K diag(w) u, with K diag(w) materialized entry by
    entry, for K kept as LowRank (constant, rank-one), Toeplitz (1-D
    gaussian on evenly spaced nodes), Kron (every other gaussian) or
    dense (tabulated).
    A LowRank applies with the bits of left @ (right.T @ v)."""
    grid = data.draw(grids())
    kernel = data.draw(kernels(grid))
    op = assemble(kernel, grid)
    if kernel.form in ("constant", "rank_one"):
        assert isinstance(op.k, LowRank) and op.k.left.shape == (grid.n, 1)
    elif kernel.form == "gaussian" and grid.domain.dim == 1 and (
        grid.rule != "gauss-legendre-tensor"
    ):
        assert isinstance(op.k, Toeplitz)
    elif kernel.form == "gaussian":
        assert isinstance(op.k, Kron)
        assert len(op.k.factors) == grid.domain.dim
    else:
        assert isinstance(op.k, np.ndarray)
    a = dense_a(kernel, grid)
    u = _state(seed, grid.n)
    scale = (np.abs(a) @ np.abs(u)).max()
    assert np.abs(op.apply(u) - a @ u).max() <= 1e-13 * scale
    if isinstance(op.k, LowRank):
        k = op.k
        np.testing.assert_array_equal(k @ u, k.left @ (k.right.T @ u))


@PROPERTY
@given(data=st.data())
def test_kernel_matrix_matches_formula(data):
    """The K that `assemble` keeps, in whatever form, equals the
    kernel's formula evaluated pair by pair."""
    grid = data.draw(grids())
    kernel = data.draw(kernels(grid))
    x = grid.nodes
    if kernel.form == "constant":
        expected = np.full((grid.n, grid.n), kernel.value)
    elif kernel.form == "gaussian":
        d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
        expected = np.exp(-(d**2) / kernel.length_scale**2)
    elif kernel.form == "rank_one":
        f = kernel.coeffs[0] + kernel.coeffs[1] * x[:, 0]
        expected = f[:, None] * f[None, :]
    else:
        expected = kernel.matrix
    np.testing.assert_allclose(
        np.asarray(assemble(kernel, grid).k), expected, rtol=1e-13, atol=0.0
    )


def _poly(coeffs, x):
    return sum(c * x**k for k, c in enumerate(coeffs))


@PROPERTY
@given(data=st.data())
def test_weight_matrix_matches_formula(data):
    """The Q that `reaction` keeps, in whatever form, equals the weight's
    formula evaluated pair by pair, times the row scale."""
    grid = data.draw(grids())
    weight = data.draw(weights(grid, 1.0))
    x = grid.nodes[:, 0]
    if weight.form == "constant":
        expected = np.full((grid.n, grid.n), weight.value)
    elif weight.form == "separable":
        expected = _poly(weight.g, x)[:, None] * _poly(weight.h, x)[None, :]
    elif weight.form == "polynomial_dip":
        (center,), (q,) = weight.points, weight.exponents
        dip = weight.level - np.abs(x - center) ** q
        expected = (
            dip[:, None] * _poly(weight.h, x)[None, :]
            + _poly(weight.g, x)[None, :]
        )
    else:
        expected = weight.matrix
    if weight.row_scale is not None:
        expected = weight.row_scale[:, None] * expected
    np.testing.assert_allclose(
        np.asarray(reaction(weight, grid).q), expected, rtol=1e-13, atol=0.0
    )


@PROPERTY
@given(data=st.data())
def test_weight_floor_matches_brute_force(data):
    """One check_weight_floor pass gives the global floor, the oscillation,
    the sup of Q, the q4 defect and a row x0 of greatest advantage, each
    equal to a reduction of weight_matrix pair by pair."""
    grid = data.draw(grids())
    weight = data.draw(weights(grid, 1.0))
    q = weight_matrix(weight, grid)
    floor = check_weight_floor(weight, grid, r=grid.domain.diameter)
    # advantage[i] = min over (k, y) of Q(i, y) - Q(k, y)
    advantage = np.array([(row[None, :] - q).min() for row in q])
    osc = max(np.abs(row[None, :] - q).max() for row in q)
    assert floor.sigma_global == floor.sigma == min(row.min() for row in q)
    assert floor.oscillation == osc
    assert advantage[floor.x0_index] == advantage.max()
    assert floor.q4_defect == (q - q[floor.x0_index][None, :]).max()
    assert floor.q4_defect == -advantage.max()
    np.testing.assert_array_equal(floor.x0, grid.nodes[floor.x0_index])


def _dense_certificates(kernel, weight, grid, r, delta):
    """k1, k2 and the floor as the dense matrices give them: K, Q and
    the squared distances formed in full, each fact one reduction."""
    k = kernel_matrix(kernel, grid)
    q = weight_matrix(weight, grid)
    d2 = sum(np.subtract.outer(c, c) ** 2 for c in grid.nodes.T)
    asym = float(np.abs(k - k.T).max())
    sigma_global = float(q.min())
    # every pair of nodes in the box lies within its diameter: at r or
    # delta >= diameter the least entry over all pairs is the floor
    sigma = sigma_global
    if r < grid.domain.diameter:
        sigma = float(np.min(q, where=d2 <= r**2, initial=np.inf))
    k_near = float(k.min())
    if delta < grid.domain.diameter:
        k_near = float(np.min(k, where=d2 <= delta**2, initial=np.inf))
    col_max = q.max(axis=0)
    advantage = (q - col_max).min(axis=1)
    i0 = int(np.argmax(advantage))
    defect = float(-advantage[i0])
    return {
        "k1": asym <= 1e-12,
        "max_asymmetry": asym,
        "k2": k_near > 0,
        "q2": sigma > 0,
        "sigma": sigma,
        "r": r,
        "q2pp": sigma_global > 0,
        "sigma_global": sigma_global,
        "q4": defect <= 1e-12,
        "x0_index": i0,
        "x0": grid.nodes[i0],
        "q4_defect": defect,
        "oscillation": float((col_max - q.min(axis=0)).max()),
    }


@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_certificates_match_dense_bit_for_bit(data, seed):
    """`certify` reads K and Q in their structured forms, and streams
    rows in blocks where the structure gives no shortcut; k1, k2 and
    every floor fact equal the dense reduction bit for bit.

    Beyond `kernels` and `weights` this draws an asymmetric table, a
    gaussian short enough to underflow to 0 on far pairs, a dip whose h
    changes sign, so its rows do not all rise together, and a weight
    that falls with distance.  r and
    delta fall below, at or above the diameter or on the gap between two
    nodes, and the block size is drawn small enough to split the rows."""
    grid = data.draw(grids())
    rng = np.random.default_rng(seed)
    extra = data.draw(st.sampled_from(("none", "asymmetric", "short")))
    if extra == "asymmetric":
        kernel = KernelSpec.tabulated(rng.uniform(0.0, 1.0, (grid.n,) * 2))
    elif extra == "short":
        kernel = KernelSpec.gaussian(data.draw(st.floats(0.01, 0.1)))
    else:
        kernel = data.draw(kernels(grid))
    form = data.draw(st.sampled_from(("drawn", "mixed", "distance")))
    if form == "mixed" and grid.domain.dim == 1:
        center = float(grid.nodes[grid.n // 3, 0])
        weight = WeightSpec.polynomial_dip(
            h=(1.0, -1.5), g=(20.0,), points=(center,), exponents=(0.4,),
            level=5.0,
        )
        if data.draw(st.booleans()):
            weight = build_q_eps(weight, grid, rng.uniform(0.0, 1.0, grid.n))
    elif form == "distance":
        # least on the farthest pair within r
        d2 = sum(np.subtract.outer(c, c) ** 2 for c in grid.nodes.T)
        weight = WeightSpec.tabulated(1.0 / (1.0 + d2))
    else:
        weight = data.draw(weights(grid, 1.0))
    last = grid.nodes[:, -1]
    radii = (
        st.sampled_from((0.3, 1.0, 1.5)).map(grid.domain.diameter.__mul__)
        | st.floats(0.05, 2.0).map(grid.domain.diameter.__mul__)
        # a pair at exactly this distance sits on the edge of the mask
        | st.integers(1, grid.resolution - 1).map(
            lambda j: float(abs(last[j] - last[0]))
        )
    )
    r, delta = data.draw(radii), data.draw(radii)
    block = data.draw(st.sampled_from((model._BLOCK, 3 * grid.n + 1, 1)))

    with patch.object(model, "_BLOCK", block):
        report = certify(kernel, weight, grid, r, delta)
    got = {
        "k1": report.k1, "max_asymmetry": report.max_asymmetry,
        "k2": report.k2, **vars(report.floor),
    }
    want = _dense_certificates(kernel, weight, grid, r, delta)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert type(got[key]) is type(value), key
        bits = np.asarray(value).tobytes()
        assert np.asarray(got[key]).tobytes() == bits, key


@PROPERTY
@given(
    data=st.data(),
    p=st.floats(0.3, 3.0),
    t=st.just(0.0) | st.floats(1e-3, 10.0),  # no subnormal t^p
    seed=st.integers(0, 2**32 - 1),
)
def test_phi_is_p_homogeneous(data, p, t, seed):
    """Phi_{t u} = t^p Phi_u for t >= 0."""
    grid = data.draw(grids())
    weight = data.draw(weights(grid, p))
    rx = reaction(weight, grid)
    u = _state(seed, grid.n)
    base = phi(rx, u)
    scaled = phi(rx, t * u)
    expected = t**p * base
    assert np.abs(scaled - expected).max() <= 1e-12 * np.abs(expected).max()


# the kernel of each form of K: LowRank, Toeplitz (1-D gaussian on an
# evenly spaced rule), Kron (2-D and 3-D gaussian, and the one-factor
# 1-D gaussian on Gauss-Legendre nodes), dense (tabulated)
K_FORMS = ("constant", "rank_one", "toeplitz", "kron", "gauss", "tabulated")


@st.composite
def eigen_problems(draw, form):
    """An operator of the given form on n = 2..64 nodes.  The box is the
    unit interval, square or cube, where grid and gaussian kernel are
    symmetric under its reflections and the swap of axes, or a random
    box; the rank-one and tabulated kernels have no symmetry.  Gaussian
    lengths go down to 0.1, but stay above 1.5 node spacings so that
    neighbours couple and the principal pair stays positive."""
    if form in ("rank_one", "toeplitz", "gauss"):
        dim = 1
    elif form == "kron":
        dim = draw(st.sampled_from((2, 3)))
    else:
        dim = draw(st.sampled_from((1, 2)))
    if form == "toeplitz":
        rule = draw(st.sampled_from(("trapezoid", "midpoint")))
    elif form == "gauss":
        rule = "gauss-legendre-tensor"
    else:
        rule = draw(st.sampled_from(RULES))
    res = draw(st.integers(2, {1: 40, 2: 6, 3: 4}[dim]))
    if draw(st.booleans()):
        domain = Domain((0.0,) * dim, (1.0,) * dim)
    else:
        lower = tuple(draw(st.floats(0.0, 1.0)) for _ in range(dim))
        sides = tuple(draw(st.floats(0.25, 2.0)) for _ in range(dim))
        domain = Domain(lower, tuple(a + h for a, h in zip(lower, sides)))
    grid = build_grid(domain, rule, res)
    if form == "constant":
        kernel = KernelSpec.constant(draw(st.floats(0.1, 5.0)))
    elif form == "rank_one":
        kernel = KernelSpec.rank_one(
            (draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 2.0)))
        )
    elif form == "tabulated":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        table = rng.uniform(0.1, 1.0, (grid.n, grid.n))
        kernel = KernelSpec.tabulated(table + table.T)
    else:
        shortest = max(0.1, 1.5 * max(domain.sides) / (res - 1))
        kernel = KernelSpec.gaussian(draw(st.floats(shortest, 3.0)))
    return assemble(kernel, grid)


@pytest.mark.parametrize("form", K_FORMS)
@settings(PROPERTY, max_examples=12)
@given(data=st.data())
def test_eigenpair_matches_dense(form, data):
    """The top two eigenvalues of `principal_eigenpair` equal the dense
    ones of S = diag(sqrt w) K diag(sqrt w), built here from op.k, to
    1e-12 relative, and a repeated call gives the same bits, for K in
    every form and on grids with and without symmetry.  The top
    eigenvalue of the pencil S v = nu diag(c) v, for a random positive c,
    equals the dense one of C^-1/2 S C^-1/2 to 1e-12 relative."""
    op = data.draw(eigen_problems(form))
    eig = principal_eigenpair(op)
    dense = dense_s(op)
    top = np.linalg.eigvalsh(dense)[-2:]
    assert abs(eig.lambda1 - top[1]) <= 1e-12 * top[1]
    assert abs(eig.gap - (top[1] - top[0])) <= 1e-12 * top[1]
    again = principal_eigenpair(op)
    assert again.lambda1 == eig.lambda1 and again.gap == eig.gap
    np.testing.assert_array_equal(again.phi1, eig.phi1)
    c = _state(data.draw(st.integers(0, 2**32 - 1)), op.n, positive=True)
    root_c = np.sqrt(c)
    nu = np.linalg.eigvalsh(dense / root_c[:, None] / root_c[None, :])[-1]
    assert abs(pencil_eigenvalue(op, c)[0] - nu) <= 1e-12 * nu


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("dim", (2, 3))
@settings(PROPERTY, max_examples=4)
@given(
    res=st.integers(3, 17),
    lower=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    sides=st.lists(st.floats(0.25, 2.0), min_size=3, max_size=3),
    stretch=st.floats(0.0, 1.0),
)
def test_gaussian_lambda1_is_the_product_over_axes(
    dim, rule, res, lower, sides, stretch
):
    """The gaussian is the product of its per-axis gaussians and a
    tensor rule's weights the product of the per-axis weights, so the
    principal eigenvalue on an N-D box is the product of the ones on its
    sides, and on a cube the N-th power of the one on the interval."""
    lower, sides = lower[:dim], sides[:dim]
    upper = [a + h for a, h in zip(lower, sides)]
    shortest = max(0.3, 1.5 * max(sides) / (res - 1))
    kernel = KernelSpec.gaussian(shortest + stretch * (3.0 - shortest))

    def lambda1(lo, hi):
        grid = build_grid(Domain(lo, hi), rule, res)
        return principal_eigenpair(assemble(kernel, grid)).lambda1

    box = lambda1(lower, upper)
    product = np.prod([lambda1((a,), (b,)) for a, b in zip(lower, upper)])
    assert abs(box - product) <= 1e-14 * product
    cube = lambda1((0.0,) * dim, (1.0,) * dim)
    assert abs(cube - lambda1((0.0,), (1.0,)) ** dim) <= 1e-14 * cube


@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_collatz_wielandt_bounds_lambda1(data, seed):
    """sup (A u) / u >= lambda1 for every positive u."""
    grid = data.draw(grids())
    op = assemble(data.draw(kernels(grid)), grid)
    lambda1 = principal_eigenpair(op).lambda1
    u = _state(seed, grid.n, positive=True)
    assert collatz_wielandt_sup(op, u) >= lambda1 * (1.0 - 1e-12)


@PROPERTY
@given(
    data=st.data(), p=st.floats(0.3, 3.0), positive=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_phi_is_at_least_the_global_floor(data, p, positive, seed):
    """Phi_u >= sigma ||u||_p^p for every u, sigma the global floor of Q,
    on every weight form: Phi_u(x) = sum_y Q(x, y) w_y |u_y|^p with
    positive quadrature weights."""
    grid = data.draw(grids())
    weight = data.draw(weights(grid, p))
    u = _state(seed, grid.n, positive)
    floor = check_weight_floor(weight, grid, r=grid.domain.diameter)
    bound = floor.sigma_global * grid.lp_norm(u, p) ** p
    assert phi(reaction(weight, grid), u).min() >= bound * (1.0 - 1e-12)


@st.composite
def near_boundary_radii(draw):
    """A box of side 1 to 1e6 in 1-3 D and a radius within 1e-9 relative
    of a cell boundary of one of its axes, down to 1e-16."""
    dim = draw(st.sampled_from((1, 2, 3)))
    scale = 10.0 ** draw(st.floats(0.0, 6.0))
    lower = tuple(scale * draw(st.floats(-1.0, 1.0)) for _ in range(dim))
    upper = tuple(lo + scale * draw(st.floats(0.5, 2.0)) for lo in lower)
    domain = Domain(lower, upper)
    side = domain.sides[draw(st.integers(0, dim - 1))]
    k = draw(st.integers(1, 5))
    # the relative 1e-12 slack of the per-axis count shows below 1e-12
    d = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.integers(-16, -9))
    return domain, side * math.sqrt(dim) / k * (1.0 + d)


@PROPERTY
@given(case=near_boundary_radii(), rule=st.sampled_from(RULES))
def test_cover_counts_cells_that_reach_every_node(case, rule):
    """`cover` counts the balls at any radius near a cell boundary: the
    fewest equal cells per axis no longer than r/sqrt(N), to relative
    1e-12.  The centers of those cells, built here, reach every node of
    the grid within r/2, to 1e-12 r."""
    domain, r = case
    m = cover(domain, r)
    max_cell = r / math.sqrt(domain.dim)
    centers = []
    for lo, side in zip(domain.lower, domain.sides):
        k = max(1, math.ceil(side / max_cell - 1e-12))
        # one cell fewer would be longer than r/sqrt(N)
        assert k == 1 or side / (k - 1) > max_cell
        centers.append(lo + (np.arange(k) + 0.5) * (side / k))
    mesh = np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1)
    mesh = mesh.reshape(-1, domain.dim)
    assert m == len(mesh)
    grid = build_grid(domain, rule, {1: 17, 2: 7, 3: 4}[domain.dim])
    reach = max(np.linalg.norm(mesh - x, axis=1).min() for x in grid.nodes)
    assert reach <= r / 2.0 + 1e-12 * r


@st.composite
def scaled_boxes(draw):
    """A box in 1-3 D with a resolution; on each axis the lower bound
    and the side are drawn at one scale between 1e-3 and 1e7."""
    dim = draw(st.sampled_from((1, 2, 3)))
    lower, upper = [], []
    for _ in range(dim):
        scale = 10.0 ** draw(st.floats(-3.0, 7.0))
        lo = scale * draw(st.floats(-1.0, 1.0))
        lower.append(lo)
        upper.append(lo + scale * draw(st.floats(0.01, 2.0)))
    res = draw(st.integers(2, {1: 64, 2: 9, 3: 4}[dim]))
    return Domain(tuple(lower), tuple(upper)), res


@settings(PROPERTY, max_examples=200)
# boxes that a check of the nodes against the box to an absolute 1e-12
# refused, with nodes lo + k h whose last one missed hi
@example(case=(Domain((9915.019503277248,), (139151.33641479907,)), 88),
         rule="trapezoid")
@example(case=(Domain((-12818.683093496309,), (2299.2630558508863,)), 23),
         rule="trapezoid")
@given(case=scaled_boxes(), rule=st.sampled_from(RULES))
def test_grid_is_valid_by_construction(case, rule):
    """`build_grid` builds every box at every scale, and its grid holds
    what construction guarantees: nodes in the closed box, the trapezoid
    ends exactly the box's bounds, every weight positive, and the weights
    summing to the volume to relative 1e-12."""
    domain, res = case
    grid = build_grid(domain, rule, res)
    assert (grid.nodes >= domain.lower).all()
    assert (grid.nodes <= domain.upper).all()
    if rule == "trapezoid":
        assert tuple(grid.nodes.min(axis=0)) == domain.lower
        assert tuple(grid.nodes.max(axis=0)) == domain.upper
    assert grid.weights.min() > 0
    assert math.isclose(grid.weights.sum(), domain.volume, rel_tol=1e-12)


@PROPERTY
@given(data=st.data(), p=st.floats(0.3, 3.0), t=st.floats(0.3, 0.95))
def test_no_positive_solution_below_lambda1(data, p, t):
    """phi1 is positive with sup 1, and at t lambda1 with t < 1 the
    spectral oracle certifies that no positive solution exists, and
    `solve_at_lambda` returns the trivial state for every p."""
    grid = data.draw(grids())
    op = assemble(data.draw(kernels(grid)), grid)
    weight = data.draw(weights(grid, p))
    eigen = principal_eigenpair(op)
    assert eigen.phi1.min() > 0 and eigen.phi1.max() == 1.0
    lam = t * eigen.lambda1
    assert oracle_spectral(op, weight, lam).status == "no_positive_solution"
    pt = solve_at_lambda(op, weight, eigen, lam, ContinuationConfig())
    assert pt.sup_norm < 1e-6


@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_reaction_matches_dense_weight(data, seed):
    """`reaction` applies Q diag(w), with Q materialized entry by entry,
    for every weight form and its eps-family, and keeps the weight's p;
    only a tabulated Q is dense.  A LowRank Q (rank 1 or 2) applies with
    the bits of left @ (right.T @ v).
    """
    grid = data.draw(grids())
    weight = data.draw(weights(grid, 2.0))
    rx = reaction(weight, grid)
    assert rx.p == weight.p
    assert isinstance(rx.q, np.ndarray) == (weight.form == "tabulated")
    dense = np.asarray(rx.q) * grid.weights[None, :]
    v = _state(seed, grid.n)
    scale = (np.abs(dense) @ np.abs(v)).max()
    assert np.abs(rx.q @ (rx.w * v) - dense @ v).max() <= 1e-13 * scale
    if isinstance(rx.q, LowRank):
        q = rx.q
        np.testing.assert_array_equal(q @ v, q.left @ (q.right.T @ v))


@PROPERTY
@given(
    data=st.data(),
    p=st.floats(0.3, 3.0),
    lam=st.floats(0.5, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_jacobian_action_matches_dense_and_differences(data, p, lam, seed):
    """JacobianAction v equals the dense reference Jacobian times v, and
    the central difference (R(u + h v) - R(u - h v)) / 2h of the
    residual."""
    grid = data.draw(grids())
    op = assemble(data.draw(kernels(grid)), grid)
    weight = data.draw(weights(grid, p))
    rx = reaction(weight, grid)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.2, 1.5, grid.n)
    if p >= 1:  # |u|^p is smooth away from zero: signs are allowed
        u *= rng.choice((-1.0, 1.0), grid.n)
    v = rng.standard_normal(grid.n)
    j = dense_jacobian(op, rx, lam, u)
    scale = (np.abs(j) @ np.abs(v)).max()
    action = JacobianAction(op, rx, lam, u) @ v
    assert np.abs(action - j @ v).max() <= 1e-12 * scale
    h = 1e-6
    fd = (
        residual(op, rx, lam, u + h * v)
        - residual(op, rx, lam, u - h * v)
    ) / (2.0 * h)
    assert np.abs(action - fd).max() <= 1e-6 * scale


@st.composite
def cli_configs(draw):
    """A config of valid forms and values, any rule, dimension 1..3 and
    resolution 1..9 (1..4 in 3-D); defaulted keys are sometimes left
    out."""
    dim = draw(st.sampled_from((1, 2, 3)))
    res = draw(st.integers(1, 9 if dim < 3 else 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.uniform(0.0, 1.0, (res**dim, res**dim))
    coeffs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)
    kernel = draw(st.sampled_from([
        {"form": "constant", "value": draw(st.floats(0.0, 2.0))},
        {"form": "rank_one", "coeffs": draw(coeffs)},
        {"form": "gaussian", "length_scale": draw(st.floats(0.05, 2.0))},
        {"form": "tabulated", "matrix": (table + table.T).tolist()},
    ]))
    weight = draw(st.sampled_from([
        {"form": "constant", "value": draw(st.floats(0.0, 2.0))},
        {"form": "separable", "g": draw(coeffs), "h": draw(coeffs)},
        {"form": "polynomial_dip", "points": [draw(st.floats(0.0, 1.0))],
         "exponents": [draw(st.floats(0.1, 2.0))],
         "level": draw(st.floats(0.5, 3.0))},
        {"form": "tabulated", "matrix": table.tolist()},
    ]))
    weight["p"] = draw(st.floats(0.5, 3.0))
    for section in (kernel, weight):
        optional = [k for k in ("value", "length_scale", "p") if k in section]
        if optional and draw(st.booleans()):
            del section[draw(st.sampled_from(optional))]
    lam = draw(st.floats(0.1, 5.0))
    return {
        "domain": {"lower": [0.0] * dim, "upper": [1.0] * dim},
        "grid": {"rule": draw(st.sampled_from(RULES)), "resolution": res},
        "kernel": kernel,
        "weight": weight,
        "run": {"lambda": lam, "lambda_max": 2.0 * lam, "max_points": 50},
    }


@PROPERTY
@given(
    data=st.data(),
    command=st.sampled_from(("eig", "check-hyp", "solve", "trace")),
    misspell=st.booleans(),
)
def test_cli_config_space(data, command, misspell):
    """Every config of valid forms exits 0, 1 or 2 without a traceback,
    and a misspelled key in any section exits 1 and is named."""
    cfg = data.draw(cli_configs())
    typo = None
    if misspell:
        where = data.draw(st.sampled_from([None, *cfg]))
        section = cfg if where is None else cfg[where]
        key = data.draw(st.sampled_from(sorted(section)))
        i = data.draw(st.integers(0, len(key) - 1))
        typo = key[:i] + key[i + 1:] if len(key) > 1 else key * 2
        section[typo] = section.pop(key)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, str(path), "--output-dir", tmp])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if typo is not None:
        assert code == 1 and repr(typo) in err.getvalue()
