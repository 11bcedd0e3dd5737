"""Nystrom assembly and the principal eigenpair."""

import math
import warnings

import numpy as np
import pytest

from dispersal import (
    Domain,
    KernelSpec,
    OperatorError,
    assemble,
    build_grid,
    principal_eigenpair,
)

from .conftest import dense_a, dense_s, peak_bytes, unit_grid
from .oracles import collatz_wielandt_sup

# reference eigenvalue for exp(-|x-y|^2) on (0,1): 200-, 400-, and
# 800-point Gauss-Legendre runs of the assembly below agree to 1e-14
GAUSS_LAMBDA1 = 0.864841677394637


def test_assemble_constant_midpoint():
    grid = unit_grid("midpoint", 4)
    op = assemble(KernelSpec.constant(1.0), grid)
    np.testing.assert_allclose(dense_a(KernelSpec.constant(1.0), grid), 0.25)
    np.testing.assert_allclose(op.k, 1.0)
    np.testing.assert_allclose(op.apply(np.ones(4)), 1.0)


def test_assemble_rank_one_is_rank_one():
    grid = unit_grid("trapezoid", 33)
    op = assemble(KernelSpec.rank_one((1.0, 1.0)), grid)
    for mat in (op.k, dense_a(KernelSpec.rank_one((1.0, 1.0)), grid)):
        s = np.linalg.svd(mat, compute_uv=False)
        assert s[1] <= 1e-14 * s[0]


def test_assemble_peak_memory():
    """On 33 x 33 nodes gaussian assembly peaks below four n x n arrays."""
    grid = build_grid(Domain((0.0, 0.0), (1.0, 1.0)), "trapezoid", 33)
    peak = peak_bytes(assemble, KernelSpec.gaussian(1.0), grid)
    assert peak <= 4 * grid.n**2 * 8


def test_assemble_2d_gaussian_holds_no_n_squared_array():
    """On 64 x 64 nodes the gaussian K is kept as Kron(Kx, Ky): assembly
    peaks below n^2 bytes, an eighth of one n x n float array."""
    grid = build_grid(Domain((0.0, 0.0), (1.0, 1.0)), "trapezoid", 64)
    peak = peak_bytes(assemble, KernelSpec.gaussian(1.0), grid)
    assert peak < grid.n**2 * 8 / 8


def test_assemble_1d_gaussian_holds_no_n_squared_array():
    """On 4097 evenly spaced nodes the gaussian K is kept as a Toeplitz
    column: assembly peaks below n^2 bytes, an eighth of one n x n float
    array."""
    grid = unit_grid("trapezoid", 4097)
    peak = peak_bytes(assemble, KernelSpec.gaussian(1.0), grid)
    assert peak < grid.n**2 * 8 / 8


def test_eigenpair_on_two_nodes_warns_nothing():
    """On two nodes the Lanczos basis spans the whole space after two
    steps; the run is silent and the pair is the dense one."""
    grid = unit_grid("trapezoid", 2)
    kernel = KernelSpec.gaussian(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = principal_eigenpair(assemble(kernel, grid))
    expected = np.linalg.eigvals(dense_a(kernel, grid)).real.max()
    assert abs(eig.lambda1 - expected) <= 1e-14
    np.testing.assert_allclose(eig.phi1, 1.0, atol=1e-14)


def test_gaussian_apply_matches_erf():
    grid = unit_grid("trapezoid", 65)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    out = op.apply(np.ones(grid.n))
    exact = math.sqrt(math.pi) * math.erf(0.5)
    assert abs(out[32] - exact) < 1e-4


def test_constant_kernel_eigenvalue_one():
    for rule, res in (
        ("midpoint", 4),
        ("midpoint", 64),
        ("trapezoid", 5),
        ("trapezoid", 129),
        ("gauss-legendre-tensor", 16),
    ):
        op = assemble(KernelSpec.constant(1.0), unit_grid(rule, res))
        eig = principal_eigenpair(op)
        assert abs(eig.lambda1 - 1.0) < 1e-10
        np.testing.assert_allclose(eig.phi1, 1.0, atol=1e-12)


def test_rank_one_eigenpair_closed_form():
    """K = (1+x)(1+y) has the single eigenvalue integral (1+x)^2 = 7/3
    with eigenfunction 1 + x."""
    grid = unit_grid("gauss-legendre-tensor", 8)
    op = assemble(KernelSpec.rank_one((1.0, 1.0)), grid)
    eig = principal_eigenpair(op)
    assert abs(eig.lambda1 - 7.0 / 3.0) < 1e-13
    x = grid.nodes[:, 0]
    expected = (1.0 + x) / (1.0 + x.max())  # sup-normalized over the nodes
    np.testing.assert_allclose(eig.phi1, expected, atol=1e-12)


def test_gaussian_eigenvalue_frozen():
    op = assemble(
        KernelSpec.gaussian(1.0), unit_grid("gauss-legendre-tensor", 200)
    )
    eig = principal_eigenpair(op)
    assert abs(eig.lambda1 - GAUSS_LAMBDA1) < 1e-12


def test_gaussian_eigenvalue_trapezoid_order_two():
    errs = []
    for res in (33, 65, 129):
        op = assemble(KernelSpec.gaussian(1.0), unit_grid("trapezoid", res))
        errs.append(abs(principal_eigenpair(op).lambda1 - GAUSS_LAMBDA1))
    orders = [
        math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)
    ]
    assert min(orders) >= 1.9


def test_eigenpair_invariants():
    for kernel in (
        KernelSpec.constant(1.0),
        KernelSpec.gaussian(0.8),
        KernelSpec.rank_one((1.0, 0.5)),
    ):
        grid = unit_grid("trapezoid", 65)
        op = assemble(kernel, grid)
        eig = principal_eigenpair(op)
        assert eig.residual <= 1e-10 * eig.lambda1
        assert eig.gap > 0 or kernel.form != "gaussian"
        assert eig.phi1.min() > 0
        assert abs(eig.phi1.max() - 1.0) < 1e-14
        r = op.apply(eig.phi1) - eig.lambda1 * eig.phi1
        assert np.abs(r).max() <= 1e-10 * eig.lambda1


def test_eigenpair_matches_dense_and_repeats_bitwise():
    """On three nodes and on rank-deficient kernels the top two eigenvalues
    agree with a dense solve, and a repeated call returns the same bits."""
    for kernel, res in (
        (KernelSpec.gaussian(1.0), 3),
        (KernelSpec.constant(1.0), 65),
        (KernelSpec.rank_one((1.0, 0.5)), 65),
    ):
        op = assemble(kernel, unit_grid("trapezoid", res))
        eig = principal_eigenpair(op)
        top = np.linalg.eigvalsh(dense_s(op))[-2:]
        assert abs(eig.lambda1 - top[1]) <= 1e-13
        assert abs(eig.gap - (top[1] - top[0])) <= 1e-13
        again = principal_eigenpair(op)
        assert again.lambda1 == eig.lambda1 and again.gap == eig.gap
        np.testing.assert_array_equal(again.phi1, eig.phi1)


def test_eigenpair_on_2d_grid_of_46_squared():
    """Grids past n = 2048 get a pair that passes the 1e-10 lambda1
    residual gate: here 46 x 46 nodes, n = 2116."""
    grid = build_grid(Domain((0.0, 0.0), (1.0, 1.0)), "trapezoid", 46)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    eig = principal_eigenpair(op)
    assert grid.n == 2116
    assert eig.residual <= 1e-10 * eig.lambda1
    assert eig.gap > 0
    assert eig.phi1.min() > 0


def test_symmetrized_form_is_similar():
    grid = unit_grid("trapezoid", 49)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    a = dense_a(KernelSpec.gaussian(1.0), grid)
    vals_s = np.linalg.eigvalsh(dense_s(op))
    vals_a = np.sort(np.linalg.eigvals(a).real)
    assert np.abs(vals_s - vals_a).max() < 1e-12
    u = np.linspace(-1.0, 2.0, grid.n)
    assert np.abs(op.apply(u) - a @ u).max() <= 1e-13 * np.abs(a @ u).max()


@pytest.mark.parametrize(
    "kernel", [KernelSpec.constant(0.0), KernelSpec.rank_one((0.0,))]
)
def test_eigenpair_refuses_zero_kernel(kernel):
    """A kernel that vanishes on every node has no positive principal
    pair: Lanczos breaks down on its first step, finds only the
    eigenvalue 0, and that is reported as an OperatorError."""
    with pytest.raises(OperatorError):
        principal_eigenpair(assemble(kernel, unit_grid("trapezoid", 9)))


def test_collatz_wielandt_at_eigenfunction(const_op, const_eigen):
    cw = collatz_wielandt_sup(const_op, const_eigen.phi1)
    assert abs(cw - const_eigen.lambda1) < 1e-10


def test_collatz_wielandt_linear_state(const_op):
    x = const_op.grid.nodes[:, 0]
    assert abs(collatz_wielandt_sup(const_op, 1.0 + x) - 1.5) < 1e-13


def test_collatz_wielandt_upper_bound(const_op, const_eigen, rng):
    for _ in range(100):
        u = rng.uniform(0.05, 2.0, const_op.n)
        cw = collatz_wielandt_sup(const_op, u)
        assert cw >= const_eigen.lambda1 - 1e-8


def test_collatz_wielandt_needs_positive_state(const_op):
    u = np.ones(const_op.n)
    u[3] = 0.0
    with pytest.raises(OperatorError):
        collatz_wielandt_sup(const_op, u)


def test_assemble_shape_mismatch():
    from dispersal import ModelError

    grid = unit_grid("midpoint", 8)
    with pytest.raises(ModelError):
        assemble(KernelSpec.tabulated(np.ones((4, 4))), grid)
