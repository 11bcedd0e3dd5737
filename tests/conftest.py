"""Shared builders for the test suite.

Everything here is deliberately small: a grid on the unit interval, the
assembled constant-kernel operator, the dipped-weight preset used
across the continuation and regularization tests, and the dense
references: K and Q materialized from the forms the solver holds, and
the Jacobian written out entry by entry from them.
"""

import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from dispersal import (
    Domain,
    KernelSpec,
    WeightSpec,
    assemble,
    build_grid,
    principal_eigenpair,
    reaction,
)

UNIT = Domain((0.0,), (1.0,))
_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis caches the constants of local modules under its home
    # directory, ./.hypothesis by default, whatever the database setting;
    # a temporary home keeps the checkout clean.
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory()
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()


def unit_grid(rule="trapezoid", resolution=65):
    return build_grid(UNIT, rule, resolution)


def const_weight(p=1.0, value=1.0):
    return WeightSpec.constant(value, p=p)


def dip_weight(p=1.0):
    # 3 - |x - 1/2|^0.4, independent of y
    return WeightSpec.polynomial_dip(
        h=(1.0,), g=(0.0,), points=(0.5,), exponents=(0.4,), level=3.0, p=p
    )


def kernel_matrix(kernel, grid):
    """K over the nodes as a fresh dense array, from the form that
    `assemble` holds."""
    return np.array(assemble(kernel, grid).k)


def weight_matrix(weight, grid):
    """Q over the nodes as a fresh dense array, from the form that
    `reaction` holds."""
    return np.array(reaction(weight, grid).q)


def dense_jacobian(op, rx, lam, u):
    """The derivative of the residual A u + Phi_u u - lam u in u, as a
    dense n x n matrix: K diag(w) + diag(Phi_u - lam) plus the entries
    u_i Q_ij w_j p |u_j|^(p-1) sgn(u_j), with K, Q and Phi_u formed
    densely.  For p < 1 the state must stay away from zero."""
    u = np.asarray(u, dtype=float)
    w = op.grid.weights
    k, q = np.array(op.k), np.array(rx.q)
    phi_u = q @ (w * np.abs(u) ** rx.p)
    slope = w * rx.p * np.abs(u) ** (rx.p - 1) * np.sign(u)
    return k * w[None, :] + np.diag(phi_u - lam) + u[:, None] * q * slope


def dense_a(kernel, grid):
    """K diag(w), built without the operator."""
    return kernel_matrix(kernel, grid) * grid.weights[None, :]


def dense_s(op):
    """The symmetric S = diag(sqrt w) K diag(sqrt w) of an operator."""
    root_w = np.sqrt(op.grid.weights)
    return root_w[:, None] * np.asarray(op.k) * root_w[None, :]


def peak_bytes(fn, *args, **kwargs):
    """Peak traced allocation above the baseline while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def grid65():
    return unit_grid()


@pytest.fixture
def const_op(grid65):
    return assemble(KernelSpec.constant(1.0), grid65)


@pytest.fixture
def const_eigen(const_op):
    return principal_eigenpair(const_op)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
