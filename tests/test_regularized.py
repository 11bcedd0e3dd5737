"""Regularized weight family, its margin bound, and the limit run."""

import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dispersal import (
    ContinuationConfig,
    Domain,
    KernelSpec,
    Kron,
    RegularizedError,
    WeightSpec,
    assemble,
    build_a_eps,
    build_grid,
    build_q_eps,
    limit_procedure,
    near_center_mass_bound,
    phi,
    reaction,
    residual,
    theta_margin,
)
from dispersal import continuation, regularized

from .conftest import const_weight, dip_weight


def _op129():
    grid = build_grid(Domain((0.0,), (1.0,)), "trapezoid", 129)
    return assemble(KernelSpec.constant(1.0), grid)


def test_theta_margin_values():
    assert theta_margin(1.0, 1.5) == 0.5
    assert theta_margin(1.0, 3.0) == 1.0


def test_regularized_frozen_point():
    """Constant weight, p = 2, eps = 1/4, lambda = 2, center 1/2: the
    regularized solution exists, is positive, and is far from constant."""
    op = _op129()
    cfg = ContinuationConfig(lambda_max=3.0)
    run = limit_procedure(
        op, const_weight(p=2.0), 2.0, (4, 8), cfg, x0_index=64, strict=False
    )
    point = run.solutions[0]
    u = point.u
    assert abs(float(np.abs(u).max()) - 1.6556155231407552) < 1e-8
    assert u.min() > 0
    assert float(np.abs(u).max()) - float(u.min()) > 0.5
    assert point.residual_norm < 1e-9
    assert run.margins[0] >= -1e-8


def test_regularized_reaction_dominates_plain():
    op = _op129()
    grid = op.grid
    cfg = ContinuationConfig(lambda_max=3.0)
    u = limit_procedure(
        op, const_weight(), 2.0, (2, 4), cfg, x0_index=64, strict=False
    ).solutions[0].u
    a = build_a_eps(const_weight(), grid, grid.nodes[64], 0.5)
    rx = reaction(const_weight(), grid)
    plain = phi(rx, u)
    reg = phi(replace(rx, q=build_q_eps(rx.q, a)), u)
    assert (reg >= plain - 1e-12).all()


def test_limit_procedure_needs_supercritical_lambda(monkeypatch):
    """lambda <= lambda1 is a bound failure, not a refused input, and is
    refused before any solve."""
    op = _op129()
    cfg = ContinuationConfig(lambda_max=3.0)
    monkeypatch.setattr(regularized, "_last_family", None)
    monkeypatch.setattr(regularized, "_solve_at", None)
    monkeypatch.setattr(regularized, "newton_correct", None)
    with pytest.raises(RegularizedError, match="must exceed the principal"):
        limit_procedure(op, const_weight(), 0.9, (2, 4), cfg, x0_index=64)


def test_limit_procedure_validates_inputs(monkeypatch):
    op = _op129()
    cfg = ContinuationConfig(lambda_max=3.0)
    with pytest.raises(RegularizedError):
        limit_procedure(op, const_weight(p=2.0), 2.0, (2, 4), cfg)
    with pytest.raises(RegularizedError):
        limit_procedure(op, const_weight(), 2.0, (8, 4), cfg)
    with pytest.raises(RegularizedError):
        limit_procedure(op, const_weight(), 2.0, (8,), cfg)
    # a non-integral or non-numeric entry is refused, not truncated
    for bad in ((4.5, 8), "abc"):
        with pytest.raises(RegularizedError, match="n_values"):
            limit_procedure(op, const_weight(), 2.0, bad, cfg)
    with pytest.raises(RegularizedError):
        limit_procedure(op, const_weight(), 2.0, (4, 8), cfg, method="spline")

    # x0_index must be a node index: a negative one would wrap to the
    # last node, and a bool or a float is no index at all; each is
    # refused before the eigenpair is computed
    weight = dip_weight(p=2.0)

    def no_work(*args, **kwargs):
        raise AssertionError("x0_index must be refused before any work")

    with monkeypatch.context() as m:
        m.setattr(regularized, "principal_eigenpair", no_work)
        for bad in (-1, 129, 64.0, True, np.float64(64.0)):
            with pytest.raises(RegularizedError, match="x0_index"):
                limit_procedure(op, weight, 1.5, (4, 8), cfg, x0_index=bad)
    run = limit_procedure(
        op, weight, 1.5, (4, 8), cfg, x0_index=np.int64(64), strict=False
    )
    assert type(run.x0_index) is int and run.x0_index == 64


def test_input_refusals_are_value_errors():
    """A refused method, n_values or x0_index is a malformed input: a
    `RegularizedError` that is also a ValueError.  The doubled-weight
    obstruction, lambda <= lambda1 and a weight with no certified maximum
    node are failed bounds, not inputs."""
    op = _op129()
    cfg = ContinuationConfig(lambda_max=3.0)
    for change in (
        {"method": "spline"}, {"n_values": (8, 4)}, {"n_values": (2, 4)},
        {"n_values": "abc"}, {"x0_index": 129}, {"x0_index": True},
    ):
        args = {"n_values": (4, 8), "x0_index": 64, **change}
        with pytest.raises(RegularizedError) as info:
            limit_procedure(op, const_weight(p=2.0), 1.5, cfg=cfg, **args)
        assert isinstance(info.value, ValueError), change
    for lam, match in ((2.5, "caps the limiting reaction"),
                       (0.9, "must exceed the principal eigenvalue")):
        with pytest.raises(RegularizedError, match=match) as info:
            limit_procedure(op, const_weight(p=2.0), lam, (4, 8), cfg,
                            x0_index=64)
        assert not isinstance(info.value, ValueError)
    # Q = 1 + I: no row of Q dominates every other row
    weight = WeightSpec.tabulated(1.0 + np.eye(129), p=2.0)
    with pytest.raises(RegularizedError,
                       match="weight has no certified maximum node") as info:
        limit_procedure(op, weight, 1.5, (4, 8), cfg)
    assert not isinstance(info.value, ValueError)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_limit_procedure_refuses_a_non_finite_lambda(monkeypatch, lam):
    """A non-finite lambda is a refused input, named before any Newton
    run, in both modes."""
    calls = []
    monkeypatch.setattr(regularized, "_last_family", None)
    monkeypatch.setattr(continuation, "_newton",
                        lambda *args: calls.append(args))
    for strict in (True, False):
        with pytest.raises(ValueError,
                           match="lambda must be a finite real number"):
            limit_procedure(
                _op129(), const_weight(p=2.0), lam, (4, 8),
                ContinuationConfig(lambda_max=3.0), x0_index=64,
                strict=strict,
            )
    assert calls == []


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
    corrector with affine-covariant damping (a residual test, then the
    restricted monotonicity test on the simplified Newton correction).
    None exceeds the count of the residual-only line search before it,
    [6, 8, 8, 5, 4]."""
    for method in ("richardson", "fields"):
        run = limit_procedure(
            _op129(), dip_weight(p=2.0), 2.0, (4, 8, 16, 32, 64),
            ContinuationConfig(lambda_max=3.0), method=method, strict=False,
        )
        iters = [pt.newton_iters for pt in run.solutions]
        assert iters == [6, 6, 5, 4, 3]
        assert all(a <= b for a, b in zip(iters, [6, 8, 8, 5, 4]))


@pytest.mark.parametrize(
    "resolution, lam",
    [(513, 1.93), (513, 1.96), (513, 1.97), (513, 1.98), (2049, 2.0)],
)
def test_limit_family_solves_where_the_residual_search_failed(
    resolution, lam
):
    """The benchmark's family (dip weight, constant kernel, so lambda1 =
    1, n = 4..64) at lambda and node counts where a line search on the
    sup residual alone raised StepFailure: every u_n is positive and
    solves its eps-problem, the residual recomputed from the state."""
    grid = build_grid(Domain((0.0,), (1.0,)), "trapezoid", resolution)
    op = assemble(KernelSpec.constant(1.0), grid)
    weight = dip_weight(p=2.0)
    run = limit_procedure(
        op, weight, lam, (4, 8, 16, 32, 64),
        ContinuationConfig(lambda_max=3.0), strict=False,
    )
    rx = reaction(weight, grid)
    x0 = grid.nodes[run.x0_index]
    for eps, point in zip(run.eps_sequence, run.solutions):
        u = point.u
        assert u.min() > 0
        a = build_a_eps(weight, grid, x0, eps)
        r = residual(op, replace(rx, q=build_q_eps(rx.q, a)), lam, u)
        assert np.abs(r).max() <= 1e-8 * max(1.0, float(np.abs(u).max()))


def test_limit_family_sub_steps_on_4097_nodes():
    """The benchmark's family on 4097 nodes at lambda = 2: the warm start
    of n = 8 from u_4 fails, and the eps sub-steps solve it.  Every u_n
    is positive and solves its eps-problem, the residual recomputed from
    the state."""
    grid = build_grid(Domain((0.0,), (1.0,)), "trapezoid", 4097)
    op = assemble(KernelSpec.constant(1.0), grid)
    weight = dip_weight(p=2.0)
    run = limit_procedure(
        op, weight, 2.0, (4, 8, 16, 32, 64),
        ContinuationConfig(lambda_max=3.0), strict=False,
    )
    assert [pt.newton_iters for pt in run.solutions] == [5, 14, 19, 4, 3]
    rx = reaction(weight, grid)
    x0 = grid.nodes[run.x0_index]
    for eps, point in zip(run.eps_sequence, run.solutions):
        u = point.u
        assert u.min() > 0
        a = build_a_eps(weight, grid, x0, eps)
        r = residual(op, replace(rx, q=build_q_eps(rx.q, a)), 2.0, u)
        assert np.abs(r).max() <= 1e-8 * max(1.0, float(np.abs(u).max()))


@pytest.mark.parametrize("strict", [True, False])
def test_limit_procedure_refuses_a_non_positive_solve(monkeypatch, strict):
    """Phi reads |u|^p, so -u_n solves the eps-problem whenever u_n does,
    with the same dip margins and near-center mass: a family member with
    min u_n <= 0 is refused in both modes, naming n and min u.  Every
    correction here returns -|u|, so the eps sub-steps retried from it
    stay non-positive too."""
    monkeypatch.setattr(regularized, "_last_family", None)
    correct = regularized.newton_correct

    def negated(*args, **kwargs):
        point = correct(*args, **kwargs)
        u = -np.abs(point.u)
        return replace(point, u=u, min_u=float(u.min()))

    monkeypatch.setattr(regularized, "newton_correct", negated)
    with pytest.raises(RegularizedError, match=r"n=8 .*min u = -"):
        limit_procedure(
            _op129(), const_weight(), 1.5, (4, 8),
            ContinuationConfig(lambda_max=3.0), x0_index=64, strict=strict,
        )


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
    before any solve.  At 1.9 lambda1, below the obstruction, the mass
    bound breaks from n = 16 on, and strict mode refuses there."""
    op = _op129()
    weight = dip_weight(p=2.0)
    cfg = ContinuationConfig(lambda_max=3.0)
    # below twice lambda1 the pre-flight stays silent
    assert limit_procedure(
        op, weight, 1.5, (4, 8), cfg, strict=False
    ).obstruction is None

    run = limit_procedure(
        op, weight, 2.0, (4, 8, 16, 32, 64), cfg, strict=False
    )
    assert run.x0_index == 64
    assert run.margins_ok
    gaps = run.cauchy_gaps
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert not run.near_mass_ok
    assert run.limit_residual > 1e-4
    assert "lambda/2 = 1," in run.obstruction
    assert "lambda - lambda1 = 1 there" in run.obstruction

    run = limit_procedure(
        op, weight, 1.9, (4, 8, 16, 32, 64), cfg, strict=False
    )
    assert run.obstruction is None and not run.near_mass_ok
    with pytest.raises(RegularizedError, match=(
        "near-center mass 2.997e-01 exceeds its bound 2.713e-01 at n=16"
    )):
        limit_procedure(
            op, weight, 1.9, (4, 8, 16, 32, 64), cfg, strict=True
        )

    def no_solve(*args, **kwargs):
        raise AssertionError("pre-flight must refuse before any solve")

    # the memo now holds this family with strict=False; the strict run
    # of the same op and weight still refuses before any solve
    monkeypatch.setattr(regularized, "_solve_at", no_solve)
    monkeypatch.setattr(regularized, "newton_correct", no_solve)
    with pytest.raises(RegularizedError, match="lambda/lambda1 = 2 reaches 2"):
        limit_procedure(
            op, weight, 2.0, (4, 8, 16, 32, 64), cfg, strict=True
        )


def test_near_center_mass_bound_value():
    val = near_center_mass_bound(
        sup_dispersal=1.0, theta=0.5, p=1.0, eps=0.5, radius=0.5, dim=1
    )
    assert abs(val - 4.0 * np.sqrt(2.0)) < 1e-14
    # the unit sphere's surface is 2 pi in 2-D and 4 pi in 3-D
    for dim, surf in ((2, 2.0 * np.pi), (3, 4.0 * np.pi)):
        val = near_center_mass_bound(1.0, 0.5, 1.0, 0.5, 0.5, dim)
        want = 2.0 * surf * 0.5 ** (dim - 0.5) / (dim - 0.5)
        assert abs(val - want) <= 1e-14 * want


def test_near_center_mass_bound_gates():
    with pytest.raises(RegularizedError):
        near_center_mass_bound(1.0, 0.5, 1.0, 0.5, 1.5, 1)
    with pytest.raises(RegularizedError):
        near_center_mass_bound(1.0, 0.5, 2.0, 0.5, 0.5, 1)


def _count_solves(monkeypatch) -> list:
    """Empty the family memo and record each solve of one eps: a call
    of _solve_at, the solve_at_lambda of a built Reaction (the first
    eps), or of newton_correct (the warm starts after it)."""
    monkeypatch.setattr(regularized, "_last_family", None)
    calls = []

    def counted(solve):
        def call(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)
        return call

    for name in ("_solve_at", "newton_correct"):
        monkeypatch.setattr(
            regularized, name, counted(getattr(regularized, name))
        )
    return calls


def test_second_extrapolant_reuses_the_family(monkeypatch):
    """On criterion 8's family the second method solves nothing, and
    each run pickles to the bytes of a run computed without the memo."""
    calls = _count_solves(monkeypatch)
    op, weight = _op129(), dip_weight(p=2.0)
    args = (op, weight, 2.0, (4, 8, 16, 32, 64),
            ContinuationConfig(lambda_max=3.0))
    rich = limit_procedure(*args, strict=False)
    assert len(calls) == 5
    fields = limit_procedure(*args, method="fields", strict=False)
    assert len(calls) == 5
    assert fields.solutions is rich.solutions

    monkeypatch.setattr(regularized, "_last_family", None)
    fresh = limit_procedure(*args, method="fields", strict=False)
    assert len(calls) == 10
    assert pickle.dumps(fields) == pickle.dumps(fresh)
    again = limit_procedure(*args, strict=False)
    assert len(calls) == 10
    assert pickle.dumps(again) == pickle.dumps(rich)


@pytest.mark.parametrize(
    "change, solves",
    [
        (lambda: {"lam": 1.25}, True),
        (lambda: {"n_values": (4, 16)}, True),
        (lambda: {"cfg": ContinuationConfig(lambda_max=3.0, ds=0.01)}, True),
        (lambda: {"x0_index": 63}, True),
        (lambda: {"strict": True}, True),
        (lambda: {"op": _op129()}, True),
        (lambda: {"weight": dip_weight(p=2.0)}, True),
        # equal by value: an equal config, the located x0 named, NumPy
        # scalars, a list of n, and the other method
        (lambda: {"cfg": ContinuationConfig(lambda_max=3.0)}, False),
        (lambda: {"x0_index": np.int64(64)}, False),
        (lambda: {"lam": np.float64(1.5), "n_values": [4, 8]}, False),
        (lambda: {"method": "fields"}, False),
    ],
    ids=["lam", "n_values", "cfg", "x0_index", "strict", "op", "weight",
         "equal_cfg", "equal_x0", "equal_scalars", "method"],
)
def test_family_memo_key(monkeypatch, change, solves):
    """The memo keys on every argument but the method: op and weight by
    identity, the rest by value, x0_index after validation."""
    calls = _count_solves(monkeypatch)
    base = dict(
        op=_op129(), weight=dip_weight(p=2.0), lam=1.5, n_values=(4, 8),
        cfg=ContinuationConfig(lambda_max=3.0), x0_index=None, strict=False,
    )
    limit_procedure(**base)
    assert len(calls) == 2
    limit_procedure(**{**base, **change()})
    assert (len(calls) > 2) == solves


def test_family_memo_keeps_no_operator_or_weight_alive(monkeypatch):
    monkeypatch.setattr(regularized, "_last_family", None)
    op, weight = _op129(), dip_weight(p=2.0)
    limit_procedure(
        op, weight, 1.5, (4, 8), ContinuationConfig(lambda_max=3.0),
        strict=False,
    )
    refs = weakref.ref(op), weakref.ref(weight)
    assert regularized._last_family is not None
    del op, weight
    gc.collect()
    assert [r() for r in refs] == [None, None]
    # and the family goes with them
    assert regularized._last_family is None


def test_memoized_and_tabulated_arrays_are_read_only(monkeypatch):
    """No array a memoized family hands out, and none reachable from its
    key, can be written in place."""
    monkeypatch.setattr(regularized, "_last_family", None)
    op, dip = _op129(), dip_weight(p=2.0)
    run = limit_procedure(
        op, dip, 1.5, (4, 8),
        ContinuationConfig(lambda_max=3.0), strict=False,
    )
    grid = build_grid(Domain((0.0,), (1.0,)), "trapezoid", 9)
    gauss = build_grid(Domain((0.0,), (1.0,)), "gauss-legendre-tensor", 9)
    table = np.ones((9, 9))
    kernel = KernelSpec.tabulated(table)
    weight = WeightSpec.tabulated(table, p=2.0)
    # built without the presets, a spec copies a writable array too
    direct = WeightSpec(form="tabulated", p=2.0, matrix=table)
    # the 1-D Gauss-Legendre gaussian is a one-factor Kron
    gl = assemble(KernelSpec.gaussian(0.5), gauss).k
    assert isinstance(gl, Kron) and len(gl.factors) == 1
    arrays = [
        run.solutions[0].u,
        regularized._last_family.disp[0],
        run.solutions[1].u,
        regularized._last_family.plain[0],
        kernel.matrix,
        weight.matrix,
        KernelSpec(form="tabulated", matrix=table).matrix,
        direct.matrix,
        assemble(kernel, grid).k,
        gl.factors[0],
        reaction(weight, grid).q,
        build_q_eps(reaction(weight, grid).q, np.full(9, 0.5)),
    ]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 2.0
    # the specs copy what they are given
    table[0, 0] = 2.0
    assert kernel.matrix[0, 0] == direct.matrix[0, 0] == 1.0
