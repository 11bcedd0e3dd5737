"""Acceptance suite: ten quantitative gates, one test per gate.

Each test prints a single PASS/FAIL line before asserting, so a failed
run still reports every gate's outcome.  Tolerances are pinned; a gate
that cannot be met is allowed to fail here and is analysed in the
project notes rather than weakened.
"""

import json
import math
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

from dispersal import (
    ContinuationConfig,
    Domain,
    JacobianAction,
    KernelSpec,
    WeightSpec,
    assemble,
    build_grid,
    certify,
    limit_procedure,
    phi,
    principal_eigenpair,
    reaction,
    residual,
    solve_at_lambda,
    trace_branch,
)
from dispersal.cli import main

from .oracles import (
    bifurcation_estimate,
    check_subcritical_nonexistence,
    monotone_points,
    oracle_fixed_point,
    oracle_spectral,
    window_bounds,
)

UNIT = Domain((0.0,), (1.0,))

_warmed = False


def _warm_up():
    """First BLAS/LAPACK call pays a load cost; keep it out of timings."""
    global _warmed
    if _warmed:
        return
    op = assemble(KernelSpec.gaussian(1.0), build_grid(UNIT, "trapezoid", 65))
    principal_eigenpair(op)
    np.linalg.solve(np.eye(8), np.ones(8))
    _warmed = True


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    return ok


def _dip(p):
    return WeightSpec.polynomial_dip(
        h=(1.0,), g=(0.0,), points=(0.5,), exponents=(0.4,), level=3.0, p=p
    )


def test_criterion_01_principal_eigenvalue():
    """Constant kernel gives lambda1 = 1 to 1e-10 at any resolution;
    the rank-one kernel (1+x)(1+y) reaches 7/3 within 1e-4 at trapezoid
    resolution 200 with observed order at least 1.9; all within 1s."""
    _warm_up()
    t0 = perf_counter()
    const_errs = []
    for rule, res in (
        ("midpoint", 4),
        ("trapezoid", 4),
        ("trapezoid", 33),
        ("gauss-legendre-tensor", 8),
        ("midpoint", 200),
    ):
        op = assemble(KernelSpec.constant(1.0), build_grid(UNIT, rule, res))
        const_errs.append(abs(principal_eigenpair(op).lambda1 - 1.0))

    exact = 7.0 / 3.0
    rank_errs = []
    for res in (50, 100, 200):
        op = assemble(
            KernelSpec.rank_one((1.0, 1.0)), build_grid(UNIT, "trapezoid", res)
        )
        rank_errs.append(abs(principal_eigenpair(op).lambda1 - exact))
    orders = [
        math.log(rank_errs[i] / rank_errs[i + 1]) / math.log(2.0)
        for i in range(2)
    ]
    dt = perf_counter() - t0

    ok = (
        max(const_errs) <= 1e-10
        and rank_errs[-1] < 1e-4
        and min(orders) >= 1.9
        and dt < 1.0
    )
    _report(
        1,
        ok,
        f"const err {max(const_errs):.2e}, rank-one err {rank_errs[-1]:.2e}, "
        f"order {min(orders):.2f}, {dt:.2f}s",
    )
    assert max(const_errs) <= 1e-10
    assert rank_errs[-1] < 1e-4
    assert min(orders) >= 1.9
    assert dt < 1.0


def test_criterion_02_constant_branch():
    """For Q = 1 the branch is u = (lambda-1)^(1/p); every accepted point
    must match to 1e-8 over (1, 3], within 5s per exponent."""
    _warm_up()
    grid = build_grid(UNIT, "trapezoid", 65)
    op = assemble(KernelSpec.constant(1.0), grid)
    eigen = principal_eigenpair(op)
    worst = {}
    times = {}
    for p in (0.5, 1.0, 2.0):
        t0 = perf_counter()
        branch = trace_branch(
            op,
            WeightSpec.constant(1.0, p=p),
            eigen,
            ContinuationConfig(lambda_max=3.0),
        )
        times[p] = perf_counter() - t0
        devs = [
            np.abs(pt.u - (pt.lam - 1.0) ** (1.0 / p)).max()
            for pt in branch.points
        ]
        worst[p] = max(devs)
        assert branch.termination == "reached_lambda_max"
        assert all(1.0 < pt.lam <= 3.0 + 1e-12 for pt in branch.points)
    ok = max(worst.values()) <= 1e-8 and max(times.values()) < 5.0
    _report(
        2,
        ok,
        "max dev "
        + ", ".join(f"p={p}: {worst[p]:.2e}" for p in worst)
        + f", slowest {max(times.values()):.2f}s",
    )
    assert max(worst.values()) <= 1e-8
    assert max(times.values()) < 5.0


def test_criterion_03_subcritical_nonexistence():
    """At 0.5, 0.9, and 1.0 times lambda1, twenty random positive starts
    find no positive solution above sup norm 1e-6, for the constant and
    gaussian kernels, within 10s."""
    _warm_up()
    grid = build_grid(UNIT, "trapezoid", 65)
    t0 = perf_counter()
    found = []
    for kernel in (KernelSpec.constant(1.0), KernelSpec.gaussian(1.0)):
        op = assemble(kernel, grid)
        lam1 = principal_eigenpair(op).lambda1
        for frac in (0.5, 0.9, 1.0):
            rep = check_subcritical_nonexistence(
                op, WeightSpec.constant(1.0, p=1.0), frac * lam1, trials=20
            )
            found.append((kernel.form, frac, rep))
    dt = perf_counter() - t0
    ok = all(rep.holds for _, _, rep in found) and dt < 10.0
    worst = max(rep.context["max_sup_found"] for _, _, rep in found)
    _report(3, ok, f"max sup found {worst:.2e} over 6 cases, {dt:.2f}s")
    for form, frac, rep in found:
        assert rep.holds, f"{form} kernel at {frac} lambda1"
    assert dt < 10.0


def test_criterion_04_branch_point_bounds():
    """Every accepted branch point satisfies the admissibility bound
    gamma sup Phi < 1, the covering p-norm bound, and (under a global
    weight floor) min Phi >= sigma ||u||_p^p, all with margin >= -1e-8.
    The first two margins are those of the `verify_branch` reports, the
    reaction floor is formed here; all are recomputed from each traced
    branch's states."""
    from dispersal import verify_branch

    _warm_up()
    grid = build_grid(UNIT, "trapezoid", 65)
    cases = (
        (KernelSpec.constant(1.0), WeightSpec.constant(1.0, p=1.0), 3.0),
        (KernelSpec.constant(1.0), _dip(1.0), 3.0),
        (KernelSpec.gaussian(1.0), WeightSpec.constant(1.0, p=2.0), 2.5),
    )
    worst_adm, worst_lp, worst_floor = math.inf, math.inf, math.inf
    points = 0
    for kernel, weight, lam_max in cases:
        op = assemble(kernel, grid)
        eigen = principal_eigenpair(op)
        branch = trace_branch(
            op, weight, eigen, ContinuationConfig(lambda_max=lam_max)
        )
        reports = {r.name: r for r in verify_branch(op, weight, branch)}
        # the covering report needs a global weight floor
        assert "lp_covering_bound" in reports
        points += reports["admissibility"].context["points"]
        worst_adm = min(worst_adm, reports["admissibility"].margin)
        worst_lp = min(worst_lp, reports["lp_covering_bound"].margin)
        rx = reaction(weight, grid)
        sigma = certify(op, weight, r=UNIT.diameter).floor.sigma_global
        for pt in branch.points:
            floor = sigma * grid.lp_norm(pt.u, weight.p) ** weight.p
            worst_floor = min(worst_floor, float(phi(rx, pt.u).min()) - floor)
    ok = worst_adm > 0 and worst_lp >= -1e-8 and worst_floor >= -1e-8
    _report(
        4,
        ok,
        f"{points} points; margins: admissibility {worst_adm:.2e}, "
        f"p-norm {worst_lp:.2e}, reaction floor {worst_floor:.2e}",
    )
    assert worst_adm > 0
    assert worst_lp >= -1e-8
    assert worst_floor >= -1e-8


def test_criterion_05_bifurcation_recovery():
    """Extrapolating the branch back to zero amplitude recovers lambda1
    within 1e-4 for every kernel/weight preset combination."""
    _warm_up()
    grid = build_grid(UNIT, "trapezoid", 65)
    errs = {}
    for kname, kernel in (
        ("constant", KernelSpec.constant(1.0)),
        ("rank_one", KernelSpec.rank_one((1.0, 1.0))),
        ("gaussian", KernelSpec.gaussian(1.0)),
    ):
        op = assemble(kernel, grid)
        eigen = principal_eigenpair(op)
        for wname, weight in (
            ("const_p1", WeightSpec.constant(1.0, p=1.0)),
            ("const_p2", WeightSpec.constant(1.0, p=2.0)),
            ("dip_p1", _dip(1.0)),
        ):
            branch = trace_branch(
                op,
                weight,
                eigen,
                ContinuationConfig(lambda_max=eigen.lambda1 + 1.0),
            )
            errs[f"{kname}/{wname}"] = abs(
                bifurcation_estimate(branch) - eigen.lambda1
            )
    worst = max(errs.values())
    ok = worst <= 1e-4
    _report(5, ok, f"worst recovery error {worst:.2e} over {len(errs)} presets")
    for name, err in errs.items():
        assert err <= 1e-4, name


def test_criterion_06_jacobian_vs_finite_differences():
    """The Jacobian the solver runs, `JacobianAction`, matches central
    differences to relative 1e-6 column by column, on ten random states
    for each exponent, positive states for p = 0.5."""
    _warm_up()
    grid = build_grid(UNIT, "trapezoid", 21)
    op = assemble(KernelSpec.gaussian(1.0), grid)
    lam = 1.8
    rng = np.random.default_rng(42)
    worst = 0.0
    for p in (0.5, 1.0, 2.0):
        weight = _dip(p)
        rx = reaction(weight, grid)
        for _ in range(10):
            if p == 0.5:
                u = rng.uniform(0.2, 1.5, grid.n)
            else:
                u = rng.standard_normal(grid.n)
                u += np.where(u >= 0, 0.2, -0.2)  # keep |u| off the kink
            action = JacobianAction(op, rx, lam, u)
            jac = np.column_stack([action @ e for e in np.eye(grid.n)])
            h = 1e-6
            fd = np.empty_like(jac)
            for k in range(grid.n):
                e = np.zeros(grid.n)
                e[k] = h
                fd[:, k] = (
                    residual(op, rx, lam, u + e)
                    - residual(op, rx, lam, u - e)
                ) / (2.0 * h)
            rel = np.abs(jac - fd).max() / max(np.abs(jac).max(), 1.0)
            worst = max(worst, rel)
    ok = worst <= 1e-6
    _report(6, ok, f"worst relative deviation {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_07_solvability_window():
    """Q = 1 has zero oscillation and an unbounded window; the dipped
    weight has positive oscillation and its branch exists throughout the
    window (lambda1, lambda1 + lambda1 sigma / osc), at resolution 128,
    within 10s."""
    _warm_up()
    t0 = perf_counter()
    grid = build_grid(UNIT, "trapezoid", 128)
    op = assemble(KernelSpec.constant(1.0), grid)
    eigen = principal_eigenpair(op)

    r = grid.domain.diameter
    osc_const = certify(
        op, WeightSpec.constant(1.0, p=1.0), r
    ).floor.oscillation
    lo, hi = window_bounds(eigen.lambda1, 1.0, osc_const)
    const_ok = osc_const == 0.0 and hi == math.inf

    weight = _dip(1.0)
    floor = certify(op, weight, r).floor
    osc_dip = floor.oscillation
    lo_d, hi_d = window_bounds(eigen.lambda1, floor.sigma_global, osc_dip)
    branch = trace_branch(
        op, weight, eigen, ContinuationConfig(lambda_max=hi_d)
    )
    lams = [pt.lam for pt in monotone_points(branch)]
    gaps = [b - a for a, b in zip(lams, lams[1:])]
    covered = (
        branch.termination == "reached_lambda_max"
        and lams[0] - eigen.lambda1 < 0.05
        and abs(lams[-1] - hi_d) < 1e-9
        and max(gaps) <= 0.25
        and all(pt.min_u > 0 for pt in branch.points)
    )
    dt = perf_counter() - t0
    ok = const_ok and osc_dip > 0 and covered and dt < 10.0
    _report(
        7,
        ok,
        f"const window upper inf, dip osc {osc_dip:.4f}, window "
        f"({lo_d:.4f}, {hi_d:.4f}) traced with {len(lams)} points, {dt:.2f}s",
    )
    assert const_ok
    assert osc_dip > 0
    assert covered
    assert dt < 10.0


def test_criterion_08_regularized_limit():
    """Dipped weight satisfying the maximum-point hypothesis, lambda at
    twice lambda1, eps = 1/n for n in {4,...,64}: per-n margins within
    -1e-8 and a strictly contracting tail are required, and both
    extrapolants' runs must report the doubled-weight obstruction, all
    within 30s.

    At this configuration no limit solves the un-regularized equation.
    The dip margin at x0 reads lambda - 2 Phi_{u_n}(x0) >= 0, so every
    u_n, and any limit, has Phi(x0) <= lambda/2 = lambda1.  Every
    positive solution needs Phi(x0) >= lambda - lambda1 = lambda1: the
    row Q(x0, .) dominates, so L0 u >= (lambda - Phi(x0)) u and
    Collatz-Wielandt gives lambda1 >= lambda - Phi(x0), with equality
    only when Q(x, .) does not depend on x.  The dip weight does, and
    on this grid the direct solution has Phi(x0) = 1.214.  So the
    margin bullet and a 1e-6 limit residual exclude each other; the run
    must say so instead of handing back a residual-5.8 limit.  Both
    residuals are still printed against 1e-6."""
    _warm_up()
    t0 = perf_counter()
    grid = build_grid(UNIT, "trapezoid", 129)
    op = assemble(KernelSpec.constant(1.0), grid)
    weight = _dip(2.0)
    cfg = ContinuationConfig(lambda_max=3.0)
    run = limit_procedure(
        op, weight, 2.0, (4, 8, 16, 32, 64), cfg, strict=False
    )
    fields = limit_procedure(
        op, weight, 2.0, (4, 8, 16, 32, 64), cfg, method="fields",
        strict=False,
    )
    dt = perf_counter() - t0

    margins_ok = min(run.margins) >= -1e-8
    gaps = run.cauchy_gaps
    contracting = all(b < a for a, b in zip(gaps, gaps[1:]))
    reported = run.obstruction is not None and fields.obstruction is not None
    ok = margins_ok and contracting and reported and dt < 30.0
    _report(
        8,
        ok,
        f"margins min {min(run.margins):.2e} "
        f"({'ok' if margins_ok else 'violated'}), gaps "
        + ">".join(f"{g:.3f}" for g in gaps)
        + f" ({'contracting' if contracting else 'not contracting'}), "
        f"obstruction {'reported' if reported else 'not reported'}, "
        f"limit residual {run.limit_residual:.2e} "
        f"(field extrapolant {fields.limit_residual:.2e}) vs 1e-6, "
        f"{dt:.1f}s",
    )
    assert margins_ok
    assert contracting
    assert dt < 30.0
    assert reported, (
        f"limit residual {run.limit_residual:.3e} "
        f"(field extrapolant {fields.limit_residual:.3e}) returned without "
        "the doubled-weight obstruction"
    )


def test_criterion_09_oracle_agreement():
    """Newton and the damped rearrangement agree wherever both converge:
    the rearrangement is stationary at Newton's solution, its spectral
    form reproduces the solution independently, and below lambda1 both
    report only the trivial state."""
    _warm_up()
    grid = build_grid(UNIT, "trapezoid", 65)
    worst = 0.0
    cases = 0
    for kernel in (KernelSpec.constant(1.0), KernelSpec.gaussian(1.0)):
        op = assemble(kernel, grid)
        eigen = principal_eigenpair(op)
        for p in (1.0, 2.0):
            weight = WeightSpec.constant(1.0, p=p)
            for factor in (1.5, 2.0):
                lam = factor * eigen.lambda1
                pt = solve_at_lambda(
                    op, weight, eigen, lam,
                    ContinuationConfig(lambda_max=lam + 0.5),
                )
                fixed = oracle_fixed_point(op, weight, lam, pt.u)
                assert fixed.status == "converged"
                spec = oracle_spectral(op, weight, lam)
                assert spec.status == "converged"
                worst = max(
                    worst,
                    np.abs(fixed.u - pt.u).max(),
                    np.abs(spec.u - pt.u).max(),
                )
                cases += 1
            # subcritical: both certify the trivial outcome
            lam = 0.9 * eigen.lambda1
            pt = solve_at_lambda(
                op, weight, eigen, lam, ContinuationConfig(lambda_max=2.0)
            )
            spec = oracle_spectral(op, weight, lam)
            assert pt.sup_norm < 1e-6
            assert spec.status == "no_positive_solution"
            cases += 1
    ok = worst <= 1e-8
    _report(9, ok, f"worst disagreement {worst:.2e} over {cases} cases")
    assert worst <= 1e-8


def test_criterion_10_deterministic_cli(tmp_path):
    """Two CLI runs with the same configuration and seed produce
    byte-identical artifacts."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "domain": {"lower": [0.0], "upper": [1.0]},
        "grid": {"rule": "trapezoid", "resolution": 65},
        "kernel": {"form": "gaussian", "length_scale": 1.0},
        "weight": {"form": "constant", "value": 1.0, "p": 1.0},
        "run": {"lambda": 1.5, "lambda_max": 2.0, "n_values": [4, 8, 16]},
    }))
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["eig", str(cfg_path), "--output-dir", str(out),
                     "--seed", "0"]) == 0
        assert main(["trace", str(cfg_path), "--output-dir", str(out),
                     "--seed", "0"]) == 0
        assert main(["sweep-eps", str(cfg_path), "--output-dir", str(out),
                     "--seed", "0"]) == 0
        assert main(["export-plot", str(cfg_path), "--output-dir", str(out),
                     "--seed", "0"]) == 0
        blob = b""
        for name in sorted(f.name for f in out.iterdir()):
            blob += name.encode() + b"\0" + (out / name).read_bytes() + b"\0"
        blobs.append(blob)
    ok = blobs[0] == blobs[1]
    _report(10, ok, f"{len(list((tmp_path / 'first').iterdir()))} artifacts "
                    "compared byte for byte")
    assert ok
