"""The three workloads: inputs from a seed, the timed calls, and the gate.

Seed 0 is the pinned configuration.  A nonzero seed jitters the
continuous parameters: gaussian kernel length in [0.9, 1.1],
lambda_max in [2.4, 2.6], and lambda / lambda1 of the regularized
family in [1.99, 2.0].  Between 1.90 and 1.98 that family raises
StepFailure (tried at 1.93 and 1.96-1.98) or its gap sequence stops
contracting (1.90, 1.94, 1.95), so the regularized jitter is narrower than
the kernel and lambda_max ranges.

`run` executes inside a fresh child process and is what `solve_s`
times.  `check` runs in the benchmark process and gates each run on the
outputs alone, recomputed with `reference.Problem`.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from reference import Problem

NAMES = ("trace-1d", "trace-2d", "regularized-limit")
LADDER = {1: (129, 257, 513), 2: (17, 25, 33)}
N_VALUES = (4, 8, 16, 32, 64)
METHODS = ("richardson", "fields")
STORED_POINTS = 29
RESIDUAL_TOL = 1e-8
LAMBDA1_TOL = 1e-9


def params(name: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    jitter = seed != 0
    length = float(rng.uniform(0.9, 1.1)) if jitter else 1.0
    lambda_max = float(rng.uniform(2.4, 2.6)) if jitter else 2.5
    ratio = float(rng.uniform(1.99, 2.0)) if jitter else 2.0
    dim = 2 if name.endswith("2d") else 1
    p = {"name": name, "dim": dim, "resolution": LADDER[dim][-1]}
    if name == "regularized-limit":
        # constant kernel on the unit interval: lambda1 = 1
        p.update(length_scale=None, lam=ratio)
    else:
        p.update(length_scale=length, lambda_max=lambda_max)
    return p


def problem(p: dict) -> Problem:
    return Problem(p["dim"], p["resolution"], p["length_scale"])


def _cli_config(p: dict) -> dict:
    return {
        "domain": {"lower": [0.0] * p["dim"], "upper": [1.0] * p["dim"]},
        "grid": {"rule": "trapezoid", "resolution": p["resolution"]},
        "kernel": {"form": "gaussian", "length_scale": p["length_scale"]},
        "weight": {"form": "constant", "value": 1.0, "p": 2.0},
        "run": {"lambda_max": p["lambda_max"]},
    }


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def prepare(p: dict, ref: Problem, inputs: Path) -> None:
    """Write the run's inputs: the CLI config and, for trace-2d, the
    stored branch that `verify` checks, built from the closed form so that
    it does not depend on the solver under test."""
    inputs.mkdir(parents=True, exist_ok=True)
    if p["name"] == "regularized-limit":
        return
    (inputs / "config.json").write_text(json.dumps(_cli_config(p)))
    if p["name"] != "trace-2d":
        return
    # constant weight Q = 1: sigma = 1, and a covering of radius
    # diameter / 2 needs one ball on the unit square
    branch = ref.closed_form_branch(p["lambda_max"], STORED_POINTS)
    lines = [
        f"# seed_lambda1={_fmt(ref.lambda1)}",
        "# sigma=1",
        f"# r={_fmt(math.sqrt(2.0))}",
        "# m=1",
        "# p=2",
        "# termination=reached_lambda_max",
        "lambda,sup_norm,p_norm,min_u,gamma_phi_sup,lp_bound_margin,"
        "newton_iters,residual_norm",
    ]
    for lam, u in branch:
        mass = ref.mass(u)
        lines.append(",".join([
            _fmt(lam), _fmt(u.max()), _fmt(math.sqrt(mass)), _fmt(u.min()),
            _fmt(mass / lam), _fmt(math.sqrt(lam) - math.sqrt(mass)), "0",
            _fmt(ref.residual(lam, u, mass)),
        ]))
    (inputs / "branch.csv").write_text("\n".join(lines) + "\n")
    states = ["# one row of node values per accepted point, branch.csv order"]
    states += [",".join(_fmt(v) for v in u) for _, u in branch]
    (inputs / "states.csv").write_text("\n".join(states) + "\n")


# -- child side: imports dispersal ---------------------------------------

def run(p: dict, inputs: Path, out: Path):
    """The workload's calls after set-up; `solve_s` times exactly this."""
    from dispersal import cli, continuation, geometry, model, operator, regularized

    if p["name"] == "regularized-limit":
        grid = geometry.build_grid(
            geometry.Domain((0.0,), (1.0,)), "trapezoid", p["resolution"]
        )
        op = operator.assemble(model.KernelSpec.constant(1.0), grid)
        weight = model.WeightSpec.polynomial_dip(
            h=(1.0,), g=(0.0,), points=(0.5,), exponents=(0.4,), level=3.0,
            p=2.0,
        )
        cfg = continuation.ContinuationConfig(lambda_max=3.0)
        return {
            m: regularized.limit_procedure(
                op, weight, p["lam"], N_VALUES, cfg, method=m, strict=False
            )
            for m in METHODS
        }
    config = str(inputs / "config.json")
    common = ["--output-dir", str(out)]
    if p["name"] != "trace-2d":
        return {"trace": cli.main(["trace", config] + common)}
    branch = ["--branch", str(inputs / "branch.csv")]
    return {
        "eig": cli.main(["eig", config] + common),
        "check-hyp": cli.main(["check-hyp", config] + common),
        "trace": cli.main(["trace", config] + common),
        "verify": cli.main(["verify", config] + common + branch),
    }


def record(p: dict, result, out: Path) -> dict:
    """Store what the gate needs; runs after the timed region."""
    if p["name"] != "regularized-limit":
        return {"exit_codes": result}
    arrays, info = {}, {}
    for m, r in result.items():
        arrays[m] = np.array([pt.u for pt in r.solutions])
        info[m] = {
            "newton_iters": [pt.newton_iters for pt in r.solutions],
            "margins_ok": bool(r.margins_ok),
            "limit_residual": float(r.limit_residual),
        }
    np.savez(out / "solutions.npz", **arrays)
    return {"regularized": info}


# -- benchmark side: gates on the outputs --------------------------------

def _read_csv(path: Path):
    meta, header, rows = {}, None, []
    with path.open() as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            if row[0].startswith("#"):
                key, _, val = row[0][1:].strip().partition("=")
                meta[key.strip()] = val.strip()
            elif header is None and row[0][:1].isalpha():
                header = row
            else:
                rows.append([float(v) for v in row])
    return meta, header, np.array(rows)


class GateFailure(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise GateFailure(what)


def _check_residual(ref: Problem, lam: float, u: np.ndarray, field) -> None:
    res = ref.residual(lam, u, field)
    _require(
        res <= RESIDUAL_TOL * max(1.0, float(np.abs(u).max())),
        f"residual {res:.3e} at lambda={lam!r}",
    )


def _check_trace(p, ref, out, child):
    _require(all(code == 0 for code in child["exit_codes"].values()),
             f"exit codes {child['exit_codes']}")
    summary = json.loads((out / "trace.json").read_text())
    _require(summary["termination"] == "reached_lambda_max",
             f"termination {summary['termination']}")
    meta, header, rows = _read_csv(out / "branch.csv")
    _, _, states = _read_csv(out / "states.csv")
    lam1 = float(meta["seed_lambda1"])
    _require(abs(lam1 - ref.lambda1) <= LAMBDA1_TOL * ref.lambda1,
             f"lambda1 {lam1!r} vs reference {ref.lambda1!r}")
    _require(len(rows) == len(states) == summary["points"] >= 2,
             "branch and states row counts")
    lams = rows[:, header.index("lambda")]
    _require(abs(lams[-1] - p["lambda_max"]) <= 1e-12, "last lambda")
    _require(float(states.min()) > 0, "min u > 0")
    for lam, u in zip(lams, states):
        _check_residual(ref, lam, u, ref.mass(u))
    iters = rows[:, header.index("newton_iters")]
    return {"points": len(rows), "newton_iters": int(iters.sum()),
            "newton_iters_max": int(iters.max())}


def _check_verify(ref, out):
    eig = json.loads((out / "eig.json").read_text())
    _require(abs(eig["lambda1"] - ref.lambda1) <= LAMBDA1_TOL * ref.lambda1,
             f"lambda1 {eig['lambda1']!r} vs reference {ref.lambda1!r}")
    hyp = json.loads((out / "hypotheses.json").read_text())
    _require(hyp["k1"] and hyp["k2"] and hyp["q2"], "hypotheses k1, k2, q2")
    reports = json.loads((out / "verify.json").read_text())
    failing = [r["name"] for r in reports if not r["holds"]]
    _require(reports and not failing, f"verify reports failing: {failing}")


def _check_regularized(p, ref, out, child):
    lam = p["lam"]
    theta = min(ref.lambda1, lam - ref.lambda1)
    row = ref.dip_row()
    solutions = np.load(out / "solutions.npz")
    iters = []
    for m, info in child["regularized"].items():
        _require(info["margins_ok"], f"{m}: margins_ok")
        sols = solutions[m]
        _require(len(sols) == len(N_VALUES), f"{m}: solution count")
        _require(float(sols.min()) > 0, f"{m}: min u > 0")
        for n, u in zip(N_VALUES, sols):
            a = ref.dip_profile(1.0 / n)
            field = (2.0 - a) * row * ref.mass(u)
            _check_residual(ref, lam, u, field)
            margin = float((lam - field - theta * a).min())
            _require(margin >= -1e-8, f"{m}: dip margin {margin:.3e} at n={n}")
        gaps = [float(np.abs(u - v).max()) for u, v in zip(sols, sols[1:])]
        _require(all(b < a for a, b in zip(gaps, gaps[1:])),
                 f"{m}: gaps not contracting {gaps}")
        iters += info["newton_iters"]
    return {"points": len(iters), "newton_iters": int(sum(iters)),
            "newton_iters_max": int(max(iters))}


def check(p: dict, ref: Problem, out: Path, child: dict) -> dict:
    """Gate one run; returns its exact counts or raises GateFailure."""
    if p["name"] == "regularized-limit":
        return _check_regularized(p, ref, out, child)
    counts = _check_trace(p, ref, out, child)
    if p["name"] == "trace-2d":
        _check_verify(ref, out)
    return counts
