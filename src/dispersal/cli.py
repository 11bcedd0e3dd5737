"""Batch front-end: config-driven runs with JSON/CSV/SVG artifacts.

One JSON config file describes the domain, grid, kernel, weight, and run
parameters, and it is their only source: the command line names files
(the config, the output directory and, for `verify` and `export-plot`, a
stored branch) and a `--seed` that is accepted and unused.  A section's
keys are the parameters of the constructor it feeds, and an unknown key
is refused.  All outputs are deterministic for a fixed config: floats
are written with 17 significant digits, JSON keys are sorted, and the
SVG plot is assembled by hand.  The CSV tables are NumPy text tables
(``np.savetxt`` in ``%.17g``, read back by ``np.loadtxt``), so every
stored value round-trips bit for bit.

Exit codes: 0 success, 2 a quantitative bound or hypothesis failed,
1 usage, config, solver, I/O or out-of-memory errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import numbers
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .continuation import (
    ContinuationConfig,
    ContinuationError,
    solve_at_lambda,
    trace_branch,
)
from .geometry import Domain, GeometryError, build_grid
from .model import (
    KernelSpec,
    ModelError,
    WeightSpec,
    certify,
)
from .operator import OperatorError, assemble, principal_eigenpair
from .regularized import RegularizedError, _InputError, limit_procedure
from .verification import verify_branch

__all__ = ["main"]

SECTIONS = ("domain", "grid", "kernel", "weight", "run")
CONTINUATION_KEYS = tuple(
    f.name for f in dataclasses.fields(ContinuationConfig)
)
# the run keys the subcommands read besides the continuation settings;
# "seed" is accepted and unused: every run is deterministic
RUN_KEYS = ("lambda", "r", "delta", "method", "n_values", "seed")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1; argparse's default status is 2, which
    # this tool reserves for bound violations
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: Path, obj) -> None:
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
    path.write_text(text + "\n")


def _write_table(path: Path, head, table) -> None:
    """The ``head`` lines, then one CSV row per table row in ``%.17g``."""
    # given a path, np.savetxt opens the file twice and routes it through
    # np.lib's DataSource, which imports gzip on first use
    with path.open("w") as fh:
        np.savetxt(fh, np.atleast_2d(table), fmt="%.17g", delimiter=",",
                   header="\n".join(head), comments="")


def _write_nodes(path: Path, grid, name: str, values) -> None:
    """One row per node: its coordinates, then its value."""
    head = ",".join(f"x{i}" for i in range(grid.nodes.shape[1]))
    _write_table(path, [f"{head},{name}"],
                 np.column_stack([grid.nodes, values]))


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc

    def refuse(name):
        # json.loads would read these as float('nan') and float('inf')
        raise UsageError(f"config {path} holds {name}, which is not a number")

    try:
        cfg = json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a JSON object")
    return cfg


def _check_keys(section: dict, allowed, what: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise UsageError(
            f"unknown key {unknown[0]!r} in the {what}; "
            f"accepted: {', '.join(allowed)}"
        )


def _call(ctor, section: dict, what: str):
    """``ctor(**section)``: the keys a section accepts are the parameters
    of the constructor it feeds, defaults included."""
    _check_keys(section, inspect.signature(ctor).parameters, what)
    try:
        return ctor(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed {what}: {exc}") from exc


def _has_bool(value) -> bool:
    if isinstance(value, list):
        return any(_has_bool(v) for v in value)
    return isinstance(value, bool)


def _section(cfg: dict, name: str) -> dict:
    """A config section as a dict, empty when the key is missing or null;
    no parameter takes a JSON boolean, so one anywhere in the section is
    refused rather than read as 0 or 1."""
    section = cfg.get(name)
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise UsageError(f"config section {name!r} must be a JSON object")
    for key, value in section.items():
        if _has_bool(value):
            raise UsageError(
                f"key {key!r} in the {name} section holds a boolean; "
                "no config value is a boolean"
            )
    return dict(section)


def _spec(cls, cfg: dict, name: str):
    """A KernelSpec or WeightSpec from the section's form constructor."""
    section = _section(cfg, name)
    form = section.pop("form", None)
    if form not in cls.FORMS:
        raise UsageError(
            f"config needs a {name!r} section with a form in {cls.FORMS}; "
            f"got form {form!r} and keys {sorted(section)}"
        )
    return _call(getattr(cls, form), section, f"{form} {name} section")


class RunContext:
    def __init__(self, args):
        self.cfg = _load_config(args.config)
        _check_keys(self.cfg, SECTIONS, "config")
        self.run = _section(self.cfg, "run")
        _check_keys(self.run, CONTINUATION_KEYS + RUN_KEYS, "run section")
        # the grid goes last: its size is the value most often refused, and
        # a misspelled key elsewhere should be named first
        self.kernel = _spec(KernelSpec, self.cfg, "kernel")
        self.weight = _spec(WeightSpec, self.cfg, "weight")
        self.domain = _call(Domain, _section(self.cfg, "domain"),
                            "domain section")
        self.grid = _call(lambda rule="midpoint", resolution=64: build_grid(
            self.domain, rule, resolution), _section(self.cfg, "grid"),
            "grid section")
        for key in ("lambda", "r", "delta"):
            value = self.run.get(key)
            # booleans were refused with the section
            if value is not None and not isinstance(value, numbers.Real):
                raise UsageError(
                    f"run key {key!r} must be a number, got {value!r}"
                )

        self.out_dir = Path(args.output_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def continuation_config(self) -> ContinuationConfig:
        kwargs = {
            key: val for key, val in self.run.items()
            if key in CONTINUATION_KEYS and val is not None
        }
        return _call(ContinuationConfig, kwargs, "run section")

    def require_lambda(self) -> float:
        lam = self.run.get("lambda")
        if lam is None:
            raise UsageError("this subcommand needs the run key 'lambda'")
        return float(lam)

    def operator(self):
        return assemble(self.kernel, self.grid)


def _read_table(path: Path, header: bool, finite=()):
    """(meta, columns, table): ``# key=value`` lines fill meta; with
    ``header`` the first other line names the columns, and the rest is a
    table of numbers, one per column.  The first line where a meta key or
    column named in ``finite`` holds no finite number is refused."""
    if not path.exists():
        raise UsageError(f"missing csv file {path}")
    meta, columns, data, nums, meta_lines = {}, None, [], [], {}
    for num, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            key, eq, val = line[1:].partition("=")
            if eq:
                meta[key.strip()] = val.strip()
                meta_lines[key.strip()] = num
        elif header and columns is None:
            columns = line.split(",")
        else:
            data.append(line)
            nums.append(num)
    if not data:
        # np.loadtxt warns on empty input
        return meta, columns, np.empty((0, len(columns or ())))
    width = None if columns is None else len(columns)
    try:
        table = np.loadtxt(data, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        table = None
    if table is None or width not in (None, table.shape[1]):
        raise UsageError(_refused_line(path, data, nums, width))
    cells = [(meta_lines[k], k, meta[k]) for k in finite if k in meta]
    cells += [(num, k, value) for k in finite if k in (columns or ())
              for num, value in zip(nums, table[:, columns.index(k)])]
    for num, k, value in sorted(cells):
        if not _finite(value):
            raise UsageError(f"{path} line {num}: {k} is not a finite number")
    return meta, columns, table


def _finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


def _refused_line(path: Path, data, nums, width) -> str:
    """Why the first data line of a refused table is refused, named by
    its file line; ``width`` is the column count, else the first row's."""
    for line, num in zip(data, nums):
        try:
            fields = np.loadtxt([line], delimiter=",", comments=None).size
        except ValueError:
            return f"{path} line {num}: not a row of numbers"
        width = width or fields
        if fields != width:
            return f"{path} line {num}: {fields} fields, {width} columns"
    return f"{path}: not a table of numbers"


def _column(path: Path, columns, table, name: str) -> list[float]:
    if not columns or name not in columns:
        raise UsageError(f"{path} has no {name} column")
    return table[:, columns.index(name)].tolist()


def _cmd_eig(args) -> int:
    ctx = RunContext(args)
    eigen = principal_eigenpair(ctx.operator())
    out = ctx.out_dir / "eig.json"
    _write_json(
        out,
        {
            "lambda1": eigen.lambda1,
            "gap": eigen.gap,
            "residual": eigen.residual,
            "min_phi1": float(eigen.phi1.min()),
            "rule": ctx.grid.rule,
            "resolution": ctx.grid.resolution,
            "n": ctx.grid.n,
        },
    )
    _write_nodes(ctx.out_dir / "phi1.csv", ctx.grid, "phi1", eigen.phi1)
    print(f"lambda1={_fmt(eigen.lambda1)} gap={_fmt(eigen.gap)} -> {out}")
    return 0


def _cmd_check_hyp(args) -> int:
    ctx = RunContext(args)
    r = ctx.run.get("r")
    r = float(ctx.domain.diameter if r is None else r)
    delta = ctx.run.get("delta")
    report = certify(
        ctx.operator(), ctx.weight, r=r,
        delta=float(delta) if delta is not None else None,
    )
    floor = report.floor
    # every field of the report and of its floor, but the floor record
    # itself and the q3 comparison samples
    payload = {f.name: getattr(rec, f.name) for rec in (report, floor)
               for f in dataclasses.fields(rec)}
    del payload["floor"], payload["q3_a"]
    out = ctx.out_dir / "hypotheses.json"
    _write_json(out, payload)
    required_ok = report.k1 and report.k2 and floor.q2
    print(
        f"k1={report.k1} k2={report.k2} q2={floor.q2} q2pp={floor.q2pp} "
        f"q4={floor.q4} oscillation={_fmt(floor.oscillation)} -> {out}"
    )
    return 0 if required_ok else 2


def _cmd_solve(args) -> int:
    ctx = RunContext(args)
    lam = ctx.require_lambda()
    op = ctx.operator()
    eigen = principal_eigenpair(op)
    cfg = ctx.continuation_config()
    pt = solve_at_lambda(op, ctx.weight, eigen, lam, cfg)
    _write_json(
        ctx.out_dir / "solve.json",
        {
            "lambda": pt.lam,
            "lambda1": eigen.lambda1,
            "sup_norm": pt.sup_norm,
            "p_norm": pt.p_norm,
            "min_u": pt.min_u,
            "gamma_phi_sup": pt.gamma_phi_sup,
            "newton_iters": pt.newton_iters,
            "residual_norm": pt.residual_norm,
        },
    )
    _write_nodes(ctx.out_dir / "solution.csv", ctx.grid, "u", pt.u)
    print(
        f"lambda={_fmt(pt.lam)} sup={_fmt(pt.sup_norm)} "
        f"-> {ctx.out_dir / 'solve.json'}"
    )
    return 0


def _cmd_trace(args) -> int:
    ctx = RunContext(args)
    op = ctx.operator()
    eigen = principal_eigenpair(op)
    cfg = ctx.continuation_config()
    branch = trace_branch(op, ctx.weight, eigen, cfg)
    head = [
        f"# seed_lambda1={_fmt(branch.seed_lambda1)}",
        f"# p={_fmt(branch.p)}",
        f"# termination={branch.termination}",
        "lambda,sup_norm,p_norm,min_u,gamma_phi_sup,newton_iters,"
        "residual_norm",
    ]
    _write_table(ctx.out_dir / "branch.csv", head, [
        [pt.lam, pt.sup_norm, pt.p_norm, pt.min_u, pt.gamma_phi_sup,
         pt.newton_iters, pt.residual_norm] for pt in branch.points
    ])
    _write_table(
        ctx.out_dir / "states.csv",
        ["# one row of node values per accepted point, branch.csv order"],
        [pt.u for pt in branch.points],
    )
    _write_json(
        ctx.out_dir / "trace.json",
        {
            "seed_lambda1": branch.seed_lambda1,
            "termination": branch.termination,
            "points": len(branch.points),
            "fold_indices": list(branch.fold_indices),
            "p": branch.p,
            "lambda_max": cfg.lambda_max,
        },
    )
    print(
        f"traced {len(branch.points)} points, termination="
        f"{branch.termination} -> {ctx.out_dir / 'branch.csv'}"
    )
    return 0


def _cmd_sweep_eps(args) -> int:
    ctx = RunContext(args)
    lam = ctx.require_lambda()
    run = limit_procedure(
        ctx.operator(), ctx.weight, lam, ctx.run.get("n_values"),
        ctx.continuation_config(), method=ctx.run.get("method", "richardson"),
    )
    head = [
        f"# lambda={_fmt(run.lam)}",
        f"# theta={_fmt(run.theta)}",
        f"# x0_index={run.x0_index}",
        f"# method={run.method}",
        "n,eps,sup_norm,dip_min_margin,cauchy_gap",
    ]
    gaps = [math.nan, *run.cauchy_gaps]
    _write_table(ctx.out_dir / "sweep.csv", head, [
        [n, run.eps_sequence[i], run.solutions[i].sup_norm, run.margins[i],
         gaps[i]] for i, n in enumerate(run.n_values)
    ])
    _write_nodes(ctx.out_dir / "limit.csv", ctx.grid, "u_limit", run.limit)
    _write_json(
        ctx.out_dir / "sweep.json",
        {
            "lambda": run.lam,
            "theta": run.theta,
            "x0_index": run.x0_index,
            "n_values": list(run.n_values),
            "method": run.method,
            "limit_residual": run.limit_residual,
            "margins_ok": run.margins_ok,
            "gaps_contracting": run.gaps_contracting,
            "near_mass_ok": run.near_mass_ok,
            "cauchy_gaps": list(run.cauchy_gaps),
            "near_mass": [list(pair) for pair in run.near_mass],
        },
    )
    print(
        f"swept n={list(run.n_values)} limit_residual="
        f"{_fmt(run.limit_residual)} -> {ctx.out_dir / 'sweep.csv'}"
    )
    return 0


def _load_branch(ctx: RunContext, args) -> SimpleNamespace:
    """The stored states, as `verify_branch` reads them: the lambda column
    of branch.csv and the rows of states.csv, one value per grid node.
    Every other column and ``#`` line is ignored, so a missing one does not
    matter."""
    branch_path = Path(args.branch or ctx.out_dir / "branch.csv")
    states_path = branch_path.with_name("states.csv")
    _, columns, rows = _read_table(branch_path, header=True)
    _, _, states = _read_table(states_path, header=False)
    lams = _column(branch_path, columns, rows, "lambda")
    if len(rows) != len(states):
        raise UsageError(
            f"{branch_path} and {states_path} have mismatched row counts"
        )
    if not len(states):
        raise UsageError("branch csv has no rows to verify")
    if states.shape[1] != ctx.grid.n:
        raise UsageError(f"{states_path} has {states.shape[1]} values per "
                         f"row for {ctx.grid.n} grid nodes")
    return SimpleNamespace(points=tuple(
        SimpleNamespace(lam=lam, u=u) for lam, u in zip(lams, states)
    ))


def _cmd_verify(args) -> int:
    ctx = RunContext(args)
    branch = _load_branch(ctx, args)
    op = ctx.operator()
    reports = verify_branch(op, ctx.weight, branch)
    out = ctx.out_dir / "verify.json"
    _write_json(out, [dataclasses.asdict(r) for r in reports])
    for r in reports:
        status = "ok" if r.holds else "VIOLATED"
        print(f"{r.name}: {status} margin={_fmt(r.margin)}")
    print(f"-> {out}")
    return 0 if all(r.holds for r in reports) else 2


def _cmd_export_plot(args) -> int:
    ctx = RunContext(args)
    branch_path = Path(args.branch or ctx.out_dir / "branch.csv")
    meta, columns, rows = _read_table(
        branch_path, header=True, finite=("seed_lambda1", "lambda", "sup_norm")
    )
    if not len(rows):
        raise UsageError(f"{branch_path} has no data rows to plot")
    lams = _column(branch_path, columns, rows, "lambda")
    sups = _column(branch_path, columns, rows, "sup_norm")
    lambda1 = float(meta.get("seed_lambda1", lams[0]))
    svg = _render_svg(lams, sups, lambda1)
    out = ctx.out_dir / "branch.svg"
    out.write_text(svg)
    print(f"plotted {len(rows)} points -> {out}")
    return 0


def _render_svg(lams, sups, lambda1) -> str:
    width, height = 640, 480
    ml, mr, mt, mb = 64, 20, 20, 44
    x_all = lams + [lambda1]
    y_all = sups + [0.0]
    x_lo, x_hi = min(x_all), max(x_all)
    y_lo, y_hi = 0.0, max(max(y_all), 1e-9)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    x_lo -= 0.04 * x_span
    x_hi += 0.04 * x_span
    y_hi += 0.06 * y_span
    x_span = x_hi - x_lo
    y_span = y_hi - y_lo

    def sx(x):
        return ml + (x - x_lo) / x_span * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y_lo) / y_span * (height - mt - mb)

    pts = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(lams, sups))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black" stroke-width="1"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
        f'stroke-width="1.5"/>',
        f'<circle cx="{sx(lambda1):.3f}" cy="{sy(0.0):.3f}" r="4" '
        f'fill="#d62728"/>',
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 10}" '
        f'text-anchor="middle" font-size="14">lambda</text>',
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" font-size="14" '
        f'transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})" '
        f'text-anchor="middle">sup|u|</text>',
        f'<text x="{sx(min(lams)):.1f}" y="{height - mb + 16}" '
        f'text-anchor="middle" font-size="12">{min(lams):.6g}</text>',
        f'<text x="{sx(max(lams)):.1f}" y="{height - mb + 16}" '
        f'text-anchor="middle" font-size="12">{max(lams):.6g}</text>',
        f'<text x="{ml - 6}" y="{sy(max(sups)) + 4:.1f}" '
        f'text-anchor="end" font-size="12">{max(sups):.6g}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


# built once per process: a caller that runs `main` several times (the
# tests, a scripted pipeline) pays for the argparse set-up once
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dispersal",
        description=(
            "Nonlocal dispersal logistic solver: eigenpairs, branch "
            "continuation, regularized sweeps, and bound verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("eig", _cmd_eig, "principal eigenpair of the dispersal operator"),
        ("check-hyp", _cmd_check_hyp, "certify kernel/weight hypotheses"),
        ("solve", _cmd_solve, "solve at one fixed lambda"),
        ("trace", _cmd_trace, "trace the positive branch from lambda1"),
        ("sweep-eps", _cmd_sweep_eps, "regularized family and its limit"),
        ("verify", _cmd_verify, "check every bound over a stored branch"),
        ("export-plot", _cmd_export_plot, "render a branch diagram SVG"),
    )
    for name, func, help_text in specs:
        # abbreviations off: a flag is read under its full name only
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("config", help="path to the run-configuration JSON")
        p.add_argument("--output-dir", default="out")
        p.add_argument("--seed", type=int, help="accepted and unused")
        if name in ("verify", "export-plot"):
            p.add_argument("--branch", help="branch csv path (default: "
                           "branch.csv in the output directory)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, _InputError) as exc:
        # a refused regularized input is a malformed config
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RegularizedError as exc:
        # quantitative failure inside a regularized run
        print(f"bound failure: {exc}", file=sys.stderr)
        return 2
    except (
        GeometryError,
        ModelError,
        OperatorError,
        ContinuationError,
        MemoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
