"""Command-line interface: exit codes, artifacts, and determinism."""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dispersal import (
    ContinuationConfig,
    ContinuationError,
    Domain,
    KernelSpec,
    StepFailure,
    WeightSpec,
    assemble,
    build_grid,
    cli,
    continuation,
    principal_eigenpair,
    trace_branch,
)
from dispersal.cli import _build_parser, _fmt, _read_table, _write_table, main

from .conftest import peak_bytes


def write_config(path, **overrides):
    cfg = {
        "domain": {"lower": [0.0], "upper": [1.0]},
        "grid": {"rule": "trapezoid", "resolution": 65},
        "kernel": {"form": "constant", "value": 1.0},
        "weight": {"form": "constant", "value": 1.0, "p": 1.0},
        "run": {},
    }
    for key, val in overrides.items():
        cfg[key] = val
    path.write_text(json.dumps(cfg))
    return str(path)


def test_eig_outputs(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["eig", cfg, "--output-dir", str(out)]) == 0
    data = json.loads((out / "eig.json").read_text())
    assert abs(data["lambda1"] - 1.0) < 1e-10
    assert data["min_phi1"] > 0
    assert data["n"] == 65
    lines = (out / "phi1.csv").read_text().splitlines()
    assert lines[0] == "x0,phi1"
    assert len(lines) == 66


def test_check_hyp_pass_and_fail(tmp_path, capsys):
    cfg = write_config(tmp_path / "ok.json")
    out = tmp_path / "out"
    assert main(["check-hyp", cfg, "--output-dir", str(out)]) == 0
    payload = json.loads((out / "hypotheses.json").read_text())
    assert payload["k1"] and payload["q2"]
    assert payload["oscillation"] == 0.0

    # Q(x, y) = x vanishes on a row: no positive floor
    bad = write_config(
        tmp_path / "bad.json",
        weight={"form": "separable", "g": [0.0, 1.0], "h": [1.0], "p": 1.0},
    )
    assert main(["check-hyp", bad, "--output-dir", str(out)]) == 2

    # r and delta are read as given: zero and negative values are refused
    # by name; a NaN, which would empty the near-pair mask, is refused as
    # the config is read, by the constant's name
    (out / "hypotheses.json").unlink()
    for expected, run in [
        ("r must be positive", {"r": 0}),
        ("r must be positive", {"r": -1}),
        ("holds NaN, which is not a number", {"r": float("nan")}),
        ("holds NaN, which is not a number", {"delta": float("nan")}),
    ]:
        argv = write_config(tmp_path / "r.json", run=run)
        capsys.readouterr()
        assert main(["check-hyp", argv, "--output-dir", str(out)]) == 1
        assert expected in capsys.readouterr().err
        assert not (out / "hypotheses.json").exists()


def test_solve_constant(tmp_path):
    cfg = write_config(tmp_path / "c.json", run={"lambda": 2.0})
    out = tmp_path / "out"
    assert main(["solve", cfg, "--output-dir", str(out)]) == 0
    data = json.loads((out / "solve.json").read_text())
    assert abs(data["sup_norm"] - 1.0) < 1e-8
    assert data["min_u"] > 0
    rows = (out / "solution.csv").read_text().splitlines()
    assert rows[0] == "x0,u"
    vals = np.array([float(r.split(",")[1]) for r in rows[1:]])
    np.testing.assert_allclose(vals, 1.0, atol=1e-8)


def test_solve_below_lambda1_returns_trivial_state(tmp_path):
    """With p < 1, |u|^p has no derivative at u = 0, so Newton cannot
    converge there; below lambda1 = 2 the solve returns u = 0 unsolved."""
    cfg = write_config(
        tmp_path / "c.json",
        grid={"rule": "trapezoid", "resolution": 3},
        kernel={"form": "constant", "value": 2.0},
        weight={"form": "constant", "value": 1.9471888932322174, "p": 0.5},
        run={"lambda": 1.0},
    )
    out = tmp_path / "out"
    assert main(["solve", cfg, "--output-dir", str(out)]) == 0
    data = json.loads((out / "solve.json").read_text())
    assert data["sup_norm"] == 0.0 and data["newton_iters"] == 0


def test_trace_1d_gaussian_holds_no_n_squared_array(tmp_path):
    """A 1-D gaussian on 4097 trapezoid nodes traces to lambda_max with
    its S kept as a Toeplitz column: the whole CLI run peaks below n^2
    bytes, an eighth of one n x n float array."""
    n = 4097
    cfg = write_config(
        tmp_path / "c.json",
        grid={"rule": "trapezoid", "resolution": n},
        kernel={"form": "gaussian", "length_scale": 1.0},
        weight={"form": "constant", "value": 1.0, "p": 2.0},
        run={"lambda_max": 2.5},
    )
    out = tmp_path / "out"
    argv = ["trace", cfg, "--output-dir", str(out)]
    codes = []
    peak = peak_bytes(lambda: codes.append(main(argv)))
    assert codes == [0]
    meta = json.loads((out / "trace.json").read_text())
    assert meta["termination"] == "reached_lambda_max"
    assert meta["points"] == 28
    assert peak < n**2


def test_trace_reaches_clamped_endpoint(tmp_path):
    cfg = write_config(tmp_path / "c.json", run={"lambda_max": 2.0})
    out = tmp_path / "out"
    assert main(["trace", cfg, "--output-dir", str(out)]) == 0
    meta = json.loads((out / "trace.json").read_text())
    assert meta["termination"] == "reached_lambda_max"
    rows = [
        r for r in (out / "branch.csv").read_text().splitlines()
        if r and not r.startswith("#")
    ]
    header = rows[0].split(",")
    last = dict(zip(header, rows[-1].split(",")))
    assert abs(float(last["lambda"]) - 2.0) < 1e-12
    assert abs(float(last["sup_norm"]) - 1.0) < 1e-8
    states = (out / "states.csv").read_text().splitlines()
    assert len(states) == len(rows)  # one state row per point plus headers


def test_commands_run_on_a_cube(tmp_path):
    """eig, check-hyp, trace and verify run on a small unit cube."""
    cfg = write_config(
        tmp_path / "c.json",
        domain={"lower": [0.0] * 3, "upper": [1.0] * 3},
        grid={"rule": "trapezoid", "resolution": 5},
        kernel={"form": "gaussian", "length_scale": 1.0},
        weight={"form": "constant", "value": 1.0, "p": 2.0},
        run={"lambda_max": 2.0},
    )
    out = tmp_path / "out"
    for command in ("eig", "check-hyp", "trace", "verify"):
        assert main([command, cfg, "--output-dir", str(out)]) == 0, command
    head = (out / "phi1.csv").read_text().splitlines()[0]
    assert head == "x0,x1,x2,phi1"


def test_trace_then_verify_then_plot(tmp_path):
    cfg = write_config(tmp_path / "c.json", run={"lambda_max": 2.0})
    out = tmp_path / "out"
    assert main(["trace", cfg, "--output-dir", str(out)]) == 0
    assert main(["verify", cfg, "--output-dir", str(out)]) == 0
    reports = json.loads((out / "verify.json").read_text())
    assert all(r["holds"] for r in reports)
    assert main(["export-plot", cfg, "--output-dir", str(out)]) == 0
    svg = (out / "branch.svg").read_text()
    assert svg.startswith("<svg") and "<polyline" in svg


def test_verify_flags_corrupted_states(tmp_path):
    cfg = write_config(tmp_path / "c.json", run={"lambda_max": 2.0})
    out = tmp_path / "out"
    main(["trace", cfg, "--output-dir", str(out)])
    states = out / "states.csv"
    lines = states.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[3] = str(-abs(float(cells[3])))  # drive one node negative
    lines[-1] = ",".join(cells)
    states.write_text("\n".join(lines) + "\n")
    assert main(["verify", cfg, "--output-dir", str(out)]) == 2


def test_verify_recomputes_from_states(tmp_path):
    """Halving the last stored state gives a non-solution while every
    recorded scalar still looks fine; verify recomputes and exits 2."""
    cfg = write_config(
        tmp_path / "c.json",
        kernel={"form": "gaussian", "length_scale": 1.0},
        run={"lambda_max": 2.0},
    )
    out = tmp_path / "out"
    assert main(["trace", cfg, "--output-dir", str(out)]) == 0
    assert main(["verify", cfg, "--output-dir", str(out)]) == 0
    states = out / "states.csv"
    lines = states.read_text().splitlines()
    lines[-1] = ",".join(repr(0.5 * float(v)) for v in lines[-1].split(","))
    states.write_text("\n".join(lines) + "\n")
    assert main(["verify", cfg, "--output-dir", str(out)]) == 2
    reports = json.loads((out / "verify.json").read_text())
    failing = {r["name"] for r in reports if not r["holds"]}
    assert "residual" in failing


def test_verify_ignores_recorded_lambda1(tmp_path):
    """verify reads no recorded lambda1: a valid branch whose seed_lambda1
    header is set to 5.0 still verifies."""
    cfg = write_config(
        tmp_path / "c.json",
        kernel={"form": "gaussian", "length_scale": 1.0},
        run={"lambda_max": 2.0},
    )
    out = tmp_path / "out"
    assert main(["trace", cfg, "--output-dir", str(out)]) == 0
    branch = out / "branch.csv"
    lines = branch.read_text().splitlines()
    i = next(k for k, s in enumerate(lines) if s.startswith("# seed_lambda1="))
    lines[i] = "# seed_lambda1=5.0"
    branch.write_text("\n".join(lines) + "\n")
    assert main(["verify", cfg, "--output-dir", str(out)]) == 0


def test_verify_reads_no_header(tmp_path, capsys):
    """verify reads only the lambda column and the states: a valid
    17-node branch without its ``#`` lines still verifies."""
    cfg = write_config(
        tmp_path / "c.json",
        grid={"rule": "trapezoid", "resolution": 17},
        run={"lambda_max": 2.0},
    )
    out = tmp_path / "out"
    assert main(["trace", cfg, "--output-dir", str(out)]) == 0
    branch = out / "branch.csv"
    lines = branch.read_text().splitlines()
    stripped = [s for s in lines if not s.startswith("#")]
    assert len(stripped) < len(lines) and stripped[0].startswith("lambda,")
    branch.write_text("\n".join(stripped) + "\n")
    capsys.readouterr()
    assert main(["verify", cfg, "--output-dir", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_trace_reports_max_points(tmp_path):
    """Q = 0 leaves the problem linear, so the branch stands vertical at
    lambda1; trace.json names the point budget as the reason it stopped."""
    cfg = write_config(
        tmp_path / "c.json",
        grid={"rule": "trapezoid", "resolution": 33},
        kernel={"form": "gaussian", "length_scale": 1.0},
        weight={"form": "constant", "value": 0.0, "p": 2.0},
        run={"lambda_max": 2.5, "max_points": 40},
    )
    out = tmp_path / "out"
    assert main(["trace", cfg, "--output-dir", str(out)]) == 0
    meta = json.loads((out / "trace.json").read_text())
    assert meta["termination"] == "max_points"
    assert meta["points"] == 40


def test_verify_rejects_mismatched_rows(tmp_path):
    cfg = write_config(tmp_path / "c.json", run={"lambda_max": 2.0})
    out = tmp_path / "out"
    main(["trace", cfg, "--output-dir", str(out)])
    states = out / "states.csv"
    lines = states.read_text().splitlines()
    states.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["verify", cfg, "--output-dir", str(out)]) == 1


def test_sweep_eps_outputs(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        run={"lambda": 1.5, "n_values": [4, 8, 16]},
    )
    out = tmp_path / "out"
    assert main(["sweep-eps", cfg, "--output-dir", str(out)]) == 0
    data = json.loads((out / "sweep.json").read_text())
    assert data["n_values"] == [4, 8, 16]
    assert data["method"] == "richardson"
    assert data["margins_ok"] and data["gaps_contracting"]
    rows = (out / "sweep.csv").read_text().splitlines()
    assert "n,eps,sup_norm,dip_min_margin,cauchy_gap" in rows
    limit = (out / "limit.csv").read_text().splitlines()
    assert limit[0] == "x0,u_limit"
    assert len(limit) == 66


def test_sweep_eps_method(tmp_path, capsys):
    out = tmp_path / "out"
    for method, code in (("fields", 0), ("nope", 1)):
        cfg = write_config(tmp_path / "c.json", run={
            "lambda": 1.5, "n_values": [4, 8, 16], "method": method,
        })
        capsys.readouterr()
        assert main(["sweep-eps", cfg, "--output-dir", str(out)]) == code
    assert json.loads((out / "sweep.json").read_text())["method"] == "fields"
    assert "error: unknown extrapolation method 'nope'" in (
        capsys.readouterr().err
    )


def test_sweep_eps_below_lambda1_is_a_bound_failure(tmp_path, capsys):
    """lambda = lambda1 / 2 is a failed bound (exit 2), not a malformed
    config, and so is a weight with no certified maximum node."""
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    assert main(["eig", cfg, "--output-dir", str(out)]) == 0
    lambda1 = json.loads((out / "eig.json").read_text())["lambda1"]
    cfg = write_config(
        tmp_path / "c.json", run={"lambda": 0.5 * lambda1, "n_values": [4, 8]}
    )
    capsys.readouterr()
    assert main(["sweep-eps", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bound failure: ")
    assert "must exceed the principal eigenvalue" in err
    assert not (out / "sweep.json").exists()
    # Q = 1 + I: no row of Q dominates every other row
    cfg = write_config(
        tmp_path / "c.json", grid={"rule": "trapezoid", "resolution": 129},
        weight={"form": "tabulated", "p": 2.0,
                "matrix": (1.0 + np.eye(129)).tolist()},
        run={"lambda": 1.5, "n_values": [4, 8]},
    )
    assert main(["sweep-eps", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bound failure: ")
    assert "weight has no certified maximum node" in err
    assert not (out / "sweep.json").exists()


def test_sweep_eps_refuses_bad_n_values(tmp_path, capsys):
    """A malformed n_values is a usage error (exit 1) naming n_values:
    not a traceback, not a silently truncated n and not the exit 2 of a
    bound failure."""
    out = tmp_path / "out"
    for bad in ("abc", [4.5, 8], [8, 4], [1, 2]):
        cfg = write_config(
            tmp_path / "c.json",
            weight={"form": "constant", "value": 1.0, "p": 2.0},
            run={"lambda": 1.5, "n_values": bad},
        )
        capsys.readouterr()
        assert main(["sweep-eps", cfg, "--output-dir", str(out)]) == 1, bad
        assert "n_values" in capsys.readouterr().err
        assert not (out / "sweep.json").exists()


def test_sweep_eps_default_n_values_follow_the_ceiling(tmp_path):
    """Without n_values, sweep-eps takes five doublings from the least
    power of two n >= 4 with 1/n at most N/(2p): 4..64 for p = 2, and
    8..128 for p = 3, where 1/4 lies above the ceiling 1/6."""
    for p, resolution, expected in (
        (2.0, 65, [4, 8, 16, 32, 64]), (3.0, 33, [8, 16, 32, 64, 128]),
    ):
        cfg = write_config(
            tmp_path / "c.json",
            grid={"rule": "trapezoid", "resolution": resolution},
            weight={"form": "constant", "value": 1.0, "p": p},
            run={"lambda": 1.5},
        )
        out = tmp_path / f"out{p}"
        assert main(["sweep-eps", cfg, "--output-dir", str(out)]) == 0, p
        data = json.loads((out / "sweep.json").read_text())
        assert data["n_values"] == expected


def test_csv_row_writes_each_value_as_fmt(tmp_path):
    """A written CSV row is the values formatted one by one with `_fmt`,
    byte for byte, and reading it back returns the same bits: signed
    zeros, subnormals and non-finite values included."""
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50),
        rng.uniform(-1.0, 1.0, 50),
        [0.0, -0.0, 1.0, 0.1, np.nan, np.inf, -np.inf, 5e-324],
    ])
    path = tmp_path / "t.csv"
    _write_table(path, ["# k=v"], values)
    row = ",".join(_fmt(v) for v in values)
    assert path.read_text() == f"# k=v\n{row}\n"
    assert row == ",".join(map("{:.17g}".format, values.tolist()))
    meta, columns, table = _read_table(path, header=False)
    assert meta == {"k": "v"} and columns is None
    assert table.shape == (1, values.size)
    assert table[0].tobytes() == values.tobytes()
    _write_table(path, ["a"], np.array([-0.0]))
    assert path.read_text() == "a\n-0\n"
    assert np.signbit(_read_table(path, header=True)[2]).all()


def test_read_table_parses_each_line_once(tmp_path, monkeypatch):
    """`_read_table` parses each data line it reaches with one
    `np.loadtxt` call, and none after the line it refuses: three for a
    good three-row table with a blank line, two when its second row is
    not numbers, and none for a missing file."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    path = tmp_path / "t.csv"
    path.write_text("# k=v\nlambda,sup_norm\n1,2\n\n3,4\n5,6\n")
    assert _read_table(path, header=True)[2].tolist() == [[1, 2], [3, 4],
                                                           [5, 6]]
    assert calls == [["1,2"], ["3,4"], ["5,6"]]
    calls.clear()
    path.write_text("lambda,sup_norm\n1,2\nabc,4\n5,6\n7,8\n")
    with pytest.raises(cli.UsageError, match="t.csv line 3: not a row"):
        _read_table(path, header=True)
    assert calls == [["1,2"], ["abc,4"]]
    calls.clear()
    with pytest.raises(cli.UsageError, match="missing csv file"):
        _read_table(tmp_path / "none.csv", header=True)
    assert calls == []


def test_export_plot_needs_rows(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    out.mkdir()
    (out / "branch.csv").write_text("# seed_lambda1=1.0\nlambda,sup_norm\n")
    assert main(["export-plot", cfg, "--output-dir", str(out)]) == 1


@pytest.mark.parametrize(
    "command, message",
    [("verify", "branch csv has no rows to verify"),
     ("export-plot", "no data rows to plot")],
)
def test_empty_tables_exit_one_without_warning(tmp_path, capsys, command,
                                               message):
    """A branch.csv with only its column line (and a states.csv with only
    its comment) is refused as having no rows; NumPy is never asked to
    read an empty table, so nothing warns."""
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    out.mkdir()
    (out / "branch.csv").write_text("lambda,sup_norm\n")
    (out / "states.csv").write_text("# one row of node values\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, cfg, "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Warning" not in err and "Traceback" not in err


def test_usage_errors_exit_one(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["eig", missing]) == 1

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["eig", str(bad_json)]) == 1

    bad_kernel = write_config(
        tmp_path / "k.json", kernel={"form": "quartic"}
    )
    assert main(["eig", bad_kernel, "--output-dir", str(tmp_path / "o")]) == 1

    no_lambda = write_config(tmp_path / "n.json")
    assert main(["solve", no_lambda, "--output-dir", str(tmp_path / "o")]) == 1


def test_output_dir_comes_from_the_flag_alone(tmp_path, monkeypatch):
    """Without --output-dir the artifacts go to ./out; the environment
    names no output directory."""
    cfg = write_config(tmp_path / "c.json")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DISPERSAL_OUT", str(tmp_path / "env_out"))
    assert main(["eig", cfg]) == 0
    assert (tmp_path / "out" / "eig.json").exists()
    assert not (tmp_path / "env_out").exists()

    flag_dir = tmp_path / "flag_out"
    assert main(["eig", cfg, "--output-dir", str(flag_dir)]) == 0
    assert (flag_dir / "eig.json").exists()


def test_cli_surface_is_the_documented_set():
    """Every subcommand takes the config path, --output-dir and --seed;
    verify and export-plot also take --branch.  No run value has a flag:
    the config is its one source.  The README's CLI section names every
    flag, so a new one changes this test and the README together."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cli = readme[readme.index("## CLI"):readme.index("## Python API")]
    (commands,) = [a.choices for a in _build_parser()._actions
                   if a.dest == "command"]
    assert sorted(commands) == sorted([
        "eig", "check-hyp", "solve", "trace", "sweep-eps", "verify",
        "export-plot",
    ])
    for name, parser in commands.items():
        expected = {"-h", "--help", "--output-dir", "--seed"}
        if name in ("verify", "export-plot"):
            expected.add("--branch")
        actions = parser._actions
        assert [a.dest for a in actions if not a.option_strings] == [
            "config"
        ], name
        assert {s for a in actions for s in a.option_strings} == expected
        assert f"dispersal {name} CONFIG" in cli
    for flag in ("--output-dir", "--seed", "--branch"):
        assert f"`{flag}`" in cli


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.json", run={"lambda_max": 2.0})
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["trace", cfg, "--output-dir", str(out)]) == 0
        assert main(["export-plot", cfg, "--output-dir", str(out)]) == 0
        blobs.append(
            (out / "branch.csv").read_bytes()
            + (out / "states.csv").read_bytes()
            + (out / "branch.svg").read_bytes()
        )
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "section, key",
    [
        (None, "grdi"),
        (None, "output_dir"),
        ("domain", "periodic"),
        ("grid", "resolutoin"),
        ("kernel", "length"),
        ("weight", "valu"),
        ("run", "lambda_maxx"),
    ],
)
def test_unknown_key_exits_one(tmp_path, capsys, section, key):
    """A misspelled key in any section is refused and named; the README's
    old gaussian key ``length`` would otherwise run at the default scale."""
    cfg = json.loads(Path(write_config(
        tmp_path / "c.json", kernel={"form": "gaussian", "length_scale": 1.0}
    )).read_text())
    (cfg if section is None else cfg[section])[key] = 0.05
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    code = main(["eig", str(tmp_path / "c.json"),
                 "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "run",
    [
        {"newton_max_iters": 2.5},
        {"lambda_max": "2.5"},
        {"max_points": 10.5},
        {"max_points": 0},
    ],
)
def test_trace_refuses_mistyped_run_value(tmp_path, capsys, run):
    """A continuation setting of the wrong type or out of range is
    refused before tracing starts, and the message names its key."""
    cfg = write_config(tmp_path / "c.json", run=run)
    capsys.readouterr()
    assert main(["trace", cfg, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    (key,) = run
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [(["eig", "--method", "fields"], "--method"),
     (["trace", "--lambda", "7"], "--lambda"),
     (["eig", "--rule", "midpoint"], "--rule"),
     (["eig", "--resolution", "9"], "--resolution"),
     (["solve", "--lambda", "2"], "--lambda"),
     (["trace", "--lambda-max", "2"], "--lambda-max"),
     (["sweep-eps", "--method", "fields"], "--method"),
     (["check-hyp", "--r", "1"], "--r"),
     (["trace", "--out", "elsewhere"], "--out")],
)
def test_unread_flag_exits_one(tmp_path, capsys, argv, flag):
    """No flag carries a run value, so each of these exits 1 with a usage
    line, before anything is written; no flag is read under an
    abbreviation (`--out` is not --output-dir)."""
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([argv[0], cfg, "--output-dir", str(out)] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dispersal") and flag in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "section",
    [
        {"kernel": {"form": "tabulated", "matrix": [[1.0, 0.5], [0.5]]}},
        {"grid": {"rule": "trapezoid", "resolution": "many"}},
        # refused, not parsed or truncated to 17 or 16
        {"grid": {"rule": "trapezoid", "resolution": "17"}},
        {"grid": {"rule": "trapezoid", "resolution": 16.9}},
    ],
)
def test_malformed_section_exits_one(tmp_path, capsys, section):
    cfg = write_config(tmp_path / "c.json", **section)
    capsys.readouterr()
    assert main(["eig", cfg, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "malformed" in err and "Traceback" not in err


def test_readme_example_config_runs(tmp_path):
    """The README's example configuration is accepted as written."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    cli = readme[readme.index("## CLI"):]
    example = cli[cli.index("```json") + len("```json"):]
    (tmp_path / "c.json").write_text(example[:example.index("```")])
    assert main(["eig", str(tmp_path / "c.json"),
                 "--output-dir", str(tmp_path / "out")]) == 0


def test_readme_python_api_block_runs(capsys):
    """The README's Python API block runs as written: it certifies the
    hypotheses on the built operator, then prints each branch point."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    api = readme[readme.index("## Python API"):]
    block = api[api.index("```python") + len("```python"):]
    exec(block[:block.index("```")], {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "True True 1.0"
    assert float(lines[-1].split()[0]) == 2.5


def _traced_17(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        grid={"rule": "trapezoid", "resolution": 17},
        run={"lambda_max": 2.0},
    )
    out = tmp_path / "out"
    assert main(["trace", cfg, "--output-dir", str(out)]) == 0
    return cfg, out


def _header_index(lines):
    return next(i for i, s in enumerate(lines) if not s.startswith("#"))


# Each edit damages a table in place and returns the file line (from 1)
# that the error must name, or None when no single line is at fault.

def _row_abc(lines, row=0):
    i = _header_index(lines) + 1 + row
    lines[i] = "abc" + lines[i][lines[i].index(","):]
    return i + 1


def _second_row_abc(lines):
    return _row_abc(lines, row=1)


def _all_rows_short(lines):
    start = _header_index(lines) + 1
    lines[start:] = [s.rsplit(",", 1)[0] for s in lines[start:]]
    return start + 1


def _no_sup_norm(lines):
    i = _header_index(lines)
    lines[i] = lines[i].replace("sup_norm", "sup")


def _no_header(lines):
    del lines[_header_index(lines)]


def _seed_abc(lines):
    i = next(i for i, s in enumerate(lines) if s.startswith("# seed_lambda1"))
    lines[i] = "# seed_lambda1=abc"


def _short_state(lines, i=-1):
    i %= len(lines)
    lines[i] = lines[i].rsplit(",", 1)[0]
    return i + 1


def _second_state_short(lines):
    return _short_state(lines, _header_index(lines) + 1)


def _all_states_short(lines):
    lines[:] = [s if s.startswith("#") else s.rsplit(",", 1)[0]
                for s in lines]


def _state_abc(lines):
    cells = lines[-1].split(",")
    cells[3] = "abc"
    lines[-1] = ",".join(cells)
    return len(lines)


def _last_cell_comment(lines):
    # NumPy's default comment handling would cut " # x" off the last
    # cell and read the row as valid
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1.0 # x"
    return len(lines)


def _last_cell_underscore(lines):
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1_0"
    return len(lines)


@pytest.mark.parametrize(
    "command, name, edit",
    [
        ("verify", "branch.csv", _row_abc),
        ("verify", "branch.csv", _second_row_abc),
        ("verify", "branch.csv", _all_rows_short),
        ("verify", "states.csv", _short_state),
        ("verify", "states.csv", _second_state_short),
        ("verify", "states.csv", _all_states_short),
        ("verify", "states.csv", _state_abc),
        ("verify", "states.csv", _last_cell_comment),
        ("verify", "branch.csv", _last_cell_comment),
        ("verify", "branch.csv", _last_cell_underscore),
        ("export-plot", "branch.csv", _no_sup_norm),
        ("export-plot", "branch.csv", _no_header),
        ("export-plot", "branch.csv", _seed_abc),
    ],
)
def test_bad_branch_csv_exits_one(tmp_path, capsys, command, name, edit):
    """A damaged branch.csv or states.csv is refused with a message that
    names the file and, where one line is at fault, its file line."""
    cfg, out = _traced_17(tmp_path)
    lines = (out / name).read_text().splitlines()
    line = edit(lines)
    (out / name).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, cfg, "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    if line is not None:
        assert f"{name} line {line}:" in err, err


@pytest.mark.parametrize("table, line", [
    pytest.param("# seed_lambda1=1.0\nlambda,sup_norm\n342,nan\n599,nan\n",
                 3, id="sup_norm-nan"),
    pytest.param("# seed_lambda1=1.0\nlambda,sup_norm\n1.5,0.1\ninf,0.2\n",
                 4, id="lambda-inf"),
    pytest.param("# seed_lambda1=nan\nlambda,sup_norm\n1.5,0.1\n2,0.2\n",
                 1, id="seed_lambda1-nan"),
    pytest.param("# seed_lambda1=-inf\nlambda,sup_norm\n1.5,0.1\n2,nan\n",
                 1, id="first-line-named"),
    pytest.param("# seed_lambda1=1.0\nlambda,sup_norm\n1.5,0.1\ninf,0.2\n"
                 "2,0.3\nabc,0.4\n", 4, id="before-a-later-parse-error"),
])
def test_export_plot_refuses_non_finite_values(tmp_path, capsys, table, line):
    """A non-finite lambda, sup_norm or seed_lambda1 would be drawn as a
    NaN coordinate: export-plot exits 1 with an error line that names the
    file and its first such line, and writes no plot.  The first faulty
    line in file order is named, even when a later line is not numbers."""
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "out"
    out.mkdir()
    (out / "branch.csv").write_text(table)
    capsys.readouterr()
    assert main(["export-plot", cfg, "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"branch.csv line {line}:" in err and "not a finite number" in err
    assert not (out / "branch.svg").exists()


def test_memory_error_exits_one(tmp_path, capsys, monkeypatch):
    """A grid too large for memory exits 1 with an error line, not
    NumPy's traceback.  `build_grid` raises NumPy's message instead of
    allocating, so the test never asks for the memory."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array with "
                          "shape (40000000000,) and data type float64")

    monkeypatch.setattr(cli, "build_grid", no_memory)
    cfg = write_config(
        tmp_path / "c.json",
        domain={"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        grid={"rule": "trapezoid", "resolution": 200000},
    )
    capsys.readouterr()
    assert main(["eig", cfg, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err
    assert "Traceback" not in err


def test_verify_reads_nan_state(tmp_path, capsys):
    """states.csv has no header line: a first row starting with nan is a
    state, and verify reports it as a residual violation."""
    cfg, out = _traced_17(tmp_path)
    states = out / "states.csv"
    lines = states.read_text().splitlines()
    i = _header_index(lines)
    lines[i] = "nan" + lines[i][lines[i].index(","):]
    states.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", cfg, "--output-dir", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    reports = json.loads((out / "verify.json").read_text())
    assert "residual" in {r["name"] for r in reports if not r["holds"]}


@pytest.mark.parametrize("grid, named", [
    pytest.param({"rule": "trapezoid", "resolution": 0},
                 "resolution must be at least 2", id="resolution-0"),
    pytest.param({"rule": "", "resolution": 9}, "unknown rule ''",
                 id="rule-empty"),
    pytest.param({"rule": "gauss", "resolution": 9}, "unknown rule 'gauss'",
                 id="rule-gauss"),
    pytest.param({"rule": "gauss-legendre", "resolution": 9},
                 "unknown rule 'gauss-legendre'", id="rule-gauss-legendre"),
])
def test_grid_section_refuses_bad_values(tmp_path, capsys, grid, named):
    """A falsy resolution or rule is refused, not replaced by a default,
    and a rule is spelled as in RULES: the error line names the value."""
    cfg = write_config(tmp_path / "c.json", grid=grid)
    capsys.readouterr()
    assert main(["eig", cfg, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "grid section" in err and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, section, value, named",
    [
        ("check-hyp", "run", {"r": "abc"}, "'r'"),
        ("check-hyp", "run", {"r": [1]}, "'r'"),
        ("check-hyp", "run", {"delta": "abc"}, "'delta'"),
        ("check-hyp", "run", {"delta": [1]}, "'delta'"),
        ("check-hyp", "run", {"r": True}, "'r'"),
        ("solve", "run", {"lambda": "abc"}, "'lambda'"),
        ("sweep-eps", "run", {"lambda": "abc"}, "'lambda'"),
        ("trace", "kernel", {"form": "constant", "value": True}, "'value'"),
        ("trace", "kernel", {"form": "gaussian", "length_scale": True},
         "'length_scale'"),
        ("trace", "weight", {"form": "constant", "value": 1.0, "p": True},
         "'p'"),
        ("trace", "run", False, "'run'"),
        ("eig", "grid", 0, "'grid'"),
        ("eig", "domain", {"lower": [0.0], "upper": [float("inf")]},
         "holds Infinity"),
        ("trace", "kernel", {"form": "constant", "value": float("nan")},
         "holds NaN"),
        ("trace", "kernel", {"form": "gaussian", "length_scale": float("nan")},
         "holds NaN"),
        ("trace", "weight", {"form": "constant", "value": 1.0,
                             "p": float("nan")}, "holds NaN"),
        ("check-hyp", "run", {"r": -float("inf")}, "holds -Infinity"),
    ],
)
def test_mistyped_config_value_exits_one(tmp_path, capsys, command, section,
                                         value, named):
    """A run number that is not a number, a JSON boolean anywhere in a
    section and a section that is not an object are refused with an
    error line that names the key, never read as 1.0 or taken for an
    empty section.  A NaN or infinite JSON constant is refused as the
    config is read, with an error line that names the constant."""
    cfg = write_config(tmp_path / "c.json", **{section: value})
    capsys.readouterr()
    assert main([command, cfg, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, value, named", [
    pytest.param("kernel", {"form": "rank_one", "coeffs": [1e200]},
                 "overflow", id="kernel-rank-one-overflow"),
    pytest.param("kernel", {"form": "rank_one", "coeffs": [-1.0, 2.0]},
                 "negative", id="kernel-rank-one-sign"),
    pytest.param("weight", {"form": "separable", "g": [1e200],
                            "h": [1e200], "p": 1.0},
                 "overflow", id="weight-separable-overflow"),
    pytest.param("weight", {"form": "tabulated", "p": 1.0,
                            "matrix": [[1.0, -0.5, 1.0]] * 3},
                 "negative", id="weight-tabulated-negative"),
])
def test_invalid_kernel_or_weight_exits_one(tmp_path, capsys, section, value,
                                            named):
    """A K whose entries overflow or change sign, and a Q whose entries
    overflow or go negative, exit 1 with an error line that names the
    fault."""
    cfg = write_config(tmp_path / "c.json", grid={
        "rule": "trapezoid", "resolution": 3,
    }, **{section: value})
    capsys.readouterr()
    assert main(["check-hyp", cfg, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


def test_failed_seed_names_its_cause(tmp_path, capsys, monkeypatch):
    """A seed that Newton cannot correct, or corrects onto the trivial
    state or onto a state that is not positive, ends the trace with an
    error that names the cause, in the library and on the CLI's stderr."""
    def failing(op, rx, lam, u0, cfg, border=None):
        raise StepFailure("Newton X")

    def collapsed(op, rx, lam, u0, cfg, border=None):
        return continuation._branch_point(op, rx, lam, 0.0 * u0, 1)

    def negative(op, rx, lam, u0, cfg, border=None):
        return continuation._branch_point(op, rx, lam, -u0, 1)

    op = assemble(KernelSpec.constant(1.0), build_grid(
        Domain((0.0,), (1.0,)), "trapezoid", 17
    ))
    cfg = write_config(tmp_path / "c.json", run={"lambda_max": 2.0})
    for newton, cause in (
        (failing, "Newton X"),
        (collapsed, "Newton collapsed toward the trivial state"),
        (negative, "Newton converged to min u = "),
    ):
        monkeypatch.setattr(continuation, "_newton", newton)
        with pytest.raises(ContinuationError) as err:
            trace_branch(op, WeightSpec.constant(1.0, p=2.0),
                         principal_eigenpair(op), ContinuationConfig())
        for part in ("failed to leave the trivial solution", cause):
            assert part in str(err.value)
        capsys.readouterr()
        assert main(["trace", cfg, "--output-dir",
                     str(tmp_path / "out")]) == 1
        stderr = capsys.readouterr().err
        assert "failed to leave the trivial solution" in stderr
        assert cause in stderr


def test_trace_stops_where_it_leaves_the_admissible_set(tmp_path,
                                                         monkeypatch):
    """A corrected point with max Phi_u / lambda >= 1 has left the
    admissible set: the trace stops there and keeps the points before
    it, and the CLI's trace.json names the reason with exit 0."""
    newton = continuation._newton
    steps = []

    def leaving(op, rx, lam, u0, cfg, border=None):
        pt = newton(op, rx, lam, u0, cfg, border)
        if border is None:
            return pt
        steps.append(lam)
        return pt if len(steps) < 3 else replace(pt, gamma_phi_sup=1.0)

    monkeypatch.setattr(continuation, "_newton", leaving)
    op = assemble(KernelSpec.constant(1.0), build_grid(
        Domain((0.0,), (1.0,)), "trapezoid", 17
    ))
    branch = trace_branch(op, WeightSpec.constant(1.0, p=1.0),
                          principal_eigenpair(op),
                          ContinuationConfig(lambda_max=2.0))
    assert branch.termination == "left_admissible_set"
    assert len(branch.points) == 3 and len(steps) == 3
    assert all(pt.gamma_phi_sup < 1.0 for pt in branch.points)
    steps.clear()
    cfg = write_config(tmp_path / "c.json", run={"lambda_max": 2.0})
    out = tmp_path / "out"
    assert main(["trace", cfg, "--output-dir", str(out)]) == 0
    meta = json.loads((out / "trace.json").read_text())
    assert meta["termination"] == "left_admissible_set"
    assert meta["points"] == 3
