"""What importing and running the package loads.

Import time is most of a short CLI run, so the package imports NumPy and
nothing heavier: no path of the package, nor the spectral oracle of the
tests, loads SciPy, and `numpy.random` and `numpy.polynomial`, which the
solver does not use, stay unloaded; no package module names
`numpy.random` at all.  The NumPy submodule the solver needs
(`numpy.fft`) loads with the package, not lazily inside a timed solve.
The last tests pin where the structured matrix forms and the
eigensolver are used, and that no function materializes K or Q.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import dispersal

SRC = str(Path(dispersal.__file__).resolve().parents[1])
ROOT = str(Path(__file__).resolve().parents[1])


def _run(code: str, tmp_path, *paths: str) -> dict:
    """Run ``code`` in a fresh interpreter that sees the package, and the
    further import ``paths``; return its last output line as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, *paths)))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy_and_no_numpy_random(tmp_path):
    loaded = _run(
        """
        import json, sys
        import dispersal, dispersal.cli
        print(json.dumps(sorted(sys.modules)))
        """,
        tmp_path,
    )
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert [m for m in loaded if m.startswith("numpy.random")] == []
    # polynomials are evaluated by `model._polyval`
    assert [m for m in loaded if m.startswith("numpy.polynomial")] == []


def test_cli_runs_load_no_further_numpy_module(tmp_path):
    """`eig`, `check-hyp`, `trace`, `verify` and `sweep-eps` (the
    regularized family, at about 1.23 lambda1) on a 1-D gaussian (the FFT
    form of S) with a dip weight (a polynomial profile) import no NumPy
    or SciPy module that the package import did not."""
    config = {
        "domain": {"lower": [0.0], "upper": [1.0]},
        "grid": {"rule": "trapezoid", "resolution": 33},
        "kernel": {"form": "gaussian", "length_scale": 0.5},
        "weight": {"form": "polynomial_dip", "points": [0.5],
                   "exponents": [0.4], "level": 3.0, "p": 2.0},
        "run": {"lambda_max": 1.5, "lambda": 0.8},
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    result = _run(
        """
        import contextlib, io, json, sys
        from dispersal import cli
        before = set(sys.modules)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd in (
                ["eig"], ["check-hyp"], ["trace"], ["verify"],
                ["sweep-eps"],
            ):
                codes.append(
                    cli.main([*cmd, "c.json", "--output-dir", "out"])
                )
        added = sorted(
            m for m in set(sys.modules) - before
            if m.split(".")[0] in ("numpy", "scipy")
        )
        print(json.dumps({"codes": codes, "added": added}))
        """,
        tmp_path,
    )
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["added"] == []


def test_spectral_oracle_loads_no_scipy(tmp_path):
    """The tests' `oracle_spectral` finds its eigenpairs and its amplitude
    root with the package's own Lanczos and its own Brent iteration."""
    result = _run(
        """
        import json, sys
        from dispersal import (
            Domain, KernelSpec, WeightSpec, assemble, build_grid,
            principal_eigenpair,
        )
        from tests.oracles import oracle_spectral
        grid = build_grid(Domain((0.0,), (1.0,)), "trapezoid", 33)
        op = assemble(KernelSpec.gaussian(1.0), grid)
        lam = 1.5 * principal_eigenpair(op).lambda1
        res = oracle_spectral(op, WeightSpec.constant(1.0, p=2.0), lam)
        scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps({"status": res.status, "scipy": scipy}))
        """,
        tmp_path,
        ROOT,
    )
    assert result == {"status": "converged", "scipy": []}


def _names_numpy_random(node) -> bool:
    """Whether a node is `np.random`, `numpy.random` or an import of it."""
    if isinstance(node, ast.Attribute):
        return (
            node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.random") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or (
            module == "numpy" and any(a.name == "random" for a in node.names)
        )
    return False


def test_no_module_names_numpy_random():
    """No `src/dispersal` module names `np.random` or `numpy.random`: the
    solver is deterministic, and random starts belong to the tests."""
    offenders = {
        f"{path.name}:{node.lineno}"
        for path in Path(dispersal.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if _names_numpy_random(node)
    }
    assert offenders == set()


def _public() -> set:
    """The names `dispersal` exports: no module, nothing private."""
    return {
        name for name, value in vars(dispersal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_package_exports_every_module_all():
    """`dispersal` exports exactly the union of its library modules'
    `__all__` (every module but the `cli` command), so a name listed in
    a module is reachable from the package and the reverse."""
    listed = set()
    for info in pkgutil.iter_modules(dispersal.__path__):
        if info.name != "cli":
            module = importlib.import_module(f"dispersal.{info.name}")
            listed.update(module.__all__)
    assert _public() == listed


# the public API, pinned: an added or removed export shows in this diff
API = (
    "BoundReport", "Branch", "BranchPoint", "ContinuationConfig",
    "ContinuationError", "DiscreteOperator", "Domain",
    "EXTRAPOLATION_METHODS", "FloorReport", "GeometryError",
    "HypothesisReport", "JacobianAction", "KernelSpec", "Kron", "LowRank",
    "ModelError", "OperatorError", "PrincipalEigenpair", "QuadratureGrid",
    "RULES", "Reaction", "ReactionError", "RegularizedError",
    "RegularizedRun", "StepFailure", "Toeplitz", "WeightSpec", "assemble",
    "build_a_eps", "build_grid", "build_q_eps", "certify", "cover",
    "eps_ceiling", "limit_procedure", "near_center_mass_bound",
    "newton_correct", "phi", "principal_eigenpair", "reaction", "residual",
    "solve_at_lambda", "theta_margin", "trace_branch", "verify_branch",
)


def test_public_api_is_pinned():
    """`dispersal` exports the 45 names of `API`, listed in sorted order."""
    assert API == tuple(sorted(API)) and len(API) == 45
    assert _public() == set(API)


FORMS = {"LowRank", "Kron", "Toeplitz"}


def _names(node) -> set:
    """The bare and dotted names a node mentions."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_forms_and_lanczos_stay_in_their_modules():
    """Only `model` builds a `LowRank`, `Kron` or `Toeplitz` or tests for
    one, so every other module applies K and Q as `model` returns them;
    only `operator` runs the Lanczos solver and its start vector."""
    users = {"forms": set(), "lanczos": set()}
    for path in Path(dispersal.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            called = _names(node.func)
            if called & FORMS or (
                "isinstance" in called
                and len(node.args) == 2
                and _names(node.args[1]) & FORMS
            ):
                users["forms"].add(path.name)
            if called & {"_lanczos", "_weyl"}:
                users["lanczos"].add(path.name)
    assert users == {"forms": {"model.py"}, "lanczos": {"operator.py"}}


def test_only_continuation_builds_a_jacobian():
    """Only `continuation` constructs a `JacobianAction`, inside its
    Newton corrector, which turns the `ReactionError` of a refused state
    into a StepFailure; so no other module meets that error."""
    users = set()
    for path in Path(dispersal.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "JacobianAction" in _names(
                node.func
            ):
                users.add(path.name)
    assert users == {"continuation.py"}


def _callers(name: str) -> set:
    """The (module, top-level function) pairs that call ``name``."""
    found = set()
    for path in Path(dispersal.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in _names(node.func):
                    found.add((path.name, getattr(top, "name", None)))
    return found


def test_k_and_q_each_have_one_builder():
    """K is built only by `assemble`, so every reader of K takes the
    built operator; Q is built only by `reaction` and by `certify`, the
    one entry point that takes a weight spec and no reaction."""
    assert _callers("_kernel") == {("operator.py", "assemble")}
    assert _callers("_weight") == {
        ("logistic.py", "reaction"), ("model.py", "certify"),
    }


FORM_CALLS = {"_kernel", "_weight"}
# the attributes that hold a `_kernel` or `_weight` result:
# DiscreteOperator.k and Reaction.q
HELD = {"k", "q"}
# numpy's conversion hook of a structured form materializes by definition
EXEMPT = {"__array__"}
# the numpy calls that materialize a structured form
CONVERT = {"array", "asarray"}


def _is_structure(node, held: set) -> bool:
    """Whether an expression is a `_kernel`/`_weight` call, a name bound
    to one, or an attribute that holds one."""
    if isinstance(node, ast.Call):
        return bool(_names(node.func) & FORM_CALLS)
    if isinstance(node, ast.Name):
        return node.id in held
    return isinstance(node, ast.Attribute) and node.attr in HELD


def test_no_function_materializes_k_or_q():
    """No `src/` function calls `np.array` or `np.asarray` on K or Q as
    `_kernel` and `_weight` return them, so every certificate and solver
    path reads the structure."""
    offenders = set()
    for path in Path(dispersal.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name in EXEMPT:
                continue
            held = {
                target.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign)
                and _is_structure(node.value, set())
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    _names(node.func) & CONVERT
                    and node.args
                    and _is_structure(node.args[0], held)
                ):
                    offenders.add(f"{path.name}:{fn.name}")
    assert offenders == set()
