"""Benchmark of the `dispersal` solver: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of the workload is one fresh child interpreter (perfbench/child.py)
started after the previous one ended: a closed loop with one client.
Children run with PYTHONPATH=src, so the program is used straight from
source.  Every run is gated on its outputs (workloads.check); a run that
raises, exits non-zero or fails the gate counts as failed.

--trace 0 reports the end-to-end metrics, medians over the runs made in
--seconds:
  setup_s      time in a fresh interpreter until `import dispersal` returns
  solve_s      time of the workload's calls after set-up
  peak_rss_mb  peak resident memory of the child process
The failure share is failed / attempted in the result line.

--trace 1 wraps each layer's public functions (tracing.py) and reports the
per-layer metrics at the workload's size, the tracing overhead (traced
minus untraced solve_s), and the fitted n-exponent of solve_s and of
each layer's self time over the ladder 1-D n = 129/257/513 and 2-D
17^2/25^2/33^2.  Call counts, Newton iterations, points, bytes and flops
must repeat exactly between runs; if they do not, the benchmark exits 1.

The last stdout line is the JSON result; the full record, with the
environment, goes to .bench_work/results/.
"""

import os

# One BLAS/OpenMP thread in this process and every child, on every commit.
THREAD_ENV = {
    key: "1"
    for key in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4          # import-only children per run, besides the workload's
MIN_RUNS = 3              # untraced runs per --trace 0 run, whatever --seconds is
MIN_TRACED = 2            # traced runs at full size, for the exact-count check
RUN_BUDGET_S = 150        # start no child expected to end after this
RUN_LIMIT_S = 170         # kill a child still running then; a run ends within 180 s


class Fatal(Exception):
    pass


def environment(root: Path) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"  # a checkout without .git, or git missing
    if (root / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            )
            commit = git.stdout.strip() if git.returncode == 0 else commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "dispersal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": THREAD_ENV,
    }


class Runner:
    """Starts children one after another and gates each result."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root, self.work = root, work
        self.workload, self.seed = workload, seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.started = perf_counter()
        self.count = 0
        self.cases = {}     # resolution -> (params, reference problem, inputs)
        self.failures = []

    def case(self, resolution: int):
        if resolution not in self.cases:
            p = dict(workloads.params(self.workload, self.seed),
                     resolution=resolution)
            ref = workloads.problem(p)
            inputs = self.work / f"inputs-{resolution}"
            workloads.prepare(p, ref, inputs)
            self.cases[resolution] = (p, ref, inputs)
        return self.cases[resolution]

    def another(self, deadline: float, runs: list) -> bool:
        """Whether one more run like `runs` is expected to end in time."""
        typical = median([r["wall_s"] for r in runs]) if runs else 0.0
        return (perf_counter() + typical <= deadline
                and perf_counter() - self.started + typical < RUN_BUDGET_S)

    def child(self, resolution=None, trace=False) -> dict:
        """One child run; gated when it runs the workload."""
        self.count += 1
        out = self.work / f"run-{self.count}"
        spec = {"out": str(out), "trace": trace, "params": None}
        if resolution is not None:
            p, ref, inputs = self.case(resolution)
            spec.update(params=p, inputs=str(inputs))
        spec_path = self.work / f"spec-{self.count}.json"
        spec_path.write_text(json.dumps(spec))
        start = perf_counter()
        timeout = max(1.0, RUN_LIMIT_S - (start - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return self._failed(out, f"timed out after {timeout:.0f} s",
                                {"wall_s": perf_counter() - start})
        wall = {"wall_s": perf_counter() - start}
        if proc.returncode != 0:
            why = f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            if resolution is None:  # the package does not even import
                raise Fatal(why)
            return self._failed(out, why, wall)
        result = dict(json.loads((out / "child.json").read_text()), **wall)
        if resolution is not None:
            if "error" in result:
                return self._failed(out, result["error"], result)
            try:
                result["counts"] = workloads.check(p, ref, out, result)
            except (workloads.GateFailure, OSError, KeyError, ValueError) as exc:
                return self._failed(out, f"gate: {exc!r}", result)
        result["ok"] = True
        shutil.rmtree(out)
        return result

    def _failed(self, out: Path, why: str, result=None) -> dict:
        self.failures.append(why)
        shutil.rmtree(out, ignore_errors=True)
        return dict(result or {}, ok=False)


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """Highest percentile with at least 10 samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def same_counts(runs, what: str) -> dict:
    first = runs[0]["counts"]
    for r in runs[1:]:
        if r["counts"] != first:
            raise Fatal(f"exact-count check failed for {what}: "
                        f"{first} != {r['counts']}")
    return first


def measure(runner: Runner, seconds: int) -> tuple[dict, dict]:
    """--trace 0: untraced runs at full size for `seconds`."""
    full = workloads.LADDER[workloads.params(runner.workload, 0)["dim"]][-1]
    runner.case(full)  # reference and inputs, before the clock starts
    runner.child()  # warm-up: byte-compiles the package, fills the page cache
    probes = [runner.child()["setup_s"] for _ in range(SETUP_PROBES)]
    runs = []
    deadline = perf_counter() + seconds
    while len(runs) < MIN_RUNS or runner.another(deadline, runs):
        runs.append(runner.child(full))
    good = [r for r in runs if r["ok"]]
    counts = same_counts(good, "untraced runs") if good else None
    solve = [r["solve_s"] for r in good]
    metrics = {
        "solve_s": {"value": median(solve) if solve else float("nan"),
                    "unit": "s"},
        "setup_s": {"value": median(probes + [r["setup_s"] for r in runs
                                               if "setup_s" in r]),
                    "unit": "s"},
        "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in good])
                        if good else float("nan"), "unit": "MB"},
    }
    extra = {"solve_s_samples": solve, "solve_s_tail": tail(solve),
             "setup_s_probes": probes, "counts": counts,
             "attempted": len(runs), "failed": len(runs) - len(good)}
    return metrics, extra


def exponent(ns, times) -> float:
    """Least-squares slope of log(time) over log(n); 0 if any time <= 0."""
    if min(times) <= 0:
        return 0.0
    return float(np.polyfit(np.log(ns), np.log(times), 1)[0])


def layer_metrics(summary: dict, counts: dict, n: int, child: dict) -> dict:
    calls, incl = summary["calls"], summary["inclusive_s"]
    own = summary["layer_self_s"]
    jac = calls.get("logistic.jacobian", 0)
    matrices = calls.get("model.kernel_matrix", 0) + calls.get(
        "model.weight_matrix", 0)
    limits = {m: info["limit_residual"]
              for m, info in child.get("regularized", {}).items()}
    return {
        "geometry.self_s": own["geometry"],
        "model.kernel_matrix_s": incl.get("model.kernel_matrix", 0.0),
        "model.kernel_matrix_calls": calls.get("model.kernel_matrix", 0),
        "model.weight_matrix_s": incl.get("model.weight_matrix", 0.0),
        "model.weight_matrix_calls": calls.get("model.weight_matrix", 0),
        "model.certify_s": incl.get("model.certify", 0.0),
        "model.bytes_materialized": matrices * n * n * 8,
        "operator.assemble_s": incl.get("operator.assemble", 0.0),
        "operator.eigenpair_s": incl.get("operator.principal_eigenpair", 0.0),
        "logistic.phi_s": incl.get("logistic.phi", 0.0),
        "logistic.phi_calls": calls.get("logistic.phi", 0),
        "logistic.residual_s": incl.get("logistic.residual", 0.0),
        "logistic.residual_calls": calls.get("logistic.residual", 0),
        "logistic.jacobian_s": incl.get("logistic.jacobian", 0.0),
        "logistic.jacobian_calls": jac,
        "continuation.self_s": own["continuation"],
        "continuation.points": counts["points"],
        "continuation.newton_iters": counts["newton_iters"],
        "continuation.useful_iter_ratio":
            counts["newton_iters"] / jac if jac else 0.0,
        "continuation.solve_flops": jac * 2.0 / 3.0 * (n + 1) ** 3,
        "regularized.self_s": own["regularized"],
        "regularized.newton_iters_max":
            counts["newton_iters_max"] if limits else 0,
        "regularized.limit_residual.richardson": limits.get("richardson", 0.0),
        "regularized.limit_residual.fields": limits.get("fields", 0.0),
        "verification.verify_branch_s":
            incl.get("verification.verify_branch", 0.0),
        "verification.self_s": own["verification"],
        "cli.self_s": own["cli"],
    }


def traced(runner: Runner, seconds: int) -> tuple[dict, dict]:
    """--trace 1: per-layer metrics, overhead and the scaling ladder."""
    dim = workloads.params(runner.workload, 0)["dim"]
    ladder = workloads.LADDER[dim]
    full = ladder[-1]
    runner.case(full)
    runner.child()  # warm-up
    ladder_runs = {res: runner.child(res, trace=True) for res in ladder[:-1]}
    rungs = {res: r for res, r in ladder_runs.items() if r["ok"]}
    deadline = perf_counter() + seconds
    tr, plain = [], []
    while len(tr) < MIN_TRACED or not plain or runner.another(deadline, tr):
        if len(plain) < len(tr) / 2:
            plain.append(runner.child(full))
        else:
            tr.append(runner.child(full, trace=True))
    every = list(ladder_runs.values()) + tr + plain
    attempted = len(every)
    failed = sum(not r["ok"] for r in every)
    tr_ok = [r for r in tr if r["ok"]]
    plain_ok = [r for r in plain if r["ok"]]
    if not tr_ok:
        return {}, {"attempted": attempted, "failed": failed}
    n = runner.case(full)[1].n
    summaries = [tracing.summarize(r["spans"]) for r in tr_ok]
    per_run = []
    for r, summary in zip(tr_ok, summaries):
        r["counts"] = dict(r["counts"], calls=summary["calls"])
        per_run.append(layer_metrics(summary, r["counts"], n, r))
    same_counts(tr_ok, "traced runs")
    metrics = {}
    for name in per_run[0]:
        vals = [m[name] for m in per_run]
        timed = name.endswith("_s")
        if not timed and len(set(vals)) != 1:
            raise Fatal(f"exact-count check failed for {name}: {vals}")
        metrics[name] = median(vals) if timed else vals[0]
    solve_traced = median([r["solve_s"] for r in tr_ok])
    metrics["traced.solve_s"] = solve_traced
    metrics["traced.overhead_s"] = (
        solve_traced - median([r["solve_s"] for r in plain_ok])
        if plain_ok else float("nan")
    )
    # scaling ladder: smaller rungs run once, the full size is the median
    sizes = sorted(rungs) + [full]
    ns = [runner.case(res)[1].n for res in sizes]
    rung_summaries = [tracing.summarize(rungs[res]["spans"])
                      for res in sorted(rungs)]
    full_self = {layer: median([s["layer_self_s"][layer] for s in summaries])
                 for layer in tracing.LAYERS}
    if len(sizes) == len(ladder):
        metrics["scaling.solve_s.exponent"] = exponent(
            ns, [rungs[res]["solve_s"] for res in sorted(rungs)] + [solve_traced])
        for layer in tracing.LAYERS:
            metrics[f"scaling.{layer}.self_s.exponent"] = exponent(
                ns, [s["layer_self_s"][layer] for s in rung_summaries]
                + [full_self[layer]])
    share = (metrics["continuation.self_s"] + metrics["logistic.jacobian_s"]
             + metrics["logistic.phi_s"]) / solve_traced
    extra = {"attempted": attempted, "failed": failed,
             "solve_s_untraced": [r["solve_s"] for r in plain_ok],
             "solve_s_traced": [r["solve_s"] for r in tr_ok],
             "continuation_jacobian_phi_share": share,
             "ladder_n": ns}
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dispersal" / "__init__.py").is_file():
        print("error: no src/dispersal here; run from a checkout's root",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".bench_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(root)
    runner = Runner(root, work, args.workload, args.seed)
    try:
        if args.trace:
            values, extra = traced(runner, args.seconds)
            units = {m["name"]: m["unit"] for m in json.loads(
                (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in values.items()}
        else:
            metrics, extra = measure(runner, args.seconds)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "params": workloads.params(args.workload, args.seed),
        "environment": env, "metrics": metrics, "failures": runner.failures,
        **extra,
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"environment: {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if extra.get("solve_s_tail"):
        t = extra["solve_s_tail"]
        print(f"solve_s p{t['percentile']:.0f} = {t['value']!r} s")
    print(f"runs = {extra['attempted']}, fail_share = "
          f"{extra['failed'] / max(1, extra['attempted'])!r}")
    for why in runner.failures:
        print(f"failed run: {why.strip().splitlines()[-1]}")
    print(json.dumps({
        "correct": extra["failed"] == 0 and bool(metrics),
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
