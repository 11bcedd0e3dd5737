"""The benchmark's workloads run and pass their gates.

Each workload of `perfbench/workloads.py` goes through the steps one
benchmark run takes, at seeds 0-7, in this process and under a temporary
directory: inputs, the timed calls, the record and the gate.  A nonzero
seed jitters the workload's parameters, and the benchmark is run at
such seeds too, so a change to what it calls in the package fails here,
at any of those seeds, rather than in the benchmark alone.  Nothing is
timed.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("trace-1d", "trace-2d", "regularized-limit")


# seed 0 is the benchmark's pinned run and keeps the workload's name
CASES = [
    pytest.param(name, seed, id=name if seed == 0 else f"{name}-seed{seed}")
    for name in WORKLOADS
    for seed in range(8)
]


@pytest.mark.parametrize("name, seed", CASES)
def test_workload_runs_and_passes_its_gate(tmp_path, monkeypatch, name, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert workloads.NAMES == WORKLOADS
    p = workloads.params(name, seed)
    ref = workloads.problem(p)
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    workloads.prepare(p, ref, inputs)
    out.mkdir()
    child = workloads.record(p, workloads.run(p, inputs, out), out)
    counts = workloads.check(p, ref, out, child)
    assert counts["points"] >= 2 and counts["newton_iters"] > 0
    if name == "regularized-limit":
        # half the cap of 25: the family's slowest solve took 23 when the
        # damping tested the sup residual alone
        assert counts["newton_iters_max"] <= 12
