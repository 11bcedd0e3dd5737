"""The benchmark's workloads run and pass their gates.

Each workload of `perfbench/workloads.py` goes through the steps one
benchmark run takes, at the pinned seed 0, in this process and under a
temporary directory: inputs, the timed calls, the record and the gate.
A change to what the benchmark calls in the package fails here rather
than in the benchmark alone.  Nothing is timed.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("trace-1d", "trace-2d", "regularized-limit")


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_and_passes_its_gate(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert workloads.NAMES == WORKLOADS
    p = workloads.params(name, 0)
    ref = workloads.problem(p)
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    workloads.prepare(p, ref, inputs)
    out.mkdir()
    child = workloads.record(p, workloads.run(p, inputs, out), out)
    counts = workloads.check(p, ref, out, child)
    assert counts["points"] >= 2 and counts["newton_iters"] > 0
