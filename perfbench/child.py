"""One benchmark run in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the workload parameters, the input and output directories and
whether to trace.  The first thing this process does is import
`dispersal`, which is what `setup_s` measures.  A spec without a
workload stops there.  The result goes to `child.json` in the output
directory.  A workload that raises is reported there as an error; a
failed import exits non-zero, which the benchmark treats as fatal.
"""

from time import perf_counter

T0 = perf_counter()
import dispersal  # noqa: E402,F401

SETUP_S = perf_counter() - T0

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    result = {"setup_s": SETUP_S}
    if spec["params"] is not None:
        import tracing
        import workloads

        p = spec["params"]
        tracer = tracing.Tracer() if spec["trace"] else None
        try:
            if tracer:
                tracer.install()
            start = perf_counter()
            try:
                outputs = workloads.run(p, Path(spec["inputs"]), out)
            finally:
                result["solve_s"] = perf_counter() - start
                if tracer:
                    tracer.restore()
            result.update(workloads.record(p, outputs, out))
        except Exception:  # a failed run is counted, not fatal
            result["error"] = traceback.format_exc()
        if tracer:
            result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (out / "child.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
