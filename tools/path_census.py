"""Census of the eps-path stages on the benchmark's ``lowrank_path`` cases.

    python3 tools/path_census.py [--seeds 1 2 3] [--cases 48] [--max-nonoptimal N]
                                [--max-iterations N]

Runs ``solve_packing_lowrank`` on the first ``--cases`` cases of the
``lowrank_path`` workload (``perfbench/workloads.py``) for each seed, keeps
the engine result of every path stage, and prints one JSON line: the stage
count, the engine iterations over all stages, split into the cold first
stage of each path and the warm-started rest, and the stages that did not
end ``optimal``, counted by the engine's ``stop_reason``.  A case that
raises is counted under ``errors`` by exception type.  The exit status is
1 when more than ``--max-nonoptimal N`` stages did not end ``optimal`` or
the stages took more than ``--max-iterations N`` iterations (gates for CI).

Run from the root of a source tree; the library is imported from ``src/``
and ``perfbench/`` is only read.  One BLAS thread, as in the benchmark.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402

from sdpack import solve as sv  # noqa: E402


def census(seeds, n_cases: int) -> dict:
    stages, cold = [], []
    follow = sv._follow_path

    def recording(*args, **kwargs):
        results = follow(*args, **kwargs)
        stages.extend(results)
        cold.extend(results if kwargs.get("warm_start") is False else results[:1])
        return results

    errors = Counter()
    sv._follow_path = recording
    try:
        for seed in seeds:
            _, cases = workloads.lowrank_path(seed)
            for case in cases[:n_cases]:
                try:
                    sv.solve_packing_lowrank(case.problem)
                except Exception as exc:  # a failing case is counted, not fatal
                    errors[type(exc).__name__] += 1
    finally:
        sv._follow_path = follow
    nonoptimal = Counter(res.stop_reason.value for res in stages
                         if res.status != "optimal")
    iterations = sum(res.iterations for res in stages)
    cold_iterations = sum(res.iterations for res in cold)
    return {"seeds": list(seeds), "cases": n_cases, "stages": len(stages),
            "iterations": iterations,
            "cold_stages": len(cold), "cold_iterations": cold_iterations,
            "warm_stages": len(stages) - len(cold),
            "warm_iterations": iterations - cold_iterations,
            "nonoptimal": sum(nonoptimal.values()),
            "nonoptimal_by_reason": dict(sorted(nonoptimal.items())),
            "errors": dict(sorted(errors.items()))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--cases", type=int, default=48)
    p.add_argument("--max-nonoptimal", type=int, default=None, metavar="N",
                   help="exit 1 when more than N stages end non-optimal")
    p.add_argument("--max-iterations", type=int, default=None, metavar="N",
                   help="exit 1 when the stages take more than N iterations in all")
    args = p.parse_args(argv)
    result = census(args.seeds, args.cases)
    print(json.dumps(result))
    if args.max_nonoptimal is not None and result["nonoptimal"] > args.max_nonoptimal:
        return 1
    if args.max_iterations is not None and result["iterations"] > args.max_iterations:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
