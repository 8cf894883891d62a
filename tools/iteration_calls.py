"""Function calls per engine iteration on the eps-path, counted, not timed.

    python3 tools/iteration_calls.py [--cases 6] [--max-sdpack-calls N]

Runs ``solve_packing_lowrank`` on the first ``--cases`` seed-1 cases of the
``lowrank_path`` workload (``perfbench/workloads.py``) and, while each
``conelp.solve_cone_program`` call runs, counts every function call with
``sys.setprofile``: Python frames whose code lives in ``sdpack``, Python
frames in ``numpy``, other Python frames, and calls of C functions.  Prints
one JSON line: the engine calls and iterations, and each count per engine
iteration (the calls of a whole engine solve, setup and last loop top
included, over the iterations it took).  The exit status is 1 when the
``sdpack`` frames per iteration exceed ``--max-sdpack-calls N`` (a gate for
CI).  Only ``sdpack`` frames are gated: numpy's Python wrappers change
between numpy releases, and C calls move with them.

Counts do not depend on the machine's speed or load, so a change that
removes calls shows here even where timing noise hides it.

Run from the root of a source tree; the library is imported from ``src/``
and ``perfbench/`` is only read.  One BLAS thread, as in the benchmark.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SDPACK_TOL", None)

import argparse  # noqa: E402
import json  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402

from sdpack import conelp, reduce, solve  # noqa: E402

_SDPACK = os.sep + "sdpack" + os.sep
_NUMPY = os.sep + "numpy" + os.sep


def _kind(event: str, frame) -> str | None:
    if event == "c_call":
        return "c"
    if event != "call":
        return None
    path = frame.f_code.co_filename
    if _SDPACK in path:
        return "sdpack"
    return "numpy" if _NUMPY in path else "other_python"


def count(n_cases: int) -> dict:
    calls, engine = Counter(), Counter()
    inner = conelp.solve_cone_program

    def counted(*args, **kwargs):
        def profile(frame, event, arg):
            kind = _kind(event, frame)
            if kind is not None:
                calls[kind] += 1

        sys.setprofile(profile)
        try:
            res = inner(*args, **kwargs)
        finally:
            sys.setprofile(None)
        engine["calls"] += 1
        engine["iterations"] += res.iterations
        return res

    modules = (solve, reduce)
    for mod in modules:
        mod.solve_cone_program = counted
    try:
        _, cases = workloads.lowrank_path(1)
        for case in cases[:n_cases]:
            solve.solve_packing_lowrank(case.problem)
    finally:
        for mod in modules:
            mod.solve_cone_program = inner
    its = max(engine["iterations"], 1)
    kinds = ("sdpack", "numpy", "other_python", "c")
    per = {k: round(calls[k] / its, 1) for k in kinds}
    per["total"] = round(sum(calls[k] for k in kinds) / its, 1)
    return {"cases": n_cases, "engine_calls": engine["calls"],
            "iterations": engine["iterations"], "calls_per_iteration": per}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--cases", type=int, default=6)
    p.add_argument("--max-sdpack-calls", type=float, default=None, metavar="N",
                   help="exit 1 when sdpack frames per iteration exceed N")
    args = p.parse_args(argv)
    result = count(args.cases)
    print(json.dumps(result))
    limit = args.max_sdpack_calls
    if limit is not None and result["calls_per_iteration"]["sdpack"] > limit:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
