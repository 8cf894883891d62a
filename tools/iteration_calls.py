"""Function calls per engine iteration on the eps-path, and per design call
outside the engine, counted, not timed.

    python3 tools/iteration_calls.py [--cases 6] [--max-sdpack-calls N]
                                     [--max-design-calls N]

Runs ``solve_packing_lowrank`` on the first ``--cases`` seed-1 cases of the
``lowrank_path`` workload (``perfbench/workloads.py``) and, while each
``conelp.solve_cone_program`` call runs, counts every function call with
``sys.setprofile``: Python frames whose code lives in ``sdpack``, Python
frames in ``numpy``, other Python frames, and calls of C functions.  The
engine counts are reported per engine iteration (the calls of a whole
engine solve, setup and last loop top included, over the iterations it
took).

Then it runs every c- and a-optimal design case of the seed-1
``socp_design`` workload (build, solve and weight recovery, as the
benchmark times them) and counts the same kinds of call everywhere except
inside ``conelp.solve_cone_program``: the per-constraint work around the
engine.  These counts are reported per design call, for each criterion and
over all design calls.

Prints one JSON line.  The exit status is 1 when the ``sdpack`` frames per
engine iteration exceed ``--max-sdpack-calls N``, or the ``sdpack`` frames
per design call (over all design calls) exceed ``--max-design-calls N``
(gates for CI).  Only ``sdpack`` frames are gated: numpy's Python wrappers
change between numpy releases, and C calls move with them.

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
KINDS = ("sdpack", "numpy", "other_python", "c")


def _kind(event: str, frame) -> str | None:
    if event == "c_call":
        return "c"
    if event != "call":
        return None
    path = frame.f_code.co_filename
    if _SDPACK in path:
        return "sdpack"
    return "numpy" if _NUMPY in path else "other_python"


def _profiler(calls: Counter):
    def profile(frame, event, arg):
        kind = _kind(event, frame)
        if kind is not None:
            calls[kind] += 1
    return profile


def _per(calls: Counter, count: int) -> dict:
    count = max(count, 1)
    per = {k: round(calls[k] / count, 1) for k in KINDS}
    per["total"] = round(sum(calls[k] for k in KINDS) / count, 1)
    return per


def _with_engine(wrapper, run) -> None:
    """Run ``run()`` with ``solve_cone_program`` replaced by
    ``wrapper(inner)`` where the library looks it up."""
    inner = conelp.solve_cone_program
    modules = (solve, reduce)
    for mod in modules:
        mod.solve_cone_program = wrapper(inner)
    try:
        run()
    finally:
        for mod in modules:
            mod.solve_cone_program = inner


def count(n_cases: int) -> dict:
    """Calls inside the engine per iteration, on the eps-path cases."""
    calls, engine = Counter(), Counter()
    profile = _profiler(calls)

    def wrapper(inner):
        def counted(*args, **kwargs):
            sys.setprofile(profile)
            try:
                res = inner(*args, **kwargs)
            finally:
                sys.setprofile(None)
            engine["calls"] += 1
            engine["iterations"] += res.iterations
            return res
        return counted

    def run():
        _, cases = workloads.lowrank_path(1)
        for case in cases[:n_cases]:
            solve.solve_packing_lowrank(case.problem)

    _with_engine(wrapper, run)
    return {"cases": n_cases, "engine_calls": engine["calls"],
            "iterations": engine["iterations"],
            "calls_per_iteration": _per(calls, engine["iterations"])}


def count_designs() -> dict:
    """Calls outside the engine per c- and a-optimal design call."""
    calls = {crit: Counter() for crit in ("c", "a")}
    n = Counter()
    active = []  # the profile function of the running case

    def wrapper(inner):
        def uncounted(*args, **kwargs):
            sys.setprofile(None)
            try:
                return inner(*args, **kwargs)
            finally:
                sys.setprofile(active[0])
        return uncounted

    def run():
        _, cases = workloads.socp_design(1)
        for case in cases:
            if not isinstance(case, workloads.DesignCase):
                continue
            crit = case.design.criterion.value
            active[:] = [_profiler(calls[crit])]
            sys.setprofile(active[0])
            try:
                case.run()
            finally:
                sys.setprofile(None)
            n[crit] += 1

    _with_engine(wrapper, run)
    total = calls["c"] + calls["a"]
    return {"design_cases": dict(n),
            "calls_per_design_call": {
                "c": _per(calls["c"], n["c"]), "a": _per(calls["a"], n["a"]),
                "all": _per(total, n["c"] + n["a"])}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--cases", type=int, default=6)
    p.add_argument("--max-sdpack-calls", type=float, default=None, metavar="N",
                   help="exit 1 when sdpack frames per iteration exceed N")
    p.add_argument("--max-design-calls", type=float, default=None, metavar="N",
                   help="exit 1 when sdpack frames per design call, outside "
                        "the engine, exceed N")
    args = p.parse_args(argv)
    result = count(args.cases)
    result.update(count_designs())
    print(json.dumps(result))
    limits = ((args.max_sdpack_calls, result["calls_per_iteration"]),
              (args.max_design_calls, result["calls_per_design_call"]["all"]))
    if any(limit is not None and per["sdpack"] > limit for limit, per in limits):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
