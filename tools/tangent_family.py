"""The golden tangent family: the trace-cap path on scaled copies of one instance.

    python3 tools/tangent_family.py [--kmin -27] [--kmax 27] [--max-failures N]

Runs ``solve_combined_eta`` on copies of ``tangent_combined`` from
``tests/test_solve.py`` (the 2 x 2 combined instance of value 31/10 that no
finite point attains) with ``C`` and ``h0`` scaled by ``2**k`` for each
``k`` from ``--kmin`` to ``--kmax``; the value scales by the same factor.
The trace-cap program it solves has free columns and one psd variable
block.  No copy's dual has a Slater point, so each should take the
trace-cap path; one that the direct branch (one uncapped solve) answers is
counted, with its ``k``, since an uncapped solve of such a copy can end
optimal at a wrong value.  Prints one JSON line: the number of copies, how
many raised, for each exception type the ``k`` that raised it, and the
direct count and its ``k``.  The exit status is 1 when more than
``--max-failures N`` copies raised or when any copy was answered directly
(gates for CI).

Run from the root of a source tree; the library is imported from ``src/``
and the instance from ``tests/``.  One BLAS thread, as in the benchmark.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from test_solve import tangent_combined  # noqa: E402

from sdpack import solve as sv  # noqa: E402


def family(ks) -> dict:
    base = tangent_combined()
    raised: dict[str, list[int]] = {}
    direct: list[int] = []
    for k in ks:
        cmb = dataclasses.replace(base, C=base.C * 2.0 ** k, h0=base.h0 * 2.0 ** k)
        try:
            sol = sv.solve_combined_eta(cmb)
        except Exception as exc:  # a raising copy is counted, not fatal
            raised.setdefault(type(exc).__name__, []).append(k)
            continue
        if sol.route == "direct":
            direct.append(k)
    return {"copies": len(ks), "failures": sum(len(v) for v in raised.values()),
            "raised": dict(sorted(raised.items())), "direct": len(direct),
            "direct_k": direct}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kmin", type=int, default=-27)
    p.add_argument("--kmax", type=int, default=27)
    p.add_argument("--max-failures", type=int, default=None, metavar="N",
                   help="exit 1 when more than N copies raise")
    args = p.parse_args(argv)
    result = family(range(args.kmin, args.kmax + 1))
    print(json.dumps(result))
    if args.max_failures is not None and result["failures"] > args.max_failures:
        return 1
    if result["direct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
