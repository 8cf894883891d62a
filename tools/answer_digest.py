"""Digests of every answer the benchmark's workloads produce, to the bit.

    python3 tools/answer_digest.py [--workloads lowrank_path socp_design cli_batch]
                                   [--seeds 1] [--against TREE]

Runs every case of each workload (``perfbench/workloads.py``) for each seed
and hashes two streams per workload and seed: every result of the engine
(``conelp.solve_cone_program``: x, y, s, z, status, stop reason,
iterations, pcost and dcost) in call order, and every object a case
returns.  Arrays are hashed by dtype, shape and bytes, floats by their
bits; a CLI report is hashed as parsed JSON without its ``file`` entry (the
files live in a fresh temporary directory each run).  A case that raises is
hashed by its exception's type and message.  Prints one JSON line: per
workload and seed, the two digests and the engine call count.

With ``--against TREE`` the same cases run again on ``TREE/src`` in a
child process (the cases still come from this tree's ``perfbench/``), the
cases whose digests differ are listed on stderr, and the exit status is 1
on any mismatch.  Digests from different machines need not agree: BLAS
builds round differently.

Run from the root of a source tree; the library is imported from ``src/``
and ``perfbench/`` is only read.  One BLAS thread, as in the benchmark.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SDPACK_TOL", None)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import struct  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lowrank_path", "socp_design", "cli_batch")


def _feed(h, obj) -> None:
    """Hash ``obj`` into ``h``, recursing through containers and dataclasses."""
    import numpy as np

    if obj is None or isinstance(obj, (bool, str)):
        h.update(f"{type(obj).__name__}:{obj}|".encode())
    elif isinstance(obj, enum.Enum):
        h.update(f"enum:{obj.value}|".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"int:{int(obj)}|".encode())
    elif isinstance(obj, (float, np.floating)) and np.asarray(obj).dtype.itemsize <= 8:
        h.update(b"float:" + struct.pack("<d", float(obj)))
    elif isinstance(obj, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(obj)
        h.update(f"array:{a.dtype.str}:{a.shape}|".encode())
        h.update(a.tobytes())
    elif isinstance(obj, dict):
        h.update(f"dict:{len(obj)}|".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq:{len(obj)}|".encode())
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}|".encode())
        for f in dataclasses.fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot hash a {type(obj).__name__}")


def _without_file(doc):
    """A parsed CLI report with every ``file`` entry removed."""
    if isinstance(doc, list):
        return [_without_file(d) for d in doc]
    return {k: v for k, v in doc.items() if k != "file"}


def _answer(out):
    """What a case returned, with CLI reports parsed (see module doc)."""
    if isinstance(out, tuple) and len(out) == 3 and isinstance(out[1], str):
        code, text, seen = out
        return code, _without_file(json.loads(text)), seen
    return out


def _engine_result(res):
    return (res.status, res.stop_reason, res.iterations, res.pcost, res.dcost,
            res.x, res.y, res.s, res.z)


def _tap_engine(sink: list):
    """Wrap ``solve_cone_program`` everywhere sdpack holds it; returns the
    undo function."""
    from sdpack import conelp

    orig = conelp.solve_cone_program

    def recording(*args, **kwargs):
        res = orig(*args, **kwargs)
        sink.append(_engine_result(res))
        return res

    patched = [m for m in list(sys.modules.values())
               if getattr(m, "__name__", "").startswith("sdpack")
               and getattr(m, "solve_cone_program", None) is orig]
    for m in patched:
        m.solve_cone_program = recording

    def undo():
        for m in patched:
            m.solve_cone_program = orig
    return undo


def digest_cases(workload: str, seed: int) -> list:
    """Per-case digests of one workload and seed (engine results and the
    returned object), in case order."""
    import workloads

    engine: list = []
    undo = _tap_engine(engine)
    workdir = tap = None
    try:
        if workload == "cli_batch":
            workdir = tempfile.mkdtemp(prefix="answer-digest-")
            tap = workloads.SolutionTap()
            _, cases = workloads.cli_batch(seed, workdir, tap)
        else:
            _, cases = getattr(workloads, workload)(seed)
        out = []
        for case in cases:
            del engine[:]
            try:
                answer = ("ok", _answer(case.run()))
            except Exception as exc:  # a raising case is hashed, not fatal
                answer = ("raised", type(exc).__name__, str(exc))
            h_eng, h_ans = hashlib.sha256(), hashlib.sha256()
            _feed(h_eng, engine)
            _feed(h_ans, answer)
            out.append((case.label, len(engine), h_eng.hexdigest(), h_ans.hexdigest()))
        return out
    finally:
        undo()
        if tap is not None:
            tap.close()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def summarize(per_case) -> dict:
    eng, ans = hashlib.sha256(), hashlib.sha256()
    for _, _, e, a in per_case:
        eng.update(e.encode())
        ans.update(a.encode())
    return {"cases": len(per_case), "engine_calls": sum(c[1] for c in per_case),
            "engine": eng.hexdigest()[:16], "answers": ans.hexdigest()[:16]}


def run(src: str, workloads_: list, seeds: list) -> dict:
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    return {f"{w}/seed{s}": digest_cases(w, s) for w in workloads_ for s in seeds}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--against", metavar="TREE", default=None,
                   help="compare with the same cases run on TREE/src; exit 1 "
                        "on any mismatch")
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help=argparse.SUPPRESS)
    p.add_argument("--per-case", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.per_case:   # child of --against: raw per-case digests
        print(json.dumps(run(args.src, args.workloads, args.seeds)))
        return 0
    if args.against is not None:
        src = os.path.join(os.path.abspath(args.against), "src")
        if not os.path.isfile(os.path.join(src, "sdpack", "__init__.py")):
            print(f"error: no sdpack sources under {src}", file=sys.stderr)
            return 2
        # the child runs while this process computes its own digests
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--src", src, "--per-case",
             "--workloads", *args.workloads, "--seeds", *map(str, args.seeds)],
            stdout=subprocess.PIPE, text=True)
    mine = run(args.src, args.workloads, args.seeds)
    print(json.dumps({key: summarize(v) for key, v in mine.items()}))
    if args.against is None:
        return 0
    out, _ = child.communicate()
    if child.returncode != 0:
        print(f"error: the run on {args.against} failed", file=sys.stderr)
        return 2
    other = json.loads(out)
    mismatched = 0
    for key, cases in mine.items():
        for a, b in zip(cases, other[key]):
            if list(a) != list(b):
                mismatched += 1
                which = [n for n, i in (("engine", 2), ("answer", 3)) if a[i] != b[i]]
                print(f"mismatch {key} {a[0]}: {' and '.join(which) or 'calls'}",
                      file=sys.stderr)
        if len(cases) != len(other[key]):
            mismatched += 1
            print(f"mismatch {key}: case counts differ", file=sys.stderr)
    print(json.dumps({"against": args.against, "mismatched_cases": mismatched}))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
