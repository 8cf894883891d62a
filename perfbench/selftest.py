"""Self-tests of the benchmark: seeded inputs, the answer checker, and the
tracer's wrappers.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

import dataclasses
import hashlib
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import instances as gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sdpack import model  # noqa: E402
from sdpack import solve as sv  # noqa: E402


def _digest(cases) -> str:
    """Hash of every input array and file the cases hold."""
    h = hashlib.sha256()

    def add(x):
        if isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x, dtype=float).tobytes())
        elif isinstance(x, (tuple, list)):
            for y in x:
                add(y)
        elif x is not None:
            h.update(repr(x).encode())

    for case in cases:
        add(case.label)
        problem = getattr(case, "problem", None)
        if problem is not None:
            add((problem.C, problem.mats, problem.b))
        design = getattr(case, "design", None)
        if design is not None:
            add((design.K, design.mats, design.obs))
            if design.resource is not None:
                add((design.resource.P, design.resource.d))
        path = getattr(case, "path", None)
        if path is not None:
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _workdir() -> str:
    base = os.path.join(HERE, ".work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=base)


def _inputs(workload: str, seed: int) -> str:
    workdir = _workdir()
    tap = workloads.SolutionTap() if workload == "cli_batch" else None
    try:
        if tap is None:
            warmup, cases = getattr(workloads, workload)(seed)
        else:
            warmup, cases = workloads.cli_batch(seed, workdir, tap)
        return _digest([warmup] + cases)
    finally:
        if tap is not None:
            tap.close()
        shutil.rmtree(workdir, ignore_errors=True)


def test_seed_fixes_inputs():
    for workload in ("lowrank_path", "socp_design", "cli_batch"):
        first = _inputs(workload, 7)
        assert _inputs(workload, 7) == first, workload
        assert _inputs(workload, 8) != first, workload


def _solved_packing():
    rng = np.random.default_rng(5)
    C, mats, b = gen.packing(rng, 6, 4, 2)
    problem = model.PackingProblem(C=C, mats=tuple(mats), b=b)
    return problem, sv.solve_packing_lowrank(problem)


def test_checker_accepts_a_right_answer():
    problem, sol = _solved_packing()
    ref = sv.solve_sdp(problem).objective
    verdict = checks.packing_verdict(problem, sol, ref, 2, 1e-8)
    assert verdict == checks.Verdict(digits=verdict.digits), verdict
    assert verdict.digits > 6


def test_checker_flags_wrong_answers():
    problem, sol = _solved_packing()
    ref = sv.solve_sdp(problem).objective
    off = dataclasses.replace(sol, objective=sol.objective * (1 + 1e-4))
    assert checks.packing_verdict(problem, off, ref, 2, 1e-8).failed
    wide = dataclasses.replace(sol, X=sol.X + 1e-3 * np.eye(problem.n))
    assert checks.packing_verdict(problem, wide, ref, 2, 1e-8).over_rank
    bad_mu = dataclasses.replace(sol, mu=1.5 * sol.mu)
    assert checks.packing_verdict(problem, bad_mu, ref, 2, 1e-8).uncertified
    status = dataclasses.replace(sol, status=model.Status.MAX_ITERATIONS)
    assert checks.packing_verdict(problem, status, ref, 2, 1e-8).failed


def test_checker_flags_bad_allocations():
    P, d = np.array([[1.0, 1.0]]), np.array([1.0])
    assert not checks.resource_verdict(2.0, 2.0, [0.5, 0.5], P, d).failed
    assert checks.resource_verdict(2.0, 2.0, [0.6, 0.5], P, d).failed
    assert checks.resource_verdict(2.0, 2.0, [1.5, -0.5], P, d).failed
    assert checks.resource_verdict(2.0, 2.0 * (1 + 1e-4), [0.5, 0.5], P, d).failed


def test_face_restriction_keeps_the_value():
    rng = np.random.default_rng(9)
    C, mats, b = gen.packing(rng, 5, 4, 2, zero_b=2)
    problem = model.PackingProblem(C=C, mats=tuple(mats), b=b)
    face = checks.face_restricted(problem)
    assert face.n == 3 and face.l == 2
    sol = sv.solve_packing_lowrank(problem)
    assert checks.rel_diff(sol.objective, sv.solve_sdp(face).objective) < 1e-7


def test_rank_one_reference_matches_the_oracle():
    rng = np.random.default_rng(4)
    C, mats, b = gen.packing(rng, 5, 4, 1)
    w, V = np.linalg.eigh(C)
    ref = checks.rank_one_value(V[:, -1] * np.sqrt(w[-1]), mats, b)
    oracle = sv.solve_sdp(model.PackingProblem(C=C, mats=tuple(mats), b=b))
    assert checks.rel_diff(ref, oracle.objective) < 1e-7


def test_cli_check_flags_a_failed_exit():
    workdir = _workdir()
    tap = workloads.SolutionTap()
    try:
        path = os.path.join(workdir, "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"kind": "packing", "C": [[1.0]], '
                     '"constraints": [{"M": [[1.0]], "b": -1.0}]}')
        case = workloads.CliCase("bad", "packing", path, {}, 1, tap)
        assert case.check(case.run()).failed
    finally:
        tap.close()
        shutil.rmtree(workdir, ignore_errors=True)


def test_tracer_restores_the_library():
    import sdpack

    before = {(m, n): getattr(sys.modules[m], n) for m, n, _ in tracing.BOUNDARIES}
    problem, _ = _solved_packing()
    tracer = tracing.Tracer()
    with tracer:
        sdpack.solve.solve_packing_lowrank(problem)
    after = {(m, n): getattr(sys.modules[m], n) for m, n, _ in tracing.BOUNDARIES}
    assert before == after
    names = {s[3] for s in tracer.spans}
    assert {"solve_packing_lowrank", "solve_cone_program", "kkt_check",
            "project_packing", "check_bounded", "eigh_desc"} <= names
    total = tracer.spans[0][5] - tracer.spans[0][4]
    layers = tracing.summarize(tracer.spans, tracer.calls, total, total)
    assert 0.0 < layers["conelp.share"] <= 1.0
    assert layers["solve.kkt_check_calls"] >= 1


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
