"""Command-line front door.

Subcommands (all read the JSON problem documents of :mod:`sdpack.model`):

* ``analyze``    -- feasibility/boundedness certificates and a-priori bounds
* ``reduce``     -- strictly feasible projection plus the lift map
* ``solve``      -- packing or combined solve with route selection
* ``design``     -- experimental-design build + solve + weight recovery
* ``verify``     -- optimality residuals for a (problem, solution) pair
* ``gap-bound``  -- guaranteed-rank and rank-one-gap numbers only

Exit codes: 0 ok, 2 bad input, 3 unbounded, 4 infeasible, 5 numerical
failure, or a report whose status is not an answer (anything but
``optimal`` and ``asymptotic_sup``, e.g. a ``max_iterations`` stop close to
the target).  ``SDPACK_TOL`` overrides the default tolerance; a tolerance that
is not positive and finite exits 2 for every subcommand.  Reports are JSON
by default (``--report text`` rounds to 9 significant digits).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, linalg, model
from . import reduce as reduction
from . import solve as solving
from .errors import (InfeasibleDesign, InfeasibleDual, InfeasibleInput,
                     InfeasiblePrimal, MaxIterations, NumericalFailure,
                     PathDiverged, PathNotMonotone, SchemaError, SdpackError,
                     UnboundedInput)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNBOUNDED = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERICAL = 5

_INFEASIBLE_ERRORS = (InfeasibleInput, InfeasibleDesign, InfeasiblePrimal,
                      InfeasibleDual)
_NUMERICAL_ERRORS = (NumericalFailure, MaxIterations, PathDiverged,
                     PathNotMonotone)
# report statuses that exit 0; any other status in a report exits 5
_ANSWER_STATUSES = (model.Status.OPTIMAL.value, model.Status.ASYMPTOTIC_SUP.value)


def _num(v):
    v = float(v)
    return v if math.isfinite(v) else None


def _tolerance(args) -> float:
    """``--tol``, else ``SDPACK_TOL``, else 1e-8; positive and finite."""
    raw, source = args.tol, "--tol"
    if raw is None:
        raw, source = os.environ.get("SDPACK_TOL", "1e-8"), "SDPACK_TOL"
    try:
        tol = float(raw)
    except ValueError:
        raise SchemaError(f"{source} is not a number: {raw!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise SchemaError(f"{source} must be positive and finite: {raw!r}")
    return tol


def _options(args) -> solving.SolveOptions:
    return solving.SolveOptions(tol=args.tol, max_iter=args.max_iter)


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    return model.parse_problem(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(path: str, args) -> dict:
    prob = _load_problem(path)
    if not isinstance(prob, model.PackingProblem):
        raise SchemaError(f"{path}: analyze expects a packing problem")
    feasible, bad = analysis.check_feasible(prob)
    report = {
        "file": path,
        "feasible": feasible,
        "infeasible_index": bad,
        "rank_C": linalg.rank_tol(prob.C),
        "rank_mat_sum": linalg.rank_tol(prob.mat_sum()),
        "guaranteed_rank": analysis.barvinok_pataki(prob.l),
    }
    gap = analysis.nrt_bound(prob)
    report["gap_factor"] = gap.factor
    report["gap_degenerate"] = gap.degenerate
    if feasible:
        cert = analysis.check_bounded(prob)
        report["bounded"] = cert.bounded
        report["lambda"] = cert.lam
        report["ray"] = None if cert.ray is None else model._vec(cert.ray)
    else:
        report["bounded"] = None
        report["lambda"] = None
        report["ray"] = None
    return report


def cmd_reduce(path: str, args) -> dict:
    prob = _load_problem(path)
    if not isinstance(prob, model.PackingProblem):
        raise SchemaError(f"{path}: reduce expects a packing problem")
    red, lift = reduction.project_packing(prob)
    return {
        "file": path,
        "reduced": (None if red.empty
                    else model.to_document(red.problem)),
        "lift": model._mat(lift.basis),
        "kept": list(red.kept),
        "zeroed": list(red.zeroed),
        "dropped": list(red.dropped),
        "strict_eps": red.strict_eps,
        "dual_scale": red.dual_scale,
        "dual_margin": red.dual_margin,
    }


def cmd_solve(path: str, args) -> dict:
    prob = _load_problem(path)
    opts = _options(args)
    if isinstance(prob, model.CombinedProblem):
        sol = solving.solve_combined_eta(prob, opts)
        return {
            "file": path,
            "status": sol.status.value,
            "objective": _num(sol.objective),
            "rank": sol.ranks[-1],
            "lambda": model._vec(sol.lam),
            "gamma": [float(g) for g in sol.gamma],
            "ranks": list(sol.ranks),
            "route": sol.route,
        }
    if not isinstance(prob, model.PackingProblem):
        raise SchemaError(f"{path}: solve expects a packing or combined problem")
    sol = solving.solve_packing_lowrank(prob, opts, route=args.route)
    report = {
        "file": path,
        "status": sol.status.value,
        "objective": _num(sol.objective),
        "rank": sol.numerical_rank,
        "mu": model._vec(sol.mu),
        "kkt": model._kkt_doc(sol.kkt_residuals),
        "route": sol.route,
        "path_values": [float(v) for v in sol.path_values],
    }
    if args.oracle:
        oracle = solving.solve_sdp(prob, opts)
        report["oracle_value"] = _num(oracle.objective)
        report["oracle_diff"] = _num(abs(oracle.objective - sol.objective))
    return report


def cmd_design(path: str, args) -> dict:
    prob = _load_problem(path)
    if not isinstance(prob, model.DesignProblem):
        raise SchemaError(f"{path}: design expects a design problem")
    opts = _options(args)
    if prob.resource is not None:
        pair = reduction.build_resource_constrained(prob)
        pres = solving.solve_socp(pair.primal, opts)
        dres = solving.solve_socp(pair.dual, opts)
        mu = dres.x[:pair.l]
        t = float(dres.x[pair.l])
        w = solving.recover_design(mu, mode="resource", t=t)
        slack = prob.resource.d - prob.resource.P @ w
        # the primal's status unless only the dual's falls short of optimal
        status = next((r.report.status for r in (pres, dres)
                       if r.report.status is not model.Status.OPTIMAL),
                      model.Status.OPTIMAL)
        return {
            "file": path,
            "criterion": prob.criterion.value,
            "formulation": "resource-socp",
            "status": status.value,
            "weights": model._vec(w),
            "criterion_value": _num(pres.value ** 2),
            "primal_value": _num(pres.value),
            "dual_value": _num(dres.value),
            "duality_gap": _num(abs(pres.value - dres.value)),
            "resource_ok": bool(np.min(slack) >= -1e-8),
        }
    builders = {
        model.Criterion.C_OPT: reduction.build_c_optimal,
        model.Criterion.A_OPT: reduction.build_a_optimal,
        model.Criterion.E_OPT: reduction.build_e_optimal,
    }
    packing = builders[prob.criterion](prob)
    sol = solving.solve_packing_lowrank(packing, opts)
    w = solving.recover_design(sol.mu, packing.b)
    return {
        "file": path,
        "criterion": prob.criterion.value,
        "formulation": "packing",
        "status": sol.status.value,
        "weights": model._vec(w),
        "criterion_value": _num(sol.objective),
        "solution_rank": sol.numerical_rank,
        "route": sol.route,
        "kkt": model._kkt_doc(sol.kkt_residuals),
    }


def cmd_verify(problem_path: str, solution_path: str, args) -> dict:
    prob = _load_problem(problem_path)
    if not isinstance(prob, model.PackingProblem):
        raise SchemaError(f"{problem_path}: verify expects a packing problem")
    try:
        with open(solution_path, "r", encoding="utf-8") as fh:
            sol = model.parse_solution(fh.read())
    except OSError as exc:
        raise SchemaError(f"cannot read {solution_path}: {exc}")
    if not isinstance(sol, model.Solution):
        raise SchemaError(f"{solution_path}: expected a packing solution")
    res, passed = solving.kkt_check(prob, sol.X, sol.mu, args.tol)
    worst = max(("primal", res.primal), ("dual", res.dual),
                ("complementarity", res.complementarity), key=lambda kv: kv[1])
    return {
        "problem": problem_path,
        "solution": solution_path,
        "residuals": model._kkt_doc(res),
        "tol": args.tol,
        "scale": solving.kkt_scale(prob, sol.X, sol.mu),
        "pass": passed,
        "worst_block": worst[0],
    }


def cmd_gap_bound(path: str, args) -> dict:
    prob = _load_problem(path)
    if not isinstance(prob, model.PackingProblem):
        raise SchemaError(f"{path}: gap-bound expects a packing problem")
    gap = analysis.nrt_bound(prob)
    return {
        "file": path,
        "constraints": gap.l,
        "mu_bar": gap.mu_bar,
        "gap_factor": gap.factor,
        "degenerate": gap.degenerate,
        "guaranteed_rank": analysis.barvinok_pataki(prob.l),
        "rank_C": linalg.rank_tol(prob.C),
    }


# ---------------------------------------------------------------------------
# report rendering and dispatch


def _render_text(doc, out) -> None:
    if isinstance(doc, list):
        for item in doc:
            _render_text(item, out)
            out.write("\n")
        return
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, float):
            value = f"{value:.9g}"
        out.write(f"{key}: {value}\n")


def _emit(doc, args) -> None:
    out = sys.stdout
    close = False
    if args.output is not None:
        out = open(args.output, "w", encoding="utf-8")
        close = True
    try:
        if args.report == "text":
            _render_text(doc, out)
        else:
            json.dump(doc, out, indent=2, sort_keys=True)
            out.write("\n")
    finally:
        if close:
            out.close()


def _error_doc(exc: Exception) -> dict:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    witness = getattr(exc, "witness", None)
    if witness is not None:
        doc["witness"] = witness if isinstance(witness, (int, float, str)) \
            else list(np.atleast_1d(np.asarray(witness, dtype=float)))
    ray = getattr(exc, "ray", None)
    if ray is not None:
        doc["ray"] = model._vec(ray)
    return doc


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, UnboundedInput):
        return EXIT_UNBOUNDED
    if isinstance(exc, _INFEASIBLE_ERRORS):
        return EXIT_INFEASIBLE
    if isinstance(exc, _NUMERICAL_ERRORS):
        return EXIT_NUMERICAL
    return EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdpack",
        description="semidefinite packing problems: certificates, "
                    "reductions, low-rank solutions, experimental design")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi=True):
        if multi:
            p.add_argument("inputs", nargs="+", help="problem JSON file(s)")
        p.add_argument("--report", choices=("json", "text"), default="json")
        p.add_argument("-o", "--output", default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (default 1e-8 or SDPACK_TOL)")
        p.add_argument("--max-iter", type=int, default=200)

    common(sub.add_parser("analyze", help="feasibility/boundedness certificates"))
    common(sub.add_parser("reduce", help="strictly feasible projection"))
    p_solve = sub.add_parser("solve", help="solve a packing or combined problem")
    common(p_solve)
    p_solve.add_argument("--route", choices=("auto", "socp", "eps-path"),
                         default="auto")
    p_solve.add_argument("--oracle", action="store_true",
                         help="also run the dense oracle and report the difference")
    common(sub.add_parser("design", help="build and solve a design problem"))
    p_verify = sub.add_parser("verify", help="check optimality residuals")
    p_verify.add_argument("problem", help="packing problem JSON file")
    p_verify.add_argument("solution", help="solution JSON file")
    common(p_verify, multi=False)
    common(sub.add_parser("gap-bound", help="rank and gap bounds only"))
    return parser


# built once per process; each call parses into a fresh namespace
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "reduce": cmd_reduce,
        "solve": cmd_solve,
        "design": cmd_design,
        "gap-bound": cmd_gap_bound,
    }
    try:
        args.tol = _tolerance(args)
        if args.command == "verify":
            _emit(cmd_verify(args.problem, args.solution, args), args)
            return EXIT_OK
        handler = handlers[args.command]
        reports, code = [], EXIT_OK
        for path in args.inputs:
            try:
                report = handler(path, args)
                reports.append(report)
                if report.get("status", model.Status.OPTIMAL.value) \
                        not in _ANSWER_STATUSES:
                    code = max(code, EXIT_NUMERICAL)
            except SdpackError as exc:
                reports.append(_error_doc(exc))
                code = max(code, _exit_code(exc))
        _emit(reports[0] if len(reports) == 1 else reports, args)
        return code
    except SdpackError as exc:
        _emit(_error_doc(exc), args)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
