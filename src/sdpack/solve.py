"""Solvers: cone-program fronts, the low-rank packing pipeline, the
trace-cap path for combined problems, optimality verification, and
design-weight recovery.

The packing pipeline projects to strictly feasible form first, then either
collapses to a second-order cone program (rank-one objective) or follows a
constraint-perturbation path ``M_i + eps I`` with a decreasing ``eps``
schedule and warm starts: with ``eps > 0`` every optimal matrix has rank at
most that of the objective, and the path values increase monotonically to
the unperturbed optimum.  A solution whose KKT check fails at the end gets
one polish step on the original problem (Newton on the factored optimality
system, then an NNLS refit of the active multipliers); the full problem's
dual is not solved again, because with a zero budget it has no Slater
point and need not attain its optimum.  A combined problem whose dual has
a Slater point is solved once, uncapped, and its first block shorted to
the range of C (:func:`sdpack.linalg.shorted`); any other goes through a
trace-cap path ``cap * (tr X + tr Y) <= 1``, whose values increase to the
supremum from below as the cap loosens; an unattained supremum shows up as
iterate norms diverging while the values converge.  Every cone program
here is assembled by :func:`sdpack.conelp.cone_program`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import linalg, reduce as reduction
from .analysis import check_bounded, check_feasible
from .conelp import (ConeProgram, ConeResult, _svec_index, cone_program,
                     smat, solve_cone_program, svec, svec_dim)
from .errors import (InfeasibleDual, InfeasiblePrimal, InvalidInput,
                     MaxIterations, NumericalFailure, PathDiverged,
                     PathNotMonotone, ZeroDual)
from .model import (CombinedProblem, CombinedSolution, KktResiduals,
                    PackingProblem, Solution, Status)

# tighter targets for path solves: the monotonicity checks compare
# consecutive values at 1e-9, so per-solve noise must sit well below that
_PATH_RELTOL = 1e-11
_PATH_FEASTOL = 1e-9
_MONOTONE_SLACK = 1e-9

# perturbation sizes of the eps-path, trace caps of the eta-path (both
# strictly decreasing), and the two caps of the dual extrapolation
_EPS_SCHEDULE = tuple(np.geomspace(1e-2, 1e-8, 7).tolist())
_ETA_SCHEDULE = tuple(np.geomspace(1.0, 1e-6, 7).tolist())
_DUAL_CAPS = (2e-5, 1e-5)
# eigenvalues below this fraction of the largest count as zero
_RANK_THRESHOLD = 1e-6


@dataclass(frozen=True)
class SolveOptions:
    """Solver settings shared by every routine in this module."""

    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0) or self.max_iter < 1:
            raise InvalidInput("tol must be positive and finite, max_iter "
                               "positive")


@dataclass(frozen=True)
class SolveReport:
    """Numerical summary of one solve: the engine's objective values, gap
    and iteration count, and its relative primal residual, dual residual
    and relative gap."""

    primal: float
    dual: float
    gap: float
    iterations: int
    status: Status
    pres: float
    dres: float
    relgap: float


@dataclass(frozen=True)
class SocpResult:
    """Solution of a :class:`~sdpack.reduce.SocpProblem`."""

    x: np.ndarray
    value: float
    cone_duals: tuple[tuple[float, np.ndarray], ...]  # (scalar, vector) per cone
    ineq_duals: np.ndarray
    eq_duals: np.ndarray
    report: SolveReport
    ray: np.ndarray | None = None


# ---------------------------------------------------------------------------
# KKT verification


def kkt_scale(problem: PackingProblem, X: np.ndarray, mu: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(problem.C)),
               float(np.max(np.abs(problem.b))) if problem.b.size else 0.0,
               float(np.linalg.norm(X)),
               float(np.max(np.abs(mu))) if mu.size else 0.0)


def kkt_check(problem: PackingProblem, X: np.ndarray, mu: np.ndarray,
              tol: float = 1e-6) -> tuple[KktResiduals, bool]:
    """Max-norm residuals of primal feasibility, dual feasibility, and
    complementary slackness; passes when all are below ``tol`` times the
    problem scale.  ``tol`` must be positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInput(f"kkt_check tol must be positive and finite, got {tol!r}")
    X = linalg.symmetrize(X)
    mu = np.asarray(mu, dtype=float)
    if X.shape[0] != problem.n or mu.shape[0] != problem.l:
        raise InvalidInput("solution dimensions do not match the problem")
    traces = np.trace(problem.stack @ X, axis1=1, axis2=2)
    primal = max(0.0, float(np.max(traces - problem.b)),
                 -float(np.linalg.eigvalsh(X)[0]))
    slack = linalg.symmetrize((mu[:, None, None] * problem.stack).sum(0) - problem.C)
    dual = max(0.0, -float(np.linalg.eigvalsh(slack)[0]),
               -float(np.min(mu)) if mu.size else 0.0)
    comp = max(float(np.max(np.abs(slack @ X))),
               float(np.max(np.abs(mu * (problem.b - traces)))))
    res = KktResiduals(primal=primal, dual=dual, complementarity=comp)
    return res, res.passes(tol, kkt_scale(problem, X, mu))


# ---------------------------------------------------------------------------
# cone-program fronts


def _socp_to_cone_program(socp: reduction.SocpProblem) -> tuple[ConeProgram, int]:
    """Cone ``i`` is the soc block ``(-[f_i; F_i], [d_i; g_i])``, cut from one array."""
    blocks = []
    if socp.cones:
        G = -np.concatenate([a for con in socp.cones for a in (con.f[None, :], con.F)])
        h = np.concatenate([a for con in socp.cones for a in ((con.d,), con.g)])
        ends = np.cumsum([con.F.shape[0] + 1 for con in socp.cones]).tolist()
        blocks = [("soc", e - s, G[s:e], h[s:e]) for s, e in zip([0] + ends, ends)]
    n_ineq = 0
    if socp.lin_ineq is not None:
        n_ineq = socp.lin_ineq[0].shape[0]
        blocks.insert(0, ("nn", n_ineq, *socp.lin_ineq))
    c = -socp.objective if socp.sense == "max" else socp.objective.copy()
    return cone_program(c, blocks, *(socp.lin_eq or (None, None))), n_ineq


_ENGINE_STATUS = {"optimal": Status.OPTIMAL,
                  "primal_infeasible": Status.INFEASIBLE,
                  "dual_infeasible": Status.UNBOUNDED}


def _classify(res: ConeResult, prog: ConeProgram, tol: float, best) -> Status:
    """Status of an engine result.  Certificates map to infeasible or
    unbounded.  A ``max_iterations`` stop whose iterate diverged while its
    residuals and gap are clean is a bounded value that no finite point
    attains (near-unattained); a stop within ``1e3 * tol`` of the target
    is reported as ``MAX_ITERATIONS``; anything further off raises
    ``MaxIterations`` carrying ``best(Status.MAX_ITERATIONS)``, its message
    naming the engine's stop reason."""
    if res.status != "max_iterations":
        return _ENGINE_STATUS[res.status]
    scale = 1.0 + float(np.linalg.norm(prog.h)) \
        + (float(np.linalg.norm(prog.b)) if prog.b is not None else 0.0)
    diverged = float(np.linalg.norm(res.x, np.inf)) > 1e4 * scale
    clean = (res.relgap <= 1e3 * tol and res.pres <= 1e2 * tol
             and res.dres <= 1e2 * tol)
    if diverged and clean:
        return Status.NEAR_UNATTAINED
    if max(res.pres, res.dres, res.relgap) <= 1e3 * tol:
        return Status.MAX_ITERATIONS
    raise MaxIterations(f"stopped before convergence ({_stop_reason(res)})",
                        best=best(Status.MAX_ITERATIONS))


def _stop_reason(res: ConeResult) -> str:
    """The engine's stop reason as text, for error messages."""
    return getattr(res.stop_reason, "value", str(res.stop_reason))


def _report_from_cone(res: ConeResult, status: Status, sense: str) -> SolveReport:
    sign = -1.0 if sense == "max" else 1.0
    return SolveReport(primal=sign * res.pcost, dual=sign * res.dcost,
                       gap=res.gap, iterations=res.iterations, status=status,
                       pres=res.pres, dres=res.dres, relgap=res.relgap)


def solve_socp(socp: reduction.SocpProblem,
               opts: SolveOptions | None = None) -> SocpResult:
    """Solve a second-order cone problem.

    Statuses (see :func:`_classify`): optimal (gap below ``opts.tol``),
    unbounded (with an improving ray), infeasible, near-unattained (bounded
    value whose supremum the iterates cannot reach), or max-iterations (the
    best iterate of a stop close to the target).  A stop further off raises
    ``MaxIterations`` with that iterate as ``best``.
    """
    opts = opts or SolveOptions()
    prog, n_ineq = _socp_to_cone_program(socp)
    res = solve_cone_program(prog, reltol=opts.tol, max_iter=opts.max_iter)
    status = _classify(res, prog, opts.tol,
                       lambda st: _socp_result(socp, res, n_ineq, st))
    if status in (Status.INFEASIBLE, Status.UNBOUNDED):
        unbounded = status is Status.UNBOUNDED
        return SocpResult(x=np.zeros(socp.nvars),
                          value=math.inf if unbounded else math.nan,
                          cone_duals=(), ineq_duals=np.zeros(n_ineq),
                          eq_duals=np.zeros(0),
                          report=_report_from_cone(res, status, socp.sense),
                          ray=res.ray)
    return _socp_result(socp, res, n_ineq, status)


def _socp_result(socp, res, n_ineq, status) -> SocpResult:
    z = res.z
    ends = np.cumsum([n_ineq] + [con.F.shape[0] + 1 for con in socp.cones]).tolist()
    cone_duals = tuple([(float(z[s]), z[s + 1:e].copy()) for s, e in zip(ends, ends[1:])])
    eq_duals = res.y.copy() if res.y is not None else np.zeros(0)
    return SocpResult(x=res.x.copy(), value=float(socp.objective @ res.x),
                      cone_duals=cone_duals, ineq_duals=z[:n_ineq].copy(), eq_duals=eq_duals,
                      report=_report_from_cone(res, status, socp.sense))


def _packing_cone_program(C, S, b, eps: float = 0.0) -> ConeProgram:
    """The packing program of ``C``, the stack ``S`` of the ``M_i`` and ``b``."""
    n = C.shape[0]
    _, _, flat, scale = _svec_index(n)
    rows = (S + eps * np.eye(n)).reshape(len(S), n * n)[:, flat] * scale
    return cone_program(-svec(C), [("nn", len(S), rows, np.asarray(b, float)),
                                   ("psd", n, 0)])


def solve_dual_packing(problem: PackingProblem,
                       opts: SolveOptions | None = None) -> tuple[np.ndarray, float]:
    """Solve ``min b.mu  s.t.  sum mu_i M_i >= C, mu >= 0`` directly."""
    opts = opts or SolveOptions()
    l, n = problem.l, problem.n
    _, _, flat, scale = _svec_index(n)
    psd_rows = -(problem.stack.reshape(l, n * n)[:, flat] * scale).T
    prog = cone_program(problem.b.copy(),
                        [("nn", l, 0), ("psd", problem.n, psd_rows, -svec(problem.C))])
    res = solve_cone_program(prog, reltol=opts.tol, max_iter=opts.max_iter)
    if res.x is None:
        raise NumericalFailure(f"dual solve ended with {res.status}")
    return np.clip(res.x, 0.0, None), float(res.pcost)


def solve_sdp(problem, opts: SolveOptions | None = None):
    """Dense interior-point oracle.

    For a :class:`PackingProblem` this solves the problem and its dual in
    one sweep, returning a full :class:`Solution`; infeasibility and
    unboundedness are decided by the exact certificates first.  When the
    constraint sum is rank deficient the solve runs in a rotated basis of
    its range (an exact transformation that restores dual interiority).
    The engine's stop is judged by :func:`_classify`: optimal,
    near-unattained or max-iterations, or ``MaxIterations`` raised with
    the best iterate.  A raw :class:`~sdpack.conelp.ConeProgram` is passed
    straight to the engine and the engine result returned.

    This solve stays independent of :func:`~sdpack.reduce.project_packing`
    on purpose: it is the reference the low-rank pipeline is checked
    against.
    """
    opts = opts or SolveOptions()
    if isinstance(problem, ConeProgram):
        return solve_cone_program(problem, reltol=opts.tol,
                                  max_iter=opts.max_iter)
    if not isinstance(problem, PackingProblem):
        raise InvalidInput(f"cannot solve a {type(problem).__name__}")

    ok, _ = check_feasible(problem)
    if not ok:
        return Solution(X=np.zeros((problem.n, problem.n)), objective=math.nan,
                        numerical_rank=0, mu=np.zeros(problem.l),
                        status=Status.INFEASIBLE)
    cert = check_bounded(problem)
    if not cert.bounded:
        ray = cert.ray
        return Solution(X=linalg.symmetrize(np.outer(ray, ray)),
                        objective=math.inf, numerical_rank=1,
                        mu=np.zeros(problem.l), status=Status.UNBOUNDED)

    S = problem.mat_sum()
    if linalg.rank_tol(S) < problem.n:
        U = linalg.range_basis(S)
        inner = PackingProblem(
            C=linalg.symmetrize(U.T @ problem.C @ U),
            mats=tuple(linalg.symmetrize_stack(U.T @ problem.stack @ U)),
            b=problem.b.copy())
    else:
        U = None
        inner = problem

    prog = _packing_cone_program(inner.C, inner.stack, inner.b)
    res = solve_cone_program(prog, reltol=opts.tol, max_iter=opts.max_iter)
    if res.x is None:
        raise NumericalFailure("cone solver returned no iterate")
    X = linalg.symmetrize(smat(res.x, inner.n))
    if U is not None:
        X = linalg.symmetrize(U @ X @ U.T)
    mu = np.clip(res.z[:problem.l], 0.0, None)

    def solution(status: Status) -> Solution:
        kkt, _ = kkt_check(problem, X, mu, opts.tol)
        return Solution(X=X, objective=float(np.trace(problem.C @ X)),
                        numerical_rank=linalg.rank_tol(X, _RANK_THRESHOLD),
                        mu=mu, status=status, kkt_residuals=kkt, route="direct")

    return solution(_classify(res, prog, opts.tol, solution))


# ---------------------------------------------------------------------------
# low-rank packing pipeline


def truncate_psd(X: np.ndarray, threshold: float) -> np.ndarray:
    """Zero out eigenvalues below ``threshold`` times the largest one."""
    dec = linalg.eigh_desc(X)
    w = np.clip(dec.eigenvalues, 0.0, None)
    if w[0] <= 0.0:
        return np.zeros_like(X)
    w[w < threshold * w[0]] = 0.0
    return linalg.symmetrize((dec.eigenvectors * w) @ dec.eigenvectors.T)


def _truncate_feasible(problem: PackingProblem, X: np.ndarray,
                       threshold: float) -> np.ndarray:
    """Truncate, then re-verify feasibility; keep the untruncated ``X`` if
    the truncation violated a constraint beyond roundoff.  A smaller
    threshold cannot repair that: it keeps more of the nonnegative terms
    ``w_j v_j v_j'``, and with every ``M_i`` PSD each ``<M_i, Xt>`` only
    grows."""
    scale = max(1.0, float(np.max(np.abs(problem.b))))
    Xt = truncate_psd(X, threshold)
    slacks = problem.b - np.trace(problem.stack @ Xt, axis1=1, axis2=2)
    return Xt if float(np.min(slacks)) >= -1e-8 * scale else X


def solve_packing_lowrank(problem: PackingProblem,
                          opts: SolveOptions | None = None,
                          route: str = "auto") -> Solution:
    """Solve a packing problem with a solution of rank at most
    ``rank(C)``.

    Pipeline: project to strictly feasible form; if the projected objective
    has rank one, go through the cone-program rewrite; otherwise follow the
    perturbation path ``M_i + eps I`` (every perturbed optimum has rank at
    most ``rank(C)``), truncate the final iterate's spectrum, re-verify
    feasibility, and lift.  Path values are checked monotone: they may only
    increase as ``eps`` decreases, else ``PathDiverged`` is raised.

    The lifted ``(X, mu)`` is checked with :func:`kkt_check`; if it fails,
    :func:`_polish` refines it on the original problem, and the polished
    pair is kept when its KKT max is smaller.  Multipliers of rows the
    projection zeroed come from that refit alone: a zero budget leaves the
    full problem without a Slater point, so its dual need not attain its
    optimum and is not solved.

    ``route`` forces "socp" (requires a rank-one projected objective) or
    "eps-path"; the default picks by rank.
    """
    opts = opts or SolveOptions()
    if route not in ("auto", "socp", "eps-path"):
        raise InvalidInput(f"unknown route {route!r}")
    red, lift = reduction.project_packing(problem)
    rank_c = 0 if red.empty else red.c_dec.rank()
    if rank_c == 0:
        X = np.zeros((problem.n, problem.n))
        if linalg.is_zero(problem.C):
            mu = np.zeros(problem.l)
        else:
            mu, _ = solve_dual_packing(problem, opts)
        kkt, _ = kkt_check(problem, X, mu, opts.tol)
        return Solution(X=X, objective=0.0, numerical_rank=0, mu=mu,
                        status=Status.OPTIMAL, kkt_residuals=kkt, route="trivial")

    inner = red.problem
    use_socp = (rank_c == 1) if route == "auto" else (route == "socp")
    if use_socp:
        X_red, mu_red, path = _rank_one_route(inner, opts, red.c_dec)
        route = "socp"
    else:
        X_red, mu_red, path = _eps_path_route(inner, opts)
        route = "eps-path"

    X = reduction.lift_solution(X_red, lift)
    mu = reduction.embed_dual(red, mu_red, problem.l)
    kkt, passed = kkt_check(problem, X, mu, opts.tol)
    if not passed:
        Xp, mup = _polish(problem, X, mu)
        kkt_p, _ = kkt_check(problem, Xp, mup, opts.tol)
        if kkt_p.max() < kkt.max():
            X, mu, kkt = Xp, mup, kkt_p
    return Solution(X=X, objective=float(np.trace(problem.C @ X)),
                    numerical_rank=linalg.rank_tol(X, _RANK_THRESHOLD),
                    mu=mu, status=Status.OPTIMAL, kkt_residuals=kkt,
                    route=route, path_values=tuple(path))


def _polish(problem: PackingProblem, X: np.ndarray, mu: np.ndarray):
    """One polish step for a path solution ``(X, mu)`` that fails its check.

    The active constraints ``A``, those within ``1e-6`` of their budget,
    are read once.  With ``X = V V.T`` at its numerical rank, the square
    system ``(sum_A mu_i M_i - C) V = 0``, ``<M_i, V V.T> = b_i (i in A)``
    pins the optimizer; three Newton steps on it remove the sqrt-of-gap
    error that interior-point iterates carry near degenerate solutions, and
    are kept only if they leave ``X`` feasible.  Then the active multipliers
    are refit by NNLS so that the dual slack annihilates the range of the
    polished ``X``, which removes the eps-path's bias of about
    ``eps * sum(mu)``.  Nothing falls back to solving the full problem's
    dual: a zero budget leaves the primal without a Slater point, so that
    dual need not attain its optimum.  Makes no engine solve.
    """
    n, l = problem.n, problem.l
    scale = max(1.0, float(np.max(np.abs(problem.b))))
    traces = np.trace(problem.stack @ X, axis1=1, axis2=2)
    active = np.flatnonzero(problem.b - traces <= 1e-6 * scale)
    if active.size == 0:
        return X, mu
    Ma = problem.stack[active]
    dec = linalg.eigh_desc(X)
    r = max(1, dec.rank(1e-8))
    V = dec.eigenvectors[:, :r] * np.sqrt(np.clip(dec.eigenvalues[:r], 0.0, None))
    mu_a = mu[active].copy()
    nr = n * r
    for _ in range(3):
        S = linalg.symmetrize((mu_a[:, None, None] * Ma).sum(0) - problem.C)
        F = np.r_[(S @ V).ravel(),
                  (V * (Ma @ V)).sum(axis=(1, 2)) - problem.b[active]]
        J = _polish_jacobian(S, V, Ma)
        try:
            delta = np.linalg.lstsq(J, -F, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        V = V + delta[:nr].reshape(n, r)
        mu_a = np.clip(mu_a + delta[nr:], 0.0, None)
    else:  # all steps taken: keep them if X stays feasible
        X_new = linalg.symmetrize(V @ V.T)
        traces_new = np.trace(problem.stack @ X_new, axis1=1, axis2=2)
        if float(np.max(traces_new - problem.b)) <= 1e-9 * scale:
            X, mu, dec = X_new, np.zeros(l), None
            mu[active] = mu_a
    R = (dec if dec is not None else linalg.eigh_desc(X)).range_basis(1e-8)
    if R.shape[1] == 0:
        return X, mu
    cols = np.ascontiguousarray((Ma @ R).reshape(active.size, -1).T)
    fit, _ = scipy.optimize.nnls(cols, (problem.C @ R).ravel())
    mu = np.zeros(l)
    mu[active] = fit
    return X, mu


def _polish_jacobian(S: np.ndarray, V: np.ndarray, Ma: np.ndarray) -> np.ndarray:
    """Jacobian of :func:`_polish`'s system in ``(V, mu_A)`` (``Ma``: the
    stack of the active ``M_i``); column ``j r + k`` is the derivative along
    the unit matrix ``E_jk``, the ``E_jk`` and the ``M_i`` stacked through
    one product."""
    n, r = V.shape
    nr, na = n * r, len(Ma)
    E = np.eye(nr).reshape(nr, n, r)
    J = np.zeros((nr + na, nr + na))
    J[:nr, :nr] = (S @ E).reshape(nr, nr).T
    J[nr:, :nr] = 2.0 * (V * (Ma[:, None] @ E)).reshape(na, nr, nr).sum(axis=2)
    J[:nr, nr:] = (Ma @ V).reshape(na, nr).T
    return J


def _rank_one_route(inner: PackingProblem, opts: SolveOptions,
                    c_dec: linalg.EigenDecomp):
    socp = reduction.to_socp_rank1(inner, c_dec)
    res = solve_socp(socp, opts)
    if res.report.status is not Status.OPTIMAL:
        raise NumericalFailure(f"cone solve ended with {res.report.status.value}")
    x = res.x
    c = socp.objective
    if c @ x < 0:
        x = -x
    X_red = np.outer(x, x)
    # cone duals map to packing multipliers: mu_i = value * z_i0 / sqrt(b_i)
    value = float(c @ x)
    mu_red = np.array([value * z0 / con.d if con.d > 0 else 0.0
                       for (z0, _), con in zip(res.cone_duals, socp.cones)])
    return X_red, np.clip(mu_red, 0.0, None), ()


def _follow_path(build, schedule, max_iter: int, what: str,
                 warm_start: bool = True) -> list[ConeResult]:
    """Solve ``build(v)`` for each ``v`` in ``schedule`` at the path
    tolerances, each stage warm-started from the previous one unless
    ``warm_start`` is off.  The engine pushes a warm point into the cone
    interior only as far as its residual in the new stage (on the eps-path
    about the change in eps times tr X), so late stages take few
    iterations; a warm point that already meets the new stage, as when a
    looser trace cap does not bind, is re-centred in full instead.  A stage
    that returns a certificate instead of an iterate raises
    ``NumericalFailure`` naming ``what``, ``v`` and the engine's stop
    reason; an optimal or ``max_iterations`` stage is kept."""
    warm, results = None, []
    for v in schedule:
        res = solve_cone_program(build(v), reltol=_PATH_RELTOL,
                                 feastol=_PATH_FEASTOL, max_iter=max_iter,
                                 warm=warm)
        if res.x is None:
            raise NumericalFailure(f"{what}={v:g} ended with {res.status} "
                                   f"({_stop_reason(res)})")
        if warm_start:
            warm = (res.x, res.y, res.s, res.z)
        results.append(res)
    return results


def _check_monotone(values, error: type[Exception], what: str) -> None:
    """Raise ``error`` when a path value falls below its predecessor by more
    than the slack, relative to the largest magnitude on the path."""
    scale = max(1.0, float(np.max(np.abs(values))))
    for a, b in zip(values, values[1:]):
        if b < a - _MONOTONE_SLACK * scale:
            raise error(f"{what} values decreased: {a!r} -> {b!r}")


def _eps_path_route(inner: PackingProblem, opts: SolveOptions):
    results = _follow_path(
        lambda eps: _packing_cone_program(inner.C, inner.stack, inner.b, eps=eps),
        _EPS_SCHEDULE, opts.max_iter, "perturbed solve at eps")
    values = [-res.pcost for res in results]
    _check_monotone(values, PathDiverged, "perturbation-path")
    final = results[-1]
    X = linalg.symmetrize(smat(final.x, inner.n))
    X = _truncate_feasible(inner, X, _RANK_THRESHOLD)
    mu = np.clip(final.z[:inner.l], 0.0, None)
    return X, mu, values


# ---------------------------------------------------------------------------
# combined problems


def _combined_cone_program(cmb: CombinedProblem, cap: float,
                           eps: float) -> ConeProgram:
    """Trace-capped, constraint-perturbed combined problem as a cone program."""
    n, p = cmb.n, cmb.p
    eye_n = np.eye(n)
    rows = [np.r_[svec(m + eps * eye_n), -svec(r), -hi]
            for m, r, hi in zip(cmb.mats, cmb.Rs, cmb.hs)]
    rows.append(np.r_[cap * svec(eye_n), cap * svec(np.eye(p)), np.zeros(cmb.q)])
    blocks = [("nn", cmb.l + 1, np.array(rows), np.r_[cmb.b, 1.0]), ("psd", n, 0)]
    if p:
        blocks.append(("psd", p, svec_dim(n)))
    c = np.r_[-svec(cmb.C), -svec(cmb.R0), -cmb.h0]
    return cone_program(c, blocks)


def solve_combined_eta(cmb: CombinedProblem,
                       opts: SolveOptions | None = None) -> CombinedSolution:
    """Solve a combined problem with a first block of rank at most ``rank(C)``.

    When the dual phase 1 ends optimal with a Slater margin, the primal
    optimum is attained: one uncapped solve at the path tolerances finds
    it, and if that solve ends optimal its X block is shorted to the range
    of C, which keeps the value and feasibility (every ``M_i`` is PSD) at
    rank at most ``rank(C)``.  Route "direct", one value in ``gamma``.

    Otherwise, route "eta-path": follow the trace-cap path.  Each stage
    solves the problem under ``cap * (tr X + tr Y) <= 1`` with a tiny
    constraint perturbation that forces every stage solution's first block
    to rank at most ``rank(C)``.  The stage values are nondecreasing as the
    cap loosens (else ``PathNotMonotone``); when they converge while the
    iterates' norms diverge, the supremum is reported asymptotic.
    """
    opts = opts or SolveOptions()
    ok, margin = reduction.combined_primal_phase1(cmb)
    if not ok:
        raise InfeasiblePrimal(f"no feasible point (best slack {margin:.3e})")
    ok, t, strict = reduction.combined_dual_phase1(cmb)
    if not ok:
        raise InfeasibleDual(f"dual infeasible (relaxation needs t={t:.3e})")
    if strict:
        res = solve_cone_program(_combined_cone_program(cmb, 0.0, 0.0),
                                 reltol=_PATH_RELTOL, feastol=_PATH_FEASTOL,
                                 max_iter=opts.max_iter)
        if res.status == "optimal":
            X, Y, lam = _split_combined(res.x, cmb)
            X = linalg.shorted(X, cmb.C)
            value = float(-res.pcost)
            return CombinedSolution(X=X, Y=Y, lam=lam, objective=value,
                                    status=Status.OPTIMAL, gamma=(value,),
                                    ranks=(linalg.rank_tol(X, _RANK_THRESHOLD),),
                                    route="direct")

    mat_scale = max(1.0, max((float(np.linalg.eigvalsh(m)[-1])
                              for m in cmb.mats), default=1.0))
    eps = 1e-9 * mat_scale

    results = _follow_path(lambda cap: _combined_cone_program(cmb, cap, eps),
                           _ETA_SCHEDULE, opts.max_iter, "trace-cap solve at cap")
    gammas = [-res.pcost for res in results]
    _check_monotone(gammas, PathNotMonotone, "trace-cap path")

    norms, ranks = [], []
    for res in results:
        X, Y, lam = _split_combined(res.x, cmb)
        Xt = truncate_psd(X, _RANK_THRESHOLD)
        ranks.append(linalg.rank_tol(Xt, _RANK_THRESHOLD))
        norms.append(float(np.trace(X)) + (float(np.trace(Y)) if cmb.p else 0.0)
                     + float(np.linalg.norm(lam, 1)))
    scale = max(1.0, float(np.max(np.abs(gammas))))
    converged = (len(gammas) < 2
                 or abs(gammas[-1] - gammas[-2]) <= 1e-3 * scale)
    diverging = (norms[-1] >= 100.0 * (1.0 + norms[0])
                 and norms[-1] >= 1e3 * (1.0 + float(np.max(np.abs(cmb.b)))))
    status = Status.ASYMPTOTIC_SUP if (diverging and converged) else Status.OPTIMAL
    return CombinedSolution(X=Xt, Y=Y, lam=lam, objective=float(gammas[-1]),
                            status=status, gamma=tuple(gammas),
                            ranks=tuple(ranks), route="eta-path")


def _split_combined(x: np.ndarray, cmb: CombinedProblem):
    n, p, q = cmb.n, cmb.p, cmb.q
    Lx = svec_dim(n)
    Lp = svec_dim(p) if p else 0
    X = linalg.symmetrize(smat(x[:Lx], n))
    Y = linalg.symmetrize(smat(x[Lx:Lx + Lp], p)) if p else np.zeros((0, 0))
    lam = x[Lx + Lp:Lx + Lp + q].copy()
    return X, Y, lam


def solve_combined_dual(cmb: CombinedProblem,
                        opts: SolveOptions | None = None,
                        ) -> tuple[np.ndarray, float]:
    """Optimal multipliers and value of the dual of a combined problem.

    The dual may touch its feasible set in a single point, which defeats a
    direct interior-point solve; instead the trace-capped primal is solved
    at two caps (both sides strictly feasible there, values exact to solver
    tolerance) and the value extrapolated linearly in the cap.  The
    multipliers come from the tighter cap's constraint duals.
    """
    opts = opts or SolveOptions()
    ok, t, _ = reduction.combined_dual_phase1(cmb)
    if not ok:
        raise InfeasibleDual(f"dual infeasible (relaxation needs t={t:.3e})")
    # cold starts: these solves need full accuracy and the warm point sits
    # too close to the boundary to help
    results = _follow_path(lambda cap: _combined_cone_program(cmb, cap, eps=0.0),
                           _DUAL_CAPS, opts.max_iter, "capped solve at cap",
                           warm_start=False)
    mu_last = np.clip(results[-1].z[:cmb.l], 0.0, None)
    # value is linear in the cap while the cap binds; extrapolate to zero
    v1, v2 = (-res.pcost for res in results)
    ratio = _DUAL_CAPS[0] / _DUAL_CAPS[1]
    value = v2 + (v2 - v1) / (ratio - 1.0)
    scale = max(1.0, abs(v2))
    if abs(v2 - v1) <= 10.0 * _PATH_RELTOL * scale:
        value = v2
    return mu_last, float(value)


# ---------------------------------------------------------------------------
# design recovery


def recover_design(mu: np.ndarray, b: np.ndarray | None = None,
                   mode: str = "simplex", t: float | None = None) -> np.ndarray:
    """Design weights from packing duals.

    ``simplex``: ``w = mu / (mu . b)`` (so ``w . b = 1``); ``resource``:
    ``w = mu / t`` with ``t`` the dual's scalar variable.
    """
    mu = np.asarray(mu, dtype=float)
    if mode == "simplex":
        if b is None:
            b = np.ones(mu.shape[0])
        total = float(mu @ np.asarray(b, float))
        if total <= 0 or not np.any(mu > 0):
            raise ZeroDual("dual vector has no positive mass")
        return mu / total
    if mode == "resource":
        if t is None or t <= 0:
            raise ZeroDual("resource recovery needs the positive dual scalar")
        return mu / t
    raise InvalidInput(f"unknown recovery mode {mode!r}")
