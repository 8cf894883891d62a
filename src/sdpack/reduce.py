"""Projection to strictly feasible form, second-order cone reductions, and
experimental-design builders.

The projection runs in two stages: first onto the range of the constraint
sum (which makes the projected constraint sum positive definite), then onto
the common nullspace of the constraints whose right-hand side is zero
(which removes them).  The reduced problem is strictly feasible on both
sides, and any reduced solution lifts back through the orthonormal basis
``B``: ``X = B Z B.T`` with objective and constraint values preserved.

When the objective matrix has rank one the whole problem collapses to a
second-order cone program over the factor vectors, and the same rewrite
covers combined problems with free variables via the hyperbolic identity
``|z|^2 <= a  <=>  |(2z; a-1)| <= a+1``.  The cone programs solved here
(phase 1 of combined problems) are assembled by
:func:`sdpack.conelp.cone_program`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, linalg
from .conelp import cone_program, solve_cone_program, svec, svec_dim
from .errors import (DimensionMismatch, InfeasibleDesign, InfeasibleDual,
                     InfeasibleInput, InfeasiblePrimal, NonzeroH0, NonzeroR,
                     RankNotOne, UnboundedInput, WrongCriterion)
from .model import (CombinedProblem, Criterion, DesignProblem, PackingProblem)

ZERO_B_RTOL = 1e-12


# ---------------------------------------------------------------------------
# projection and lift


@dataclass(frozen=True)
class LiftMap:
    """Orthonormal map from the reduced space back to the original one."""

    basis: np.ndarray  # n x n'

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def n_reduced(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class ReducedProblem:
    """Strictly feasible projection of a packing problem.

    ``problem`` is ``None`` when the reduced space is empty (the original
    optimum is 0 and the zero matrix solves it).  ``kept`` indexes the
    surviving constraints in the original problem; ``zeroed`` the ones
    pinned to ``<M_i, X> = 0``; ``dropped`` the vacuous ones.

    ``strict_eps`` scales an interior witness (``eps * I`` is strictly
    feasible); ``dual_scale`` and ``dual_margin`` record a scalar multiple
    of the constraint sum that strictly dominates the objective and its
    margin (the margin is reported, not blindly asserted: it can shrink to
    roundoff level when the constraint sum is badly conditioned).
    ``c_dec``, ``eigh_desc(problem.C)``, serves every later use of C.
    """

    problem: PackingProblem | None
    kept: tuple[int, ...]
    zeroed: tuple[int, ...]
    dropped: tuple[int, ...]
    strict_eps: float
    dual_scale: float
    dual_margin: float
    c_dec: linalg.EigenDecomp | None = None

    @property
    def empty(self) -> bool:
        return self.problem is None


def project_packing(problem: PackingProblem) -> tuple[ReducedProblem, LiftMap]:
    """Project a feasible bounded packing problem to strictly feasible form."""
    ok, idx = analysis.check_feasible(problem)
    if not ok:
        raise InfeasibleInput(f"right-hand side {idx} is negative")
    sum_dec = linalg.eigh_desc(problem.mat_sum())
    cert = analysis.check_bounded(problem, sum_dec)
    if not cert.bounded:
        raise UnboundedInput("objective range leaves the constraint range",
                             ray=cert.ray)

    b = problem.b
    cut = ZERO_B_RTOL * max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    S = problem.stack
    zero = linalg.zero_mask(S)
    small = np.abs(b) <= cut
    dropped = np.flatnonzero(zero).tolist()
    zeroed = np.flatnonzero(~zero & small).tolist()
    kept = np.flatnonzero(~zero & ~small)

    if sum_dec.rank() == problem.n:
        U = np.eye(problem.n)  # identity reduction when the sum has full rank
    else:
        U = sum_dec.range_basis()
    if U.shape[1] == 0:
        return _empty_reduction(kept.tolist(), zeroed, dropped, problem.n)

    if zeroed:
        N = (U.T @ S[zeroed] @ U).sum(0)
        V = linalg.null_basis(linalg.symmetrize(N))
        B = U @ V
    else:
        B = U
    if B.shape[1] == 0:
        return _empty_reduction(kept.tolist(), zeroed, dropped, problem.n)

    R = linalg.symmetrize_stack(B.T @ S[kept] @ B)
    live = ~linalg.zero_mask(R)
    kept_final = kept[live].tolist()
    dropped = sorted(dropped + kept[~live].tolist())
    C_red = linalg.symmetrize(B.T @ problem.C @ B)
    if not kept_final:
        # every surviving direction is unconstrained; boundedness forces C'=0
        return _empty_reduction(kept_final, zeroed, dropped, problem.n)

    reduced = PackingProblem(C=C_red, mats=tuple(R[live]), b=b[kept_final].copy())
    eps = 0.5 * float(np.min(reduced.b)) / max(
        1.0, float(np.max(np.trace(reduced.stack, axis1=1, axis2=2))))
    c_dec = linalg.eigh_desc(C_red)
    lam_bar = analysis.dual_scalar_bound(reduced, c_dec) + 1.0
    slack = lam_bar * reduced.mat_sum() - reduced.C
    margin = float(np.linalg.eigvalsh(slack)[0])
    return (ReducedProblem(problem=reduced, kept=tuple(kept_final),
                           zeroed=tuple(zeroed), dropped=tuple(dropped),
                           strict_eps=eps, dual_scale=lam_bar,
                           dual_margin=margin, c_dec=c_dec),
            LiftMap(basis=B))


def _empty_reduction(kept, zeroed, dropped, n):
    red = ReducedProblem(problem=None, kept=tuple(kept), zeroed=tuple(zeroed),
                         dropped=tuple(dropped), strict_eps=0.0,
                         dual_scale=0.0, dual_margin=0.0)
    return red, LiftMap(basis=np.zeros((n, 0)))


def lift_solution(Z: np.ndarray, lift: LiftMap) -> np.ndarray:
    """Map a reduced solution back: ``X = B Z B.T``."""
    if lift.n_reduced == 0:
        return np.zeros((lift.n, lift.n))
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (lift.n_reduced, lift.n_reduced):
        raise DimensionMismatch(
            f"reduced solution is {Z.shape}, expected "
            f"({lift.n_reduced}, {lift.n_reduced})")
    return linalg.symmetrize(lift.basis @ Z @ lift.basis.T)


def embed_dual(reduced: ReducedProblem, mu_reduced: np.ndarray, l: int) -> np.ndarray:
    """Place reduced dual multipliers at their original indices (zeros
    elsewhere)."""
    mu = np.zeros(l)
    mu[list(reduced.kept)] = mu_reduced
    return mu


# ---------------------------------------------------------------------------
# second-order cone forms


@dataclass(frozen=True)
class SocCon:
    """One cone constraint ``|F u + g| <= f . u + d``."""

    F: np.ndarray
    g: np.ndarray
    f: np.ndarray
    d: float


@dataclass(frozen=True)
class SocpProblem:
    """Linear objective over second-order cone constraints.

    Optional ``lin_ineq = (A, e)`` adds ``A u <= e`` rows and
    ``lin_eq = (B, r)`` adds ``B u = r`` rows.  ``sense`` is "max" or "min".
    """

    objective: np.ndarray
    cones: tuple[SocCon, ...]
    lin_ineq: tuple[np.ndarray, np.ndarray] | None = None
    lin_eq: tuple[np.ndarray, np.ndarray] | None = None
    sense: str = "max"

    @property
    def nvars(self) -> int:
        return self.objective.shape[0]

    def __post_init__(self):
        nv = self.objective.shape[0]
        for i, con in enumerate(self.cones):
            if con.F.shape[1] != nv or con.f.shape[0] != nv \
                    or con.F.shape[0] != con.g.shape[0]:
                raise DimensionMismatch(f"cone constraint {i} is inconsistent")
        if self.lin_ineq is not None and self.lin_ineq[0].shape[1] != nv:
            raise DimensionMismatch("inequality rows do not match variables")
        if self.lin_eq is not None and self.lin_eq[0].shape[1] != nv:
            raise DimensionMismatch("equality rows do not match variables")
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")


def rank_one_vector(C: np.ndarray,
                    dec: linalg.EigenDecomp | None = None) -> np.ndarray:
    """Factor a numerically rank-one PSD matrix as ``c c^T`` and return ``c``
    with its first nonzero entry positive; ``dec`` is ``eigh_desc(C)``."""
    if dec is None:
        dec = linalg.eigh_desc(C)
    rank = dec.rank()
    if rank != 1:
        raise RankNotOne(f"objective matrix has rank {rank}, not 1")
    c = np.sqrt(dec.eigenvalues[0]) * dec.eigenvectors[:, 0]
    nz = np.flatnonzero(np.abs(c) > 1e-12 * np.max(np.abs(c)))
    if nz.size and c[nz[0]] < 0:
        c = -c
    return c


def to_socp_rank1(problem: PackingProblem,
                  c_dec: linalg.EigenDecomp | None = None) -> SocpProblem:
    """Rewrite a rank-one-objective packing problem as
    ``max c.x  s.t.  |A_i x| <= sqrt(b_i)`` with ``A_i.T A_i = M_i``, all
    factored at once; ``c_dec`` is ``eigh_desc(problem.C)``.  Meant to run
    after :func:`project_packing`, so every ``b_i`` is positive.
    """
    ok, idx = analysis.check_feasible(problem)
    if not ok:
        raise InfeasibleInput(f"right-hand side {idx} is negative")
    c, n = rank_one_vector(problem.C, c_dec), problem.n
    d = np.sqrt(problem.b).tolist()  # check_feasible leaves no negative b_i
    cones = [SocCon(F=A, g=np.zeros(A.shape[0]), f=np.zeros(n), d=di)
             for A, di in zip(linalg.psd_factors(problem.stack), d)]
    return SocpProblem(objective=c, cones=tuple(cones))


def combined_primal_phase1(cmb: CombinedProblem) -> tuple[bool, float]:
    """Maximize the worst constraint slack over (Y, lam) with X = 0, decided
    by the rule of :func:`combined_dual_phase1`."""
    p, q, l = cmb.p, cmb.q, cmb.l
    nv = svec_dim(p) + q + 1
    rows = [np.r_[-svec(r), -hi, 1.0] for r, hi in zip(cmb.Rs, cmb.hs)]
    rows.append(np.r_[np.zeros(nv - 1), 1.0])
    blocks = [("nn", l + 1, np.array(rows), np.r_[cmb.b, 1.0])]
    if p:
        blocks.append(("psd", p, 0))
    res = solve_cone_program(cone_program(np.r_[np.zeros(nv - 1), -1.0], blocks),
                             reltol=1e-9)
    if res.x is None:
        return False, -math.inf
    return bool(-res.pcost >= -1e-9), float(-res.pcost)


def combined_dual_phase1(cmb: CombinedProblem) -> tuple[bool, np.ndarray, float]:
    """Minimize the uniform relaxation ``t`` of the dual constraints; the
    dual is feasible exactly when the minimum is nonpositive.  Infeasible
    only on a certificate; any other stop is decided from the engine's
    (best) iterate."""
    l, n, p, q = cmb.l, cmb.n, cmb.p, cmb.q
    G_psd = -np.column_stack([svec(m) for m in cmb.mats] + [svec(np.eye(n))])
    # mu >= 0, and t >= -1 keeps the relaxation bounded
    blocks = [("nn", l + 1, 0, np.r_[np.zeros(l), 1.0]),
              ("psd", n, G_psd, -svec(cmb.C))]
    if p:
        G_r = np.column_stack([svec(r) for r in cmb.Rs] + [-svec(np.eye(p))])
        blocks.append(("psd", p, G_r, -svec(cmb.R0)))
    A, beq = (np.hstack([cmb.H, np.zeros((q, 1))]), -cmb.h0) if q else (None, None)
    res = solve_cone_program(cone_program(np.r_[np.zeros(l), 1.0], blocks, A, beq),
                             reltol=1e-9)
    if res.x is None:
        return False, np.zeros(l), math.inf
    t = float(res.x[-1])
    tol = 1e-7 * max(1.0, float(np.linalg.norm(cmb.C)))
    return bool(t <= tol), np.clip(res.x[:l], 0.0, None), t


def combined_to_socp(problem: CombinedProblem) -> SocpProblem:
    """Rewrite a combined problem with rank-one objective, zero coupling
    matrices, and zero free-variable objective as a cone program in
    ``(x, lam)`` via the hyperbolic identity.

    The optimal value of the combined problem is the square of the cone
    program's value, and ``(x x^T, lam)`` solves the original.
    """
    if problem.p and (np.max(np.abs(problem.R0)) > 0
                      or any(np.max(np.abs(r)) > 0 for r in problem.Rs)):
        raise NonzeroR("coupling matrices must vanish for this reduction")
    if problem.q and float(np.max(np.abs(problem.h0))) > 0:
        raise NonzeroH0("free-variable objective must vanish for this reduction")
    c = rank_one_vector(problem.C)

    ok, _ = combined_primal_phase1(problem)
    if not ok:
        raise InfeasiblePrimal("no free variables make every right-hand side "
                               "nonnegative")
    ok, _, _ = combined_dual_phase1(problem)
    if not ok:
        raise InfeasibleDual("no nonnegative multipliers dominate the objective "
                             "matrix under the linear constraints")

    nv = problem.n + problem.q
    cones = [_hyperbolic_cone(linalg.psd_factor(m), hi, bi, nv)
             for m, bi, hi in zip(problem.mats, problem.b, problem.hs)]
    return SocpProblem(objective=np.r_[c, np.zeros(problem.q)], cones=tuple(cones))


def _hyperbolic_cone(A: np.ndarray, h: np.ndarray, b: float, nv: int) -> SocCon:
    """``|A x|^2 <= b + h . lam`` over ``(x, lam)`` (``nv`` variables) as
    the cone ``|(2 A x; h . lam + b - 1)| <= h . lam + b + 1``."""
    k, n = A.shape
    F = np.zeros((k + 1, nv))
    F[:k, :n] = 2.0 * A
    F[k, n:] = h
    return SocCon(F=F, g=np.r_[np.zeros(k), b - 1.0], f=np.r_[np.zeros(n), h],
                  d=float(b) + 1.0)


# ---------------------------------------------------------------------------
# experimental-design builders


def build_c_optimal(design: DesignProblem) -> PackingProblem:
    """Packing form of single-functional design: ``max c.X c`` under unit
    budgets; the optimal value is the minimal estimator variance."""
    if design.criterion is not Criterion.C_OPT:
        raise WrongCriterion(f"expected criterion 'c', got {design.criterion.value!r}")
    c = design.K[:, 0]
    return PackingProblem(C=linalg.symmetrize(np.outer(c, c)),
                          mats=design.mats, b=np.ones(design.l))


def build_a_optimal(design: DesignProblem) -> PackingProblem:
    """Trace-criterion design as a packing problem of dimension ``r n``:
    block-diagonal constraint matrices and the stacked functionals as a
    rank-one objective, so the cone reduction applies."""
    r, n, l = design.r, design.n, design.l
    c_stack = design.K.flatten(order="F")
    # np.kron(np.eye(r), m_k) for every k: block (a, b) is eye[a, b] * m_k,
    # so off the diagonal 0.0 * m_k, which is -0.0 where m_k < 0
    blocks = np.eye(r)[:, None, :, None] * np.stack(design.mats)[:, None, :, None, :]
    mats = linalg.symmetrize_stack(blocks.reshape(l, r * n, r * n))
    return PackingProblem(C=linalg.symmetrize(np.outer(c_stack, c_stack)),
                          mats=tuple(mats), b=np.ones(l))


def build_e_optimal(design: DesignProblem) -> PackingProblem:
    """Extreme-eigenvalue design: objective ``K K^T`` of rank ``r`` under unit
    budgets; a solution of rank at most ``r`` exists."""
    return PackingProblem(C=linalg.symmetrize(design.K @ design.K.T),
                          mats=design.mats, b=np.ones(design.l))


@dataclass(frozen=True)
class ResourceSocpPair:
    """Primal/dual cone programs of a resource-constrained design.

    Dual variables are laid out ``[mu (l), t, alpha (l), z_1, ..., z_l]``;
    the design weights are recovered as ``w = mu / t``.
    """

    primal: SocpProblem
    dual: SocpProblem
    l: int
    obs_rows: tuple[int, ...]


def build_resource_constrained(design: DesignProblem) -> ResourceSocpPair:
    """Cone-program pair for single-functional design under resource
    constraints ``P w <= d``.

    The primal runs in ``(x, lam)`` with hyperbolic cone rows per
    experiment; the dual carries the multipliers ``mu`` whose ratio to the
    scalar ``t`` reproduces the optimal allocation.  The squared primal
    value equals the minimal variance.
    """
    if design.criterion is not Criterion.C_OPT:
        raise WrongCriterion(f"expected criterion 'c', got {design.criterion.value!r}")
    if design.resource is None:
        raise InfeasibleDesign("design carries no resource block")
    P, d = design.resource.P, design.resource.d
    c = design.K[:, 0]
    l, n, q = design.l, design.n, P.shape[0]

    # a strictly positive allocation with P w <= d: the largest s with
    # w >= s 1 and s <= 1 is, as P >= 0, the uniform w = s 1's, s* = min(1,
    # d_j / (P 1)_j) over the rows with (P 1)_j > 0; a row with (P 1)_j = 0
    # needs d_j >= 0
    load = P.sum(axis=1)
    used = load > 0
    if np.min(d[used] / load[used], initial=1.0) <= 1e-9 or np.any(d[~used] < 0):
        raise InfeasibleDesign("no strictly positive allocation satisfies the "
                               "resource constraints")
    M = np.stack(design.mats)
    U = linalg.range_basis(linalg.symmetrize(M.sum(0)))
    resid = c - U @ (U.T @ c)
    if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(c)):
        raise InfeasibleDesign("target functional is not estimable by the "
                               "available experiments")

    obs = design.obs if design.obs is not None else linalg.psd_factors(M)
    obs_rows = tuple(a.shape[0] for a in obs)

    # primal: variables (x, lam)
    nv = n + q
    cones = [_hyperbolic_cone(a, P[:, i], 0.0, nv) for i, a in enumerate(obs)]
    A_ub = np.zeros((1 + q, nv))
    A_ub[0, n:] = d
    A_ub[1:, n:] = -np.eye(q)
    e_ub = np.r_[1.0, np.zeros(q)]
    primal = SocpProblem(objective=np.r_[c, np.zeros(q)], cones=tuple(cones),
                         lin_ineq=(A_ub, e_ub))

    # dual: variables (mu, t, alpha, z_1..z_l)
    nd = 2 * l + 1 + sum(obs_rows)
    obj = np.zeros(nd)
    obj[l:2 * l + 1] = 1.0
    B = np.hstack([np.zeros((n, 2 * l + 1))] + [a.T for a in obs])
    starts = np.cumsum((2 * l + 1,) + obs_rows[:-1]).tolist()
    A_ub_d = np.zeros((q + 2 * l + 1, nd))
    A_ub_d[:q, :l] = P
    A_ub_d[:q, l] = -d
    A_ub_d[q:q + l, :l] = A_ub_d[q + l + 1:, l + 1:2 * l + 1] = -np.eye(l)
    A_ub_d[q + l, l] = -1.0
    dcones = []
    for i, (k, start) in enumerate(zip(obs_rows, starts)):
        F = np.zeros((k + 1, nd))
        F[:k, start:start + k] = np.eye(k)
        F[k, l + 1 + i] = 1.0
        F[k, i] = -1.0
        f = np.zeros(nd)
        f[l + 1 + i] = 1.0
        f[i] = 1.0
        dcones.append(SocCon(F=F, g=np.zeros(k + 1), f=f, d=0.0))
    dual = SocpProblem(objective=obj, cones=tuple(dcones),
                       lin_ineq=(A_ub_d, np.zeros(q + 2 * l + 1)), lin_eq=(B, c.copy()),
                       sense="min")
    return ResourceSocpPair(primal=primal, dual=dual, l=l, obs_rows=obs_rows)
