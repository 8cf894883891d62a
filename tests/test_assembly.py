"""Every cone program sdpack builds, against the constructions it replaced.

The ``_ref_*`` functions below are the hand-rolled assemblies that each
builder carried before the builders went through
:func:`sdpack.conelp.cone_program`, kept as they were but for two things:
each cone list names the columns of the variable blocks (``x_b >= 0``)
the assembly declares, and the dual phase 1's ``-I`` block is one negated
identity (see ``_ref_dual_phase1``).  Every array of every program must
equal its reference to the bit, the sign of each zero included, so the
engine sees the same input whichever assembly built it.

``tests/test_conelp.py::TestDeclaredBlocks`` checks that every program
declares exactly the blocks that the scan the engine made before the
declarations (``_ref_selection_blocks``) finds in its ``G``.
"""

import dataclasses
import math

import numpy as np
import pytest

from sdpack import reduce as rd
from sdpack import solve as sv
from sdpack.conelp import ConeProgram, solve_cone_program, svec, svec_dim
from sdpack.errors import InfeasibleDesign
from sdpack.model import (Criterion, DesignProblem, PackingProblem, ResourceBlock,
                          parse_problem)

# ---------------------------------------------------------------------------
# the reference constructions


def _ref_socp_to_cone_program(socp):
    blocks, G_rows, h_rows = [], [], []
    n_ineq = 0
    if socp.lin_ineq is not None:
        A_ub, e_ub = socp.lin_ineq
        n_ineq = A_ub.shape[0]
        blocks.append(("nn", n_ineq))
        G_rows.append(A_ub)
        h_rows.append(e_ub)
    for con in socp.cones:
        k = con.F.shape[0]
        blocks.append(("soc", k + 1))
        G_rows.append(-np.vstack([con.f[None, :], con.F]))
        h_rows.append(np.r_[con.d, con.g])
    G = np.vstack(G_rows)
    h = np.concatenate(h_rows)
    c = -socp.objective if socp.sense == "max" else socp.objective.copy()
    A, b = (socp.lin_eq if socp.lin_eq is not None else (None, None))
    prog = ConeProgram(c=c, G=G, h=h, cones=blocks, A=A, b=b)
    return prog, n_ineq


def _ref_packing_cone_program(C, mats, b, eps=0.0):
    n = C.shape[0]
    L = svec_dim(n)
    l = len(mats)
    eye = np.eye(n)
    G = np.vstack([np.array([svec(m + eps * eye) for m in mats]),
                   -np.eye(L)])
    h = np.r_[np.asarray(b, float), np.zeros(L)]
    return ConeProgram(c=-svec(C), G=G, h=h, cones=[("nn", l), ("psd", n, 0)])


def _ref_dual_packing(problem):
    l, n = problem.l, problem.n
    G = np.zeros((l + svec_dim(n), l))
    G[:l, :l] = -np.eye(l)
    for i, m in enumerate(problem.mats):
        G[l:, i] = -svec(m)
    h = np.r_[np.zeros(l), -svec(problem.C)]
    return ConeProgram(c=problem.b.copy(), G=G, h=h,
                       cones=[("nn", l, 0), ("psd", n)])


def _ref_combined_cone_program(cmb, cap):
    n, p, q, l = cmb.n, cmb.p, cmb.q, cmb.l
    Lx, Lp = svec_dim(n), (svec_dim(p) if p else 0)
    nv = Lx + Lp + q
    rows, h = [], []
    for m, bi, r, hi in zip(cmb.mats, cmb.b, cmb.Rs, cmb.hs):
        row = np.zeros(nv)
        row[:Lx] = svec(m)
        if p:
            row[Lx:Lx + Lp] = -svec(r)
        row[Lx + Lp:] = -hi
        rows.append(row)
        h.append(float(bi))
    trace_row = np.zeros(nv)
    trace_row[:Lx] = cap * svec(np.eye(n))
    if p:
        trace_row[Lx:Lx + Lp] = cap * svec(np.eye(p))
    rows.append(trace_row)
    h.append(1.0)
    G_nn = np.vstack(rows)
    G_x = np.zeros((Lx, nv))
    G_x[:, :Lx] = -np.eye(Lx)
    G = np.vstack([G_nn, G_x])
    hv = np.r_[np.asarray(h), np.zeros(Lx)]
    cones = [("nn", l + 1), ("psd", n, 0)]
    if p:
        G_y = np.zeros((Lp, nv))
        G_y[:, Lx:Lx + Lp] = -np.eye(Lp)
        G = np.vstack([G, G_y])
        hv = np.r_[hv, np.zeros(Lp)]
        cones.append(("psd", p, Lx))
    c = np.zeros(nv)
    c[:Lx] = -svec(cmb.C)
    if p:
        c[Lx:Lx + Lp] = -svec(cmb.R0)
    c[Lx + Lp:] = -cmb.h0
    return ConeProgram(c=c, G=G, h=hv, cones=cones)


def _ref_primal_phase1(cmb):
    p, q, l = cmb.p, cmb.q, cmb.l
    Lp = svec_dim(p) if p else 0
    nv = Lp + q + 1
    c = np.zeros(nv)
    c[-1] = -1.0
    rows = []
    h = []
    for m, bi, r, hi in zip(cmb.mats, cmb.b, cmb.Rs, cmb.hs):
        row = np.zeros(nv)
        if p:
            row[:Lp] = -svec(r)
        row[Lp:Lp + q] = -hi
        row[-1] = 1.0
        rows.append(row)
        h.append(float(bi))
    cap = np.zeros(nv)
    cap[-1] = 1.0
    rows.append(cap)
    h.append(1.0)
    G = np.vstack(rows)
    hv = np.asarray(h)
    cones = [("nn", l + 1)]
    if p:
        Gp = np.zeros((Lp, nv))
        Gp[:, :Lp] = -np.eye(Lp)
        G = np.vstack([G, Gp])
        hv = np.r_[hv, np.zeros(Lp)]
        cones.append(("psd", p, 0))
    return ConeProgram(c=c, G=G, h=hv, cones=cones)


def _ref_dual_phase1(cmb):
    l, n, p, q = cmb.l, cmb.n, cmb.p, cmb.q
    c = np.zeros(l + 1)
    c[-1] = 1.0
    # the block (mu, t) >= 0 as one negated identity: the zeros of row l
    # and column l are -0.0 (the hand-built block had +0.0 there), and every
    # engine result and answer of the benchmark's workloads stays the same
    # to the bit
    G_nn = -np.eye(l + 1)
    h_nn = np.r_[np.zeros(l), 1.0]
    Ln = svec_dim(n)
    G_psd = np.zeros((Ln, l + 1))
    for i, m in enumerate(cmb.mats):
        G_psd[:, i] = -svec(m)
    G_psd[:, l] = -svec(np.eye(n))
    h_psd = -svec(cmb.C)
    G = np.vstack([G_nn, G_psd])
    h = np.r_[h_nn, h_psd]
    cones = [("nn", l + 1, 0), ("psd", n)]
    if p:
        Lp = svec_dim(p)
        G_r = np.zeros((Lp, l + 1))
        for i, r in enumerate(cmb.Rs):
            G_r[:, i] = svec(r)
        G_r[:, l] = -svec(np.eye(p))
        G = np.vstack([G, G_r])
        h = np.r_[h, -svec(cmb.R0)]
        cones.append(("psd", p))
    A = np.hstack([cmb.H, np.zeros((q, 1))]) if q else None
    beq = -cmb.h0 if q else None
    return ConeProgram(c=c, G=G, h=h, cones=cones, A=A, b=beq)


def _ref_positive_allocation(design):
    """The allocation LP ``max s`` subject to ``P w <= d``, ``w >= s 1`` and
    ``s <= 1``: the reference for the builder's closed-form decision."""
    P, d = design.resource.P, design.resource.d
    l, q = design.l, P.shape[0]
    cv = np.zeros(l + 1)
    cv[-1] = -1.0
    G = np.zeros((q + l + 1, l + 1))
    G[:q, :l] = P
    G[q:q + l, :l] = -np.eye(l)
    G[q:q + l, l] = 1.0
    G[q + l, l] = 1.0
    h = np.r_[d, np.zeros(l), 1.0]
    return ConeProgram(c=cv, G=G, h=h, cones=[("nn", q + l + 1)])


# ---------------------------------------------------------------------------
# instances and comparison


def _assert_identical(got: ConeProgram, ref: ConeProgram) -> None:
    assert got.cones == ref.cones
    for name in ("c", "G", "h", "A", "b"):
        u, v = getattr(got, name), getattr(ref, name)
        if v is None:
            assert u is None, name
            continue
        assert u.dtype == v.dtype and u.shape == v.shape, name
        assert np.array_equal(u, v), name
        assert np.array_equal(np.signbit(u), np.signbit(v)), name


class _Captured(Exception):
    pass


def _captured(monkeypatch, module, run) -> ConeProgram:
    """The program ``run`` hands to ``module.solve_cone_program``, caught
    before the engine runs."""
    def tap(prog, **kw):
        raise _Captured(prog)

    monkeypatch.setattr(module, "solve_cone_program", tap)
    with pytest.raises(_Captured) as exc:
        run()
    return exc.value.args[0]


def _sparse_psd(rng, n):
    """A PSD matrix whose first row and column are exact zeros, so packing
    and negating it gives zeros of both signs."""
    a = rng.standard_normal((n, n))
    a[:, 0] = 0.0
    return a.T @ a


def _packing(rng, n=4, l=3, rank_c=2) -> PackingProblem:
    mats = tuple(_sparse_psd(rng, n) + 0.05 * np.diag(np.r_[0.0, np.ones(n - 1)])
                 for _ in range(l))
    c = rng.standard_normal((n, rank_c))
    c[1] = 0.0
    b = rng.uniform(0.5, 2.0, l)
    b[-1] = -0.0
    return PackingProblem(C=c @ c.T, mats=mats, b=b)


def _combined(rng, p, q, n=3, l=3):
    """A combined problem through the parser, as the CLI gets it; zeros of
    both signs in every field."""
    def mat(a):
        return [[float(v) for v in row] for row in a]

    prob = _packing(rng, n, l)
    Rs = [0.5 * (r + r.T) for r in rng.standard_normal((l, p, p))]
    if p:
        Rs[0][0] = Rs[0][:, 0] = -0.0
    H = rng.standard_normal((q, l))
    if q:
        H[0, 0] = 0.0
    h0 = rng.standard_normal(q)
    if q:
        h0[-1] = -0.0
    doc = {"kind": "combined", "C": mat(prob.C),
           "constraints": [{"M": mat(m), "b": float(bi)}
                           for m, bi in zip(prob.mats, prob.b)],
           "R0": mat(-np.eye(p)) if p else [], "R": [mat(r) for r in Rs],
           "h0": [float(v) for v in h0], "h": [[float(v) for v in h] for h in H.T]}
    return parse_problem(doc)


def _resource_design(rng) -> DesignProblem:
    obs = [rng.standard_normal((2, 3)) for _ in range(4)]
    obs[0][0] = 0.0
    return DesignProblem(K=np.array([[1.0], [0.0], [-2.0]]), criterion=Criterion.C_OPT,
                         obs=tuple(obs), mats=tuple(a.T @ a for a in obs),
                         resource=ResourceBlock(P=rng.uniform(0.0, 1.0, (2, 4)),
                                                d=np.array([1.0, 2.0])))


SHAPES = [(0, 0), (0, 2), (2, 0), (2, 2)]


# ---------------------------------------------------------------------------
# the comparisons


class TestSameAssembly:
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("seed", range(4))
    def test_packing(self, seed, eps):
        prob = _packing(np.random.default_rng(seed), rank_c=1 + seed % 3)
        _assert_identical(sv._packing_cone_program(prob.C, prob.mats, prob.b, eps=eps),
                          _ref_packing_cone_program(prob.C, prob.mats, prob.b, eps=eps))

    @pytest.mark.parametrize("seed", range(4))
    def test_dual_packing(self, seed, monkeypatch):
        prob = _packing(np.random.default_rng(10 + seed))
        got = _captured(monkeypatch, sv, lambda: sv.solve_dual_packing(prob))
        _assert_identical(got, _ref_dual_packing(prob))

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("cap", [1.0, 0.1, 2e-5])
    @pytest.mark.parametrize("p,q", SHAPES)
    def test_combined(self, p, q, cap, eps):
        # a nonzero eps shifts every M_i by eps I in the data: the assembly
        # perturbs no constraint, so a perturbed problem is built as data
        cmb = _combined(np.random.default_rng(20 + p + 3 * q), p, q)
        if eps:
            cmb = dataclasses.replace(cmb, mats=tuple(m + eps * np.eye(cmb.n)
                                                      for m in cmb.mats))
        assert (cmb.p, cmb.q) == (p, q)
        _assert_identical(sv._combined_cone_program(cmb, cap),
                          _ref_combined_cone_program(cmb, cap))

    @pytest.mark.parametrize("p,q", SHAPES)
    def test_primal_phase1(self, p, q, monkeypatch):
        cmb = _combined(np.random.default_rng(30 + p + 3 * q), p, q)
        got = _captured(monkeypatch, rd, lambda: rd.combined_primal_phase1(cmb))
        _assert_identical(got, _ref_primal_phase1(cmb))

    @pytest.mark.parametrize("p,q", SHAPES)
    def test_dual_phase1(self, p, q, monkeypatch):
        cmb = _combined(np.random.default_rng(40 + p + 3 * q), p, q)
        got = _captured(monkeypatch, rd, lambda: rd.combined_dual_phase1(cmb))
        _assert_identical(got, _ref_dual_phase1(cmb))

    @staticmethod
    def _socps():
        """SOCPs with neither, either and both kinds of linear rows, of
        both senses."""
        rng = np.random.default_rng(50)
        rank_one = rd.to_socp_rank1(_packing(rng, rank_c=1))
        pair = rd.build_resource_constrained(_resource_design(rng))
        # equality rows without inequality rows: the dual's cones alone
        eq_only = rd.SocpProblem(objective=pair.dual.objective, cones=pair.dual.cones,
                                 lin_eq=pair.dual.lin_eq, sense="min")
        return {"neither": rank_one, "lin_ineq": pair.primal, "both": pair.dual,
                "lin_eq": eq_only}

    @pytest.mark.parametrize("kind", ["neither", "lin_ineq", "lin_eq", "both"])
    def test_socp(self, kind):
        socp = self._socps()[kind]
        assert (socp.lin_ineq is not None) == (kind in ("lin_ineq", "both"))
        assert (socp.lin_eq is not None) == (kind in ("lin_eq", "both"))
        got, n_ineq = sv._socp_to_cone_program(socp)
        ref, ref_n_ineq = _ref_socp_to_cone_program(socp)
        assert n_ineq == ref_n_ineq
        _assert_identical(got, ref)

    def test_positive_allocation(self):
        # the closed-form decision against the LP, on random P >= 0 with zero
        # rows, d < 0 on a zero row and d = 0 on a positive row.  Every
        # positive row has d_j = t_j (P 1)_j with t_j >= 1e-6 or t_j <= 0, so
        # s* = min(1, t_j) stays clear of the 1e-9 threshold: near it the LP
        # decides only to its own tolerance
        base = _resource_design(np.random.default_rng(60))
        rng = np.random.default_rng(61)
        seen = set()
        for k in range(40):
            q = 1 + k % 4
            P = rng.uniform(0.0, 1.0, (q, base.l))
            zero = rng.random(q) < 0.3
            P[zero] = 0.0
            t = np.where(rng.random(q) < 0.7, rng.choice([1e-6, 1e-3, 0.5, 1.0, 3.0], q),
                         rng.choice([0.0, -0.2], q))
            d = t * P.sum(axis=1)
            d[zero] = rng.choice([1.0, 0.0, -0.5], int(zero.sum()))
            design = dataclasses.replace(base, resource=ResourceBlock(P=P, d=d))
            res = solve_cone_program(_ref_positive_allocation(design), reltol=1e-9)
            lp_feasible = res.optimal and -res.pcost > 1e-9
            if lp_feasible:
                assert -res.pcost == pytest.approx(min([1.0, *t[~zero]]), abs=1e-8)
            try:
                rd.build_resource_constrained(design)
            except InfeasibleDesign as exc:
                assert str(exc).startswith("no strictly positive allocation")
                assert not lp_feasible
            else:
                assert lp_feasible
            seen.add((lp_feasible, bool(zero.any()), bool(np.any(d[zero] < 0))))
        assert seen >= {(True, False, False), (True, True, False), (False, False, False),
                        (False, True, True)}

    def test_signed_zeros_are_present(self):
        # the instances above do exercise the sign check: the references
        # hold negative zeros, and positive ones, in G, h and c
        cmb = _combined(np.random.default_rng(22), 2, 2)
        ref = _ref_combined_cone_program(cmb, 0.1)
        for a in (ref.G, ref.c):
            zeros = a == 0.0
            assert np.any(zeros & np.signbit(a)) and np.any(zeros & ~np.signbit(a))
        prob = _packing(np.random.default_rng(0))
        ref = _ref_dual_packing(prob)
        assert np.any((ref.h == 0.0) & np.signbit(ref.h))
        assert math.copysign(1.0, _ref_packing_cone_program(
            prob.C, prob.mats, prob.b).h[prob.l - 1]) == -1.0
