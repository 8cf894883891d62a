import contextlib
import importlib
import math
import pathlib
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from instances import bounded_packing
from scipy.optimize import linprog

from sdpack import conelp
from sdpack import reduce as rd
from sdpack import solve as sv
from sdpack.conelp import (_WARM_MARGIN, ConeProgram, StopReason, _chol_or_eig,
                           _congruence, _kkt_factory, _KktFactor, _Layout, _push_interior,
                           _QrKkt, _rows, _Scaling, _scaled_rows, _SchurKkt, _SchurPlan,
                           _smallest_positive_root, _svec_index,
                           _warm_margin, _warm_residual, smat, solve_cone_program, svec,
                           svec_dim)
from sdpack.errors import InvalidInput
from sdpack.model import CombinedProblem, Criterion, DesignProblem, PackingProblem, ResourceBlock


class TestPackedCoordinates:
    def test_round_trip_and_inner_product(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 8):
            a = rng.standard_normal((n, n)); A = a + a.T
            b = rng.standard_normal((n, n)); B = b + b.T
            assert np.allclose(smat(svec(A), n), A)
            assert svec(A) @ svec(B) == pytest.approx(np.trace(A @ B))
            assert svec(A).shape == (svec_dim(n),)

    def test_wrong_shapes_rejected(self):
        with pytest.raises(InvalidInput):
            smat(np.array([2.0]), 3)
        with pytest.raises(InvalidInput):
            smat(np.ones((6, 1)), 3)
        with pytest.raises(InvalidInput):
            svec(np.ones((2, 3)))
        with pytest.raises(InvalidInput):
            svec(np.ones(3))


def _interior_point(rng, cones):
    parts = []
    for kind, d, *_ in cones:
        if kind == "nn":
            parts.append(rng.uniform(0.1, 3.0, d))
        elif kind == "soc":
            v = rng.standard_normal(d); v[0] = np.linalg.norm(v[1:]) + rng.uniform(0.1, 2)
            parts.append(v)
        else:
            a = rng.standard_normal((d, d)); parts.append(svec(a @ a.T + 0.1 * np.eye(d)))
    return np.concatenate(parts)


def _margin(layout, v):
    """The smallest cone eigenvalue across blocks (nan if any block's is,
    inf for no blocks)."""
    margins = list(layout._block_margins(v))
    return float(np.minimum.reduce(np.concatenate(margins))) if margins else math.inf


# several soc runs, a run of one block, the degenerate order-1 cone and an nn
# block between two runs of the same order
SOC_RUNS = ((("soc", 3),) * 3 + (("soc", 1),) + (("soc", 4),) * 2 + (("nn", 2),)
            + (("soc", 3),) * 2)


class TestScalingIdentities:
    # each case is a layout: one block of each kind, then all three mixed
    @pytest.mark.parametrize("cone", [(("nn", 5),), (("soc", 4),), (("psd", 3),),
                                      (("nn", 3), ("soc", 4), ("psd", 3)), SOC_RUNS])
    def test_nt_properties(self, cone):
        rng = np.random.default_rng(3)
        layout = _Layout(cone)
        eye = np.eye(layout.m)
        for _ in range(25):
            s = _interior_point(rng, cone)
            z = _interior_point(rng, cone)
            sc = _Scaling(layout, s, z)
            lam_z = sc.W(z)
            lam_s = sc.Winvt(s)
            assert np.allclose(lam_z, lam_s, atol=1e-9), "W z == inv(W).T s"
            assert np.allclose(sc.Winv(sc.W(eye)), eye, atol=1e-9)
            assert _margin(layout, lam_z) > 0
            # scaled point carries the duality gap
            assert lam_z @ lam_z == pytest.approx(s @ z, rel=1e-9)
            # transposed and Gram operators match the block operators
            W = sc.W(eye)
            assert np.allclose(sc.Wt(eye), W.T, atol=1e-9)
            assert np.allclose(sc.Winvt(eye), sc.Winv(eye).T, atol=1e-9)
            assert np.allclose(sc.gram()(eye), W.T @ W, atol=1e-9)


class TestCholOrEig:
    def test_eigendecomposition_fallback(self):
        # a singular S, on which Cholesky raises, still gets a finite factor
        S = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(S)
        F = _chol_or_eig(S)
        assert np.all(np.isfinite(F))
        np.testing.assert_allclose(F @ F.T, S, atol=1e-14)


class TestRunWideOps:
    """Each run-wide operation equals the same operation on one single-block
    layout per block."""

    def test_runs(self):
        layout = _Layout(SOC_RUNS)
        assert [(kind, len(blocks)) for kind, _, blocks in layout.runs] == [
            ("soc", 3), ("soc", 1), ("soc", 2), ("nn", 1), ("soc", 2)]

    def test_matches_single_blocks(self):
        rng = np.random.default_rng(6)
        layout = _Layout(SOC_RUNS)
        singles = [(b.sl, _Layout(((b.kind, b.order),))) for b in layout.blocks]
        eye = np.eye(layout.m)
        for _ in range(20):
            s = _interior_point(rng, SOC_RUNS)
            z = _interior_point(rng, SOC_RUNS)
            v = rng.standard_normal(layout.m)
            sc = _Scaling(layout, s, z)
            lam = sc.lam
            one_sc = [_Scaling(one, s[sl], z[sl]) for sl, one in singles]
            np.testing.assert_allclose(lam, np.concatenate([o.lam for o in one_sc]),
                                       rtol=1e-13)
            for op in ("W", "Winv"):
                blocks = [getattr(o, op)(np.eye(one.m))
                          for o, (_, one) in zip(one_sc, singles)]
                np.testing.assert_allclose(getattr(sc, op)(eye),
                                           scipy.linalg.block_diag(*blocks), rtol=1e-13)
            want = np.concatenate([one.circ(s[sl], v[sl]) for sl, one in singles])
            np.testing.assert_allclose(layout.circ(s, v), want, rtol=1e-13)
            want = np.concatenate([o.divide(v[sl]) for o, (sl, _) in zip(one_sc, singles)])
            np.testing.assert_allclose(sc.divide(v), want, rtol=1e-13)
            want = min(o.max_step([v[sl]]) for o, (sl, _) in zip(one_sc, singles))
            assert sc.max_step([v]) == pytest.approx(want, rel=1e-13)
            want = min(_margin(one, v[sl]) for sl, one in singles)
            assert _margin(layout, v) == pytest.approx(want, rel=1e-13)

    def test_identity_and_push_interior(self):
        layout = _Layout(SOC_RUNS)
        e = layout.identity()
        assert np.array_equal(e, np.concatenate([_Layout((c,)).identity()
                                                 for c in SOC_RUNS]))
        assert np.array_equal(layout.circ(e, e), e)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(layout.m)
        for push in (_WARM_MARGIN, 1e-3, 1e-8):
            pushed = _push_interior(layout, v, e, push)
            for b in layout.blocks:
                one = _Layout(((b.kind, b.order),))
                np.testing.assert_allclose(pushed[b.sl],
                                           _push_interior(one, v[b.sl], e[b.sl], push),
                                           rtol=1e-13)
            assert _margin(layout, pushed) > 0


def _push_interior_at_005(layout, v, e):
    """The warm-start push before the residual-balanced rule: every block
    to a margin of 0.05 (|mean| + 1), whatever the warm point's residual."""
    out = v.copy()
    for (kind, sl, blocks), margin in zip(layout.runs, layout._block_margins(v)):
        U = _rows(out, sl, blocks)
        if kind == "nn":
            mean = np.mean(np.abs(U), axis=1)
        elif kind == "soc":
            mean = np.abs(U[:, 0])
        else:
            diagonal = np.diag(_svec_index(blocks[0].order)[0])
            mean = U[:, diagonal].sum(axis=1) / blocks[0].order
        target = 0.05 * (np.abs(mean) + 1.0)
        low = margin < target
        U[low] += (target - margin)[low, None] * _rows(e, sl, blocks)[low]
    return out


def _block_scale(kind, order, v):
    """|mean| + 1 of one block: its mean entry (nn), |v0| (soc) or mean
    eigenvalue (psd)."""
    if kind == "nn":
        mean = np.mean(np.abs(v))
    elif kind == "soc":
        mean = v[0]
    else:
        mean = np.trace(smat(v, order)) / order
    return abs(mean) + 1.0


class TestWarmStartPush:
    """The push factor of a warm start follows its residual in the new
    program, capped at 0.05; an already-feasible warm point gets 0.05."""

    CONES = (("nn", 3), ("soc", 4), ("psd", 3)) + SOC_RUNS + (("psd", 4),) * 2
    FEASTOL = 1e-9

    def _point(self, seed):
        # an interior point with every other block moved out of the cone
        rng = np.random.default_rng(seed)
        layout = _Layout(self.CONES)
        e = layout.identity()
        v = _interior_point(rng, self.CONES)
        for b in layout.blocks[::2]:
            v[b.sl] -= 5.0 * e[b.sl]
        return layout, e, v

    @pytest.mark.parametrize("rho", [_WARM_MARGIN, 0.3, 7.0, np.inf])
    def test_large_residual_keeps_the_005_push(self, rho):
        layout, e, v = self._point(1)
        push = _warm_margin(rho, self.FEASTOL)
        assert push == 0.05
        assert np.array_equal(_push_interior(layout, v, e, push),
                              _push_interior_at_005(layout, v, e))

    @pytest.mark.parametrize("rho", [0.049, 1e-3, 1e-6, 2e-9])
    def test_small_residual_sets_block_margins(self, rho):
        layout, e, v = self._point(2)
        push = _warm_margin(rho, self.FEASTOL)
        assert push == rho
        pushed = _push_interior(layout, v, e, push)
        moved = kept = 0
        for b in layout.blocks:
            one = _Layout(((b.kind, b.order),))
            target = rho * _block_scale(b.kind, b.order, v[b.sl])
            if _margin(one, v[b.sl]) < target:
                assert _margin(one, pushed[b.sl]) == pytest.approx(target, abs=1e-12)
                moved += 1
            else:
                assert np.array_equal(pushed[b.sl], v[b.sl])
                kept += 1
        assert moved and kept

    @pytest.mark.parametrize("rho", [0.0, 1e-14, FEASTOL, np.nan])
    def test_feasible_warm_point_is_recentred(self, rho):
        layout, e, v = self._point(3)
        push = _warm_margin(rho, self.FEASTOL)
        assert push == 0.05
        assert np.array_equal(_push_interior(layout, v, e, push),
                              _push_interior_at_005(layout, v, e))

    def test_residual_takes_the_largest_part(self):
        rng = np.random.default_rng(4)
        nx, m, p = 4, 5, 2
        G, A = rng.standard_normal((m, nx)), rng.standard_normal((p, nx))
        x, y, s, z = (rng.standard_normal(k) for k in (nx, p, m, m))
        # data the point meets exactly, then a residual in one part at a time
        h, c, b = G @ x + s, -(G.T @ z + A.T @ y), A @ x

        def rel(r, d):
            return np.linalg.norm(r) / max(1.0, np.linalg.norm(d))

        assert _warm_residual(c, G, h, A, b, x, y, s, z) < 1e-14
        ds = np.r_[0.3, np.zeros(m - 1)]
        assert _warm_residual(c, G, h, A, b, x, y, s + ds, z) == pytest.approx(rel(ds, h))
        dz = np.r_[0.0, 0.2, np.zeros(m - 2)]
        assert _warm_residual(c, G, h, A, b, x, y, s, z + dz) == pytest.approx(
            rel(G.T @ dz, c))
        db = np.array([0.0, 0.1])
        assert _warm_residual(c, G, h, A, b + db, x, y, s, z) == pytest.approx(
            rel(db, b + db))
        # with no equality rows only the cone and dual rows count
        assert _warm_residual(-(G.T @ z), G, h, np.zeros((0, nx)), np.zeros(0),
                              x, np.zeros(0), s, z) < 1e-14


class TestSmallestPositiveRoot:
    @pytest.mark.parametrize("p2, p1, p0, root", [
        (0.0, 2.0, -3.0, 1.5),          # linear with a positive root
        (0.0, -2.0, -3.0, np.inf),      # linear, root negative
        (1e-301, 2.0, -3.0, 1.5),       # treated as linear
        (1.0, 0.0, 1.0, np.inf),        # negative discriminant
        (1.0, 3.0, 2.0, np.inf),        # roots -1 and -2: none positive
        (1.0, -3.0, 2.0, 1.0),          # roots 1 and 2
        (-1.0, 0.0, 4.0, 2.0),          # roots -2 and 2
        (1.0, 1.0, 0.0, np.inf),        # roots 0 and -1: zero is not positive
    ])
    def test_cases(self, p2, p1, p0, root):
        got = _smallest_positive_root(np.array([p2]), np.array([p1]), np.array([p0]))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(root)

    def test_vectorized(self):
        p2 = np.array([0.0, 1.0, 1.0, 1.0])
        p1 = np.array([2.0, 0.0, 3.0, -3.0])
        p0 = np.array([-3.0, 1.0, 2.0, 2.0])
        np.testing.assert_array_equal(_smallest_positive_root(p2, p1, p0),
                                      [1.5, np.inf, np.inf, 1.0])


class TestSvecCongruence:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_batched_equals_per_column_build(self, n):
        # the psd scaling's congruence V -> R.T V R on packed coordinates,
        # applied to the columns of a matrix at once and to one vector,
        # against one column at a time through smat and svec
        rng = np.random.default_rng(n)
        R = rng.standard_normal((n, n))
        dim = svec_dim(n)
        V = rng.standard_normal((dim, 5))
        loop = np.empty((dim, 5))
        for j, v in enumerate(V.T):
            loop[:, j] = svec(R.T @ smat(v, n) @ R)
        got, one = np.empty((dim, 5)), np.empty(dim)
        _congruence(R, _svec_index(n), V, got)
        _congruence(R, _svec_index(n), V[:, 0], one)
        # bitwise: the path tests' 1e-9 monotonicity slack cannot absorb a
        # rewrite of this product that is only equal to rounding
        assert np.array_equal(got, loop) and np.array_equal(one, loop[:, 0])


class TestJordanOps:
    def test_circ_solve_inverts_circ(self):
        rng = np.random.default_rng(4)
        cone = (("nn", 3), ("soc", 4), ("psd", 3))
        layout = _Layout(cone)
        e = layout.identity()
        assert np.allclose(layout.circ(e, e), e)
        for _ in range(20):
            s, z = _interior_point(rng, cone), _interior_point(rng, cone)
            v = rng.standard_normal(layout.m)
            # at scale 1e-9 every entry of the scaled point is below
            # allclose's absolute tolerance
            for scale in (1.0, 1e-9):
                sc = _Scaling(layout, scale * s, scale * z)
                u = sc.divide(v)
                assert np.allclose(layout.circ(sc.lam, u), v, atol=1e-8)

    @pytest.mark.parametrize("cone", [(("psd", 4),), (("nn", 2), ("psd", 3), ("psd", 3))])
    def test_scaled_point_eigenvalues(self, cone):
        # divide and max_step, which read the scaled point's eigenvalues,
        # agree with the generic path in the eigenbasis of lam; max_step to
        # the bit, since the eps-path's step lengths must not move
        rng = np.random.default_rng(8)
        layout = _Layout(cone)
        for _ in range(20):
            sc = _Scaling(layout, _interior_point(rng, cone), _interior_point(rng, cone))
            assert len(sc.sigma) == sum(kind == "psd" for kind, _ in cone)
            v = rng.standard_normal(layout.m)
            np.testing.assert_allclose(sc.divide(v), _ref_circ_solve(layout, sc.lam, v, None),
                                       rtol=1e-12)
            assert sc.max_step([v]) == _ref_max_step(layout, sc.lam, [v], None)

    def test_max_step_tied_eigenvalues(self):
        # tied eigenvalues, as at a cold start (s = z = e), take the
        # eigendecomposition of diag(sigma): the generic path, to the bit
        layout = _Layout((("psd", 3),))
        v = np.random.default_rng(9).standard_normal(layout.m)
        for d in (np.array([4.0, 1.0, 1.0]), np.ones(3)):
            sc = _Scaling(layout, svec(np.diag(d)), svec(np.diag(d)))
            assert np.array_equal(sc.sigma[0], d)
            assert sc.max_step([v]) == _ref_max_step(layout, sc.lam, [v], None)

    def test_margin_nan_in_any_block(self):
        layout = _Layout((("nn", 1), ("soc", 2), ("soc", 2)))
        for i in range(layout.m):
            v = layout.identity()
            v[i] = np.nan
            assert np.isnan(_margin(layout, v))

    def test_margin_nan_in_a_psd_block(self):
        # eigvalsh raises on some nan placements and returns finite
        # eigenvalues on others; the margin is nan either way
        layout = _Layout((("nn", 3), ("psd", 3)))
        for i in range(layout.m):
            v = layout.identity()
            v[i] = np.nan
            assert np.isnan(_margin(layout, v))
            for floor in (-np.inf, -1e-9, 0.0, math.ulp(0.0)):
                assert layout.margin_at_least(v, floor) is False

    def test_max_step_hits_boundary(self):
        rng = np.random.default_rng(5)
        layout = _Layout((("nn", 2), ("soc", 3), ("psd", 2)))
        e = layout.identity()
        # the scaled point of a cold start is e
        sc = _Scaling(layout, e, e)
        assert np.array_equal(sc.lam, e)
        for _ in range(20):
            d = rng.standard_normal(layout.m)
            a = sc.max_step([d])
            if not np.isfinite(a):
                assert _margin(layout, e + 100.0 * d) >= -1e-9
                continue
            assert _margin(layout, e + 0.999 * a * d) >= -1e-9
            assert _margin(layout, e + 1.01 * a * d + 0.001 * d) <= 1e-9


class TestBatchedChecks:
    """One max_step over both directions of a step equals the per-direction
    calls to the bit."""

    @pytest.mark.parametrize("name", ["eps_path", "trace_cap", "dual_packing",
                                      "dual_phase1", "mixed_runs", "nn_pair",
                                      "soc_runs"])
    def test_equal_to_single_calls(self, name, monkeypatch):
        cones = SOC_RUNS if name == "soc_runs" else _program_shape(name, monkeypatch)[0].cones
        layout = _Layout(cones)
        rng = np.random.default_rng(23)
        for _ in range(10):
            s, z = _interior_point(rng, cones), _interior_point(rng, cones)
            sc = _Scaling(layout, s, z)
            ds, dz = rng.standard_normal((2, layout.m))
            one = [sc.max_step([d]) for d in (ds, dz)]
            assert sc.max_step((ds, dz)) == min(one)


class TestConeProgramValidation:
    G, h, c = np.vstack([np.eye(2), -np.ones((1, 2))]), np.ones(3), np.ones(2)

    @pytest.mark.parametrize("cones", [[("nn", 2), ("psd", -2)],
                                       [("nn", 3), ("psd", -1)],
                                       [("nn", 4), ("soc", -1)],
                                       [("nn", 2), ("exp", 1)]])
    def test_rejected_at_construction(self, cones):
        # each list covers the three rows of G, so only the cone check fails
        with pytest.raises(InvalidInput):
            ConeProgram(c=self.c, G=self.G, h=self.h, cones=cones)

    @pytest.mark.parametrize("field", ["c", "G", "h", "A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_data_rejected(self, field, bad):
        data = dict(c=self.c.copy(), G=self.G.copy(), h=self.h.copy(),
                    A=np.ones((1, 2)), b=np.ones(1))
        data[field].flat[0] = bad
        with pytest.raises(InvalidInput):
            ConeProgram(cones=[("nn", 3)], **data)

    def test_equality_rows_need_b(self):
        with pytest.raises(InvalidInput, match="no b"):
            ConeProgram(c=self.c, G=self.G, h=self.h, cones=[("nn", 3)],
                        A=np.ones((1, 2)))

    def test_zero_order_blocks_allowed(self):
        prog = ConeProgram(c=self.c, G=self.G, h=self.h,
                           cones=[("soc", 0), ("nn", 3), ("psd", 0)])
        assert solve_cone_program(prog).optimal


class TestSolver:
    def test_box_lp(self):
        G = np.vstack([np.eye(2), -np.eye(2)])
        h = np.array([1.0, 1.0, 0.0, 0.0])
        res = solve_cone_program(ConeProgram(c=np.array([-1.0, -1.0]), G=G, h=h,
                                             cones=[("nn", 4)]))
        assert res.optimal
        assert res.pcost == pytest.approx(-2.0, abs=1e-7)

    def test_soc_projection(self):
        c = np.array([3.0, 4.0])
        G = np.vstack([np.zeros((1, 2)), -np.eye(2)])
        h = np.array([1.0, 0.0, 0.0])
        res = solve_cone_program(ConeProgram(c=-c, G=G, h=h, cones=[("soc", 3)]),
                                 reltol=1e-10)
        assert res.optimal
        assert -res.pcost == pytest.approx(5.0, abs=1e-8)
        assert np.allclose(res.x, [0.6, 0.8], atol=1e-7)

    def test_psd_extreme_eigenvalue(self):
        rng = np.random.default_rng(0)
        n = 4
        a = rng.standard_normal((n, n))
        C = 0.5 * (a + a.T)
        L = svec_dim(n)
        G = np.vstack([svec(np.eye(n))[None, :], -np.eye(L)])
        h = np.r_[1.0, np.zeros(L)]
        res = solve_cone_program(ConeProgram(c=-svec(C), G=G, h=h,
                                             cones=[("nn", 1), ("psd", n)]),
                                 reltol=1e-10)
        assert res.optimal
        assert -res.pcost == pytest.approx(np.linalg.eigvalsh(C)[-1], abs=1e-8)

    def test_psd_cone_alone(self):
        # G = -I on one psd block: the bordered KKT system is empty, or holds
        # the one equality row tr X = 1
        C, L = np.diag([1.0, 2.0, 3.0]), svec_dim(3)
        data = dict(c=svec(C), G=-np.eye(L), h=np.zeros(L), cones=[("psd", 3)])
        for extra, value in (({}, 0.0), ({"A": svec(np.eye(3))[None], "b": [1.0]}, 1.0)):
            res = solve_cone_program(ConeProgram(**data, **extra))
            assert res.optimal
            assert res.pcost == pytest.approx(value, abs=1e-7)

    def test_equality_rows(self):
        prog = ConeProgram(c=np.array([1.0, 0.0]), G=-np.eye(2), h=np.zeros(2),
                           cones=[("nn", 2)], A=np.array([[1.0, 1.0]]),
                           b=np.array([1.0]))
        res = solve_cone_program(prog)
        assert res.optimal
        assert res.pcost == pytest.approx(0.0, abs=1e-8)
        assert res.x[1] == pytest.approx(1.0, abs=1e-7)

    def test_random_lps_match_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            nx = int(rng.integers(2, 6))
            mi = int(rng.integers(nx + 1, 2 * nx + 4))
            Gm = rng.standard_normal((mi, nx))
            x0 = rng.standard_normal(nx)
            h = Gm @ x0 + rng.uniform(0.1, 2.0, mi)
            Gfull = np.vstack([Gm, np.eye(nx), -np.eye(nx)])
            hfull = np.r_[h, 10 * np.ones(2 * nx)]
            c = rng.standard_normal(nx)
            res = solve_cone_program(ConeProgram(c=c, G=Gfull, h=hfull,
                                                 cones=[("nn", hfull.size)]),
                                     reltol=1e-9)
            ref = linprog(c, A_ub=Gfull, b_ub=hfull, bounds=(None, None))
            assert res.optimal and ref.status == 0
            assert res.pcost == pytest.approx(ref.fun, abs=1e-6)

    def test_infeasible_lp_certificate(self):
        G = np.array([[1.0], [-1.0]])
        h = np.array([-1.0, -1.0])
        res = solve_cone_program(ConeProgram(c=np.array([0.0]), G=G, h=h,
                                             cones=[("nn", 2)]))
        assert res.status == "primal_infeasible"
        _, zc = res.infeas_cert
        assert h @ zc == pytest.approx(-1.0, abs=1e-6)
        assert np.abs(G.T @ zc).max() <= 1e-6

    def test_infeasible_soc(self):
        G = np.vstack([np.zeros((1, 2)), -np.eye(2)])
        h = np.array([-1.0, 0.0, 0.0])
        res = solve_cone_program(ConeProgram(c=np.zeros(2), G=G, h=h,
                                             cones=[("soc", 3)]))
        assert res.status == "primal_infeasible"

    def test_unbounded_ray(self):
        G = np.array([[-1.0]])
        h = np.array([0.0])
        res = solve_cone_program(ConeProgram(c=np.array([-1.0]), G=G, h=h,
                                             cones=[("nn", 1)]))
        assert res.status == "dual_infeasible"
        assert res.ray is not None and res.ray[0] > 0

    def test_tight_tolerance_across_cones(self):
        # mixed LP + SOC: min x1 + x2 s.t. ||(x1 - 1, x2 - 1)|| <= 1, x >= 0
        G = np.vstack([-np.eye(2), np.zeros((1, 2)), -np.eye(2)])
        h = np.array([0.0, 0.0, 1.0, -1.0, -1.0])
        res = solve_cone_program(ConeProgram(c=np.array([1.0, 1.0]), G=G, h=h,
                                             cones=[("nn", 2), ("soc", 3)]),
                                 reltol=1e-11)
        assert res.optimal
        assert res.relgap <= 1e-11
        assert res.pcost == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-9)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(c2=st.floats(1.0 - 1e-3, 1.0 + 1e-3), r=st.floats(0.7, 1.3))
    def test_tight_tolerance_perturbed(self, c2, r):
        # the same program with objective x1 + c2 x2 and radius r: the
        # optimum is the centre minus r (1, c2) / |(1, c2)|, inside x >= 0
        G = np.vstack([-np.eye(2), np.zeros((1, 2)), -np.eye(2)])
        h = np.array([0.0, 0.0, r, -1.0, -1.0])
        res = solve_cone_program(ConeProgram(c=np.array([1.0, c2]), G=G, h=h,
                                             cones=[("nn", 2), ("soc", 3)]),
                                 reltol=1e-11)
        assert res.optimal
        assert abs(res.pcost - (1.0 + c2 - r * np.hypot(1.0, c2))) <= 1e-9

    def test_stop_reasons(self):
        box = ConeProgram(c=np.array([-1.0, -1.0]), G=np.vstack([np.eye(2), -np.eye(2)]),
                          h=np.array([1.0, 1.0, 0.0, 0.0]), cones=[("nn", 4)])
        infeasible = ConeProgram(c=np.array([0.0]), G=np.array([[1.0], [-1.0]]),
                                 h=np.array([-1.0, -1.0]), cones=[("nn", 2)])
        unbounded = ConeProgram(c=np.array([-1.0]), G=np.array([[-1.0]]),
                                h=np.array([0.0]), cones=[("nn", 1)])
        # min t s.t. x t >= 4: the infimum 0 is attained by no finite point
        hyperbolic = ConeProgram(c=np.array([0.0, 1.0]),
                                 G=-np.array([[1.0, 1.0], [0.0, 0.0], [1.0, -1.0]]),
                                 h=np.array([0.0, 2.0, 0.0]), cones=[("soc", 3)])
        for prog, kw, status, reason in [
                (box, {}, "optimal", StopReason.CONVERGED),
                (infeasible, {}, "primal_infeasible", StopReason.PRIMAL_INFEASIBLE),
                (unbounded, {}, "dual_infeasible", StopReason.DUAL_INFEASIBLE),
                (box, {"max_iter": 2}, "max_iterations", StopReason.ITERATION_LIMIT),
                (hyperbolic, {}, "max_iterations", StopReason.LEFT_CONE)]:
            res = solve_cone_program(prog, **kw)
            assert (res.status, res.stop_reason) == (status, reason)

    def test_factor_failure_stop_reason(self, monkeypatch):
        def broken(G, A, layout):
            def factor(sc):
                raise np.linalg.LinAlgError("forced")
            return factor
        monkeypatch.setattr(conelp, "_kkt_factory", broken)
        prog = ConeProgram(c=np.array([-1.0]), G=np.array([[1.0], [-1.0]]),
                           h=np.array([1.0, 0.0]), cones=[("nn", 2)])
        res = solve_cone_program(prog)
        assert res.status == "max_iterations"
        assert res.stop_reason is StopReason.FACTOR_FAILURE
        assert res.iterations == 0 and res.x is not None

    def test_warm_start_accepted(self):
        G = np.vstack([np.eye(2), -np.eye(2)])
        h = np.array([1.0, 1.0, 0.0, 0.0])
        prog = ConeProgram(c=np.array([-1.0, -1.0]), G=G, h=h, cones=[("nn", 4)])
        cold = solve_cone_program(prog)
        warm = solve_cone_program(prog, warm=(cold.x, cold.y, cold.s, cold.z))
        assert warm.optimal
        assert warm.pcost == pytest.approx(cold.pcost, abs=1e-7)

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_start_from_perturbed_optimum(self, seed):
        # the optimum of a nearby program (eps 1e-3 -> 1.1e-3 in the packing
        # program's rows) has a small residual in the new one; the warm
        # start reaches the cold answer in fewer than half its iterations
        prob = bounded_packing(np.random.default_rng(seed), 5, 4, 2)
        near = solve_cone_program(sv._packing_cone_program(prob.C, prob.mats, prob.b,
                                                           eps=1e-3))
        prog = sv._packing_cone_program(prob.C, prob.mats, prob.b, eps=1.1e-3)
        cold = solve_cone_program(prog)
        warm = solve_cone_program(prog, warm=(near.x, near.y, near.s, near.z))
        assert cold.optimal and warm.optimal
        assert warm.pcost == pytest.approx(cold.pcost, abs=1e-7)
        assert warm.iterations < cold.iterations / 2


class TestKktFactorizations:
    def test_layout_picks_the_factorization(self):
        G, A = np.ones((6, 2)), np.ones((1, 2))
        sc = _Scaling(_Layout([("nn", 3), ("soc", 3)]), np.ones(6), np.ones(6))
        qr = _kkt_factory(G, A, _Layout([("nn", 3), ("soc", 3)]))
        assert qr.func is _QrKkt
        lu = _kkt_factory(G, A, _Layout([("nn", 3), ("psd", 2)]))
        assert lu.func is _SchurKkt
        plan = lu.args[0]
        assert isinstance(plan, _SchurPlan)
        assert plan.G_D_l.dtype == np.longdouble and plan.A_l.dtype == np.longdouble
        assert isinstance(qr(sc), _QrKkt)

    @pytest.mark.parametrize("n", [3, 17, 80])
    def test_triangular_solve_matches_solve_triangular(self, n):
        rng = np.random.default_rng(n)
        R = np.linalg.qr(rng.standard_normal((n + 4, n)), mode="r")
        for v in (rng.standard_normal(n), rng.standard_normal((n, 5)),
                  rng.standard_normal((5, n)).T):
            for trans in ("N", "T"):
                want = scipy.linalg.solve_triangular(R, v, trans=trans,
                                                     check_finite=False)
                assert np.array_equal(_QrKkt._tri(R, v, trans=trans), want)

    def test_triangular_solve_singular_raises(self):
        R = np.triu(np.random.default_rng(1).standard_normal((4, 4)))
        R[2, 2] = 0.0
        for trans in ("N", "T"):
            with pytest.raises(np.linalg.LinAlgError):
                _QrKkt._tri(R, np.ones(4), trans=trans)

    def test_qr_matches_augmented_lu_on_resource_dual(self):
        # the dual of a resource-constrained design has nn and soc blocks
        # and equality rows; at an interior scaling both solves agree
        rng = np.random.default_rng(11)
        n, l, q = 3, 6, 2
        obs = tuple(rng.standard_normal((2, n)) for _ in range(l))
        design = DesignProblem(K=rng.standard_normal((n, 1)), criterion=Criterion.C_OPT,
                               obs=obs, mats=tuple(a.T @ a for a in obs),
                               resource=ResourceBlock(P=rng.uniform(0.1, 1.0, (q, l)),
                                                      d=rng.uniform(1.0, 2.0, q)))
        prog, _ = sv._socp_to_cone_program(rd.build_resource_constrained(design).dual)
        G, A = prog.G, prog.A
        assert A.shape[0] > 0
        layout = _Layout(prog.cones)
        for _ in range(10):
            sc = _Scaling(layout, _interior_point(rng, prog.cones),
                          _interior_point(rng, prog.cones))
            qr = _QrKkt(G, A, sc)
            lu = _FullLu(G, A, sc)
            rx, ry, rz = (rng.standard_normal(k) for k in (G.shape[1], A.shape[0],
                                                           G.shape[0]))
            for u_qr, u_lu in zip(qr.solve(rx, ry, rz), lu.solve(rx, ry, rz)):
                assert np.allclose(u_qr, u_lu, rtol=1e-10, atol=1e-10)
            ux, uy, uz = qr.solve(rx, ry, rz)
            assert np.allclose(G.T @ uz + A.T @ uy, rx, atol=1e-10)
            assert np.allclose(A @ ux, ry, atol=1e-10)
            assert np.allclose(G @ ux - sc.Wt(sc.W(uz)), rz, atol=1e-10)


def _psd_kkt_cases(seed, count):
    """A packing program with a psd block, with ``count`` interior scalings
    spread over scales 1e-6 to 1e2 and a right-hand side for each."""
    rng = np.random.default_rng(seed)
    n, l = 4, 3
    mats = [a @ a.T + 0.05 * np.eye(n) for a in rng.standard_normal((l, n, n))]
    b = rng.uniform(0.5, 2.0, l)
    prog = sv._packing_cone_program(np.eye(n), mats, b, eps=1e-3)
    layout = _Layout(prog.cones)
    for scale in np.geomspace(1e-6, 1e2, count):
        sc = _Scaling(layout, scale * _interior_point(rng, prog.cones),
                      _interior_point(rng, prog.cones) / scale)
        rhs = (rng.standard_normal(prog.G.shape[1]), np.zeros(0),
               rng.standard_normal(prog.G.shape[0]))
        yield prog, sc, rhs


def _tap(monkeypatch, name, arg=0):
    """Record a copy of argument ``arg`` of every call to the LAPACK routine
    ``conelp.<name>``: the transpose of the matrix ``_getrf`` factors, or
    the right-hand side ``_getrs`` solves (``arg=2``)."""
    captured = []
    routine = getattr(conelp, name)

    def tap(*args, **kw):
        captured.append(args[arg].copy())
        return routine(*args, **kw)

    monkeypatch.setattr(conelp, name, tap)
    return captured


def _eps_path_operators(prog, sc):
    """The eps-path program's pieces as explicit matrices: ``E = inv(W_nn).T
    G_nn`` on the X columns, ``Qt = Q inv(I + 1e-14 Q)`` and ``inv(I + 1e-14
    Q)`` with ``Q = W_X.T W_X`` (L x L)."""
    l, L = prog.cones[0][1], prog.G.shape[1]
    E = sc.runs[0][2][:, None] * prog.G[:l]
    Wx = sc.W(np.eye(prog.G.shape[0]))[l:, l:]
    Q = Wx.T @ Wx
    inv = np.linalg.inv(np.eye(L) + 1e-14 * Q)
    return E, Q @ inv, inv


class TestLuKkt:
    def test_matches_scipy_lu_bitwise(self, monkeypatch):
        # the eps-path program: its psd block is eliminated and the bordered
        # system is -(I + E Qt E.T) in the nn rows alone.  It matches the one
        # built here from L x L matrices, and its factor and solves are
        # scipy's lu_factor and lu_solve to the bit
        factored, solved = _tap(monkeypatch, "_getrf"), _tap(monkeypatch, "_getrs", 2)
        for prog, sc, (rx, ry, rz) in _psd_kkt_cases(12, 6):
            G = prog.G
            kkt = _kkt_factory(G, np.zeros((0, G.shape[1])), _Layout(prog.cones))(sc)
            assert isinstance(kkt, _SchurKkt)
            l = prog.cones[0][1]
            E, Qt, inv = _eps_path_operators(prog, sc)
            K = factored[-1].T
            ref = -(np.eye(l) + E @ Qt @ E.T)
            np.testing.assert_allclose(K, ref, rtol=0, atol=1e-10 * np.abs(ref).max())
            lu, piv = scipy.linalg.lu_factor(K)
            assert np.array_equal(kkt.lu, lu) and np.array_equal(kkt.piv, piv)
            ux, uy, uz = kkt._solve_once(rx, ry, rz)
            rhs = solved[-1]
            t = Qt @ rx - inv @ rz[l:]
            want = sc.runs[0][2] * rz[:l] - E @ t
            np.testing.assert_allclose(rhs, want, rtol=0, atol=1e-10 * np.abs(want).max())
            w = scipy.linalg.lu_solve((lu, piv), rhs)
            assert np.array_equal(uz[:l], sc.runs[0][2] * w) and uy.size == 0
            np.testing.assert_allclose(ux, t - Qt @ (E.T @ w), rtol=1e-9,
                                       atol=1e-9 * np.abs(ux).max())
            np.testing.assert_allclose(uz[l:], G[:l].T @ uz[:l] - rx + 1e-14 * ux,
                                       rtol=1e-12, atol=1e-12 * np.abs(uz[l:]).max())

    def test_residual_matches_matmul_bitwise(self):
        # the residual's np.dot products against the matmul reference, on a
        # run of two psd blocks and with equality rows
        rng = np.random.default_rng(14)
        cones = (("nn", 2), ("psd", 3), ("psd", 3))
        layout = _Layout(cones)
        G, A = rng.standard_normal((layout.m, 5)), rng.standard_normal((2, 5))
        long = np.longdouble
        for scale in (1e-6, 1.0, 1e3):
            sc = _Scaling(layout, scale * _interior_point(rng, cones),
                          _interior_point(rng, cones) / scale)
            kkt = _SchurKkt(_SchurPlan(G, A, layout), sc)
            assert kkt._sel == []
            args = [rng.standard_normal(k) for k in (5, 2, layout.m, 5, 2, layout.m)]
            for got, ref in zip(kkt._residual(*args), _matmul_residual(G, A, sc, *args)):
                assert got.dtype == long and np.array_equal(got, ref)

    def test_residual_with_selection_blocks(self):
        # the variable rows enter as exact terms: against the matmul
        # reference over the whole G, equal up to the order of the sums
        tol = 64 * np.finfo(np.longdouble).eps
        rng = np.random.default_rng(15)
        cones = (("nn", 2), ("psd", 2, 0), ("psd", 3, 3))
        layout = _Layout(cones)
        G = np.zeros((layout.m, 3 + 6 + 2))
        G[:2] = rng.standard_normal((2, G.shape[1]))
        G[2:5, :3] = -np.eye(3)
        G[5:, 3:9] = -np.eye(6)
        A = rng.standard_normal((2, G.shape[1]))
        sc = _Scaling(layout, _interior_point(rng, cones), _interior_point(rng, cones))
        kkt = _SchurKkt(_SchurPlan(G, A, layout), sc)
        assert [(rows, cols) for rows, cols, *_ in kkt._sel] == [
            (slice(2, 5), slice(0, 3)), (slice(5, 11), slice(3, 9))]
        for _ in range(5):
            args = [rng.standard_normal(k) for k in (11, 2, layout.m, 11, 2, layout.m)]
            for got, ref in zip(kkt._residual(*args), _matmul_residual(G, A, sc, *args)):
                assert got.dtype == np.longdouble
                assert np.allclose(got, ref, rtol=0, atol=tol * float(np.max(np.abs(ref))))

    def test_early_return_skips_one_residual(self):
        def trailing(kkt, rx, ry, rz):
            # the refinement loop with the residual it used to take after
            # the loop however the loop ended
            ux, uy, uz = kkt._solve_once(rx, ry, rz)
            best, best_norm, broke = (ux, uy, uz), np.inf, False
            for _ in range(conelp._REFINE_ROUNDS):
                e = kkt._residual(rx, ry, rz, ux, uy, uz)
                norm = max(float(np.max(np.abs(v))) if v.size else 0.0 for v in e)
                if norm < best_norm:
                    best, best_norm = (ux, uy, uz), norm
                if norm < 1e-14 * (1.0 + float(np.max(np.abs(rx)))):
                    broke = True
                    break
                c = kkt._solve_once(*(v.astype(float) for v in e))
                ux, uy, uz = ux + c[0], uy + c[1], uz + c[2]
            e = kkt._residual(rx, ry, rz, ux, uy, uz)
            norm = max(float(np.max(np.abs(v))) if v.size else 0.0 for v in e)
            return ((ux, uy, uz) if norm < best_norm else best), broke

        early = 0
        for prog, sc, (rx, ry, rz) in _psd_kkt_cases(13, 8):
            # a small right-hand side makes the refinement loop stop early
            for r in (1.0, 1e-12):
                kkt = _kkt_factory(prog.G, np.zeros((0, prog.G.shape[1])),
                                   _Layout(prog.cones))(sc)
                calls = []
                residual = kkt._residual
                kkt._residual = lambda *a: calls.append(1) or residual(*a)
                got = _KktFactor.solve(kkt, r * rx, ry, r * rz)
                n_new = len(calls)
                want, broke = trailing(kkt, r * rx, ry, r * rz)
                n_old = len(calls) - n_new
                for u, v in zip(got, want):
                    assert np.array_equal(u, v)
                early += broke
                assert n_new == n_old - 1 if broke else n_new == n_old
        assert early > 0


def _matmul_residual(G, A, sc, rx, ry, rz, ux, uy, uz):
    """The unreduced equations' residual in longdouble, by matmul over the
    whole ``G``."""
    long = np.longdouble
    ux_l, uy_l, uz_l = (v.astype(long) for v in (ux, uy, uz))
    return (rx.astype(long) - G.astype(long).T @ uz_l - A.astype(long).T @ uy_l,
            ry.astype(long) - A.astype(long) @ ux_l,
            rz.astype(long) + sc.gram(long)(uz_l) - G.astype(long) @ ux_l)


class _FullLu(_KktFactor):
    """The reference: LU of the full scaled augmented system of order
    ``nx + p + m``, no block eliminated, with its ``longdouble`` residual."""

    def __init__(self, G, A, sc):
        self.sc, self.G, self.A = sc, G, A
        self.Gs = _scaled_rows(G, sc)
        nx, p, m = G.shape[1], A.shape[0], G.shape[0]
        self.nx, self.p = nx, p
        K = np.zeros((nx + p + m, nx + p + m))
        K[:nx, :nx] = 1e-14 * np.eye(nx)
        K[:nx, nx:nx + p] = A.T
        K[nx:nx + p, :nx] = A
        K[:nx, nx + p:] = self.Gs.T
        K[nx + p:, :nx] = self.Gs
        K[nx + p:, nx + p:] = -np.eye(m)
        self.lu, self.piv = scipy.linalg.lu_factor(K)

    def _solve_once(self, rx, ry, rz):
        nx, p = self.nx, self.p
        sol = scipy.linalg.lu_solve((self.lu, self.piv), np.r_[rx, ry, self.sc.Winvt(rz)])
        return sol[:nx], sol[nx:nx + p], self.sc.Winv(sol[nx + p:])

    def _residual(self, rx, ry, rz, ux, uy, uz):
        return _matmul_residual(self.G, self.A, self.sc, rx, ry, rz, ux, uy, uz)


def _combined_problem(rng, n=3, l=3, p=2, q=2):
    mats = tuple(a @ a.T + 0.05 * np.eye(n) for a in rng.standard_normal((l, n, n)))
    Rs = tuple(0.5 * (r + r.T) for r in rng.standard_normal((l, p, p)))
    H = rng.standard_normal((q, l))
    c = rng.standard_normal((n, 2))
    return CombinedProblem(C=c @ c.T, mats=mats, b=rng.uniform(0.5, 2.0, l),
                           R0=-np.eye(p), Rs=Rs, h0=rng.standard_normal(q),
                           hs=tuple(H.T), H=H)


def _captured_program(monkeypatch, module, run):
    """The cone program ``run`` hands to ``module.solve_cone_program``."""
    progs = []

    def tap(prog, **kw):
        progs.append(prog)
        return solve_cone_program(prog, **kw)

    monkeypatch.setattr(module, "solve_cone_program", tap)
    run()
    return progs[0]


def _program_shape(name, monkeypatch):
    """A psd program, one sdpack builds or a synthetic layout, with the
    (rows, columns) of its variable blocks."""
    rng = np.random.default_rng(21)
    n, l = 3, 3
    L = svec_dim(n)
    mats = [a @ a.T + 0.05 * np.eye(n) for a in rng.standard_normal((l, n, n))]
    if name == "eps_path":
        c = rng.standard_normal(n)
        prog = sv._packing_cone_program(np.outer(c, c), mats, rng.uniform(0.5, 2.0, l),
                                        eps=1e-3)
        return prog, [(slice(l, l + L), slice(0, L))]
    cmb = _combined_problem(rng, n, l)
    Lp = svec_dim(cmb.p)
    if name == "trace_cap":
        prog = sv._combined_cone_program(cmb, 0.1)
        return prog, [(slice(l + 1, l + 1 + L), slice(0, L)),
                      (slice(l + 1 + L, l + 1 + L + Lp), slice(L, L + Lp))]
    if name == "dual_packing":
        c = rng.standard_normal(n)
        problem = PackingProblem(C=np.outer(c, c), mats=tuple(mats),
                                 b=rng.uniform(0.5, 2.0, l))
        prog = _captured_program(monkeypatch, sv, lambda: sv.solve_dual_packing(problem))
        return prog, [(slice(0, l), slice(0, l))]
    if name == "dual_phase1":
        prog = _captured_program(monkeypatch, rd, lambda: rd.combined_dual_phase1(cmb))
        return prog, [(slice(0, l + 1), slice(0, l + 1))]
    # synthetic layouts: runs that mix eliminated and dense blocks, equality
    # rows and free columns ("mixed_runs"), and two eliminated nn blocks in
    # one run ("nn_pair")
    if name == "mixed_runs":
        # rows: nn 0-1 (eliminated), nn 2-3, psd 4-6, psd 7-9 (eliminated),
        # nn 10-12; columns 5 and 6 are free
        cones = (("nn", 2, 3), ("nn", 2), ("psd", 2), ("psd", 2, 0), ("nn", 3))
        G = rng.standard_normal((13, 7))
        G[:2] = 0.0
        G[:2, 3:5] = -np.eye(2)
        G[7:10] = 0.0
        G[7:10, :3] = -np.eye(3)
        sel = [(slice(0, 2), slice(3, 5)), (slice(7, 10), slice(0, 3))]
        A = rng.standard_normal((2, 7))
    else:
        cones = (("nn", 2, 0), ("nn", 2, 2), ("psd", 2))
        G = np.zeros((7, 4))
        G[:4] = -np.eye(4)
        G[4:] = rng.standard_normal((3, 4))
        sel = [(slice(0, 2), slice(0, 2)), (slice(2, 4), slice(2, 4))]
        A = None
    x = rng.standard_normal(G.shape[1])
    h = G @ x + _interior_point(rng, cones)
    prog = ConeProgram(c=rng.standard_normal(G.shape[1]), G=G, h=h, cones=cones,
                       A=A, b=None if A is None else A @ x)
    return prog, sel


class TestSelectionElimination:
    """The reduced LU against the full augmented system it replaces."""

    @pytest.mark.parametrize("name", ["eps_path", "trace_cap", "dual_packing",
                                      "dual_phase1", "mixed_runs", "nn_pair"])
    def test_reduced_solve_matches_full_system(self, name, monkeypatch):
        prog, sel = _program_shape(name, monkeypatch)
        G = prog.G
        A = prog.A if prog.A is not None else np.zeros((0, G.shape[1]))
        layout = _Layout(prog.cones)
        plan = _SchurPlan(G, A, layout)
        assert [(rows, cols) for *_, rows, cols in plan.sel] == sel
        eliminated = sum(rows.stop - rows.start for rows, _ in sel)
        assert plan.GA.shape[0] == A.shape[0] + G.shape[0] - eliminated
        rng = np.random.default_rng(22)
        for scale in np.geomspace(1e-2, 1e2, 10):
            sc = _Scaling(layout, scale * _interior_point(rng, prog.cones),
                          _interior_point(rng, prog.cones) / scale)
            kkt, ref = _SchurKkt(plan, sc), _FullLu(G, A, sc)
            # the block's columns and its rows leave the system
            assert kkt.lu.shape[0] == ref.lu.shape[0] - 2 * eliminated
            rx, ry, rz = (rng.standard_normal(k) for k in (G.shape[1], A.shape[0],
                                                           G.shape[0]))
            got = kkt.solve(rx, ry, rz)
            for u, v in zip(got, ref.solve(rx, ry, rz)):
                assert np.allclose(u, v, rtol=1e-10, atol=1e-10)
            for e in _matmul_residual(G, A, sc, rx, ry, rz, *got):
                assert float(np.max(np.abs(e), initial=0.0)) <= 1e-10
            # one solve, before refinement, already meets the equations
            # closely (1e-7 at worst here)
            once = kkt._solve_once(rx, ry, rz)
            for e in _matmul_residual(G, A, sc, rx, ry, rz, *once):
                assert float(np.max(np.abs(e), initial=0.0)) <= 1e-6

    # an nn block of two dense rows, then two psd blocks of order 2 declared
    # on columns 0-2 and 3-5
    DECLARED = (("nn", 2), ("psd", 2, 0), ("psd", 2, 3))

    @staticmethod
    def _declared_program(G, cones=DECLARED):
        return ConeProgram(c=np.zeros(G.shape[1]), G=G, h=np.zeros(G.shape[0]),
                           cones=cones)

    @staticmethod
    def _declared_base():
        G = np.zeros((8, 6))
        G[:2] = np.arange(1.0, 13.0).reshape(2, 6)
        G[2:5, :3] = -np.eye(3)
        G[5:, 3:] = -np.eye(3)
        return G

    def test_declaration_accepted(self):
        prog = self._declared_program(self._declared_base())
        assert prog.cones == self.DECLARED
        assert [(b.sl, b.cols) for b in _Layout(prog.cones).blocks] == [
            (slice(0, 2), None), (slice(2, 5), slice(0, 3)), (slice(5, 8), slice(3, 6))]

    @pytest.mark.parametrize("case", ["plus_one", "two", "stray", "claimed", "permuted",
                                      "not_contiguous", "outside", "soc"])
    def test_bad_declaration_rejected(self, case):
        G, cones = self._declared_base(), self.DECLARED
        if case in ("plus_one", "two"):
            G[3, 1] = 1.0 if case == "plus_one" else 2.0   # in place of a -1
        elif case == "stray":
            G[4, 5] = 0.5                       # an entry outside the columns
        elif case == "claimed":
            G[5:, 3:] = 0.0
            G[5:, :3] = -np.eye(3)              # columns the first block holds
            cones = (("nn", 2), ("psd", 2, 0), ("psd", 2, 0))
        elif case == "permuted":
            G[5:, 3:] = -np.eye(3)[[0, 2, 1]]   # the columns out of order
        elif case == "not_contiguous":
            G[5:, 3:] = 0.0
            G[5, 3], G[6, 4] = -1.0, -1.0
            G = np.hstack([G, np.zeros((8, 1))])
            G[7, 6] = -1.0                      # columns 3, 4 and 6
        elif case == "outside":
            cones = (("nn", 2), ("psd", 2, 0), ("psd", 2, 4))
        else:
            cones = (("soc", 2), ("psd", 2, 0), ("soc", 3, 3))
        with pytest.raises(InvalidInput, match="is not an nn or psd block of -I"):
            self._declared_program(G, cones)

    def test_no_selection_block_factors_full_system_bitwise(self):
        rng = np.random.default_rng(23)
        cones = (("nn", 3), ("psd", 2), ("psd", 3))
        layout = _Layout(cones)
        G, A = rng.standard_normal((layout.m, 6)), rng.standard_normal((2, 6))
        plan = _SchurPlan(G, A, layout)
        assert plan.sel == [] and plan.nf == 6 and plan.GA.shape[0] == 2 + layout.m
        for scale in (1e-4, 1.0, 1e4):
            sc = _Scaling(layout, scale * _interior_point(rng, cones),
                          _interior_point(rng, cones) / scale)
            kkt, ref = _SchurKkt(plan, sc), _FullLu(G, A, sc)
            assert np.array_equal(kkt.lu, ref.lu) and np.array_equal(kkt.piv, ref.piv)
            r = (rng.standard_normal(6), rng.standard_normal(2),
                 rng.standard_normal(layout.m))
            for u, v in zip(kkt._solve_once(*r), ref._solve_once(*r)):
                assert np.array_equal(u, v)

    def test_bordered_block_is_schur_complement_of_full_system(self, monkeypatch):
        # the full augmented system, 1e-14 I on x, with the X block's rows
        # (exactly: their block is -I) and then its columns eliminated.  At a
        # scaling of norm ~5e3, Q = W.T W reaches ~2e7, so 1e-14 Q is far
        # above rounding: the bordered block matches to ~1e-14, while Q in
        # place of Qt = Q inv(I + 1e-14 Q) is off by ~2e-7
        factored = _tap(monkeypatch, "_getrf")
        prog = next(_psd_kkt_cases(24, 1))[0]
        layout = _Layout(prog.cones)
        rng = np.random.default_rng(24)
        l, L = prog.cones[0][1], svec_dim(prog.cones[1][1])
        sc = _Scaling(layout, 1e3 * _interior_point(rng, prog.cones),
                      1e-3 * _interior_point(rng, prog.cones))
        _kkt_factory(prog.G, np.zeros((0, L)), layout)(sc)
        K = factored[-1].T
        assert K.shape == (l, l)
        Gs = _scaled_rows(prog.G, sc)
        full = np.block([[1e-14 * np.eye(L), Gs.T], [Gs, -np.eye(l + L)]])
        x, v_D, v_X = slice(0, L), slice(L, L + l), slice(L + l, 2 * L + l)
        # the rows v_X: their block is -I, so eliminating them adds the
        # outer product of their coupling
        reduced = full + full[:, v_X] @ full[v_X, :]
        schur = reduced[v_D, v_D] - reduced[v_D, x] @ np.linalg.solve(reduced[x, x],
                                                                      reduced[x, v_D])
        np.testing.assert_allclose(K, schur, rtol=1e-11, atol=0)
        E, _, _ = _eps_path_operators(prog, sc)
        Wx = sc.W(np.eye(layout.m))[l:, l:]
        with_q = -(np.eye(l) + E @ Wx.T @ Wx @ E.T)
        assert not np.allclose(with_q, schur, rtol=1e-8, atol=0)

    def test_factored_order(self, monkeypatch):
        # the bordered system holds the free columns, the equality rows and
        # the rows of the blocks that are not eliminated: l on the eps-path
        # (n = 13, l = 10), q + l + 1 on the trace-cap path
        factored = _tap(monkeypatch, "_getrf")
        rng = np.random.default_rng(25)
        n, l = 13, 10
        mats = [a @ a.T + 0.05 * np.eye(n) for a in rng.standard_normal((l, n, n))]
        c = rng.standard_normal((n, 2))
        eps = sv._packing_cone_program(c @ c.T, mats, rng.uniform(0.5, 2.0, l), eps=1e-3)
        cmb = _combined_problem(rng)
        cap = sv._combined_cone_program(cmb, 0.1)
        for prog, order in ((eps, l), (cap, cmb.q + cmb.l + 1)):
            factored.clear()
            solve_cone_program(prog, max_iter=3)
            assert [a.shape for a in factored] == [(order, order)] * 3


def _ref_selection_blocks(G, layout):
    """The scan the KKT solve made of ``G`` before programs declared their
    variable blocks: ``(block, columns)`` of each cone block whose rows of
    ``G`` are exactly ``-I`` on a contiguous range of columns that no
    earlier such block uses."""
    used = np.zeros(G.shape[1], dtype=bool)
    for blk in layout.blocks:
        rows = G[blk.sl]
        first = np.flatnonzero(rows[0])
        if first.size != 1:
            continue
        cols = slice(int(first[0]), int(first[0]) + blk.dim)
        if (cols.stop <= G.shape[1] and not used[cols].any()
                and np.count_nonzero(rows) == blk.dim
                and np.all(rows[:, cols].diagonal() == -1.0)):
            used[cols] = True
            yield blk, cols


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@contextlib.contextmanager
def _perfbench_workloads():
    """``perfbench/workloads.py``, imported with the benchmark's own
    ``instances`` and ``checks`` modules (the tests hold another
    ``instances``), which are put back on exit."""
    names = ("workloads", "checks", "instances")
    saved = {k: sys.modules.pop(k) for k in names if k in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        for k in names:
            sys.modules.pop(k, None)
        sys.modules.update(saved)


class TestDeclaredBlocks:
    """Every program sdpack builds declares exactly the variable blocks that
    the scan the KKT solve used to make finds in its ``G``, so each solve
    eliminates the same blocks as before the declarations."""

    @staticmethod
    def _programs(monkeypatch, run):
        """Every program ``run`` hands to the engine."""
        progs = []

        def tap(prog, **kw):
            progs.append(prog)
            return solve_cone_program(prog, **kw)

        for module in (sv, rd):
            monkeypatch.setattr(module, "solve_cone_program", tap)
        run()
        return progs

    @staticmethod
    def _assert_declared_as_scanned(progs):
        for prog in progs:
            layout = _Layout(prog.cones)
            declared = [(b.sl, b.cols) for b in layout.blocks if b.cols is not None]
            scanned = [(b.sl, cols) for b, cols in _ref_selection_blocks(prog.G, layout)]
            assert declared == scanned

    def test_workloads(self, monkeypatch, tmp_path):
        # the first round of each benchmark workload, seed 1: eps-path and
        # rank-one packing, c, a, e and resource designs, and a combined
        # problem (both phase-1 programs and the trace-cap path)
        with _perfbench_workloads() as wl:
            tap = wl.SolutionTap()
            try:
                cases = (wl.lowrank_path(1)[1][:2] + wl.socp_design(1)[1][:8]
                         + wl.cli_batch(1, str(tmp_path), tap)[1][:8])
                progs = self._programs(monkeypatch, lambda: [c.run() for c in cases])
            finally:
                tap.close()
        kinds = {(b.kind, b.cols is not None) for p in progs for b in _Layout(p.cones).blocks}
        assert {("psd", True), ("nn", True), ("soc", False)} <= kinds
        self._assert_declared_as_scanned(progs)

    def test_tangent_instance(self, monkeypatch):
        from test_solve import tangent_combined
        progs = self._programs(monkeypatch,
                               lambda: sv.solve_combined_eta(tangent_combined()))
        assert len(progs) == 2 + len(sv._ETA_SCHEDULE)
        self._assert_declared_as_scanned(progs)

    def test_dual_packing_and_phase1(self, monkeypatch):
        problem = bounded_packing(np.random.default_rng(26), 4, 3, 2)
        cmb = _combined_problem(np.random.default_rng(27))
        progs = self._programs(monkeypatch, lambda: (
            sv.solve_dual_packing(problem), rd.combined_primal_phase1(cmb),
            rd.combined_dual_phase1(cmb)))
        assert len(progs) == 3
        self._assert_declared_as_scanned(progs)


# ---------------------------------------------------------------------------
# the engine's helpers as they were before the scaling and factor bound their
# operators once, kept here as the bitwise reference of their replacements


def _ref_congruence(F, v, out):
    pos, scale_nn, flat, scale = _svec_index(F.shape[0], v.dtype)
    if v.ndim == 1:
        T = np.dot(np.dot(F.T, v[pos] / scale_nn), F)
        np.multiply(T.ravel()[flat], scale, out=out)
    else:
        T = F.T @ (v.T[:, pos] / scale_nn) @ F
        out[...] = (T.reshape(-1, F.size)[:, flat] * scale).T


def _ref_apply(kind, F, v, out):
    if kind == "psd":
        L = svec_dim(F.shape[1])
        for j in range(F.shape[0]):
            _ref_congruence(F[j], v[j * L:(j + 1) * L], out[j * L:(j + 1) * L])
    elif F.ndim == 3:
        k, d, _ = F.shape
        cols = v.shape[1] if v.ndim == 2 else 1
        out[...] = (F @ v.reshape(k, d, cols)).reshape(v.shape)
    else:
        np.multiply(F if v.ndim == 1 else F[:, None], v, out=out)


def _ref_blockwise(ops, v):
    out = np.empty(v.shape, dtype=np.longdouble if v.dtype == np.longdouble else float)
    for kind, sl, F in ops:
        _ref_apply(kind, F, v[sl], out[sl])
    return out


def _ref_eigen(U, v):
    if U is None:
        return v
    out = np.empty(v.shape[::-1])
    _ref_congruence(U, v.T, out)
    return out.T


def _ref_scaling(layout, s, z):
    """The scaled point and the ``(kind, rows, F)`` run operators of ``W``,
    ``W.T``, ``inv(W)``, ``inv(W).T`` and ``W.T W``, psd runs stacked."""
    lam = np.zeros(layout.m)
    ops = {name: [] for name in ("W", "Wt", "Winv", "Winvt")}
    for kind, run, blocks in layout.runs:
        if kind == "nn":
            w = np.sqrt(s[run] / z[run])
            W, Wi, lam_run = w, 1.0 / w, np.sqrt(s[run] * z[run])
        elif kind == "soc":
            W, Wi, lam_run = conelp._soc_scaling(_rows(s, run, blocks), _rows(z, run, blocks))
        else:
            parts = [conelp._psd_scaling(s[b.sl], z[b.sl], _svec_index(b.order))
                     for b in blocks]
            W, Wi, sig = (np.stack(a) for a in zip(*parts))
            lam_run = np.stack([svec(np.diag(d)) for d in sig])
        lam[run] = lam_run.ravel()
        symmetric = kind != "psd"
        ops["W"].append((kind, run, W))
        ops["Wt"].append((kind, run, W if symmetric else W.transpose(0, 2, 1)))
        ops["Winv"].append((kind, run, Wi))
        ops["Winvt"].append((kind, run, Wi if symmetric else Wi.transpose(0, 2, 1)))
    ops["gram"] = [(kind, sl, F * F if kind == "nn" else F @ Ft)
                   for (kind, sl, F), (_, _, Ft) in zip(ops["W"], ops["Wt"])]
    return lam, ops


def _ref_circ(layout, u, v):
    out = np.empty(layout.m)
    for kind, sl, blocks in layout.runs:
        if kind == "nn":
            out[sl] = u[sl] * v[sl]
        elif kind == "soc":
            U, V = _rows(u, sl, blocks), _rows(v, sl, blocks)
            O = _rows(out, sl, blocks)
            O[:, 0] = np.einsum("ij,ij->i", U, V)
            O[:, 1:] = U[:, :1] * V[:, 1:] + V[:, :1] * U[:, 1:]
        else:
            for b in blocks:
                U, V = smat(u[b.sl], b.order), smat(v[b.sl], b.order)
                out[b.sl] = svec(0.5 * (U @ V + V @ U))
    return out


def _ref_circ_solve(layout, lam, v, sigma):
    """``lam^{-1} o v`` given a scaled point's ``sigma``, or for any interior
    ``lam`` with ``sigma=None``: each psd block solved in the eigenbasis of
    its block of ``lam``."""
    out = np.empty(layout.m)
    sig = iter(sigma) if sigma is not None else None
    for kind, sl, blocks in layout.runs:
        if kind == "nn":
            out[sl] = v[sl] / lam[sl]
        elif kind == "soc":
            L, V = _rows(lam, sl, blocks), _rows(v, sl, blocks)
            O = _rows(out, sl, blocks)
            a = L[:, 0] ** 2 - np.einsum("ij,ij->i", L[:, 1:], L[:, 1:])
            u0 = (L[:, 0] * V[:, 0] - np.einsum("ij,ij->i", L[:, 1:], V[:, 1:])) / a
            O[:, 0] = u0
            O[:, 1:] = (V[:, 1:] - u0[:, None] * L[:, 1:]) / L[:, :1]
        else:
            for b in blocks:
                if sig is None:
                    w, Q = np.linalg.eigh(smat(lam[b.sl], b.order))
                    V = Q.T @ smat(v[b.sl], b.order) @ Q
                    out[b.sl] = svec(Q @ (2.0 * V / np.add.outer(w, w)) @ Q.T)
                else:
                    d = next(sig)
                    out[b.sl] = svec(2.0 * smat(v[b.sl], b.order) / np.add.outer(d, d))
    return out


def _ref_max_step(layout, lam, ds, sigma):
    out = np.inf
    sig = iter(sigma) if sigma is not None else None
    for kind, sl, blocks in layout.runs:
        if kind == "nn":
            for d in ds:
                lb, db = lam[sl], d[sl]
                neg = db < 0
                if np.any(neg):
                    out = min(out, float(np.min(-lb[neg] / db[neg])))
        elif kind == "soc":
            L = _rows(lam, sl, blocks)
            p0 = np.einsum("ij,ij->i", L[:, 1:], L[:, 1:]) - L[:, 0] ** 2
            for d in ds:
                D = _rows(d, sl, blocks)
                p2 = np.einsum("ij,ij->i", D[:, 1:], D[:, 1:]) - D[:, 0] ** 2
                p1 = 2.0 * (np.einsum("ij,ij->i", L[:, 1:], D[:, 1:]) - L[:, 0] * D[:, 0])
                out = min(out, float(np.min(_smallest_positive_root(p2, p1, p0))))
        else:
            for b in blocks:
                Ds = [smat(d[b.sl], b.order) for d in ds]
                sv = next(sig) if sig is not None else None
                if sv is not None and np.all(sv[:-1] > sv[1:]):
                    r = 1.0 / np.sqrt(np.maximum(sv[::-1], 1e-300))
                    Dm = [(r[:, None] * D[::-1, ::-1]) * r[None, :] for D in Ds]
                else:
                    w, Q = np.linalg.eigh(smat(lam[b.sl], b.order))
                    w = np.maximum(w, 1e-300)
                    scale = Q / np.sqrt(w)[None, :]
                    Dm = [scale.T @ D @ scale for D in Ds]
                for lo in np.linalg.eigvalsh(np.stack(Dm))[:, 0].tolist():
                    if lo < 0:
                        out = min(out, -1.0 / lo)
    return out


def _ref_solve(kkt, residual, rx, ry, rz):
    """The refinement loop of ``_KktFactor.solve`` with its residual."""
    ry = np.asarray(ry, dtype=float)
    if not (np.all(np.isfinite(rx)) and np.all(np.isfinite(rz))):
        raise np.linalg.LinAlgError("non-finite right-hand side")
    rhs = tuple(np.asarray(r, dtype=kkt._exact) for r in (rx, ry, rz))

    def max_abs(*parts):
        return float(np.max(np.abs(np.concatenate(parts))))

    with np.errstate(all="ignore"):
        ux, uy, uz = kkt._solve_once(rx, ry, rz)
        if not np.all(np.isfinite(ux)):
            raise np.linalg.LinAlgError("singular reduced system")
        best = (ux, uy, uz)
        best_norm = np.inf
        done = 1e-14 * (1.0 + float(np.max(np.abs(rx))))
        for _ in range(conelp._REFINE_ROUNDS):
            e1, e2, e3 = residual(*rhs, ux, uy, uz)
            norm = max_abs(e1, e2, e3)
            if norm < best_norm:
                best, best_norm = (ux, uy, uz), norm
            if norm < done:
                return best
            cx, cy, cz = kkt._solve_once(e1.astype(float), e2.astype(float),
                                         e3.astype(float))
            ux, uy, uz = ux + cx, uy + cy, uz + cz
        if max_abs(*residual(*rhs, ux, uy, uz)) < best_norm:
            best = (ux, uy, uz)
    return best


def _ref_schur_residual(kkt, WtW_l):
    """``_SchurKkt._residual`` with ``W.T W`` applied by ``_ref_blockwise``."""
    plan, long = kkt.plan, np.longdouble

    def residual(rx, ry, rz, ux, uy, uz):
        ux_l, uz_l = ux.astype(long), uz.astype(long)
        e1 = np.asarray(rx, long) - np.dot(plan.G_D_lt, uz_l[plan.dense_rows])
        for rows, cols, *_ in kkt._sel:
            e1[cols] += uz_l[rows]
        if plan.p:
            e1 -= np.dot(plan.A_l.T, uy.astype(long))
            e2 = np.asarray(ry, long) - np.dot(plan.A_l, ux_l)
        else:
            e2 = np.zeros(0)
        e3 = np.asarray(rz, long) + _ref_blockwise(WtW_l, uz_l)
        e3[plan.dense_rows] -= np.dot(plan.G_D_l, ux_l)
        for rows, cols, *_ in kkt._sel:
            e3[rows] += ux_l[cols]
        return e1, e2, e3

    return residual


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


# an nn run before a psd block (the eps-path), two soc runs around an nn
# block, a run of two psd blocks, and every kind with psd blocks of two orders
BOUND_LAYOUTS = [(("nn", 4), ("psd", 3)), SOC_RUNS, (("nn", 2), ("psd", 3), ("psd", 3)),
                 (("nn", 3), ("soc", 4), ("psd", 3), ("psd", 2), ("nn", 1))]


class TestBoundOperatorsBitwise:
    """Every helper the bound operators replaced, to the bit (equal arrays
    and equal signs of zeros) against the helper as it was."""

    @pytest.mark.parametrize("cones", BOUND_LAYOUTS)
    def test_scaling_operators(self, cones):
        rng = np.random.default_rng(31)
        layout = _Layout(cones)
        long = np.longdouble
        for scale in (1e-6, 1.0, 1e4):
            s = scale * _interior_point(rng, cones)
            z = _interior_point(rng, cones) / scale
            sc = _Scaling(layout, s, z)
            lam, ops = _ref_scaling(layout, s, z)
            assert _same_bits(sc.lam, lam)
            v, M = rng.standard_normal(layout.m), rng.standard_normal((layout.m, 5))
            for name in ("W", "Wt", "Winv", "Winvt"):
                op = getattr(sc, name)
                assert _same_bits(op(v), _ref_blockwise(ops[name], v)), name
                assert _same_bits(op(M), _ref_blockwise(ops[name], M)), name
            assert _same_bits(sc.gram()(v), _ref_blockwise(ops["gram"], v))
            assert _same_bits(sc.gram()(M), _ref_blockwise(ops["gram"], M))
            gram_l = [(kind, sl, F.astype(long)) for kind, sl, F in ops["gram"]]
            assert _same_bits(sc.gram(long)(v.astype(long)),
                              _ref_blockwise(gram_l, v.astype(long)))

    @pytest.mark.parametrize("cones", BOUND_LAYOUTS)
    def test_jordan_products_and_steps(self, cones):
        # lam o lam through the general product against the two n x n
        # products, and the unpacking without smat's checks in circ, divide
        # and max_step
        rng = np.random.default_rng(32)
        layout = _Layout(cones)
        for scale in (1e-6, 1.0, 1e4):
            sc = _Scaling(layout, scale * _interior_point(rng, cones),
                          _interior_point(rng, cones) / scale)
            lam = sc.lam
            assert _same_bits(layout.circ(lam, lam), _ref_circ(layout, lam, lam))
            u, v = rng.standard_normal((2, layout.m))
            assert _same_bits(layout.circ(u, v), _ref_circ(layout, u, v))
            assert _same_bits(sc.divide(v), _ref_circ_solve(layout, lam, v, sc.sigma))
            for sigma in (sc.sigma, None):
                assert sc.max_step((u, v)) == _ref_max_step(layout, lam, (u, v), sigma)

    @pytest.mark.parametrize("name", ["eps_path", "trace_cap", "dual_packing",
                                      "mixed_runs", "nn_pair"])
    def test_factor_transforms(self, name, monkeypatch):
        # the eigenbasis transforms and the dense rows' inv(W).T against
        # _eigen and _apply, on programs with psd, nn and no variable blocks
        prog, _ = _program_shape(name, monkeypatch)
        G = prog.G
        A = prog.A if prog.A is not None else np.zeros((0, G.shape[1]))
        layout = _Layout(prog.cones)
        plan = _SchurPlan(G, A, layout)
        rng = np.random.default_rng(33)
        for scale in (1e-3, 1.0, 1e3):
            sc = _Scaling(layout, scale * _interior_point(rng, prog.cones),
                          _interior_point(rng, prog.cones) / scale)
            kkt = _SchurKkt(plan, sc)
            E = plan.GA.copy()
            for kind, r, part, _, at in plan.dense:
                Finv = sc.runs[r][2][part]
                _ref_apply(kind, Finv.T[None] if kind == "psd" else Finv, E[at], E[at])
            rz = rng.standard_normal(layout.m)
            w = np.empty(plan.p + sum(at.stop - at.start for *_, at in plan.dense))
            kkt._rz_to_w(rz, w)
            for kind, r, part, rows, at in plan.dense:
                Finv = sc.runs[r][2][part]
                want = np.empty(at.stop - at.start)
                _ref_apply(kind, Finv.T[None] if kind == "psd" else Finv, rz[rows], want)
                assert _same_bits(w[at], want)
            for (kind, r, part, rows, cols), sel in zip(plan.sel, kkt._sel):
                _, _, to_basis, from_basis, Et, _, _ = sel
                U = None if kind == "nn" else np.linalg.svd(sc.runs[r][1][part])[0]
                assert _same_bits(Et, _ref_eigen(U, E[:, cols]))
                assert Et.flags.f_contiguous == _ref_eigen(U, E[:, cols]).flags.f_contiguous
                if U is None:
                    assert to_basis is None and from_basis is None
                    continue
                x = rng.standard_normal(cols.stop - cols.start)
                assert _same_bits(to_basis(x), _ref_eigen(U, x))
                assert _same_bits(from_basis(x), _ref_eigen(U.T, x))

    @pytest.mark.parametrize("name", ["eps_path", "trace_cap", "mixed_runs", "qr"])
    def test_kkt_solve_matches_the_loop(self, name, monkeypatch):
        # the same triple from the same number of _solve_once calls, on
        # full-size and tiny right-hand sides (the loop's early return)
        rng = np.random.default_rng(34)
        if name == "qr":
            cones = (("nn", 3),) + SOC_RUNS
            layout = _Layout(cones)
            G, A = rng.standard_normal((layout.m, 6)), rng.standard_normal((2, 6))
        else:
            prog, _ = _program_shape(name, monkeypatch)
            G, layout = prog.G, _Layout(prog.cones)
            A = prog.A if prog.A is not None else np.zeros((0, G.shape[1]))
            cones = prog.cones
        factory = _kkt_factory(G, A, layout)
        early = 0
        for scale in np.geomspace(1e-4, 1e2, 4):
            s, z = scale * _interior_point(rng, cones), _interior_point(rng, cones) / scale
            kkt = factory(_Scaling(layout, s, z))
            if name == "qr":
                assert isinstance(kkt, _QrKkt)
                residual = kkt._residual
            else:
                gram = _ref_scaling(layout, s, z)[1]["gram"]
                residual = _ref_schur_residual(
                    kkt, [(kind, sl, F.astype(np.longdouble)) for kind, sl, F in gram])
            calls = []
            solve_once = kkt._solve_once
            kkt._solve_once = lambda *a: calls.append(1) or solve_once(*a)
            for r in (1.0, 1e-12):
                rx, ry, rz = (r * rng.standard_normal(k) for k in (G.shape[1], A.shape[0],
                                                                   layout.m))
                got = kkt.solve(rx, ry, rz)
                n_new = len(calls)
                want = _ref_solve(kkt, residual, rx, ry, rz)
                n_old = len(calls) - n_new
                del calls[:]
                assert n_new == n_old
                early += n_new == 1
                for u, v in zip(got, want):
                    assert _same_bits(u, v)
        assert early > 0

    @pytest.mark.parametrize("cones", [(("nn", 3), ("psd", 3)), SOC_RUNS,
                                       (("nn", 2), ("soc", 3), ("psd", 2), ("psd", 2)), ()])
    def test_margin_at_least(self, cones):
        # nan fails, in a block of any kind, and an empty layout passes
        rng = np.random.default_rng(35)
        layout = _Layout(cones)
        e = layout.identity()
        points = [(_interior_point(rng, cones) if cones else np.zeros(0)) - shift * e
                  for shift in (0.0, 0.5, 3.0)]
        for v in list(points):
            for i in range(layout.m):
                nan = v.copy()
                nan[i] = np.nan
                points.append(nan)
        for v in points:
            for floor in (-5.0, -1e-9, 0.0, 0.5):
                assert layout.margin_at_least(v, floor) is (_margin(layout, v) >= floor)

    def test_margin_at_least_stops_at_the_first_failing_run(self, monkeypatch):
        # the eps-path's dual-infeasibility test: an nn run below the floor
        # decides before the psd block's eigenvalues are taken
        layout = _Layout((("nn", 3), ("psd", 3)))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        v = layout.identity()
        assert layout.margin_at_least(v, -1e-9) and len(calls) == 1
        v[1] = -1.0
        assert not layout.margin_at_least(v, -1e-9) and len(calls) == 1
