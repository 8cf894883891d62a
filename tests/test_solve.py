import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from instances import (attained_combined, bounded_packing, degenerate_combined,
                       face_restricted, packing, random_psd, subspace_packing,
                       zero_budget_instances)

from sdpack import linalg
from sdpack import reduce as rd
from sdpack import solve as sv
from sdpack.analysis import check_bounded
from sdpack.conelp import ConeProgram, ConeResult, StopReason
from sdpack.errors import (InfeasibleInput, InfeasiblePrimal, InvalidInput,
                           MaxIterations, NumericalFailure, PathDiverged,
                           PathNotMonotone, UnboundedInput, ZeroDual)
from sdpack.model import Status, parse_problem


def c_opt_instance():
    c = np.array([1.0, 1.0])
    return packing(np.outer(c, c),
                   [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [1.0, 1.0])


def tangent_combined():
    c = (np.sqrt(3) / 10.0) * np.array([9.0, 1.0])
    doc = {
        "kind": "combined",
        "C": [[float(v) for v in row] for row in np.outer(c, c)],
        "constraints": [
            {"M": [[0.0, 0.0], [0.0, 0.0]], "b": 1.0},
            {"M": [[1.0, 0.0], [0.0, 0.0]], "b": 1.0},
            {"M": [[0.0, 0.0], [0.0, 1.0]], "b": 1.0},
        ],
        "h0": [-1.0, -3.0],
        "H": [[1.0, 0.0, 3.0], [0.0, 1.0, 1.0]],
    }
    return parse_problem(doc)


class TestOptions:
    def test_defaults_valid(self):
        opts = sv.SolveOptions()
        assert (opts.tol, opts.max_iter) == (1e-8, 200)
        assert sv._EPS_SCHEDULE[0] == pytest.approx(1e-2)
        assert sv._EPS_SCHEDULE[-1] == pytest.approx(1e-8)
        assert len(sv._EPS_SCHEDULE) == 7
        assert sv._ETA_SCHEDULE[0] == pytest.approx(1.0)
        assert sv._ETA_SCHEDULE[-1] == pytest.approx(1e-6)
        for sched in (sv._EPS_SCHEDULE, sv._ETA_SCHEDULE, sv._DUAL_CAPS):
            assert all(a > b > 0 for a, b in zip(sched, sched[1:]))

    @pytest.mark.parametrize("kw", [{"tol": 0.0}, {"tol": -1e-8},
                                    {"tol": math.nan}, {"tol": math.inf},
                                    {"max_iter": 0}])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(InvalidInput):
            sv.SolveOptions(**kw)


# one variable, h = 0: the divergence scale of the triage is 1
_TINY = ConeProgram(c=np.array([1.0]), G=np.array([[-1.0]]), h=np.zeros(1),
                    cones=[("nn", 1)])


def _stop(x_norm, resid):
    return ConeResult(status="max_iterations", x=np.array([x_norm]),
                      pres=resid, dres=resid, relgap=resid)


class TestClassify:
    @pytest.mark.parametrize("res, status", [
        (ConeResult(status="optimal", x=np.ones(1)), Status.OPTIMAL),
        (ConeResult(status="primal_infeasible"), Status.INFEASIBLE),
        (ConeResult(status="dual_infeasible", ray=np.ones(1)), Status.UNBOUNDED),
        # diverged (above 1e4 x scale) with residuals and gap clean
        (_stop(1e5, 1e-10), Status.NEAR_UNATTAINED),
        # close: every measure within 1e3 x tol
        (_stop(1.0, 1e-6), Status.MAX_ITERATIONS),
        # diverged but not clean is only a close stop
        (_stop(1e5, 5e-6), Status.MAX_ITERATIONS),
    ])
    def test_status(self, res, status):
        assert sv._classify(res, _TINY, 1e-8, self._no_best) is status

    @staticmethod
    def _no_best(status):
        raise AssertionError("best iterate built for a returned status")

    @pytest.mark.parametrize("x_norm", [1.0, 1e5])
    def test_far_stop_raises_with_best(self, x_norm):
        with pytest.raises(MaxIterations) as exc:
            sv._classify(_stop(x_norm, 1e-3), _TINY, 1e-8, lambda st: ("best", st))
        assert exc.value.best == ("best", Status.MAX_ITERATIONS)


def _stopped_engine(monkeypatch, resid, x_scale=1.0,
                    reason=StopReason.ITERATION_LIMIT, module=sv):
    """Make the engine end every solve ``module`` makes as a
    ``max_iterations`` stop at its real answer, with the given residuals,
    the iterate scaled and the given stop reason."""
    engine = module.solve_cone_program

    def stopped(*args, **kw):
        res = engine(*args, **kw)
        return dataclasses.replace(res, status="max_iterations",
                                   x=x_scale * res.x, pres=resid, dres=resid,
                                   relgap=resid, stop_reason=reason)

    monkeypatch.setattr(module, "solve_cone_program", stopped)


class TestStoppedSolves:
    def test_socp_close_stop_returns_max_iterations(self, monkeypatch):
        _stopped_engine(monkeypatch, 1e-6)
        res = sv.solve_socp(rd.to_socp_rank1(c_opt_instance()))
        assert res.report.status is Status.MAX_ITERATIONS
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_socp_far_stop_raises_with_best(self, monkeypatch):
        _stopped_engine(monkeypatch, 1e-3)
        with pytest.raises(MaxIterations) as exc:
            sv.solve_socp(rd.to_socp_rank1(c_opt_instance()))
        assert exc.value.best.report.status is Status.MAX_ITERATIONS
        assert exc.value.best.value == pytest.approx(2.0, abs=1e-6)

    def test_sdp_close_stop_returns_max_iterations(self, monkeypatch):
        _stopped_engine(monkeypatch, 1e-6)
        sol = sv.solve_sdp(c_opt_instance())
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.objective == pytest.approx(4.0, abs=1e-6)

    def test_sdp_far_stop_raises_with_best(self, monkeypatch):
        _stopped_engine(monkeypatch, 1e-3)
        with pytest.raises(MaxIterations) as exc:
            sv.solve_sdp(c_opt_instance())
        assert exc.value.best.status is Status.MAX_ITERATIONS
        assert exc.value.best.objective == pytest.approx(4.0, abs=1e-6)

    def test_sdp_diverged_clean_stop_is_near_unattained(self, monkeypatch):
        # an iterate 1e5 x the optimum is past the triage's 1e4 bound
        _stopped_engine(monkeypatch, 1e-10, x_scale=1e5)
        sol = sv.solve_sdp(c_opt_instance())
        assert sol.status is Status.NEAR_UNATTAINED

    def test_phase1_stops_decided_from_the_iterate(self, monkeypatch):
        # both phase-1 programs end max_iterations at their real answers:
        # no certificate, so each is decided from its iterate (slack 1, and
        # a relaxation t <= 0) and the trace-cap path runs
        _stopped_engine(monkeypatch, 1e-6, module=rd)
        cmb = tangent_combined()
        ok, slack = rd.combined_primal_phase1(cmb)
        assert ok and slack == pytest.approx(1.0, abs=1e-6)
        assert rd.combined_dual_phase1(cmb)[0]
        assert sv.solve_combined_eta(cmb).objective == pytest.approx(3.1, abs=1e-3)

    def test_phase1_infeasible_only_on_a_certificate(self, monkeypatch):
        monkeypatch.setattr(rd, "solve_cone_program", lambda *a, **k: ConeResult(
            status="primal_infeasible", stop_reason=StopReason.PRIMAL_INFEASIBLE))
        cmb = tangent_combined()
        assert rd.combined_primal_phase1(cmb) == (False, -math.inf)
        assert not rd.combined_dual_phase1(cmb)[0]
        with pytest.raises(InfeasiblePrimal, match="best slack -inf"):
            sv.solve_combined_eta(cmb)

    def test_path_stage_without_iterate_names_the_stage(self, monkeypatch):
        monkeypatch.setattr(sv, "solve_cone_program",
                            lambda *a, **k: ConeResult(status="primal_infeasible"))
        with pytest.raises(NumericalFailure,
                           match=r"test stage at v=0\.5 ended with primal_infeasible"):
            sv._follow_path(lambda v: None, (0.5, 0.25), 10, "test stage at v")

    @pytest.mark.parametrize("reason", [StopReason.ITERATION_LIMIT, StopReason.STALL,
                                        StopReason.TINY_STEP, StopReason.LEFT_CONE,
                                        StopReason.FACTOR_FAILURE])
    def test_far_stop_names_the_stop_reason(self, reason, monkeypatch):
        _stopped_engine(monkeypatch, 1e-3, reason=reason)
        for run in (lambda: sv.solve_socp(rd.to_socp_rank1(c_opt_instance())),
                    lambda: sv.solve_sdp(c_opt_instance())):
            with pytest.raises(MaxIterations, match=rf"\({reason.value}\)$"):
                run()

    def test_path_stage_names_the_stop_reason(self, monkeypatch):
        monkeypatch.setattr(sv, "solve_cone_program", lambda *a, **k: ConeResult(
            status="dual_infeasible", stop_reason=StopReason.DUAL_INFEASIBLE))
        with pytest.raises(NumericalFailure, match=r"v=0\.5 ended with "
                           r"dual_infeasible \(dual_infeasible\)$"):
            sv._follow_path(lambda v: None, (0.5, 0.25), 10, "test stage at v")


class TestSolveSocp:
    def test_interval(self):
        # max x s.t. |x| <= 1
        socp = rd.SocpProblem(objective=np.array([1.0]),
                              cones=(rd.SocCon(F=np.eye(1), g=np.zeros(1),
                                               f=np.zeros(1), d=1.0),))
        res = sv.solve_socp(socp)
        assert res.report.status is Status.OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-7)

    def test_report_carries_engine_residuals(self, monkeypatch):
        seen = []
        engine = sv.solve_cone_program
        monkeypatch.setattr(sv, "solve_cone_program",
                            lambda *a, **k: seen.append(engine(*a, **k)) or seen[-1])
        report = sv.solve_socp(rd.to_socp_rank1(c_opt_instance())).report
        (res,) = seen
        assert (report.pres, report.dres, report.relgap) == \
            (res.pres, res.dres, res.relgap)

    def test_estimation_socp_value(self):
        socp = rd.to_socp_rank1(c_opt_instance())
        res = sv.solve_socp(socp)
        assert res.value == pytest.approx(2.0, abs=1e-7)
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_infeasible_cone(self):
        socp = rd.SocpProblem(objective=np.zeros(2),
                              cones=(rd.SocCon(F=np.eye(2), g=np.zeros(2),
                                               f=np.zeros(2), d=-1.0),))
        res = sv.solve_socp(socp)
        assert res.report.status is Status.INFEASIBLE

    def test_unbounded_with_ray(self):
        # max x1 with only x2 constrained
        socp = rd.SocpProblem(objective=np.array([1.0, 0.0]),
                              cones=(rd.SocCon(F=np.array([[0.0, 1.0]]),
                                               g=np.zeros(1),
                                               f=np.zeros(2), d=1.0),))
        res = sv.solve_socp(socp)
        assert res.report.status is Status.UNBOUNDED
        assert res.ray is not None
        assert res.ray[0] != 0.0

    def test_min_sense(self):
        socp = rd.SocpProblem(objective=np.array([1.0]),
                              cones=(rd.SocCon(F=np.eye(1), g=np.zeros(1),
                                               f=np.zeros(1), d=2.0),),
                              sense="min")
        res = sv.solve_socp(socp)
        assert res.value == pytest.approx(-2.0, abs=1e-7)

    def test_near_unattained_supremum(self):
        # min t subject to x t >= 4 (hyperbolic): infimum 0, attained by no
        # finite point; iterates diverge while the value converges
        socp = rd.SocpProblem(objective=np.array([0.0, 1.0]),
                              cones=(rd.SocCon(F=np.array([[0.0, 0.0],
                                                           [1.0, -1.0]]),
                                               g=np.array([2.0, 0.0]),
                                               f=np.array([1.0, 1.0]), d=0.0),),
                              sense="min")
        res = sv.solve_socp(socp)
        assert res.report.status is Status.NEAR_UNATTAINED
        assert abs(res.value) <= 1e-3
        assert np.linalg.norm(res.x, np.inf) > 1e4


class TestSolveSdp:
    def test_trivial(self):
        sol = sv.solve_sdp(packing(np.eye(2), [np.eye(2)], [1.0]))
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-7)

    def test_c_opt_duals(self):
        sol = sv.solve_sdp(c_opt_instance())
        assert sol.objective == pytest.approx(4.0, abs=1e-6)
        assert np.allclose(sol.mu, [2.0, 2.0], atol=1e-6)

    def test_infeasible_status(self):
        sol = sv.solve_sdp(packing(np.eye(2), [np.eye(2)], [-1.0]))
        assert sol.status is Status.INFEASIBLE

    def test_unbounded_status(self):
        sol = sv.solve_sdp(packing(np.diag([1.0, 0.0]),
                                   [np.diag([0.0, 1.0])], [1.0]))
        assert sol.status is Status.UNBOUNDED

    def test_weak_duality_on_randoms(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            prob = bounded_packing(rng, int(rng.integers(2, 6)),
                                   int(rng.integers(1, 5)), 2)
            res = sv.solve_sdp(sv._packing_cone_program(prob.C, prob.mats,
                                                        prob.b))
            primal = -res.pcost
            dual = -res.dcost
            assert dual >= primal - 1e-7 * max(1.0, abs(primal))

    def test_generic_cone_program_passthrough(self):
        # minimize x subject to x >= 3 in raw cone form
        from sdpack.conelp import ConeProgram
        prog = ConeProgram(c=np.array([1.0]), G=np.array([[-1.0]]),
                           h=np.array([-3.0]), cones=[("nn", 1)])
        res = sv.solve_sdp(prog)
        assert res.optimal
        assert res.pcost == pytest.approx(3.0, abs=1e-7)


class TestKktCheck:
    def test_exact_point(self):
        prob = packing(np.diag([1.0, 0.0]), [np.eye(2)], [1.0])
        res, ok = sv.kkt_check(prob, np.diag([1.0, 0.0]), np.array([1.0]), 1e-9)
        assert ok
        assert res.max() == 0.0

    def test_wrong_multiplier_fails_dual_block(self):
        prob = packing(np.diag([1.0, 0.0]), [np.eye(2)], [1.0])
        res, ok = sv.kkt_check(prob, np.diag([1.0, 0.0]), np.array([0.5]), 1e-6)
        assert not ok
        assert res.dual == pytest.approx(0.5)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_tolerance_rejected(self, tol):
        # tol=inf used to pass this point, whose residuals are (9, 4, 27)
        prob = packing(np.eye(2), [np.eye(2)], [1.0])
        with pytest.raises(InvalidInput, match="tol"):
            sv.kkt_check(prob, 5.0 * np.eye(2), np.array([-3.0]), tol)

    def test_socp_mapped_duals_pass(self):
        prob = c_opt_instance()
        sol = sv.solve_packing_lowrank(prob)
        assert sol.route == "socp"
        _, ok = sv.kkt_check(prob, sol.X, sol.mu, 1e-8)
        assert ok


class TestLowRank:
    def test_dominant_coordinate(self):
        prob = packing(np.diag([1.0, 0.0]), [np.eye(2)], [1.0])
        sol = sv.solve_packing_lowrank(prob)
        assert sol.objective == pytest.approx(1.0, abs=1e-7)
        assert sol.numerical_rank == 1
        assert np.allclose(sol.X, np.diag([1.0, 0.0]), atol=1e-6)

    def test_extreme_eigenvalue_instance(self):
        prob = packing(np.eye(2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                       [1.0, 1.0])
        sol = sv.solve_packing_lowrank(prob)
        assert sol.route == "eps-path"
        assert sol.objective == pytest.approx(2.0, abs=1e-5)
        assert sol.numerical_rank == 2
        # perturbation-path values increase as the perturbation shrinks
        diffs = np.diff(sol.path_values)
        assert np.all(diffs >= -1e-9)

    @pytest.mark.parametrize("C", [np.zeros((2, 2)), np.diag([1.0, 0.0])])
    def test_trivial_route(self, C):
        # a zero objective, and one the zero-budget row e1 e1' projects to
        # zero, whose multipliers then come from the dual packing program
        prob = packing(C, [np.diag([1.0, 0.0]), np.eye(2)], [0.0, 1.0])
        sol = sv.solve_packing_lowrank(prob)
        assert sol.route == "trivial" and sol.status is Status.OPTIMAL
        assert np.array_equal(sol.X, np.zeros((2, 2))) and sol.objective == 0.0
        assert sol.kkt_residuals.max() <= 1e-8

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleInput):
            sv.solve_packing_lowrank(packing(np.eye(2), [np.eye(2)], [-1.0]))

    def test_unbounded_raises(self):
        prob = packing(np.diag([1.0, 0.0]), [np.diag([0.0, 1.0])], [1.0])
        with pytest.raises(UnboundedInput) as info:
            sv.solve_packing_lowrank(prob)
        assert np.array_equal(info.value.ray, check_bounded(prob).ray)

    def test_rank_guarantee_and_oracle_match(self):
        rng = np.random.default_rng(42)
        for trial in range(15):
            n = int(rng.integers(2, 9))
            l = int(rng.integers(1, 7))
            rank_c = int(rng.integers(1, min(3, n) + 1))
            prob = bounded_packing(rng, n, l, rank_c)
            sol = sv.solve_packing_lowrank(prob)
            oracle = sv.solve_sdp(prob)
            assert sol.numerical_rank <= rank_c
            assert sol.objective == pytest.approx(
                oracle.objective, rel=1e-5, abs=1e-5)
            assert sol.kkt_residuals.passes(
                1e-6, sv.kkt_scale(prob, sol.X, sol.mu))

    def test_zero_budget_instances(self):
        # the reference solves the face the zero-budget row pins, where both
        # sides are strictly feasible; on the full problem the oracle stops
        # max_iterations 1e-7 to 6e-6 from the route, here it converges and
        # the route sits within 4e-8 (relative) of it
        rng = np.random.default_rng(7)
        for trial in range(10):
            prob = subspace_packing(rng, 5, 3, 4, 2, zero_b=1)
            sol = sv.solve_packing_lowrank(prob)
            oracle = sv.solve_sdp(face_restricted(prob))
            assert oracle.status is Status.OPTIMAL
            assert sol.objective == pytest.approx(
                oracle.objective, rel=1e-6, abs=1e-6)
            assert sol.numerical_rank <= 2

    # a zero-budget row leaves the full problem without a Slater point, so
    # its dual need not attain its optimum; the polish step refits the
    # multipliers instead of solving that dual, and adds no engine solve
    @pytest.mark.parametrize("rank_c, route, solves",
                             [(1, "socp", 1),
                              (2, "eps-path", len(sv._EPS_SCHEDULE))])
    def test_polish_adds_no_engine_solve(self, rank_c, route, solves,
                                         monkeypatch):
        calls, polished = [], []
        engine, polish = sv.solve_cone_program, sv._polish

        def counting(*args, **kwargs):
            calls.append(1)
            return engine(*args, **kwargs)

        def recording(*args):
            polished.append(1)
            return polish(*args)

        monkeypatch.setattr(sv, "solve_cone_program", counting)
        monkeypatch.setattr(sv, "_polish", recording)
        prob = bounded_packing(np.random.default_rng(0), 5, 4, rank_c, zero_b=1)
        sol = sv.solve_packing_lowrank(prob)
        assert sol.route == route
        assert polished, "the first kkt_check passed; pick another instance"
        assert len(calls) == solves

    def test_polish_contract(self, monkeypatch):
        inputs = []
        polish = sv._polish

        def recording(problem, X, mu):
            inputs.append((X, mu))
            return polish(problem, X, mu)

        monkeypatch.setattr(sv, "_polish", recording)
        certified, routes = 0, set()
        for prob in zero_budget_instances():
            del inputs[:]
            sol = sv.solve_packing_lowrank(prob)
            routes.add(sol.route)
            kkt, passed = sv.kkt_check(prob, sol.X, sol.mu, 1e-8)
            assert sol.kkt_residuals == kkt
            for X, mu in inputs:
                path_kkt, _ = sv.kkt_check(prob, X, mu, 1e-8)
                assert kkt.max() <= path_kkt.max()
            certified += passed
        assert routes == {"socp", "eps-path"}
        # 17 of 40 before the polish step became one, when it raced four
        # multiplier candidates including a re-solve of the full dual.  All
        # 17 pass only through max|mu| in kkt_scale: the refit gives a
        # zero-budget row, whose M_i annihilates the range of X up to
        # roundoff, a multiplier of 6e13 to 1e16
        assert certified >= 17

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_polish_jacobian_matches_column_loop(self, r):
        def column_loop(S, V, mats):
            # the Jacobian as _polish built it before: one product per unit matrix
            n = V.shape[0]
            nr, na = n * r, len(mats)
            J = np.zeros((nr + na, nr + na))
            col = 0
            for j in range(n):
                for k in range(r):
                    E = np.zeros((n, r))
                    E[j, k] = 1.0
                    J[:nr, col] = (S @ E).ravel()
                    for a, m in enumerate(mats):
                        J[nr + a, col] = 2.0 * float(np.sum(V * (m @ E)))
                    col += 1
            for m in mats:
                J[:nr, col] = (m @ V).ravel()
                col += 1
            return J

        rng = np.random.default_rng(34)
        for n in (3, 7, 13, 40):
            for na in (1, 4):
                S = rng.standard_normal((n, n))
                S = S + S.T
                V = rng.standard_normal((n, r))
                mats = [random_psd(rng, n) for _ in range(na)]
                assert np.array_equal(sv._polish_jacobian(S, V, np.array(mats)),
                                      column_loop(S, V, mats))

    def test_forced_eps_path_on_rank_one(self):
        prob = c_opt_instance()
        sol = sv.solve_packing_lowrank(prob, route="eps-path")
        assert sol.route == "eps-path"
        assert sol.objective == pytest.approx(4.0, abs=1e-5)
        assert sol.numerical_rank == 1


class TestTruncation:
    def test_breaking_truncation_keeps_the_untruncated_x(self):
        # clipping the -1e-6 eigenvalue raises <I, X> from b to b + 1e-6
        prob = packing(np.eye(2), [np.eye(2)], [1.0 - 1e-6])
        X = np.diag([1.0, -1e-6])
        assert np.array_equal(
            sv._truncate_feasible(prob, X, sv._RANK_THRESHOLD), X)

    def test_feasible_truncation_is_kept(self):
        prob = packing(np.eye(2), [np.eye(2)], [2.0])
        X = np.diag([1.0, 1e-9])
        Xt = sv._truncate_feasible(prob, X, sv._RANK_THRESHOLD)
        assert np.array_equal(Xt, sv.truncate_psd(X, sv._RANK_THRESHOLD))
        assert linalg.rank_tol(Xt) == 1
        assert np.allclose(Xt, np.diag([1.0, 0.0]), rtol=0.0, atol=1e-15)

    # a smaller threshold keeps more of the terms w_j v_j v_j' >= 0, so with
    # M_i PSD no <M_i, Xt> can fall: a truncation that breaks a constraint
    # cannot be repaired by keeping more eigenvalues
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           thresholds=st.lists(st.floats(1e-13, 1.0), min_size=2, max_size=5))
    def test_traces_grow_as_threshold_falls(self, seed, n, thresholds):
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        X = (Q * 10.0 ** rng.uniform(-12.0, 0.0, n)) @ Q.T
        mats = [random_psd(rng, n, int(rng.integers(1, n + 1))) for _ in range(3)]
        traces = np.array([[np.trace(M @ sv.truncate_psd(X, t)) for M in mats]
                           for t in sorted(thresholds, reverse=True)])
        roundoff = 1e-13 * max(float(np.linalg.norm(M)) for M in mats)
        assert np.all(np.diff(traces, axis=0) >= -roundoff)


class TestCombined:
    def test_tangent_instance_path(self):
        sol = sv.solve_combined_eta(tangent_combined())
        assert sol.status is Status.ASYMPTOTIC_SUP
        assert sol.objective == pytest.approx(3.1, abs=1e-3)
        assert all(r <= 1 for r in sol.ranks)
        diffs = np.diff(sol.gamma)
        assert np.all(diffs >= -1e-9)

    def test_tangent_dual_value(self):
        mu, val = sv.solve_combined_dual(tangent_combined())
        assert val == pytest.approx(3.1, abs=1e-6)
        assert np.allclose(mu, [0.1, 2.7, 0.3], atol=1e-3)

    def test_degenerate_combined_matches_packing(self):
        doc = {"kind": "combined", "C": [[1.0, 0.0], [0.0, 0.0]],
               "constraints": [{"M": [[1.0, 0.0], [0.0, 1.0]], "b": 1.0}],
               "h0": []}
        cmb = parse_problem(doc)
        sol = sv.solve_combined_eta(cmb)
        ref = sv.solve_packing_lowrank(
            packing([[1.0, 0.0], [0.0, 0.0]], [np.eye(2)], [1.0]))
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_analytic_sequence_value(self):
        cmb = tangent_combined()
        k = 1.0e6
        x = np.array([np.sqrt(3.0 + k), np.sqrt(k)])
        lam = np.array([-1.0, k + 2.0])
        value = x @ cmb.C @ x + cmb.h0 @ lam
        assert value == pytest.approx(3.1, abs=1e-3)
        # feasibility of the sequence point
        for m, bi, hi in zip(cmb.mats, cmb.b, cmb.hs):
            assert x @ m @ x <= bi + hi @ lam + 1e-9

    def test_second_block_traded_against_objective(self):
        # max <cc', X> - y  s.t.  <4I, X> <= 1 + y, y >= 0: optimum 1/2 at y=0
        doc = {"kind": "combined", "C": [[1.0, 1.0], [1.0, 1.0]],
               "constraints": [{"M": [[4.0, 0.0], [0.0, 4.0]], "b": 1.0}],
               "R0": [[-1.0]], "R": [[[1.0]]], "h0": []}
        sol = sv.solve_combined_eta(parse_problem(doc))
        assert sol.status is Status.OPTIMAL
        assert sol.objective == pytest.approx(0.5, abs=1e-6)
        assert abs(float(sol.Y[0, 0])) <= 1e-6
        assert sol.ranks[-1] == 1

    def test_negative_budget_without_free_variables(self):
        doc = {"kind": "combined", "C": [[1.0]],
               "constraints": [{"M": [[1.0]], "b": -1.0}], "h0": []}
        with pytest.raises(InfeasiblePrimal):
            sv.solve_combined_eta(parse_problem(doc))

    def test_coupling_makes_dual_infeasible(self):
        from sdpack.errors import InfeasibleDual
        doc = {"kind": "combined", "C": [[1.0, 1.0], [1.0, 1.0]],
               "constraints": [{"M": [[4.0, 0.0], [0.0, 4.0]], "b": 1.0}],
               "R0": [[0.3]], "R": [[[1.0]]], "h0": []}
        with pytest.raises(InfeasibleDual):
            sv.solve_combined_eta(parse_problem(doc))

    def test_rank_ceiling_with_definite_constraints(self):
        # with every constraint matrix positive definite, any solution's
        # first block has rank at most rank(C)
        rng = np.random.default_rng(19)
        for _ in range(5):
            n, l, r = 4, 3, 2
            mats = []
            for _ in range(l):
                B = rng.standard_normal((n, n))
                mats.append(B @ B.T + 0.5 * np.eye(n))
            Bc = rng.standard_normal((n, r))
            C = Bc @ Bc.T
            doc = {"kind": "combined",
                   "C": [[float(v) for v in row] for row in C],
                   "constraints": [
                       {"M": [[float(v) for v in row] for row in m],
                        "b": float(rng.uniform(0.5, 2.0))} for m in mats],
                   "h0": []}
            sol = sv.solve_combined_eta(parse_problem(doc))
            assert sol.status is Status.OPTIMAL
            assert all(rank <= r for rank in sol.ranks)


def _counted_engine(monkeypatch):
    """Record the result of every engine solve, from either module."""
    seen = []
    for module in (rd, sv):
        def counted(*args, _engine=module.solve_cone_program, **kw):
            res = _engine(*args, **kw)
            seen.append(res)
            return res
        monkeypatch.setattr(module, "solve_cone_program", counted)
    return seen


# (n, l, rank(C), p, q) of the attained instances
_ATTAINED = [(3, 2, 1, 2, 2), (4, 3, 2, 2, 2), (5, 4, 3, 2, 2), (5, 4, 1, 0, 0),
             (5, 4, 2, 1, 0), (6, 4, 3, 0, 1), (5, 4, 2, 1, 1), (6, 5, 3, 2, 0)]


def _attained_instance(shape, seed):
    n, l, rank_c, p, q = shape
    return lambda: (attained_combined(np.random.default_rng([seed, n, l, p, q]),
                                      n, l, rank_c, p, q), rank_c)


def _degenerate_instance(seed):
    rank_c = 1 + seed % 3
    return lambda: (degenerate_combined(np.random.default_rng(seed), 6 + seed % 3,
                                        rank_c), rank_c)


# the 30 attained instances on each route; the direct route's attained ids
# are the shape and the seed alone
_ROUTED_INSTANCES = [
    pytest.param(route, _attained_instance(shape, seed),
                 id=("" if route == "direct" else "eta-path-")
                 + "-".join(map(str, shape + (seed,))))
    for route in ("direct", "eta-path") for shape in _ATTAINED for seed in range(3)
] + [pytest.param(route, _degenerate_instance(seed), id=f"{route}-degenerate-{seed}")
     for route in ("direct", "eta-path") for seed in range(6)]


class TestDirectCombined:
    """A combined problem whose dual phase 1 ends optimal with a Slater
    margin makes one uncapped solve and shorts its X block to the range of
    C; anything else takes the trace-cap path."""

    @pytest.mark.parametrize("route, instance", _ROUTED_INSTANCES)
    def test_attained_matches_dual(self, monkeypatch, route, instance):
        # either route answers within rank, feasibly, at the dual's value;
        # the trace-cap path is forced by reading no Slater point off the
        # dual phase 1
        cmb, rank_c = instance()
        if route == "eta-path":
            phase1 = rd.combined_dual_phase1
            monkeypatch.setattr(rd, "combined_dual_phase1",
                                lambda c: phase1(c)[:2] + (False,))
        seen = _counted_engine(monkeypatch)
        sol = sv.solve_combined_eta(cmb)
        assert sol.route == route
        if route == "direct":
            # two phase-1 programs and one uncapped solve
            assert [res.status for res in seen] == ["optimal"] * 3
            assert (sol.status, sol.gamma) == (Status.OPTIMAL, (sol.objective,))
        else:
            assert len(seen) == 2 + len(sv._ETA_SCHEDULE)
        monkeypatch.undo()
        _, value = sv.solve_combined_dual(cmb)
        assert sol.objective == pytest.approx(value, rel=1e-9, abs=1e-9)
        assert sol.ranks[-1] == linalg.rank_tol(sol.X, sv._RANK_THRESHOLD)
        assert max(sol.ranks) <= rank_c
        self._assert_feasible(cmb, sol)

    @pytest.mark.parametrize("seed", range(6))
    def test_degenerate_face_comes_back_within_rank(self, monkeypatch, seed):
        # the uncapped solve's X has rank 5 on these; the short brings it to
        # rank(C) or below without moving the value
        cmb, rank_c = _degenerate_instance(seed)()
        seen = _counted_engine(monkeypatch)
        sol = sv.solve_combined_eta(cmb)
        assert sol.route == "direct" and len(seen) == 3
        X_raw = sv._split_combined(seen[-1].x, cmb)[0]
        assert linalg.rank_tol(X_raw, sv._RANK_THRESHOLD) > rank_c
        assert sol.ranks[0] <= rank_c
        assert np.sum(cmb.C * sol.X) == pytest.approx(np.sum(cmb.C * X_raw), rel=1e-12)
        monkeypatch.undo()
        assert sol.objective == pytest.approx(sv.solve_combined_dual(cmb)[1], rel=1e-9)
        self._assert_feasible(cmb, sol)

    @pytest.mark.parametrize("norm_c", [1e5, 1e6])
    @pytest.mark.parametrize("n, l, rank_c, p, q", [(3, 2, 1, 2, 2), (4, 3, 2, 2, 2),
                                                    (5, 4, 1, 0, 0), (5, 4, 2, 1, 1)])
    def test_scaled_attained_takes_direct(self, n, l, rank_c, p, q, norm_c):
        # the relaxation stops at its bound t = -1 at every scale, so the
        # margin, capped at 1/2, still reads a Slater point past |C| = 1e4
        base = attained_combined(np.random.default_rng([0, n, l, p, q]), n, l,
                                 rank_c, p, q)
        s = norm_c / float(np.linalg.norm(base.C))
        cmb = dataclasses.replace(base, C=base.C * s, R0=base.R0 * s, h0=base.h0 * s)
        ok, t, strict = rd.combined_dual_phase1(cmb)
        assert ok and strict and t == pytest.approx(-1.0, abs=1e-6)
        sol = sv.solve_combined_eta(cmb)
        assert sol.route == "direct" and sol.ranks[0] <= rank_c
        assert sol.objective / s == pytest.approx(sv.solve_combined_eta(base).objective,
                                                  rel=1e-9)
        assert sol.objective == pytest.approx(sv.solve_combined_dual(cmb)[1], rel=1e-9)
        self._assert_feasible(cmb, sol)

    @staticmethod
    def _assert_feasible(cmb, sol):
        slack = (cmb.b + np.array([np.sum(r * sol.Y) for r in cmb.Rs]) + cmb.H.T @ sol.lam
                 - np.array([np.sum(m * sol.X) for m in cmb.mats]))
        assert np.min(slack) >= -1e-9 * max(1.0, float(np.max(np.abs(cmb.b))))
        assert np.linalg.eigvalsh(sol.X)[0] >= -1e-12

    def test_golden_instance_takes_the_path(self, monkeypatch):
        seen = _counted_engine(monkeypatch)
        sol = sv.solve_combined_eta(tangent_combined())
        assert sol.route == "eta-path" and len(sol.gamma) == 7
        assert len(seen) == 2 + 7

    def test_unconverged_phase1_takes_the_path(self, monkeypatch):
        # the same Slater margin read from a phase 1 that stopped short
        # proves nothing: the instance takes the trace-cap path
        cmb = attained_combined(np.random.default_rng(1), 5, 4, 2, 1, 0)
        assert rd.combined_dual_phase1(cmb)[2]
        _stopped_engine(monkeypatch, 1e-10, module=rd)
        ok, t, strict = rd.combined_dual_phase1(cmb)
        assert ok and t < -0.01 and not strict
        sol = sv.solve_combined_eta(cmb)
        assert sol.route == "eta-path" and len(sol.gamma) == 7

    def test_stopped_direct_solve_takes_the_path(self, monkeypatch):
        # an uncapped solve that does not end optimal falls back to the
        # trace-cap path, run as it would be without the direct attempt
        cmb = attained_combined(np.random.default_rng(1), 5, 4, 2, 1, 0)
        phase1 = rd.combined_dual_phase1
        monkeypatch.setattr(rd, "combined_dual_phase1", lambda c: phase1(c)[:2] + (False,))
        path = sv.solve_combined_eta(cmb)
        monkeypatch.undo()
        engine, calls = sv.solve_cone_program, []

        def first_stops(prog, **kw):
            res = engine(prog, **kw)
            calls.append(res)
            return dataclasses.replace(res, status="max_iterations") if len(calls) == 1 else res

        monkeypatch.setattr(sv, "solve_cone_program", first_stops)
        sol = sv.solve_combined_eta(cmb)
        assert len(calls) == 1 + 7 and sol.route == "eta-path"
        assert sol.gamma == path.gamma and np.array_equal(sol.X, path.X)


class TestPathChecks:
    # (11, 12, 2) is the one case of 72 at the benchmark's sizes (seeds
    # 0-11, n 11-13, rank 2-3, l 10) whose stage stopped short, left_cone at
    # relgap 3e-11, when the psd KKT system kept its X rows
    @pytest.mark.parametrize("seed, n, rank_c",
                             [(0, 8, 2), (1, 10, 3), (2, 12, 2), (3, 12, 3),
                              (11, 12, 2), (4, 11, 3), (5, 13, 2)])
    def test_eps_path_stages_reach_path_tolerance(self, seed, n, rank_c,
                                                  monkeypatch):
        stages = []
        engine = sv.solve_cone_program

        def tap(prog, **kw):
            res = engine(prog, **kw)
            if kw.get("reltol") == sv._PATH_RELTOL:
                stages.append(res)
            return res

        monkeypatch.setattr(sv, "solve_cone_program", tap)
        prob = bounded_packing(np.random.default_rng(seed), n, 10, rank_c)
        sol = sv.solve_packing_lowrank(prob)
        assert sol.route == "eps-path"
        assert len(stages) == len(sv._EPS_SCHEDULE)
        for res in stages:
            assert res.status == "optimal"
            assert res.relgap <= sv._PATH_RELTOL

    # the warm stages start from a point pushed only as far as its residual
    # in the new stage, so the last (eps 1e-8, 1e-7 away from its
    # predecessor) needs few iterations: 3 against the cold stage's 16 and
    # 13; with every block pushed to a 5% margin they took 11 and 9
    @pytest.mark.parametrize("seed, n, rank_c", [(11, 12, 2), (5, 13, 2)])
    def test_warm_stages_take_fewer_iterations(self, seed, n, rank_c, monkeypatch):
        paths = []
        follow = sv._follow_path

        def recording(*args, **kwargs):
            results = follow(*args, **kwargs)
            paths.append(results)
            return results

        monkeypatch.setattr(sv, "_follow_path", recording)
        prob = bounded_packing(np.random.default_rng(seed), n, 10, rank_c)
        assert sv.solve_packing_lowrank(prob).route == "eps-path"
        [stages] = paths
        assert len(stages) == len(sv._EPS_SCHEDULE)
        assert all(res.status == "optimal" for res in stages)
        assert stages[-1].iterations <= stages[0].iterations / 2

    @pytest.mark.parametrize("error", [PathDiverged, PathNotMonotone])
    def test_decrease_raises(self, error):
        with pytest.raises(error, match="test path values decreased"):
            sv._check_monotone([1.0, 2.0, 1.5, 3.0], error, "test path")

    def test_dip_within_slack_passes(self):
        top = 10.0
        dip = top - 0.5 * sv._MONOTONE_SLACK * top
        sv._check_monotone([1.0, top, dip, top], PathDiverged, "test path")


class TestRecovery:
    def test_simplex_mode(self):
        w = sv.recover_design(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        assert np.allclose(w, [0.5, 0.5])

    def test_concentrated_dual(self):
        w = sv.recover_design(np.array([5.0, 0.0, 0.0]), np.ones(3))
        assert np.allclose(w, [1.0, 0.0, 0.0])

    def test_zero_dual_rejected(self):
        with pytest.raises(ZeroDual):
            sv.recover_design(np.zeros(2), np.ones(2))

    def test_resource_mode(self):
        w = sv.recover_design(np.array([1.0, 2.0]), mode="resource", t=2.0)
        assert np.allclose(w, [0.5, 1.0])
        with pytest.raises(ZeroDual):
            sv.recover_design(np.array([1.0]), mode="resource", t=0.0)
