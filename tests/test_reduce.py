import numpy as np
import pytest

from sdpack import linalg
from sdpack import reduce as rd
from sdpack.errors import (DimensionMismatch, InfeasibleDual, InfeasibleInput,
                           InfeasiblePrimal, NonzeroH0, NonzeroR, RankNotOne,
                           UnboundedInput)
from sdpack.model import Criterion, DesignProblem, parse_problem


from instances import bounded_packing as random_bounded_packing
from instances import packing


class TestProjection:
    def test_identity_reduction(self):
        prob = packing(np.eye(2), [np.eye(2), np.diag([2.0, 1.0])], [1.0, 1.0])
        red, lift = rd.project_packing(prob)
        assert np.allclose(lift.basis, np.eye(2))
        assert red.kept == (0, 1)
        assert not red.zeroed and not red.dropped

    def test_zero_b_reduction_by_hand(self):
        e1 = np.diag([1.0, 0.0])
        prob = packing(np.diag([0.0, 1.0]), [e1, np.eye(2)], [0.0, 1.0])
        red, lift = rd.project_packing(prob)
        assert red.zeroed == (0,) and red.kept == (1,)
        assert red.problem.C.shape == (1, 1)
        assert red.problem.C[0, 0] == pytest.approx(1.0)
        assert red.problem.mats[0][0, 0] == pytest.approx(1.0)
        assert np.allclose(np.abs(lift.basis.ravel()), [0.0, 1.0])

    def test_rank_deficient_sum_by_hand(self):
        e1 = np.diag([1.0, 0.0])
        prob = packing(e1, [e1], [1.0])
        red, lift = rd.project_packing(prob)
        assert red.problem.n == 1
        assert red.problem.C[0, 0] == pytest.approx(1.0)
        assert np.allclose(np.abs(lift.basis.ravel()), [1.0, 0.0])

    def test_vacuous_rows_dropped(self):
        prob = packing(np.eye(2), [np.zeros((2, 2)), np.eye(2)], [1.0, 1.0])
        red, _ = rd.project_packing(prob)
        assert red.dropped == (0,)
        assert red.kept == (1,)

    def test_infeasible_raises(self):
        prob = packing(np.eye(2), [np.eye(2)], [-1.0])
        with pytest.raises(InfeasibleInput):
            rd.project_packing(prob)

    def test_unbounded_raises_with_ray(self):
        prob = packing(np.diag([1.0, 0.0]), [np.diag([0.0, 1.0])], [1.0])
        with pytest.raises(UnboundedInput) as exc:
            rd.project_packing(prob)
        assert exc.value.ray is not None

    def test_empty_reduction(self):
        # single constraint with zero budget whose kernel is trivial
        prob = packing(np.eye(2), [np.eye(2)], [0.0])
        red, lift = rd.project_packing(prob)
        assert red.empty
        assert rd.lift_solution(np.zeros((0, 0)), lift).shape == (2, 2)

    def test_idempotence(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            prob = random_bounded_packing(rng, 4, 3, 2, zero_b=1)
            red, _ = rd.project_packing(prob)
            red2, lift2 = rd.project_packing(red.problem)
            assert np.allclose(lift2.basis, np.eye(red.problem.n))
            assert red2.kept == tuple(range(red.problem.l))

    def test_strict_feasibility_witnesses(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            l = int(rng.integers(2, 6))
            prob = random_bounded_packing(rng, n, l, int(rng.integers(1, n + 1)),
                                          zero_b=int(rng.integers(0, 2)))
            red, lift = rd.project_packing(prob)
            assert not red.empty
            inner = red.problem
            # primal witness: eps*I keeps every constraint strictly slack
            for m, bi in zip(inner.mats, inner.b):
                assert red.strict_eps * np.trace(m) < bi
            # dual witness: scalar multiple strictly dominates the objective
            assert red.dual_margin > 0

    def test_lift_preserves_values(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            prob = random_bounded_packing(rng, 5, 4, 2, zero_b=1)
            red, lift = rd.project_packing(prob)
            inner = red.problem
            Bz = rng.standard_normal((inner.n, inner.n))
            Z = Bz @ Bz.T
            X = rd.lift_solution(Z, lift)
            assert np.trace(prob.C @ X) == pytest.approx(
                np.trace(inner.C @ Z), rel=1e-10, abs=1e-10)
            for j, i in enumerate(red.kept):
                assert np.trace(prob.mats[i] @ X) == pytest.approx(
                    np.trace(inner.mats[j] @ Z), rel=1e-9, abs=1e-9)
            for i in red.zeroed:
                assert abs(np.trace(prob.mats[i] @ X)) <= 1e-9 * np.linalg.norm(Z)
            assert linalg.rank_tol(X) <= linalg.rank_tol(Z)

    def test_lift_dimension_mismatch(self):
        prob = packing(np.eye(2), [np.eye(2)], [1.0])
        _, lift = rd.project_packing(prob)
        with pytest.raises(DimensionMismatch):
            rd.lift_solution(np.eye(3), lift)


class TestSocpRank1:
    def test_scalar_instance(self):
        prob = packing([[4.0]], [[[1.0]]], [9.0])
        socp = rd.to_socp_rank1(prob)
        assert socp.objective == pytest.approx([2.0])
        assert socp.cones[0].d == pytest.approx(3.0)

    def test_rank_two_rejected(self):
        prob = packing(np.eye(2), [np.eye(2)], [1.0])
        with pytest.raises(RankNotOne):
            rd.to_socp_rank1(prob)

    def test_sign_convention(self):
        c = np.array([-1.0, 2.0])
        C = np.outer(c, c)
        v = rd.rank_one_vector(C)
        assert v[0] > 0  # first nonzero entry positive
        assert np.allclose(np.outer(v, v), C)

    def test_infeasible_rejected(self):
        prob = packing([[1.0]], [[[1.0]]], [-1.0])
        with pytest.raises(InfeasibleInput):
            rd.to_socp_rank1(prob)


class TestHyperbolicIdentity:
    def test_identity_on_random_samples(self):
        # |z|^2 <= a  <=>  |(2z; a-1)| <= a+1
        rng = np.random.default_rng(3)
        for _ in range(1000):
            z = rng.standard_normal(int(rng.integers(1, 5)))
            a = rng.uniform(0.0, 4.0)
            lhs = z @ z <= a
            rhs = np.hypot(2 * np.linalg.norm(z), a - 1.0) <= a + 1.0
            assert lhs == rhs


class TestCombinedToSocp:
    def test_nonzero_r_rejected(self):
        doc = {"kind": "combined", "C": [[1.0]], "constraints": [{"M": [[1.0]], "b": 1.0}],
               "R0": [[0.0]], "R": [[[1.0]]], "h0": [], "h": [[]]}
        with pytest.raises(NonzeroR):
            rd.combined_to_socp(parse_problem(doc))

    def test_nonzero_h0_rejected(self):
        doc = {"kind": "combined", "C": [[1.0]], "constraints": [{"M": [[1.0]], "b": 1.0}],
               "h0": [1.0], "h": [[0.0]]}
        with pytest.raises(NonzeroH0):
            rd.combined_to_socp(parse_problem(doc))

    @pytest.mark.parametrize("C, M, b, error", [
        ([[1.0]], [[1.0]], -1.0, InfeasiblePrimal),
        ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], 1.0,
         InfeasibleDual),
    ])
    def test_phase1_rejects(self, C, M, b, error):
        doc = {"kind": "combined", "C": C, "constraints": [{"M": M, "b": b}],
               "h0": []}
        with pytest.raises(error):
            rd.combined_to_socp(parse_problem(doc))

    def test_degenerate_combined_matches_plain(self):
        # q = 0: the combined rewrite and the plain one value-agree
        from sdpack.solve import solve_socp
        c = np.array([1.0, 1.0])
        mats = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        prob = packing(np.outer(c, c), mats, [1.0, 1.0])
        doc = {"kind": "combined",
               "C": [[1.0, 1.0], [1.0, 1.0]],
               "constraints": [{"M": [[1.0, 0.0], [0.0, 0.0]], "b": 1.0},
                               {"M": [[0.0, 0.0], [0.0, 1.0]], "b": 1.0}],
               "h0": []}
        combined = rd.combined_to_socp(parse_problem(doc))
        plain = rd.to_socp_rank1(prob)
        v1 = solve_socp(combined).value
        v2 = solve_socp(plain).value
        assert v1 == pytest.approx(v2, abs=1e-8)


class TestDesignBuilders:
    def test_c_optimal_shape(self):
        design = DesignProblem(K=np.array([[1.0], [1.0]]),
                               criterion=Criterion.C_OPT,
                               mats=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        prob = rd.build_c_optimal(design)
        assert np.allclose(prob.b, 1.0)
        assert linalg.rank_tol(prob.C) == 1

    def test_a_optimal_r1_equals_c_optimal(self):
        design = DesignProblem(K=np.array([[1.0], [2.0]]),
                               criterion=Criterion.C_OPT,
                               mats=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        pc = rd.build_c_optimal(design)
        pa = rd.build_a_optimal(design)
        assert np.allclose(pc.C, pa.C)
        assert all(np.allclose(a, b) for a, b in zip(pc.mats, pa.mats))

    def test_a_optimal_block_shape(self):
        rng = np.random.default_rng(4)
        K = rng.standard_normal((3, 2))
        m1 = np.eye(3)
        m2 = np.diag([1.0, 2.0, 3.0])
        design = DesignProblem(K=K, criterion=Criterion.A_OPT, mats=(m1, m2))
        prob = rd.build_a_optimal(design)
        assert prob.n == 6 and prob.l == 2
        assert np.allclose(prob.mats[1][:3, :3], m2)
        assert np.allclose(prob.mats[1][3:, 3:], m2)
        assert np.allclose(prob.mats[1][:3, 3:], 0.0)
        assert linalg.rank_tol(prob.C) == 1

    def test_e_optimal_rank(self):
        design = DesignProblem(K=np.eye(2), criterion=Criterion.E_OPT,
                               mats=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        prob = rd.build_e_optimal(design)
        assert linalg.rank_tol(prob.C) == 2
        assert np.allclose(prob.C, np.eye(2))

    def test_wrong_criterion(self):
        design = DesignProblem(K=np.eye(2), criterion=Criterion.E_OPT,
                               mats=(np.eye(2),))
        from sdpack.errors import WrongCriterion
        with pytest.raises(WrongCriterion):
            rd.build_c_optimal(design)
