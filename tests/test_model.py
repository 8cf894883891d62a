import dataclasses
import json

import numpy as np
import pytest

from sdpack import model
from sdpack.errors import SchemaError, ValidationError


def example_tangent_combined() -> dict:
    """The 2x2 combined instance whose supremum (31/10) is unattained."""
    c = (np.sqrt(3) / 10.0) * np.array([9.0, 1.0])
    return {
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


class TestParse:
    def test_combined_instance(self):
        prob = model.parse_problem(example_tangent_combined())
        assert isinstance(prob, model.CombinedProblem)
        assert prob.n == 2 and prob.l == 3 and prob.q == 2 and prob.p == 0
        assert np.allclose(prob.H, [[1, 0, 3], [0, 1, 1]])
        assert np.allclose(prob.hs[2], [3.0, 1.0])
        assert np.allclose(prob.b, [1.0, 1.0, 1.0])

    def test_negative_b_parses(self):
        # parsing does not judge feasibility
        doc = {"kind": "packing", "C": [[1.0]], "constraints": [{"M": [[1.0]], "b": -1.0}]}
        prob = model.parse_problem(doc)
        assert prob.b[0] == -1.0

    def test_non_psd_constraint_rejected_with_witness(self):
        doc = {"kind": "packing", "C": [[1.0, 0], [0, 1.0]],
               "constraints": [{"M": [[-1.0, 0], [0, -1.0]], "b": 1.0}]}
        with pytest.raises(ValidationError) as exc:
            model.parse_problem(doc)
        assert exc.value.witness == pytest.approx(-1.0)

    def test_dimension_mismatch_witness(self):
        doc = {"kind": "packing", "C": [[1.0]], "constraints": [{"M": [[1.0, 0], [0, 1.0]], "b": 1.0}]}
        with pytest.raises(ValidationError) as exc:
            model.parse_problem(doc)
        assert exc.value.witness == (2, 1)

    def test_malformed_json(self):
        with pytest.raises(SchemaError):
            model.parse_problem("{not json")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            model.parse_problem({"kind": "mystery"})

    @pytest.mark.parametrize("kind", [["packing"], {"a": 1}])
    def test_unhashable_kind(self, kind):
        with pytest.raises(SchemaError):
            model.parse_problem({"kind": kind})

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            model.parse_problem({"kind": "packing", "C": [[1.0]]})

    def test_inconsistent_H_rejected(self):
        doc = example_tangent_combined()
        doc["h"] = [[1.0, 0.0], [0.0, 1.0], [3.0, 1.0]]
        doc["H"] = [[1.0, 0.0, 99.0], [0.0, 1.0, 1.0]]
        with pytest.raises(ValidationError) as exc:
            model.parse_problem(doc)
        assert exc.value.witness == 2

    def test_design_with_obs_maps(self):
        doc = {"kind": "design", "K": [[1.0], [1.0]], "criterion": "c",
               "A": [[[1.0, 0.0]], [[0.0, 1.0]]]}
        prob = model.parse_problem(doc)
        assert isinstance(prob, model.DesignProblem)
        assert np.allclose(prob.mats[0], [[1, 0], [0, 0]])

    def test_design_mismatched_obs_and_mats(self):
        doc = {"kind": "design", "K": [[1.0], [1.0]], "criterion": "c",
               "A": [[[1.0, 0.0]]], "M": [[[0.0, 0.0], [0.0, 1.0]]]}
        with pytest.raises(ValidationError):
            model.parse_problem(doc)

    def test_design_c_criterion_needs_single_column(self):
        doc = {"kind": "design", "K": [[1.0, 0.0], [0.0, 1.0]], "criterion": "c",
               "M": [[[1.0, 0.0], [0.0, 1.0]]]}
        with pytest.raises(ValidationError):
            model.parse_problem(doc)

    def test_design_negative_resource_entry(self):
        doc = {"kind": "design", "K": [[1.0], [1.0]], "criterion": "c",
               "M": [[[1.0, 0.0], [0.0, 1.0]]],
               "resource": {"P": [[-1.0]], "d": [1.0]}}
        with pytest.raises(ValidationError) as exc:
            model.parse_problem(doc)
        assert exc.value.witness == (0, 0)

    def test_resource_block_rejects_a_negative_entry(self):
        # built through the API, not parsed: the parser's check, message
        # and witness
        with pytest.raises(ValidationError) as exc:
            model.ResourceBlock(P=np.array([[1.0, 0.0], [0.5, -2.0]]), d=np.ones(2))
        assert str(exc.value) == "resource.P has a negative entry at (1, 1)"
        assert exc.value.witness == (1, 1)

    def test_resource_block_message_has_plain_indices(self):
        with pytest.raises(ValidationError) as exc:
            model.ResourceBlock(P=np.array([[1, 0], [-1, 0]]), d=np.array([1, 1]))
        assert str(exc.value) == "resource.P has a negative entry at (1, 0)"
        assert exc.value.witness == (1, 0)

    @pytest.mark.parametrize("field, value, message, witness", [
        ("C", np.ones((2, 3)), "C: not a square matrix (shape (2, 3))", (2, 3)),
        ("C", np.ones(2), "C: not a square matrix (shape (2,))", (2,)),
        ("C", np.array([[1.0, 0.5], [0.0, 1.0]]),
         "C: not symmetric (max |M - M.T| 5.000e-01)", 0.5),
        ("C", np.diag([1.0, -0.5]),
         "C: not positive semidefinite (min eigenvalue -5.000e-01)", -0.5),
        ("C", np.array([[1.0, np.nan], [np.nan, 1.0]]), "C: non-finite entries", "C"),
        ("mats", (np.eye(2), np.eye(2), np.eye(3)),
         "constraints[2].M: dimension 3 != 2", (3, 2)),
        ("mats", (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)),
         "constraints[1].M: not symmetric (max |M - M.T| 1.000e+00)", 1.0),
        ("mats", (np.eye(2), np.eye(2), np.diag([0.0, -2.0])),
         "constraints[2].M: not positive semidefinite (min eigenvalue -2.000e+00)", -2.0),
    ])
    def test_combined_problem_rejects_bad_matrices(self, field, value, message, witness):
        # built through the API, not parsed: the checks the parser makes
        prob = model.parse_problem(example_tangent_combined())
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(prob, **{field: value})
        assert str(exc.value) == message
        assert exc.value.witness == witness

    def test_combined_problem_accepts_roundoff_asymmetry(self):
        prob = model.parse_problem(example_tangent_combined())
        C = prob.C.copy()
        C[0, 1] += 1e-15
        assert dataclasses.replace(prob, C=C).C[0, 1] == C[0, 1]


class TestRoundTrip:
    def test_combined_round_trip_exact(self):
        prob = model.parse_problem(example_tangent_combined())
        again = model.parse_problem(model.serialize(prob))
        assert np.array_equal(prob.C, again.C)
        assert all(np.array_equal(a, b) for a, b in zip(prob.mats, again.mats))
        assert np.array_equal(prob.H, again.H)
        assert np.array_equal(prob.h0, again.h0)

    def test_solution_status_preserved(self):
        sol = model.Solution(X=np.zeros((2, 2)), objective=0.0, numerical_rank=0,
                             mu=np.zeros(1), status=model.Status.UNBOUNDED)
        again = model.parse_solution(model.serialize(sol))
        assert again.status is model.Status.UNBOUNDED

    def test_random_packing_round_trip(self):
        rng = np.random.default_rng(7)
        n, l = 5, 4
        mats, rows = [], []
        for _ in range(l):
            B = rng.standard_normal((n, n))
            mats.append(B @ B.T)
        C = rng.standard_normal((n, n))
        C = C @ C.T
        doc = {"kind": "packing",
               "C": [[float(v) for v in row] for row in C],
               "constraints": [{"M": [[float(v) for v in row] for row in m],
                                "b": float(rng.uniform(0, 2))} for m in mats]}
        prob = model.parse_problem(doc)
        again = model.parse_problem(model.serialize(prob))
        assert np.array_equal(prob.C, again.C)
        for a, b in zip(prob.mats, again.mats):
            assert np.array_equal(a, b)
        assert np.array_equal(prob.b, again.b)

    def test_serialized_is_valid_json(self):
        prob = model.parse_problem(example_tangent_combined())
        doc = json.loads(model.serialize(prob))
        assert doc["kind"] == "combined"

    def test_design_round_trip(self):
        doc = {"kind": "design", "K": [[1.0], [1.0]], "criterion": "c",
               "A": [[[1.0, 0.0]], [[0.0, 1.0]]],
               "resource": {"P": [[1.0, 2.0]], "d": [1.5]}}
        prob = model.parse_problem(doc)
        again = model.parse_problem(model.serialize(prob))
        assert again.criterion is model.Criterion.C_OPT
        assert np.array_equal(prob.K, again.K)
        assert all(np.array_equal(a, b) for a, b in zip(prob.obs, again.obs))
        assert all(np.array_equal(a, b) for a, b in zip(prob.mats, again.mats))
        assert np.array_equal(prob.resource.P, again.resource.P)
        assert np.array_equal(prob.resource.d, again.resource.d)

    def test_combined_solution_round_trip(self):
        sol = model.CombinedSolution(
            X=np.array([[2.0, 0.0], [0.0, 0.0]]), Y=np.zeros((1, 1)),
            lam=np.array([-1.0, 3.0]), objective=3.1,
            status=model.Status.ASYMPTOTIC_SUP,
            gamma=(3.0, 3.05, 3.1), ranks=(1, 1, 1))
        again = model.parse_solution(model.serialize(sol))
        assert again.status is model.Status.ASYMPTOTIC_SUP
        assert np.array_equal(sol.X, again.X)
        assert np.array_equal(sol.lam, again.lam)
        assert sol.gamma == again.gamma
        assert sol.ranks == again.ranks

    def test_unbounded_objective_survives_json(self):
        import math
        sol = model.Solution(X=np.eye(1), objective=math.inf,
                             numerical_rank=1, mu=np.zeros(1),
                             status=model.Status.UNBOUNDED)
        text = model.serialize(sol)
        json.loads(text)  # strictly valid JSON, no Infinity token
        again = model.parse_solution(text)
        assert math.isinf(again.objective)
