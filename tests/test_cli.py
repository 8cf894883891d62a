import dataclasses
import json
import pathlib

import numpy as np
import pytest

from sdpack import cli
from sdpack.model import Status


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


RESOURCE_DESIGN = {
    "kind": "design", "K": [[1.0], [1.0]], "criterion": "c",
    "A": [[[1.0, 0.0]], [[0.0, 1.0]]],
    "resource": {"P": [[1.0, 0.0], [0.0, 1.0]], "d": [1.0, 1.0]}}


@pytest.fixture
def rank1_file(tmp_path):
    return write(tmp_path, "rank1.json", {
        "kind": "packing",
        "C": [[1.0, 1.0], [1.0, 1.0]],
        "constraints": [{"M": [[1.0, 0.0], [0.0, 0.0]], "b": 1.0},
                        {"M": [[0.0, 0.0], [0.0, 1.0]], "b": 1.0}],
    })


@pytest.fixture
def combined_file(tmp_path):
    c = (np.sqrt(3) / 10.0) * np.array([9.0, 1.0])
    C = np.outer(c, c)
    return write(tmp_path, "combined.json", {
        "kind": "combined",
        "C": [[float(v) for v in row] for row in C],
        "constraints": [{"M": [[0.0, 0.0], [0.0, 0.0]], "b": 1.0},
                        {"M": [[1.0, 0.0], [0.0, 0.0]], "b": 1.0},
                        {"M": [[0.0, 0.0], [0.0, 1.0]], "b": 1.0}],
        "h0": [-1.0, -3.0],
        "H": [[1.0, 0.0, 3.0], [0.0, 1.0, 1.0]],
    })


class TestAnalyze:
    def test_bounded_instance(self, capsys, rank1_file):
        code, doc = run(capsys, ["analyze", rank1_file])
        assert code == 0
        assert doc["feasible"] is True
        assert doc["bounded"] is True
        assert doc["lambda"] == pytest.approx(2.0)
        assert doc["rank_C"] == 1

    def test_negative_rhs_exits_zero(self, capsys, tmp_path):
        path = write(tmp_path, "neg.json", {
            "kind": "packing", "C": [[1.0]],
            "constraints": [{"M": [[1.0]], "b": -1.0}]})
        code, doc = run(capsys, ["analyze", path])
        assert code == 0  # the analysis itself succeeded
        assert doc["feasible"] is False
        assert doc["infeasible_index"] == 0

    def test_unbounded_ray_is_verifiable(self, capsys, tmp_path):
        path = write(tmp_path, "unb.json", {
            "kind": "packing", "C": [[1.0, 0.0], [0.0, 0.0]],
            "constraints": [{"M": [[0.0, 0.0], [0.0, 1.0]], "b": 1.0}]})
        code, doc = run(capsys, ["analyze", path])
        assert code == 0 and doc["bounded"] is False
        h = np.asarray(doc["ray"])
        M = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert np.linalg.norm(M @ h) <= 1e-8 * np.linalg.norm(h)
        assert h @ np.array([[1.0, 0.0], [0.0, 0.0]]) @ h > 0

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, doc = run(capsys, ["analyze", str(path)])
        assert code == 2
        assert doc["error"] == "SchemaError"


class TestReduce:
    def test_identity_bundle(self, capsys, rank1_file):
        code, doc = run(capsys, ["reduce", rank1_file])
        assert code == 0
        assert np.allclose(doc["lift"], np.eye(2))
        assert doc["reduced"]["kind"] == "packing"

    def test_zero_b_bundle_round_trips(self, capsys, tmp_path):
        from sdpack.model import parse_problem
        path = write(tmp_path, "zb.json", {
            "kind": "packing", "C": [[0.0, 0.0], [0.0, 1.0]],
            "constraints": [{"M": [[1.0, 0.0], [0.0, 0.0]], "b": 0.0},
                            {"M": [[1.0, 0.0], [0.0, 1.0]], "b": 1.0}]})
        code, doc = run(capsys, ["reduce", path])
        assert code == 0
        inner = parse_problem(doc["reduced"])
        assert inner.n == 1
        assert doc["zeroed"] == [0]

    def test_unbounded_exit_3(self, capsys, tmp_path):
        path = write(tmp_path, "unb.json", {
            "kind": "packing", "C": [[1.0, 0.0], [0.0, 0.0]],
            "constraints": [{"M": [[0.0, 0.0], [0.0, 1.0]], "b": 1.0}]})
        code, doc = run(capsys, ["reduce", path])
        assert code == 3
        assert doc["error"] == "UnboundedInput"
        assert "ray" in doc


class TestSolve:
    def test_auto_route_with_oracle(self, capsys, rank1_file):
        code, doc = run(capsys, ["solve", rank1_file, "--oracle"])
        assert code == 0
        assert doc["route"] == "socp"
        assert doc["oracle_diff"] <= 1e-6
        assert doc["objective"] == pytest.approx(4.0, abs=1e-6)

    def test_combined_asymptotic(self, capsys, combined_file):
        code, doc = run(capsys, ["solve", combined_file])
        assert code == 0
        assert doc["status"] == "asymptotic_sup"
        assert doc["objective"] == pytest.approx(3.1, abs=1e-3)
        assert all(r <= 1 for r in doc["ranks"])

    def test_infeasible_exit_4(self, capsys, tmp_path):
        path = write(tmp_path, "inf.json", {
            "kind": "packing", "C": [[1.0]],
            "constraints": [{"M": [[1.0]], "b": -1.0}]})
        code, doc = run(capsys, ["solve", path])
        assert code == 4
        assert doc["error"] == "InfeasibleInput"

    def test_deterministic_reports(self, capsys, rank1_file):
        code1 = cli.main(["solve", rank1_file])
        out1 = capsys.readouterr().out
        code2 = cli.main(["solve", rank1_file])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_parser_built_once_and_options_not_carried(self, capsys, rank1_file):
        cli._parser.cache_clear()
        assert cli.main(["solve", rank1_file, "--report", "text"]) == 0
        text = capsys.readouterr().out
        code, doc = run(capsys, ["solve", rank1_file])
        assert cli._parser.cache_info().misses == 1
        assert text.startswith("file: ") and "\nstatus: optimal\n" in text
        assert code == 0 and doc["status"] == "optimal"

    def test_batch_mode(self, capsys, rank1_file, tmp_path):
        other = write(tmp_path, "inf.json", {
            "kind": "packing", "C": [[1.0]],
            "constraints": [{"M": [[1.0]], "b": -1.0}]})
        code, docs = run(capsys, ["solve", rank1_file, other])
        assert code == 4
        assert isinstance(docs, list) and len(docs) == 2
        assert docs[0]["status"] == "optimal"
        assert docs[1]["error"] == "InfeasibleInput"


DEMO_DATA = pathlib.Path(__file__).parent.parent / "demos" / "data"

# one wrong-typed field per document: (subcommand, demo file, key, value)
MALFORMED = [("solve", "combined_unattained.json", "R0", 5),
             ("solve", "combined_unattained.json", "R", 7),
             ("solve", "combined_unattained.json", "H", 3.0),
             ("solve", "combined_unattained.json", "h", 2),
             ("design", "design_resource.json", "A", 3),
             ("design", "design_resource.json", "resource", 4)]


class TestMalformedDocuments:
    """A field of the wrong type is a schema error (exit 2) with its own
    report, never a crash that takes the rest of a batch with it."""

    @staticmethod
    def _probe(tmp_path, name, key, value):
        doc = json.loads((DEMO_DATA / name).read_text())
        doc[key] = value
        return write(tmp_path, f"bad_{key}.json", doc)

    @pytest.mark.parametrize("command,name,key,value", MALFORMED)
    def test_alone(self, capsys, tmp_path, command, name, key, value):
        code, doc = run(capsys, [command, self._probe(tmp_path, name, key, value)])
        assert code == 2
        assert doc["error"] == "SchemaError"
        assert doc["message"].startswith(key)

    @pytest.mark.parametrize("command,name,key,value", MALFORMED)
    def test_in_a_batch(self, capsys, tmp_path, command, name, key, value):
        bad = self._probe(tmp_path, name, key, value)
        code, docs = run(capsys, [command, bad, str(DEMO_DATA / name)])
        assert code == 2
        assert docs[0]["error"] == "SchemaError"
        assert docs[1]["status"] in ("optimal", "asymptotic_sup")

    def test_boolean_budget_rejected(self, capsys, tmp_path, rank1_file):
        doc = json.loads(pathlib.Path(rank1_file).read_text())
        doc["constraints"][0]["b"] = True
        bad = write(tmp_path, "bool_b.json", doc)
        code, docs = run(capsys, ["solve", bad, rank1_file])
        assert code == 2
        assert docs[0]["error"] == "SchemaError"
        assert "constraints[0].b" in docs[0]["message"]
        assert docs[1]["status"] == "optimal"


class TestDesign:
    def test_negative_resource_entry_exits_2(self, capsys, tmp_path):
        doc = json.loads((DEMO_DATA / "design_resource.json").read_text())
        doc["resource"]["P"][1][0] = -0.5
        code, out = run(capsys, ["design", write(tmp_path, "neg_p.json", doc)])
        assert code == 2
        assert out["error"] == "ValidationError"
        assert out["message"] == "resource.P has a negative entry at (1, 0)"
        assert out["witness"] == [1.0, 0.0]

    def test_c_optimal_report(self, capsys, tmp_path):
        path = write(tmp_path, "dc.json", {
            "kind": "design", "K": [[1.0], [1.0]], "criterion": "c",
            "A": [[[1.0, 0.0]], [[0.0, 1.0]]]})
        code, doc = run(capsys, ["design", path])
        assert code == 0
        assert doc["criterion_value"] == pytest.approx(4.0, abs=1e-5)
        assert np.allclose(doc["weights"], [0.5, 0.5], atol=1e-4)

    def test_a_optimal_report(self, capsys, tmp_path):
        path = write(tmp_path, "da.json", {
            "kind": "design", "K": [[1.0, 0.0], [0.0, 1.0]], "criterion": "a",
            "M": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]})
        code, doc = run(capsys, ["design", path])
        assert code == 0
        assert doc["criterion_value"] == pytest.approx(4.0, abs=1e-4)
        assert np.allclose(doc["weights"], [0.5, 0.5], atol=1e-3)

    def test_e_optimal_report(self, capsys, tmp_path):
        path = write(tmp_path, "de.json", {
            "kind": "design", "K": [[1.0, 0.0], [0.0, 1.0]], "criterion": "e",
            "M": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]})
        code, doc = run(capsys, ["design", path])
        assert code == 0
        assert doc["criterion_value"] == pytest.approx(2.0, abs=1e-4)
        assert doc["solution_rank"] == 2

    def test_resource_report(self, capsys, tmp_path):
        path = write(tmp_path, "dr.json", RESOURCE_DESIGN)
        code, doc = run(capsys, ["design", path])
        assert code == 0
        assert doc["status"] == "optimal"
        assert doc["formulation"] == "resource-socp"
        assert doc["criterion_value"] == pytest.approx(2.0, abs=1e-5)
        assert doc["duality_gap"] <= 1e-6
        assert doc["resource_ok"] is True

    def test_resource_close_stop_exits_5(self, capsys, tmp_path):
        # both solves stop close to the target at the iteration limit
        path = write(tmp_path, "dr.json", RESOURCE_DESIGN)
        code, doc = run(capsys, ["design", path, "--max-iter", "5"])
        assert code == 5
        assert doc["status"] == "max_iterations"
        assert doc["formulation"] == "resource-socp"

    def test_resource_reports_dual_status(self, capsys, tmp_path, monkeypatch):
        # the primal solve is optimal, the dual one stops short
        solve_socp = cli.solving.solve_socp
        calls = []

        def second_stops(socp, opts):
            res = solve_socp(socp, opts)
            calls.append(res)
            if len(calls) == 2:
                res = dataclasses.replace(res, report=dataclasses.replace(
                    res.report, status=Status.NEAR_UNATTAINED))
            return res

        monkeypatch.setattr(cli.solving, "solve_socp", second_stops)
        path = write(tmp_path, "dr.json", RESOURCE_DESIGN)
        code, doc = run(capsys, ["design", path])
        assert calls[0].report.status is Status.OPTIMAL
        assert code == 5
        assert doc["status"] == "near_unattained"


class TestVerify:
    def test_exact_pair_passes(self, capsys, tmp_path):
        prob = write(tmp_path, "p.json", {
            "kind": "packing", "C": [[1.0, 0.0], [0.0, 0.0]],
            "constraints": [{"M": [[1.0, 0.0], [0.0, 1.0]], "b": 1.0}]})
        sol = write(tmp_path, "s.json", {
            "kind": "solution", "X": [[1.0, 0.0], [0.0, 0.0]],
            "objective": 1.0, "numerical_rank": 1, "mu": [1.0],
            "status": "optimal"})
        code, doc = run(capsys, ["verify", prob, sol])
        assert code == 0
        assert doc["pass"] is True
        assert doc["residuals"]["primal"] == 0.0

    def test_perturbed_multiplier_fails_named_block(self, capsys, tmp_path):
        prob = write(tmp_path, "p.json", {
            "kind": "packing", "C": [[1.0, 0.0], [0.0, 0.0]],
            "constraints": [{"M": [[1.0, 0.0], [0.0, 1.0]], "b": 1.0}]})
        sol = write(tmp_path, "s.json", {
            "kind": "solution", "X": [[1.0, 0.0], [0.0, 0.0]],
            "objective": 1.0, "numerical_rank": 1, "mu": [0.5],
            "status": "optimal"})
        code, doc = run(capsys, ["verify", prob, sol])
        assert code == 0
        assert doc["pass"] is False
        assert doc["worst_block"] == "dual"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tol_rejected(self, capsys, tmp_path, tol):
        # the multiplier is off by 0.5: no finite tolerance below that passes
        prob = write(tmp_path, "p.json", {
            "kind": "packing", "C": [[1.0, 0.0], [0.0, 0.0]],
            "constraints": [{"M": [[1.0, 0.0], [0.0, 1.0]], "b": 1.0}]})
        sol = write(tmp_path, "s.json", {
            "kind": "solution", "X": [[1.0, 0.0], [0.0, 0.0]],
            "objective": 1.0, "numerical_rank": 1, "mu": [0.5],
            "status": "optimal"})
        code, doc = run(capsys, ["verify", prob, sol, "--tol", tol])
        assert code == 2
        assert "pass" not in doc

    def test_dimension_mismatch_exit_2(self, capsys, tmp_path):
        prob = write(tmp_path, "p.json", {
            "kind": "packing", "C": [[1.0, 0.0], [0.0, 0.0]],
            "constraints": [{"M": [[1.0, 0.0], [0.0, 1.0]], "b": 1.0}]})
        sol = write(tmp_path, "s.json", {
            "kind": "solution", "X": [[1.0]], "objective": 1.0,
            "numerical_rank": 1, "mu": [1.0], "status": "optimal"})
        code, doc = run(capsys, ["verify", prob, sol])
        assert code == 2

    # wrong-typed or missing fields of a solution document: each is a
    # SchemaError report (exit 2) naming the field, not a traceback
    @pytest.mark.parametrize("kind, field, value", [
        ("solution", "kkt_residuals", 5),
        ("solution", "kkt_residuals", {"primal": 0}),
        ("solution", "kkt_residuals", {"primal": 0, "dual": "x", "complementarity": 0}),
        ("solution", "numerical_rank", "a"),
        ("solution", "numerical_rank", 1.7),
        ("solution", "numerical_rank", True),
        ("solution", "numerical_rank", None),
        ("solution", "objective", "abc"),
        ("solution", "objective", 10 ** 400),
        ("solution", "status", [1]),
        ("solution", "status", "solved"),
        ("solution", "mu", "abc"),
        ("solution", "mu", None),
        ("combined_solution", "objective", None),
        ("combined_solution", "status", 3),
        ("combined_solution", "lambda", {"a": 1}),
        ("combined_solution", "gamma", 5),
        ("combined_solution", "gamma", ["x"]),
        ("combined_solution", "ranks", [1.5]),
        ("combined_solution", "ranks", [False]),
    ])
    def test_wrong_typed_solution_field_exit_2(self, capsys, tmp_path, kind, field, value):
        prob = write(tmp_path, "p.json", {
            "kind": "packing", "C": [[1.0]], "constraints": [{"M": [[1.0]], "b": 1.0}]})
        doc = {"kind": kind, "X": [[1.0]], "objective": 1.0, "status": "optimal"}
        doc.update({"numerical_rank": 1, "mu": [1.0]} if kind == "solution" else
                   {"Y": [], "lambda": [], "gamma": [1.0], "ranks": [1]})
        doc[field] = value
        code, report = run(capsys, ["verify", prob, write(tmp_path, "s.json", doc)])
        assert code == 2
        assert report["error"] == "SchemaError"
        assert field in report["message"]

    @pytest.mark.parametrize("field", ["status", "objective", "numerical_rank", "mu"])
    def test_missing_solution_field_exit_2(self, capsys, tmp_path, field):
        prob = write(tmp_path, "p.json", {
            "kind": "packing", "C": [[1.0]], "constraints": [{"M": [[1.0]], "b": 1.0}]})
        doc = {"kind": "solution", "X": [[1.0]], "objective": 1.0,
               "numerical_rank": 1, "mu": [1.0], "status": "optimal"}
        del doc[field]
        code, report = run(capsys, ["verify", prob, write(tmp_path, "s.json", doc)])
        assert code == 2
        assert report["error"] == "SchemaError" and field in report["message"]

    def test_lifted_socp_solution_verifies(self, capsys, tmp_path, rank1_file):
        from sdpack import model, solve as sv
        prob = model.parse_problem(open(rank1_file).read())
        solution = sv.solve_packing_lowrank(prob)
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(model.serialize(solution))
        code, doc = run(capsys, ["verify", rank1_file, str(sol_path),
                                 "--tol", "1e-6"])
        assert code == 0
        assert doc["pass"] is True


class TestGapBound:
    def test_report_fields(self, capsys, rank1_file):
        code, doc = run(capsys, ["gap-bound", rank1_file])
        assert code == 0
        assert doc["mu_bar"] == 1
        assert doc["gap_factor"] == pytest.approx(2.0 * np.log(4.0))
        assert doc["guaranteed_rank"] == 1


class TestEnvAndFormats:
    def test_env_tolerance(self, capsys, rank1_file, monkeypatch):
        monkeypatch.setenv("SDPACK_TOL", "1e-6")
        code, doc = run(capsys, ["solve", rank1_file])
        assert code == 0

    def test_bad_env_tolerance(self, capsys, rank1_file, monkeypatch):
        for raw in ("banana", "nan", "inf", "0", "-1e-8"):
            monkeypatch.setenv("SDPACK_TOL", raw)
            code, doc = run(capsys, ["solve", rank1_file])
            assert code == 2, raw
            assert "SDPACK_TOL" in doc["message"]

    @pytest.mark.parametrize("command", ["analyze", "reduce", "solve", "design",
                                         "gap-bound"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_flag_tolerance(self, capsys, rank1_file, command, tol):
        code, doc = run(capsys, [command, rank1_file, "--tol", tol])
        assert code == 2
        assert "--tol" in doc["message"]

    def test_tol_per_call(self, capsys, tmp_path, monkeypatch):
        # two main calls in one process: each report carries its own --tol
        prob = write(tmp_path, "p.json", {
            "kind": "packing", "C": [[1.0, 0.0], [0.0, 0.0]],
            "constraints": [{"M": [[1.0, 0.0], [0.0, 1.0]], "b": 1.0}]})
        sol = write(tmp_path, "s.json", {
            "kind": "solution", "X": [[1.0, 0.0], [0.0, 0.0]],
            "objective": 1.0, "numerical_rank": 1, "mu": [1.0],
            "status": "optimal"})
        monkeypatch.delenv("SDPACK_TOL", raising=False)
        for tol in (1e-6, 1e-3):
            code, doc = run(capsys, ["verify", prob, sol, "--tol", str(tol)])
            assert code == 0
            assert doc["tol"] == tol
        code, doc = run(capsys, ["verify", prob, sol])
        assert doc["tol"] == 1e-8

    def test_text_report(self, capsys, rank1_file):
        code = cli.main(["analyze", rank1_file, "--report", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible: True" in out
        assert "lambda: 2" in out

    def test_output_file(self, tmp_path, rank1_file):
        target = tmp_path / "report.json"
        code = cli.main(["analyze", rank1_file, "-o", str(target)])
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["bounded"] is True
