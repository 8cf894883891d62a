"""The benchmark's workloads: seeded cases, each with its timed call and
its answer check.

Each workload function returns ``(warm-up case, cases)``.  A case's
``run()`` is one top-level call into the public API, the only code inside
the timer.  ``check(out)`` runs afterwards, untimed, and
computes its reference once per case.  Library functions are always
looked up on their module at call time (``sv.solve_packing_lowrank``,
``cli.main``) so that the traced run's wrappers see every call.

The composition of each workload (kinds, sizes and their order) is fixed;
the seed draws the matrix entries.  The order interleaves kinds and sizes
so that any prefix of the cycle, which is what a time-bounded run covers,
holds them in about the same proportions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks
import instances as gen
from sdpack import cli, model
from sdpack import reduce as rd
from sdpack import solve as sv

DEFAULT_TOL = sv.SolveOptions().tol


def _interleave(*groups):
    """Merge lists so that every prefix holds each list in about its share
    of the whole: element ``j`` of a list of length ``n`` goes to position
    ``(j + 1/2) / n``."""
    keyed = [((j + 0.5) / len(group), g, x)
             for g, group in enumerate(groups) for j, x in enumerate(group)]
    return [x for _, _, x in sorted(keyed, key=lambda t: t[:2])]


# ---------------------------------------------------------------------------
# lowrank_path


class PackingCase:
    """``solve_packing_lowrank`` on a packing problem; reference
    ``solve_sdp`` on the same problem (restricted to the face of its
    zero-budget rows, see :func:`checks.face_restricted`)."""

    def __init__(self, label: str, problem: model.PackingProblem, rank_c: int):
        self.label, self.problem, self.rank_c = label, problem, rank_c
        self._ref = None

    def run(self):
        return sv.solve_packing_lowrank(self.problem)

    def reference(self) -> float:
        if self._ref is None:
            self._ref = float(sv.solve_sdp(
                checks.face_restricted(self.problem)).objective)
        return self._ref

    def check(self, sol) -> checks.Verdict:
        return checks.packing_verdict(self.problem, sol, self.reference(),
                                      self.rank_c, DEFAULT_TOL)


def _packing(C, mats, b) -> model.PackingProblem:
    return model.PackingProblem(C=C, mats=tuple(mats), b=np.asarray(b, float))


LOWRANK_STRATA = ((11, 2), (13, 3), (12, 2), (11, 3), (13, 2), (12, 3))


def lowrank_path(seed: int) -> tuple:
    """Eps-path instances: rank(C) in {2, 3}, n in {11, 12, 13}, l = 10,
    full-rank constraint sum and every budget positive.  The warm-up
    instance has n = 6.

    The sizes are close so that the calls cost about the same (0.6-1.0 s):
    the median then falls inside one broad group rather than between
    groups of very different cost, and a 35 s run makes about 30 calls.
    """
    rng = np.random.default_rng([seed, 1])
    C, mats, b = gen.packing(rng, 6, 10, 2)
    warmup = PackingCase("warm-up", _packing(C, mats, b), 2)
    cases = []
    for rep in range(8):
        for n, r in LOWRANK_STRATA:
            C, mats, b = gen.packing(rng, n, 10, r)
            cases.append(PackingCase(f"packing n={n} r={r} #{rep}",
                                     _packing(C, mats, b), r))
    return warmup, cases


# ---------------------------------------------------------------------------
# socp_design


class RankOneCase(PackingCase):
    """Rank-one packing at large n (the SOCP route).  A dense oracle solve
    is out of reach at this size; the reference is the independent
    multiplier-space value of :func:`checks.rank_one_value`."""

    def __init__(self, label, problem, c):
        super().__init__(label, problem, 1)
        self.c = c

    def reference(self) -> float:
        if self._ref is None:
            self._ref = checks.rank_one_value(self.c, self.problem.mats,
                                              self.problem.b)
        return self._ref


class DesignCase:
    """c- or a-optimal design: build the packing form, solve it, recover the
    weights; reference ``solve_sdp`` on the built packing problem."""

    def __init__(self, label: str, design: model.DesignProblem):
        self.label, self.design = label, design
        self._ref = None

    def run(self):
        build = (rd.build_c_optimal if self.design.criterion.value == "c"
                 else rd.build_a_optimal)
        packing = build(self.design)
        sol = sv.solve_packing_lowrank(packing)
        return packing, sol, sv.recover_design(sol.mu, packing.b)

    def check(self, out) -> checks.Verdict:
        packing, sol, w = out
        if self._ref is None:
            self._ref = float(sv.solve_sdp(packing).objective)
        if float(np.min(w)) < 0.0 or abs(float(w @ packing.b) - 1.0) > 1e-9:
            return checks.fail("recovered weights leave the simplex")
        return checks.packing_verdict(packing, sol, self._ref, 1, DEFAULT_TOL)


class ResourceCase:
    """Resource-constrained c-optimal design: the cone-program pair, both
    solves, and ``w = mu / t``; checked by primal/dual agreement and
    ``P w <= d``."""

    def __init__(self, label: str, design: model.DesignProblem):
        self.label, self.design = label, design

    def run(self):
        pair = rd.build_resource_constrained(self.design)
        pres = sv.solve_socp(pair.primal)
        dres = sv.solve_socp(pair.dual)
        w = sv.recover_design(dres.x[:pair.l], mode="resource",
                              t=float(dres.x[pair.l]))
        return pres, dres, w

    def check(self, out) -> checks.Verdict:
        pres, dres, w = out
        for res in (pres, dres):
            if res.report.status.value != "optimal":
                return checks.fail(f"status {res.report.status.value}")
        return checks.resource_verdict(pres.value, dres.value, w,
                                       self.design.resource.P,
                                       self.design.resource.d)


def _design(obs, K, criterion, P=None, d=None) -> model.DesignProblem:
    return model.parse_problem(gen.design_doc(obs, K, criterion, P, d))


SOCP_ROUNDS = 10


def socp_design(seed: int) -> tuple:
    """Rank-one packing at n in {75, 80, 85} (l = 10), c-optimal designs
    with 40-60 experiments, a-optimal designs (n = 4, three functionals)
    with 40 experiments, resource-constrained c-optimal designs with 40
    experiments and 3 resource rows.

    Each round of eight calls holds two c-designs, three a-designs, two
    resource designs and one rank-one solve.  The kinds cost roughly 0.05,
    0.1, 0.35 and 1 s, so the median call falls inside the a-design group
    and the 90th percentile inside the rank-one group, not on the edge
    between two groups, where a small shift would move it far.
    """
    rng = np.random.default_rng([seed, 2])
    cases = []
    for k in range(SOCP_ROUNDS):
        c_opt, a_opt, res = [], [], []
        for i in range(2):
            obs, K = gen.design(rng, 6 + i, 40 + 20 * i, 1)
            c_opt.append(DesignCase(f"c-design #{k}.{i}", _design(obs, K, "c")))
            obs, K = gen.design(rng, 6 + i, 40, 1)
            P, d = gen.resources(rng, 40, 3)
            res.append(ResourceCase(f"resource #{k}.{i}",
                                    _design(obs, K, "c", P, d)))
        for i in range(3):
            obs, K = gen.design(rng, 4, 40, 3)
            a_opt.append(DesignCase(f"a-design #{k}.{i}", _design(obs, K, "a")))
        n = (75, 80, 85)[k % 3]
        C, mats, b = gen.packing(rng, n, 10, 1)
        w, V = np.linalg.eigh(C)
        rank1 = RankOneCase(f"rank-one n={n} #{k}", _packing(C, mats, b),
                            V[:, -1] * np.sqrt(w[-1]))
        cases += [c_opt[0], a_opt[0], res[0], a_opt[1], c_opt[1], res[1],
                  a_opt[2], rank1]
    return cases[0], cases


# ---------------------------------------------------------------------------
# cli_batch


class SolutionTap:
    """Keeps what ``solve_packing_lowrank`` returns, with its arguments.

    The CLI report carries ``mu`` but not ``X``, so the certificate check
    needs the solution object itself.  The tap is one extra Python frame
    around ``sdpack.solve.solve_packing_lowrank``, installed for the whole
    cli_batch run (warm-up, untraced and traced calls alike)."""

    def __init__(self):
        self.seen = []
        self._orig = sv.solve_packing_lowrank

        def tapped(problem, opts=None, route="auto"):
            sol = self._orig(problem, opts, route)
            self.seen.append((problem, opts, sol))
            return sol

        sv.solve_packing_lowrank = tapped

    def close(self):
        sv.solve_packing_lowrank = self._orig


class CliCase:
    """``sdpack.cli.main([command, path])`` in-process, stdout captured."""

    def __init__(self, label: str, kind: str, path: str, doc: dict,
                 rank_c: int, tap: SolutionTap):
        self.label, self.kind, self.path, self.doc = label, kind, path, doc
        self.rank_c, self.tap = rank_c, tap
        self.command = "design" if kind.startswith("design") else "solve"
        self._ref = None

    def run(self):
        del self.tap.seen[:]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([self.command, self.path])
        return code, buf.getvalue(), list(self.tap.seen)

    def reference(self) -> float:
        if self._ref is None:
            problem = model.parse_problem(self.doc)
            if self.kind == "combined":
                self._ref = float(sv.solve_combined_dual(problem)[1])
            elif self.kind.startswith("packing"):
                self._ref = float(sv.solve_sdp(
                    checks.face_restricted(problem)).objective)
            else:
                build = {"c": rd.build_c_optimal, "a": rd.build_a_optimal,
                         "e": rd.build_e_optimal}[problem.criterion.value]
                self._ref = float(sv.solve_sdp(build(problem)).objective)
        return self._ref

    def check(self, out) -> checks.Verdict:
        code, text, seen = out
        if code != 0:
            return checks.fail(f"exit code {code}: {text.strip()[:200]}")
        report = json.loads(text)
        if self.kind == "design_resource":
            if report["status"] != "optimal":
                return checks.fail(f"status {report['status']}")
            res = self.doc["resource"]
            return checks.resource_verdict(report["primal_value"],
                                           report["dual_value"],
                                           report["weights"], res["P"],
                                           res["d"])
        if self.kind == "combined":
            if report["status"] not in ("optimal", "asymptotic_sup"):
                return checks.fail(f"status {report['status']}")
            return checks.value_verdict(report["objective"], self.reference(),
                                        report["rank"], self.rank_c)
        if len(seen) != 1:
            return checks.fail(f"expected one packing solve, saw {len(seen)}")
        problem, opts, sol = seen[0]
        value = report["objective" if self.kind.startswith("packing")
                       else "criterion_value"]
        if report["status"] != "optimal" or value != sol.objective:
            return checks.fail(f"report ({report['status']}, {value!r}) does "
                               "not match the solve")
        return checks.packing_verdict(problem, sol, self.reference(),
                                      self.rank_c, opts.tol)


# (kind, count) of the cli_batch files; sizes cycle with the index
CLI_MIX = (("packing", 18), ("packing_zero_b", 18), ("packing_subspace", 12),
           ("combined", 16), ("design_e", 10), ("design_c", 8), ("design_a", 8),
           ("design_resource", 8))


def _cli_doc(kind: str, i: int, rng) -> tuple[dict, int]:
    """The document of the ``i``-th file of ``kind`` and its rank(C)."""
    if kind in ("packing", "packing_zero_b"):
        n, l = 4 + i % 5, 3 + i % 4
        r = min(1 + i % 3, n)
        zero_b = 0 if kind == "packing" else 1 + i % 2
        return gen.packing_doc(*gen.packing(rng, n, l, r, zero_b)), r
    if kind == "packing_subspace":
        n, l, r = 5 + i % 4, 3 + i % 3, 1 + i % 2
        zero_b = i % 2
        return gen.packing_doc(*gen.subspace_packing(rng, n, n - 2, l, r,
                                                     zero_b)), r
    if kind == "combined":
        n, l, r = 3 + i % 3, 2 + i % 3, 1 + i % 2
        return gen.combined_doc(gen.combined(rng, n, l, 2, 2, r)), r
    if kind == "design_resource":
        obs, K = gen.design(rng, 4 + i % 3, 12 + 2 * (i % 4), 1)
        P, d = gen.resources(rng, len(obs), 2)
        return gen.design_doc(obs, K, "c", P, d), 1
    crit = kind[-1]
    r = 1 if crit == "c" else 2
    obs, K = gen.design(rng, 4 + i % 3 if crit == "c" else 3 + i % 3,
                        12 + 2 * (i % 4), r)
    return gen.design_doc(obs, K, crit), (r if crit == "e" else 1)


def cli_batch(seed: int, workdir: str, tap: SolutionTap) -> tuple:
    """About 100 problem files written under ``workdir``: packing problems
    with and without zero-budget rows and with rank-deficient constraint
    sums, random combined problems, and c, a, e and resource designs."""
    rng = np.random.default_rng([seed, 3])
    groups = []
    for kind, count in CLI_MIX:
        group = []
        for i in range(count):
            doc, rank_c = _cli_doc(kind, i, rng)
            path = os.path.join(workdir, f"{kind}_{i:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            group.append(CliCase(f"{kind} #{i}", kind, path, doc, rank_c, tap))
        groups.append(group)
    cases = _interleave(*groups)
    return cases[0], cases
