"""Every stacked computation on the packing route against the per-matrix
loop it replaced, compared by bytes (``tobytes``), so zeros of both signs
count.  The ``_ref_*`` functions are those loops as they were."""

import numpy as np
import pytest
import scipy.optimize
from instances import (bounded_packing, packing, random_psd, subspace_packing,
                       zero_budget_instances)

from sdpack import analysis, linalg
from sdpack import reduce as rd
from sdpack import solve as sv
from sdpack.errors import InvalidInput, NotPsd
from sdpack.model import Criterion, DesignProblem, KktResiduals, PackingProblem


def _same(got, ref) -> None:
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# the per-matrix loops


def _ref_psd_factor(m, tol=None):
    dec = linalg.eigh_desc(m)
    cut = dec._psd_cut(tol, "cannot factor a matrix with negative eigenvalues")
    w = np.clip(dec.eigenvalues, 0.0, None)
    keep = w > cut
    if not np.any(keep):
        return np.zeros((0, dec.n))
    return (np.sqrt(w[keep])[:, None] * dec.eigenvectors[:, keep].T).copy()


def _ref_project(problem):
    """``project_packing`` as it was, from the zero tests on."""
    sum_dec = linalg.eigh_desc(linalg.symmetrize(sum(problem.mats)))
    b = problem.b
    cut = rd.ZERO_B_RTOL * max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    dropped = [i for i, m in enumerate(problem.mats) if linalg.is_zero(m)]
    zeroed = [i for i in range(problem.l)
              if i not in dropped and abs(b[i]) <= cut]
    kept = [i for i in range(problem.l)
            if i not in dropped and i not in zeroed]
    U = np.eye(problem.n) if sum_dec.rank() == problem.n else sum_dec.range_basis()
    if zeroed:
        N = sum(U.T @ problem.mats[i] @ U for i in zeroed)
        B = U @ linalg.null_basis(linalg.symmetrize(N))
    else:
        B = U
    mats_red, kept_final = [], []
    for i in kept:
        m = linalg.symmetrize(B.T @ problem.mats[i] @ B)
        if linalg.is_zero(m):
            dropped.append(i)
        else:
            mats_red.append(m)
            kept_final.append(i)
    C_red = linalg.symmetrize(B.T @ problem.C @ B)
    reduced = PackingProblem(C=C_red, mats=tuple(mats_red), b=b[kept_final].copy())
    eps = 0.5 * float(np.min(reduced.b)) / max(
        1.0, max(float(np.trace(m)) for m in mats_red))
    lam_bar = analysis.dual_scalar_bound(reduced) + 1.0
    slack = lam_bar * linalg.symmetrize(sum(mats_red)) - C_red
    margin = float(np.linalg.eigvalsh(slack)[0])
    return (reduced, tuple(kept_final), tuple(zeroed), tuple(sorted(dropped)),
            eps, lam_bar, margin, B)


def _ref_a_mats(design):
    return tuple(linalg.symmetrize(np.kron(np.eye(design.r), m))
                 for m in design.mats)


def _ref_socp_rank1(problem):
    c = rd.rank_one_vector(problem.C)
    cones = []
    for m, bi in zip(problem.mats, problem.b):
        A = _ref_psd_factor(m)
        cones.append(rd.SocCon(F=A, g=np.zeros(A.shape[0]), f=np.zeros(problem.n),
                               d=float(np.sqrt(max(bi, 0.0)))))
    return rd.SocpProblem(objective=c, cones=tuple(cones))


def _ref_kkt(problem, X, mu, tol):
    X = linalg.symmetrize(X)
    mu = np.asarray(mu, dtype=float)
    traces = np.array([float(np.trace(m @ X)) for m in problem.mats])
    primal = max(0.0, float(np.max(traces - problem.b)),
                 -float(np.linalg.eigvalsh(X)[0]))
    slack = linalg.symmetrize(
        sum(m * M for m, M in zip(mu, problem.mats)) - problem.C)
    dual = max(0.0, -float(np.linalg.eigvalsh(slack)[0]),
               -float(np.min(mu)) if mu.size else 0.0)
    comp = max(float(np.max(np.abs(slack @ X))),
               float(np.max(np.abs(mu * (problem.b - traces)))))
    res = KktResiduals(primal=primal, dual=dual, complementarity=comp)
    return res, res.passes(tol, sv.kkt_scale(problem, X, mu))


def _ref_polish_jacobian(S, V, mats):
    n, r = V.shape
    nr, na = n * r, len(mats)
    E = np.eye(nr).reshape(nr, n, r)
    J = np.zeros((nr + na, nr + na))
    J[:nr, :nr] = (S @ E).reshape(nr, nr).T
    for a, m in enumerate(mats):
        J[nr + a, :nr] = 2.0 * (V * (m @ E)).reshape(nr, nr).sum(axis=1)
        J[:nr, nr + a] = (m @ V).ravel()
    return J


def _ref_polish(problem, X, mu):
    n, l = problem.n, problem.l
    scale = max(1.0, float(np.max(np.abs(problem.b))))
    traces = np.array([float(np.trace(m @ X)) for m in problem.mats])
    active = np.flatnonzero(problem.b - traces <= 1e-6 * scale)
    if active.size == 0:
        return X, mu
    dec = linalg.eigh_desc(X)
    r = max(1, dec.rank(1e-8))
    V = dec.eigenvectors[:, :r] * np.sqrt(np.clip(dec.eigenvalues[:r], 0.0, None))
    mu_a = mu[active].copy()
    nr = n * r
    for _ in range(3):
        S = linalg.symmetrize(
            sum(m * M for m, M in zip(mu_a, (problem.mats[i] for i in active)))
            - problem.C)
        F = np.r_[(S @ V).ravel(),
                  [float(np.sum(V * (problem.mats[i] @ V))) - problem.b[i]
                   for i in active]]
        J = _ref_polish_jacobian(S, V, [problem.mats[i] for i in active])
        try:
            delta = np.linalg.lstsq(J, -F, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        V = V + delta[:nr].reshape(n, r)
        mu_a = np.clip(mu_a + delta[nr:], 0.0, None)
    else:
        X_new = linalg.symmetrize(V @ V.T)
        traces_new = np.array([float(np.trace(m @ X_new)) for m in problem.mats])
        if float(np.max(traces_new - problem.b)) <= 1e-9 * scale:
            X, mu, dec = X_new, np.zeros(l), None
            mu[active] = mu_a
    R = (dec if dec is not None else linalg.eigh_desc(X)).range_basis(1e-8)
    if R.shape[1] == 0:
        return X, mu
    cols = np.column_stack([(problem.mats[i] @ R).ravel() for i in active])
    fit, _ = scipy.optimize.nnls(cols, (problem.C @ R).ravel())
    mu = np.zeros(l)
    mu[active] = fit
    return X, mu


def _ref_truncate_feasible(problem, X, threshold):
    scale = max(1.0, float(np.max(np.abs(problem.b))))
    Xt = sv.truncate_psd(X, threshold)
    slacks = problem.b - np.array([np.trace(m @ Xt) for m in problem.mats])
    return Xt if float(np.min(slacks)) >= -1e-8 * scale else X


# ---------------------------------------------------------------------------
# instances


def _a_design(rng, n=4, l=40, r=3) -> DesignProblem:
    obs = [rng.standard_normal((2, n)) for _ in range(l)]
    return DesignProblem(K=rng.standard_normal((n, r)), criterion=Criterion.A_OPT,
                         obs=tuple(obs),
                         mats=tuple(linalg.symmetrize(a.T @ a) for a in obs))


def _dropped_after_reduction() -> PackingProblem:
    """Row 1 repeats the zero-budget row 0's matrix, so the projection onto
    row 0's nullspace leaves it exactly zero; row 3 is zero to begin with."""
    e0 = np.diag([1.0, 0.0, 0.0, 0.0])
    return packing(np.diag([0.0, 1.0, 1.0, 0.0]),
                   [e0, e0, np.diag([0.0, 1.0, 2.0, 1.0]), np.zeros((4, 4))],
                   [0.0, 1.0, 1.0, 1.0])


def _packing_instances():
    rng = np.random.default_rng(19)
    return (zero_budget_instances() + [_dropped_after_reduction()]
            + [bounded_packing(rng, n, l, 1)
               for n, l in ((12, 40), (7, 60), (80, 10), (5, 4))]
            + [subspace_packing(rng, 7, 4, 6, 2, zero_b=2)]
            + [rd.build_a_optimal(_a_design(rng))])


def _stacks():
    """Stacks at the probed sizes, each mixing full-rank, rank-deficient,
    zero, negative-zero and slightly negative (clipped) matrices."""
    rng = np.random.default_rng(7)
    for l, n in ((40, 12), (60, 7), (10, 80), (4, 5)):
        mats = [random_psd(rng, n, int(rng.integers(1, n + 1))) for _ in range(l)]
        mats[0] = np.zeros((n, n))
        mats[1] = np.where(rng.standard_normal((n, n)) > 0, 0.0, -0.0)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        w = np.r_[1.0, np.zeros(n - 1)]
        w[-1] = -1e-3 * n * linalg.DEFAULT_RANK_RTOL
        mats[2] = linalg.symmetrize((q * w) @ q.T)
        yield np.array(mats)


# ---------------------------------------------------------------------------
# the comparisons


class TestLinalg:
    @pytest.mark.parametrize("stack", list(_stacks()), ids=lambda s: f"{s.shape}")
    def test_factors(self, stack):
        got = linalg.psd_factors(stack)
        assert len(got) == len(stack)
        for m, a in zip(stack, got):
            _same(a, _ref_psd_factor(m))
            _same(linalg.psd_factor(m), _ref_psd_factor(m))
        assert got[0].shape[0] == 0 and got[1].shape[0] == 0

    def test_negative_matrix_raises_the_first_witness(self):
        stack = next(iter(_stacks())).copy()
        stack[5] = np.diag(np.r_[-2.0, np.ones(stack.shape[1] - 1)])
        stack[9] = -np.eye(stack.shape[1])
        with pytest.raises(NotPsd) as ref:
            for m in stack:
                _ref_psd_factor(m)
        with pytest.raises(NotPsd) as got:
            linalg.psd_factors(stack)
        assert str(got.value) == str(ref.value)
        assert got.value.witness == ref.value.witness == -2.0

    @pytest.mark.parametrize("stack", list(_stacks()), ids=lambda s: f"{s.shape}")
    def test_zero_mask_and_sum(self, stack):
        stack = np.concatenate([stack, [np.triu(stack[3]) - np.triu(stack[3]).T]])
        assert linalg.zero_mask(stack).tolist() == [linalg.is_zero(m) for m in stack]
        assert linalg.zero_mask(stack)[[0, 1, -1]].all()
        prob = PackingProblem(C=stack[0], mats=tuple(stack), b=np.ones(len(stack)))
        _same(prob.mat_sum(), linalg.symmetrize(sum(prob.mats)))

    def test_negative_zero_sum_is_positive_zero(self):
        mats = (np.full((2, 2), -0.0),) * 3
        prob = PackingProblem(C=np.eye(2), mats=mats, b=np.ones(3))
        _same(prob.mat_sum(), linalg.symmetrize(sum(mats)))

    def test_non_finite_entry_raises_from_the_zero_test(self):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = np.inf
        with pytest.raises(InvalidInput) as ref:
            [linalg.is_zero(m) for m in stack]
        with pytest.raises(InvalidInput) as got:
            linalg.zero_mask(stack)
        assert str(got.value) == str(ref.value)


class TestReduce:
    @pytest.mark.parametrize("k", range(len(_packing_instances())))
    def test_projection(self, k):
        problem = _packing_instances()[k]
        red, lift = rd.project_packing(problem)
        reduced, kept, zeroed, dropped, eps, lam_bar, margin, B = _ref_project(problem)
        assert (red.kept, red.zeroed, red.dropped) == (kept, zeroed, dropped)
        assert all(type(i) is int for i in red.kept + red.zeroed + red.dropped)
        _same(lift.basis, B)
        _same(red.problem.C, reduced.C)
        _same(red.problem.b, reduced.b)
        assert len(red.problem.mats) == len(reduced.mats)
        for got, ref in zip(red.problem.mats, reduced.mats):
            _same(got, ref)
        _same([red.strict_eps, red.dual_scale, red.dual_margin], [eps, lam_bar, margin])

    def test_projection_drops_rows_after_reduction(self):
        red, _ = rd.project_packing(_dropped_after_reduction())
        assert red.zeroed == (0,) and red.dropped == (1, 3)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_a_optimal_builder(self, r):
        design = _a_design(np.random.default_rng(r), r=r)
        got = rd.build_a_optimal(design).mats
        ref = _ref_a_mats(design)
        assert len(got) == len(ref)
        for g, m in zip(got, ref):
            _same(g, m)
        if r > 1:  # the off-diagonal blocks hold zeros of both signs
            assert np.signbit(np.array(ref)).any() and (np.array(ref) == 0.0).any()

    def test_rank_one_socp(self):
        rank_one = 0
        for problem in _packing_instances():
            red, _ = rd.project_packing(problem)
            if red.empty or red.c_dec.rank() != 1:
                continue
            rank_one += 1
            got = rd.to_socp_rank1(red.problem, red.c_dec)
            ref = _ref_socp_rank1(red.problem)
            _same(got.objective, ref.objective)
            assert len(got.cones) == len(ref.cones)
            for g, c in zip(got.cones, ref.cones):
                for name in ("F", "g", "f", "d"):
                    _same(getattr(g, name), getattr(c, name))
        assert rank_one >= 20


class TestSolve:
    @pytest.mark.parametrize("k", range(len(_packing_instances())))
    def test_kkt_residuals(self, k):
        problem = _packing_instances()[k]
        sol = sv.solve_packing_lowrank(problem)
        rng = np.random.default_rng(k)
        for X, mu in ((sol.X, sol.mu),
                      (random_psd(rng, problem.n, 2), rng.standard_normal(problem.l))):
            got, passed = sv.kkt_check(problem, X, mu, 1e-8)
            ref, ref_passed = _ref_kkt(problem, X, mu, 1e-8)
            _same([got.primal, got.dual, got.complementarity],
                  [ref.primal, ref.dual, ref.complementarity])
            assert passed == ref_passed

    def test_polish_on_the_contract_instances(self, monkeypatch):
        inputs = []
        polish = sv._polish

        def recording(problem, X, mu):
            inputs.append((problem, X, mu))
            return polish(problem, X, mu)

        monkeypatch.setattr(sv, "_polish", recording)
        for problem in zero_budget_instances():
            sv.solve_packing_lowrank(problem)
        assert len(inputs) >= 17
        for problem, X, mu in inputs:
            X_got, mu_got = polish(problem, X, mu)
            X_ref, mu_ref = _ref_polish(problem, X, mu)
            _same(X_got, X_ref)
            _same(mu_got, mu_ref)

    @pytest.mark.parametrize("k", range(len(_packing_instances())))
    def test_truncate_feasible(self, k):
        problem = _packing_instances()[k]
        rng = np.random.default_rng(100 + k)
        X = random_psd(rng, problem.n, 3) + 1e-9 * random_psd(rng, problem.n)
        for scale in (1e-3, 1.0, 1e3):
            _same(sv._truncate_feasible(problem, scale * X, sv._RANK_THRESHOLD),
                  _ref_truncate_feasible(problem, scale * X, sv._RANK_THRESHOLD))
