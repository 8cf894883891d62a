"""Random problem generators shared by the test modules.

All generators take an explicit ``numpy`` generator so every test is
reproducible, and build instances that are feasible and bounded by
construction.
"""

import numpy as np

from sdpack.model import CombinedProblem, PackingProblem


def packing(C, mats, b) -> PackingProblem:
    return PackingProblem(C=np.asarray(C, float),
                          mats=tuple(np.asarray(m, float) for m in mats),
                          b=np.asarray(b, float))


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    B = rng.standard_normal((n, rank))
    return B @ B.T


def bounded_packing(rng, n, l, rank_c, zero_b=0):
    """Feasible, bounded instance: full-rank constraint sum, positive
    budgets except ``zero_b`` rows whose matrices are rank one (so a
    nontrivial face survives the projection)."""
    mats = [random_psd(rng, n) + 0.05 * np.eye(n) for _ in range(l)]
    b = rng.uniform(0.5, 2.0, l)
    for i in rng.choice(l, size=zero_b, replace=False):
        v = rng.standard_normal(n)
        mats[i] = np.outer(v, v)
        b[i] = 0.0
    C = random_psd(rng, n, rank_c)
    return packing(C, mats, b)


def subspace_packing(rng, n, k, l, rank_c, zero_b=0):
    """Instance whose data all live in a ``k``-dimensional subspace, so the
    constraint sum is rank deficient while the problem stays bounded."""
    Q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    mats = []
    b = rng.uniform(0.5, 2.0, l)
    zero_at = set(rng.choice(l, size=zero_b, replace=False).tolist())
    for i in range(l):
        if i in zero_at:
            v = Q @ rng.standard_normal(k)
            mats.append(np.outer(v, v))
            b[i] = 0.0
        else:
            mats.append(Q @ (random_psd(rng, k) + 0.05 * np.eye(k)) @ Q.T)
    C = Q @ random_psd(rng, k, min(rank_c, k)) @ Q.T
    return packing(C, mats, b)


def attained_combined(rng, n, l, rank_c, p=0, q=0):
    """Combined instance whose dual has a Slater point ``mu0 > 0``:
    ``h0 = -H mu0``, ``R0 = -sum mu0_i R_i - I/2`` and ``C`` scaled to half
    the smallest eigenvalue of ``sum mu0_i M_i``; every budget is positive,
    so the primal is strictly feasible too and its optimum is attained."""
    mats = [random_psd(rng, n) + 0.05 * np.eye(n) for _ in range(l)]
    b = rng.uniform(0.5, 2.0, l)
    mu0 = rng.uniform(0.5, 1.5, l)
    H = rng.standard_normal((q, l))
    Rs = [0.5 * (r + r.T) for r in rng.standard_normal((l, p, p))]
    R0 = -sum(m * r for m, r in zip(mu0, Rs)) - 0.5 * np.eye(p)
    C = random_psd(rng, n, rank_c)
    floor = float(np.linalg.eigvalsh(sum(m * M for m, M in zip(mu0, mats)))[0])
    C *= 0.5 * floor / float(np.linalg.eigvalsh(C)[-1])
    return CombinedProblem(C=C, mats=tuple(mats), b=b, R0=R0, Rs=tuple(Rs),
                           h0=-H @ mu0, hs=tuple(H.T), H=H)


def degenerate_combined(rng, n, rank_c):
    """Combined instance without a second block or free variables whose
    optimal face is large: ``C`` of rank ``rank_c`` in the range of one
    ``M_1`` of rank ``rank_c + 1``, plus ``tr X <= 10``.  An interior
    point of that face has rank well above ``rank_c``."""
    B = rng.standard_normal((n, rank_c + 1))
    A = B[:, :rank_c] @ rng.standard_normal((rank_c, rank_c))
    return CombinedProblem(C=A @ A.T, mats=(B @ B.T, np.eye(n)), b=np.array([1.0, 10.0]),
                           R0=np.zeros((0, 0)), Rs=(np.zeros((0, 0)),) * 2,
                           h0=np.zeros(0), hs=(np.zeros(0),) * 2, H=np.zeros((0, 2)))


def zero_budget_instances():
    """40 seeded instances with one or two zero-budget rows, from both
    generators, with rank(C) 1 (the SOCP route) and 2 (the eps-path)."""
    rng = np.random.default_rng(2024)
    problems = []
    for _ in range(5):
        for zero_b in (1, 2):
            for rank_c in (1, 2):
                problems.append(bounded_packing(rng, 5, 4, rank_c, zero_b))
                problems.append(subspace_packing(rng, 6, 4, 4, rank_c, zero_b))
    return problems


def unbounded_packing(rng, n, l, kernel_dim=1):
    """Constraint matrices supported on a common subspace and an objective
    whose energy concentrates on its orthogonal complement."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Qm, Qc = Q[:, :-kernel_dim], Q[:, -kernel_dim:]
    mats = [Qm @ (random_psd(rng, n - kernel_dim) + 0.05 * np.eye(n - kernel_dim)) @ Qm.T
            for _ in range(l)]
    C = Qc @ (random_psd(rng, kernel_dim) + 0.5 * np.eye(kernel_dim)) @ Qc.T
    C = C + 0.1 * Qm @ random_psd(rng, n - kernel_dim, 1) @ Qm.T
    return packing(C, mats, rng.uniform(0.5, 2.0, l))


def face_restricted(problem):
    """The same packing problem on the face its zero-budget rows pin.

    With ``M_i`` and ``X`` PSD, ``<M_i, X> <= 0`` forces ``M_i X = 0``, so
    ``X = N Z N'`` with ``N`` spanning the common nullspace of those
    ``M_i``.  The value is unchanged and the restricted problem is strictly
    feasible, so a dense solve of it converges where one of the full
    problem stops short.  Built from the data alone, independently of
    ``sdpack.reduce.project_packing``."""
    zero = [i for i in range(problem.l) if problem.b[i] == 0.0]
    if not zero:
        return problem
    w, V = np.linalg.eigh(sum(problem.mats[i] for i in zero))
    N = V[:, w <= problem.n * 1e-12 * max(float(w[-1]), 1.0)]
    keep = [i for i in range(problem.l) if problem.b[i] != 0.0]
    return packing(N.T @ problem.C @ N, [N.T @ problem.mats[i] @ N for i in keep],
                   problem.b[keep])
