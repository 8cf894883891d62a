"""Seeded instance generators for the benchmark.

These are the benchmark's own copies: later edits to the test suite's
generators cannot change what the benchmark measures.  Every generator
takes an explicit ``numpy`` generator and returns plain data (numpy arrays
or JSON documents), so the same seed always gives the same instances.
"""

from __future__ import annotations

import numpy as np


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    B = rng.standard_normal((n, rank))
    return B @ B.T


def packing(rng, n, l, rank_c, zero_b=0):
    """Feasible, bounded packing data ``(C, mats, b)``: full-rank constraint
    sum and budgets in [0.5, 2], except ``zero_b`` rows whose matrices are
    rank one and whose budget is zero (a face survives the projection)."""
    mats = [random_psd(rng, n) + 0.05 * np.eye(n) for _ in range(l)]
    b = rng.uniform(0.5, 2.0, l)
    for i in rng.choice(l, size=zero_b, replace=False):
        v = rng.standard_normal(n)
        mats[i] = np.outer(v, v)
        b[i] = 0.0
    return random_psd(rng, n, rank_c), mats, b


def subspace_packing(rng, n, k, l, rank_c, zero_b=0):
    """Packing data living in a ``k``-dimensional subspace: the constraint
    sum is rank deficient while the problem stays bounded."""
    Q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    b = rng.uniform(0.5, 2.0, l)
    zero_at = set(rng.choice(l, size=zero_b, replace=False).tolist())
    mats = []
    for i in range(l):
        if i in zero_at:
            v = Q @ rng.standard_normal(k)
            mats.append(np.outer(v, v))
            b[i] = 0.0
        else:
            mats.append(Q @ (random_psd(rng, k) + 0.05 * np.eye(k)) @ Q.T)
    C = Q @ random_psd(rng, k, min(rank_c, k)) @ Q.T
    return C, mats, b


def combined(rng, n, l, p, q, rank_c):
    """Combined-problem data, strictly feasible on both sides.

    The multipliers ``mu0 > 0`` are dual feasible by construction: ``h0``
    is set to ``-H mu0``, ``R0`` to ``-sum mu0_i R_i - I/2`` and ``C`` is
    scaled below ``sum mu0_i M_i``; ``X = 0, Y = 0, lam = 0`` is strictly
    primal feasible since every budget is positive.
    """
    mats = [random_psd(rng, n) + 0.05 * np.eye(n) for _ in range(l)]
    b = rng.uniform(0.5, 2.0, l)
    mu0 = rng.uniform(0.5, 1.5, l)
    H = rng.standard_normal((q, l))
    Rs = []
    for _ in range(l):
        R = rng.standard_normal((p, p))
        Rs.append(0.5 * (R + R.T))
    R0 = -sum(m * R for m, R in zip(mu0, Rs)) - 0.5 * np.eye(p)
    C = random_psd(rng, n, rank_c)
    floor = float(np.linalg.eigvalsh(sum(m * M for m, M in zip(mu0, mats)))[0])
    C *= 0.5 * floor / float(np.linalg.eigvalsh(C)[-1])
    return {"C": C, "mats": mats, "b": b, "R0": R0, "Rs": Rs,
            "h0": -H @ mu0, "H": H}


def design(rng, n, l, r, rows=1):
    """Observation matrices ``A_i`` (``rows`` x n) for ``l`` experiments and
    ``r`` target functionals ``K`` (n x r)."""
    obs = [rng.standard_normal((rows, n)) for _ in range(l)]
    return obs, rng.standard_normal((n, r))


def resources(rng, l, q):
    """Resource rows ``P`` (q x l, entries in [0.2, 1]) and caps ``d`` that
    a uniform allocation meets with room to spare."""
    P = rng.uniform(0.2, 1.0, (q, l))
    return P, P @ np.full(l, 1.0 / l) * rng.uniform(1.0, 2.0, q)


# ---------------------------------------------------------------------------
# JSON documents in the format of ``sdpack.model``


def _mat(a) -> list:
    return [[float(v) for v in row] for row in np.asarray(a)]


def _vec(a) -> list:
    return [float(v) for v in np.asarray(a)]


def packing_doc(C, mats, b) -> dict:
    return {"kind": "packing", "C": _mat(C),
            "constraints": [{"M": _mat(m), "b": float(bi)}
                            for m, bi in zip(mats, b)]}


def combined_doc(data: dict) -> dict:
    doc = packing_doc(data["C"], data["mats"], data["b"])
    doc.update(kind="combined", R0=_mat(data["R0"]),
               R=[_mat(R) for R in data["Rs"]], h0=_vec(data["h0"]),
               H=_mat(data["H"]))
    return doc


def design_doc(obs, K, criterion, P=None, d=None) -> dict:
    doc = {"kind": "design", "criterion": criterion, "K": _mat(K),
           "A": [_mat(a) for a in obs]}
    if P is not None:
        doc["resource"] = {"P": _mat(P), "d": _vec(d)}
    return doc
