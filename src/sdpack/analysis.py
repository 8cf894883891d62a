"""Feasibility/boundedness certificates and a-priori rank and gap bounds.

A packing problem is feasible exactly when every right-hand side is
nonnegative (the zero matrix is then a witness), and a feasible problem is
bounded exactly when the range of the objective matrix lies inside the
range of the constraint-matrix sum.  Both directions are certified: the
bounded case by a scalar ``lam`` with ``lam * sum(M_i) - C`` PSD, the
unbounded case by a kernel direction ``h`` along which ``alpha * h h^T``
stays feasible with unbounded objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import RangeInclusionFails
from .model import PackingProblem

RANGE_RTOL = 1e-8


@dataclass(frozen=True)
class BoundednessCertificate:
    """Either a scalar dual bound (bounded) or an improving ray (unbounded)."""

    bounded: bool
    lam: float | None = None
    ray: np.ndarray | None = None


@dataclass(frozen=True)
class GapBound:
    """Multiplicative bound between a packing SDP and its best rank-one value.

    ``factor = 2 ln(2 l mu_bar)`` with ``mu_bar = min(l, max_i rank M_i)``;
    degenerate (all constraint matrices zero) is flagged rather than raised.
    """

    l: int
    mu_bar: int
    factor: float | None
    degenerate: bool = False


def check_feasible(problem: PackingProblem) -> tuple[bool, int | None]:
    """Feasibility test: all b_i >= 0.  Returns the first offending index
    (0-based) when infeasible."""
    bad = np.flatnonzero(problem.b < 0)
    if bad.size:
        return False, int(bad[0])
    return True, None


def _positive_eigvecs(dec: linalg.EigenDecomp) -> np.ndarray:
    """Scaled eigenvectors c_k = sqrt(w_k) q_k spanning the range of C,
    from ``dec = eigh_desc(C)``."""
    cut = max(dec.eigenvalues[0], 0.0) * dec.n * linalg.DEFAULT_RANK_RTOL
    keep = dec.eigenvalues > cut
    return np.sqrt(dec.eigenvalues[keep])[None, :] * dec.eigenvectors[:, keep]


def dual_scalar_bound(problem: PackingProblem,
                      c_dec: linalg.EigenDecomp | None = None) -> float:
    """Scalar ``lam >= 0`` with ``lam * sum(M_i) - C`` PSD, computed as
    ``sum_k c_k . pinv(sum(M_i)) c_k`` over a factorization C = sum c_k c_k^T.
    ``c_dec`` as for :func:`check_bounded`.

    Raises ``RangeInclusionFails`` when no scalar works because some
    eigenvector of C leaves the range of the constraint sum.
    """
    cert = check_bounded(problem, c_dec=c_dec)
    if not cert.bounded:
        raise RangeInclusionFails("objective range leaves the constraint range")
    return cert.lam


def check_bounded(problem: PackingProblem,
                  sum_dec: linalg.EigenDecomp | None = None,
                  c_dec: linalg.EigenDecomp | None = None) -> BoundednessCertificate:
    """Boundedness certificate for a feasible packing problem.

    Bounded iff every positive-eigenvalue eigenvector of C stays in the
    range of ``sum(M_i)`` (projector residual at most 1e-8 relative).  The
    unbounded certificate is the kernel direction maximizing ``h . C h``
    over the nullspace of the constraint sum: the strongest ray, and
    deterministic.  ``sum_dec`` and ``c_dec``, ``eigh_desc`` of
    ``problem.mat_sum()`` and ``problem.C``, may come from the caller.
    """
    if sum_dec is None:
        sum_dec = linalg.eigh_desc(problem.mat_sum())
    U = sum_dec.range_basis()
    cks = _positive_eigvecs(linalg.eigh_desc(problem.C) if c_dec is None else c_dec)
    if cks.shape[1]:
        resid = cks - U @ (U.T @ cks)
        rel = np.linalg.norm(resid, axis=0) / np.linalg.norm(cks, axis=0)
        if np.any(rel > RANGE_RTOL):
            N = sum_dec.null_basis()
            core = linalg.symmetrize(N.T @ problem.C @ N)
            dec = linalg.eigh_desc(core)
            ray = N @ dec.eigenvectors[:, 0]
            return BoundednessCertificate(bounded=False, ray=ray)
        lam = float(np.sum(cks * (sum_dec.pinv() @ cks)))
    else:
        lam = 0.0
    return BoundednessCertificate(bounded=True, lam=lam)


def barvinok_pataki(l: int) -> int:
    """Largest guaranteed-solution rank for an SDP with ``l`` constraints:
    ``floor((sqrt(8 l + 1) - 1) / 2)``."""
    if l < 1:
        raise ValueError(f"need at least one constraint, got {l}")
    return int(math.floor((math.sqrt(8 * l + 1) - 1) / 2))


def nrt_bound(problem: PackingProblem) -> GapBound:
    """Rank-one gap factor ``2 ln(2 l mu_bar)`` from the constraint ranks.

    With every constraint matrix zero the formula has no meaning
    (``mu_bar = 0``); the bound is returned flagged degenerate.
    """
    l = problem.l
    mu_bar = min(l, max(linalg.rank_tol(m) for m in problem.mats))
    if mu_bar == 0:
        return GapBound(l=l, mu_bar=0, factor=None, degenerate=True)
    return GapBound(l=l, mu_bar=mu_bar, factor=2.0 * math.log(2 * l * mu_bar))
