"""Answer checks, run after each timed call and outside the timer.

A call *fails* when it raises, exits non-zero, reports a status other
than the one its instance admits, or returns a wrong answer: a value more
than 1e-5 relative from the reference, or an infeasible design
allocation.  Two weaker guarantees are counted on their own, because the
answer can be right while they break:

* *over rank*: the solution's rank exceeds rank(C);
* *uncertified*: the call reports ``optimal`` but its ``(X, mu)`` fails
  ``kkt_check`` at the solve's own tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from sdpack import solve as sv

VALUE_RTOL = 1e-5
RANK_RTOL = 1e-6
MAX_DIGITS = 16.0


@dataclass(frozen=True)
class Verdict:
    failed: bool = False
    uncertified: bool = False
    over_rank: bool = False
    digits: float | None = None   # -log10 of the relative difference, capped
    reason: str = ""


def fail(reason: str) -> Verdict:
    return Verdict(failed=True, reason=reason)


def rel_diff(value: float, ref: float) -> float:
    if not (math.isfinite(value) and math.isfinite(ref)):
        return math.inf
    return abs(value - ref) / max(abs(ref), 1e-300)


def digits(rel: float) -> float:
    return MAX_DIGITS if rel <= 10.0 ** -MAX_DIGITS else min(MAX_DIGITS, -math.log10(rel))


def rank_of(X: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Count of eigenvalues above ``rtol`` times the largest one in size."""
    w = np.linalg.eigvalsh(0.5 * (X + X.T))
    top = float(np.max(np.abs(w))) if w.size else 0.0
    return int(np.count_nonzero(np.abs(w) > rtol * top)) if top > 0 else 0


def value_verdict(value: float, ref: float, rank: int, rank_c: int,
                  uncertified: bool = False) -> Verdict:
    rel = rel_diff(value, ref)
    if rel > VALUE_RTOL:
        return fail(f"value {value!r} is {rel:.1e} from reference {ref!r}")
    return Verdict(uncertified=uncertified, over_rank=rank > rank_c,
                   digits=digits(rel),
                   reason=f"rank {rank} > rank(C) = {rank_c}" if rank > rank_c else "")


def face_restricted(problem):
    """The same packing problem on the face where its zero-budget rows are
    tight.  With ``M_i`` and ``X`` PSD, ``<M_i, X> <= 0`` forces
    ``M_i X = 0``, so ``X = N Z N'`` with ``N`` spanning the common
    nullspace of those ``M_i``: the value is unchanged and the restricted
    problem is strictly feasible, which the dense oracle needs to reach
    full accuracy (on the unrestricted problem it agrees only to ~1e-6)."""
    zero = [i for i in range(problem.l) if problem.b[i] == 0.0]
    if not zero:
        return problem
    w, V = np.linalg.eigh(sum(problem.mats[i] for i in zero))
    N = V[:, w <= problem.n * 1e-12 * max(float(w[-1]), 1.0)]
    keep = [i for i in range(problem.l) if problem.b[i] != 0.0]
    return type(problem)(C=N.T @ problem.C @ N,
                         mats=tuple(N.T @ problem.mats[i] @ N for i in keep),
                         b=problem.b[keep])


def packing_verdict(problem, sol, ref: float, rank_c: int, tol: float) -> Verdict:
    """Check a packing :class:`~sdpack.model.Solution` against a reference
    value: status, value, rank, and the KKT certificate at ``tol``."""
    if sol.status.value != "optimal":
        return fail(f"status {sol.status.value}")
    _, passed = sv.kkt_check(problem, sol.X, sol.mu, tol)
    return value_verdict(float(sol.objective), ref, rank_of(sol.X), rank_c,
                         uncertified=not passed)


def resource_verdict(primal_value: float, dual_value: float, w, P, d) -> Verdict:
    """Strong duality of the resource pair plus ``P w <= d``, ``w >= 0``."""
    w = np.asarray(w, dtype=float)
    slack = np.asarray(d, float) - np.asarray(P, float) @ w
    cut = 1e-8 * max(1.0, float(np.max(np.abs(d))))
    if float(np.min(slack)) < -cut or float(np.min(w)) < -cut:
        return fail(f"allocation infeasible (slack {np.min(slack):.1e}, "
                    f"weight {np.min(w):.1e})")
    rel = rel_diff(primal_value, dual_value)
    if rel > VALUE_RTOL:
        return fail(f"primal {primal_value!r} and dual {dual_value!r} differ "
                    f"by {rel:.1e}")
    return Verdict(digits=digits(rel))


def rank_one_value(c: np.ndarray, mats, b: np.ndarray) -> float:
    """Independent value of ``max (c.x)^2 s.t. x' M_i x <= b_i`` for positive
    definite ``M_i``: the packing dual ``min b.mu s.t. sum mu_i M_i >= c c'``
    equals ``min c' S(mu)^{-1} c`` over ``mu >= 0, b.mu = 1``, a smooth
    convex problem in ``l`` variables.  Any such ``mu`` prices an upper
    bound, so the value returned is never below the true optimum by more
    than the roundoff of one Cholesky solve."""
    l = len(mats)

    def fun(mu):
        S = sum(m * M for m, M in zip(mu, mats))
        u = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), c)
        return float(c @ u), np.array([-(u @ M @ u) for M in mats])

    res = scipy.optimize.minimize(
        fun, 1.0 / (l * b), jac=True, method="SLSQP",
        bounds=[(0.0, None)] * l,
        constraints=[{"type": "eq", "fun": lambda mu: b @ mu - 1.0,
                      "jac": lambda mu: b}],
        options={"ftol": 1e-15, "maxiter": 500})
    mu = np.clip(res.x, 0.0, None)
    return fun(mu / float(b @ mu))[0]
