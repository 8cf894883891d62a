"""Dense symmetric-matrix kernel.

Everything downstream (problem validation, projections, solvers) goes
through these helpers, so the conventions are fixed here once:

* symmetric matrices are plain ``numpy`` arrays, symmetrized on entry with
  ``symmetrize`` (JSON round-trips introduce asymmetry at machine precision,
  so inputs are averaged rather than rejected);
* eigenvalues are always reported in descending order;
* the numerical-rank threshold is relative, ``n * 1e-12`` times the largest
  absolute eigenvalue by default;
* ``l`` matrices of order ``n`` stack as one ``(l, n, n)`` array, on which
  ``symmetrize_stack``, ``zero_mask`` and ``psd_factors`` give, matrix by
  matrix, the bits of ``symmetrize``, ``is_zero`` and ``psd_factor``.

These stacked calls equal their per-matrix loops to the bit
(``tests/test_stacked.py``): ``np.linalg.eigh``, ``B.T @ S @ B``, ``S @ X``,
``np.trace(S, axis1=1, axis2=2)``, and ``(w[:, None, None] * S).sum(0)``
against Python's ``sum`` (numpy adds along a leading axis in order, from
+0.0).  ``np.einsum`` and ``np.tensordot`` do not, and are not used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotPsd

DEFAULT_RANK_RTOL = 1e-12


def symmetrize(a) -> np.ndarray:
    """Return ``(A + A.T) / 2`` as a float array, validating shape and entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInput("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix has non-finite entries")
    return 0.5 * (a + a.T)


def symmetrize_stack(s) -> np.ndarray:
    """:func:`symmetrize` of every matrix of an ``(l, n, n)`` stack."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise DimensionMismatch(f"expected square matrices, got shape {s.shape}")
    if s.shape[1] < 1:
        raise InvalidInput("matrix dimension must be at least 1")
    if not np.all(np.isfinite(s)):
        raise InvalidInput("matrix has non-finite entries")
    return 0.5 * (s + s.transpose(0, 2, 1))


def _threshold(eigenvalues: np.ndarray, tol: float | None):
    """Absolute cutoff below which eigenvalues (along the last axis) count as zero."""
    n = eigenvalues.shape[-1]
    if tol is None:
        tol = n * DEFAULT_RANK_RTOL
    elif tol <= 0:
        raise InvalidInput(f"tolerance must be positive, got {tol}")
    return tol * np.max(np.abs(eigenvalues), axis=-1, initial=0.0)


@dataclass(frozen=True)
class EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``;
    the columns are orthonormal and ``Q @ diag(w) @ Q.T`` reconstructs the
    input to machine precision.  Rank, range, nullspace and pseudoinverse are queries on it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def rank(self, tol: float | None = None) -> int:
        """See :func:`rank_tol`."""
        cut = _threshold(self.eigenvalues, tol)
        return int(np.count_nonzero(np.abs(self.eigenvalues) > cut))

    def _psd_cut(self, tol: float | None, message: str) -> float:
        """The rank cutoff; ``NotPsd(message)`` for an eigenvalue below minus it."""
        cut = _threshold(self.eigenvalues, tol)
        if self.eigenvalues[-1] < -cut:
            raise NotPsd(message, witness=float(self.eigenvalues[-1]))
        return cut

    def range_basis(self, tol: float | None = None) -> np.ndarray:
        """See :func:`range_basis`."""
        cut = self._psd_cut(tol, "range basis requires a PSD matrix")
        return self.eigenvectors[:, self.eigenvalues > cut].copy()

    def null_basis(self, tol: float | None = None) -> np.ndarray:
        """See :func:`null_basis`."""
        cut = self._psd_cut(tol, "null basis requires a PSD matrix")
        return self.eigenvectors[:, self.eigenvalues <= cut].copy()

    def pinv(self, tol: float | None = None) -> np.ndarray:
        """See :func:`pinv`."""
        inv = np.zeros_like(self.eigenvalues)
        keep = np.abs(self.eigenvalues) > _threshold(self.eigenvalues, tol)
        inv[keep] = 1.0 / self.eigenvalues[keep]
        return symmetrize(self.eigenvectors @ (inv[:, None] * self.eigenvectors.T))


def eigh_desc(s) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix with descending eigenvalues."""
    s = symmetrize(s)
    w, q = np.linalg.eigh(s)
    return EigenDecomp(eigenvalues=w[::-1].copy(), eigenvectors=q[:, ::-1].copy())


def is_zero(s) -> bool:
    """``rank_tol(s) == 0`` without a decomposition: the rank cutoff is
    relative and its tolerance below 1, so the rank is 0 exactly when
    ``symmetrize(s)`` is the zero matrix (antisymmetric ``s`` included)."""
    return not symmetrize(s).any()


def zero_mask(s) -> np.ndarray:
    """:func:`is_zero` of every matrix of an ``(l, n, n)`` stack."""
    return ~symmetrize_stack(s).any(axis=(1, 2))


def rank_tol(s, tol: float | None = None) -> int:
    """Numerical rank: the count of eigenvalues exceeding ``tol`` relative
    to the largest absolute eigenvalue (0 for the zero matrix)."""
    return eigh_desc(s).rank(tol)


def is_psd(s, tol: float | None = None) -> tuple[bool, float]:
    """Whether ``s`` is positive semidefinite at tolerance, plus the
    minimum eigenvalue as a witness.

    The test is ``min eig >= -tol * max(1, |max eig|)``.
    """
    s = symmetrize(s)
    n = s.shape[0]
    if tol is None:
        tol = n * DEFAULT_RANK_RTOL
    w = np.linalg.eigvalsh(s)
    lo = float(w[0])
    hi = float(np.max(np.abs(w)))
    return lo >= -tol * max(1.0, hi), lo


def range_basis(s, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a PSD matrix.

    Raises ``NotPsd`` when ``s`` has an eigenvalue below ``-threshold``.
    """
    return eigh_desc(s).range_basis(tol)


def null_basis(s, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of a PSD matrix."""
    return eigh_desc(s).null_basis(tol)


def psd_factor(m, tol: float | None = None) -> np.ndarray:
    """Factor a PSD matrix as ``M = A.T @ A`` with ``A`` of shape (rank, n).

    Built from the eigendecomposition rather than Cholesky: the inputs are
    singular in general.  Eigenvalues in ``[-threshold, 0]`` are clipped to
    zero instead of raising.
    """
    return _factors(symmetrize(m)[None], tol)[0]


def psd_factors(s, tol: float | None = None) -> list[np.ndarray]:
    """:func:`psd_factor` of every matrix of an ``(l, n, n)`` stack; ``NotPsd``
    carries the witness of the first matrix that fails."""
    return _factors(symmetrize_stack(s), tol)


def _factors(s: np.ndarray, tol: float | None) -> list[np.ndarray]:
    """Factors of symmetric matrices: the eigenvalues above the cutoff are a
    prefix of the descending ones, so ``A`` is the first rows of ``sqrt(w) Q.T``."""
    w, q = np.linalg.eigh(s)
    cut = _threshold(w, tol)
    bad = np.flatnonzero(w[:, 0] < -cut)
    if bad.size:
        raise NotPsd("cannot factor a matrix with negative eigenvalues",
                     witness=float(w[bad[0], 0]))
    w = np.clip(w[:, ::-1], 0.0, None)
    ranks = np.count_nonzero(w > cut[:, None], axis=1)
    a = np.multiply(np.sqrt(w)[:, :, None], q.transpose(0, 2, 1)[:, ::-1],
                    order="C")
    return [f[:k] for f, k in zip(a, ranks.tolist())]


def pinv(s, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix via its eigendecomposition."""
    return eigh_desc(s).pinv(tol)


# eigenvalues of K.T X K at or below this fraction of the largest are noise:
# inverting ones of about 1e-14, as np.linalg.pinv's cutoff of 1e-15 does,
# magnifies the roundoff in X K into an X' of full rank that X no longer
# dominates
_SHORTED_RTOL = 1e-9


def shorted(x, c) -> np.ndarray:
    """The shorted operator ``X K (K.T X K)^+ K.T X`` of a PSD ``X`` to the
    range of a PSD ``C = K K.T`` (Anderson and Trapp).

    It has rank at most ``rank(C)``, lies between 0 and ``X`` in the PSD
    order, and ``<C, X'> = <C, X>``; so with every ``M_i`` PSD no
    ``<M_i, X'>`` exceeds ``<M_i, X>``, and a feasible ``X`` maps to a
    feasible ``X'`` of the same objective.  Eigenvalues of ``K.T X K`` at or
    below ``1e-9`` times its largest are cut as noise.
    """
    x = symmetrize(x)
    k = psd_factor(c).T
    if k.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"X has order {x.shape[0]}, C {k.shape[0]}")
    if k.shape[1] == 0:
        return np.zeros_like(x)
    xk = x @ k
    dec = eigh_desc(k.T @ xk)
    keep = dec.eigenvalues > _SHORTED_RTOL * max(dec.eigenvalues[0], 0.0)
    w = xk @ (dec.eigenvectors[:, keep] / np.sqrt(dec.eigenvalues[keep]))
    return symmetrize(w @ w.T)
