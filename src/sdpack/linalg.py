"""Dense symmetric-matrix kernel.

Everything downstream (problem validation, projections, solvers) goes
through these helpers, so the conventions are fixed here once:

* symmetric matrices are plain ``numpy`` arrays, symmetrized on entry with
  ``symmetrize`` (JSON round-trips introduce asymmetry at machine precision,
  so inputs are averaged rather than rejected);
* eigenvalues are always reported in descending order;
* the numerical-rank threshold is relative, ``n * 1e-12`` times the largest
  absolute eigenvalue by default.
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


def _threshold(eigenvalues: np.ndarray, tol: float | None) -> float:
    """Absolute cutoff below which eigenvalues count as zero."""
    n = eigenvalues.shape[0]
    if tol is None:
        tol = n * DEFAULT_RANK_RTOL
    elif tol <= 0:
        raise InvalidInput(f"tolerance must be positive, got {tol}")
    scale = float(np.max(np.abs(eigenvalues))) if n else 0.0
    return tol * scale


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
    dec = eigh_desc(m)
    cut = dec._psd_cut(tol, "cannot factor a matrix with negative eigenvalues")
    w = np.clip(dec.eigenvalues, 0.0, None)
    keep = w > cut
    if not np.any(keep):
        return np.zeros((0, dec.n))
    return (np.sqrt(w[keep])[:, None] * dec.eigenvectors[:, keep].T).copy()


def pinv(s, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric matrix via its eigendecomposition."""
    return eigh_desc(s).pinv(tol)
