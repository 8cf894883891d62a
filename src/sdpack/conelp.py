"""Dense primal-dual interior-point engine for cone programs.

Solves::

    minimize    c . x
    subject to  G x + s = h,   s in K,
                A x = b,

where ``K`` is a product of nonnegative, second-order, and semidefinite
cones.  PSD blocks travel in packed symmetric (``svec``) coordinates so
that the Euclidean inner product of packed vectors equals the trace inner
product of the matrices.

The algorithm is a homogeneous self-dual embedding with Nesterov-Todd
scaling and a Mehrotra-style predictor-corrector; infeasibility and
unboundedness come out as certificates of the embedding.  The engine
reports only what it measured: ``optimal``, ``primal_infeasible``,
``dual_infeasible``, or ``max_iterations`` with the best iterate seen when
the iteration limit, a stall or a breakdown stops it first.  Judging such
a stop (close enough, or an optimum no finite point attains) is left to
the callers in ``sdpack.solve``.  The scaling is
kept per cone block (a diagonal for nn blocks, a d x d matrix for soc
blocks, the n x n scaling matrix ``R`` of the congruence ``V -> R.T V R``
for psd blocks, applied to n x n matrices).
Consecutive blocks of one kind and order form a run: an nn or soc run's
scaling is built, stored and applied as one stacked operator, and its
Jordan-algebra operations and step lengths computed, for the whole run at
once; a psd block's scaling is applied by one congruence.  The operators
``W``, ``W.T``, ``W^{-1}`` and ``W^{-T}`` are bound once per scaling
(:class:`_BlockOp`), and the KKT factor binds its own (its eigenbasis
transforms and its ``longdouble`` ``W.T W``) once per factor, so an
iteration applies them without dispatching on the cone kinds each time.
Every such trim leaves each floating-point operation, and its order, as it
was: the answers are the same to the bit.

On a psd block the scaled point is diagonal, ``lam = diag(sigma)``.  The
operations on the scaled point alone, the division ``lam^{-1} o v`` and the
step to the cone boundary from ``lam``, live on :class:`_Scaling`, which
keeps ``sigma`` and so takes no eigendecomposition of ``lam``.

Each search direction solves the Newton system reduced through the scaled
rows ``inv(W).T G``, with iterative refinement against the unreduced
equations, accurate enough to push relative gaps to ~1e-11 on desk-scale
problems, which the path-following solvers need for their monotonicity
checks.  The factorization is chosen once per solve from the cone layout
(:class:`_KktFactor`): QR of the scaled rows, with residuals in double, for
programs with no psd block (LPs, SOCPs, the rank-one and design programs);
else every variable block the program declares (rows ``-I`` on the
variable's own columns, as ``X >= 0`` on the eps-path) is eliminated
through its scaling and a dense LU factors the bordered Schur complement
left (order ``l`` on the eps-path), with residuals in ``longdouble``.  On the
``tools/path_census.py`` census, 0 of 336 stages (seed 1), 0 of 1008
(seeds 4-6) and 0 of 3696 (seeds 7-17) end short of their 1e-11 gaps.

A warm start (the path stages of ``sdpack.solve``) is pushed back into the
cone interior only as far as its relative residual in the new program, and
at most to 5% of each block's scale.  The embedding reduces residuals and
complementarity by one factor per iteration, so a warm point re-centred far
beyond its residual would spend its iterations on the gap alone.  A warm
point that already meets the new program to the solve's ``feastol`` gets
the full 5% push: its residual gives no scale.

Every exit of :func:`solve_cone_program` records a :class:`StopReason`.

Every program sdpack builds is assembled by :func:`cone_program` from its
cone blocks in row order; the assembly builds the ``-I`` rows of each
variable block ``x_b >= 0`` and declares them (:class:`ConeProgram`), so
the psd KKT solve eliminates the declared blocks and never searches ``G``.

This is an internal engine; the user-facing entry points are in
``sdpack.solve``.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInput, NumericalFailure

# fraction of the distance to the cone boundary taken per step
_STEP = 0.99
_REFINE_ROUNDS = 2
_STALL_LIMIT = 8

# the largest margin a warm start's cone blocks are pushed to, relative to
# each block's scale (see _warm_margin)
_WARM_MARGIN = 0.05

# the LAPACK routines behind scipy.linalg.lu_factor, lu_solve and
# solve_triangular, called without the wrappers' per-call checks (see
# _SchurKkt and _QrKkt)
_getrf, _getrs, _trtrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs", "trtrs"),
                                                       dtype=np.float64)


# ---------------------------------------------------------------------------
# packed symmetric coordinates


@functools.lru_cache(maxsize=64)
def _svec_index(n: int, dtype=np.float64) -> tuple[np.ndarray, ...]:
    """Packed coordinates of an order-``n`` matrix: the packed position and
    the scale factor of each entry as ``(n, n)`` arrays, then the flat
    positions and the scale factors of the packed entries, the scale
    factors in ``dtype`` (read-only; shared by every caller)."""
    r, c = np.tril_indices(n)
    scale = np.where(r == c, 1.0, math.sqrt(2.0)).astype(dtype)
    pos = np.empty((n, n), dtype=np.intp)
    pos[r, c] = pos[c, r] = np.arange(r.shape[0])
    out = (pos, scale[pos], r * n + c, scale)
    for a in out:
        a.flags.writeable = False
    return out


def svec(S: np.ndarray) -> np.ndarray:
    """Pack a symmetric matrix so that ``svec(A) . svec(B) == <A, B>``."""
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInput(f"svec needs a square matrix, got shape {S.shape}")
    _, _, flat, scale = _svec_index(S.shape[0])
    return S.ravel()[flat] * scale


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`svec`."""
    v = np.asarray(v)
    pos, scale_nn, _, scale = _svec_index(n)
    if v.shape != scale.shape:
        raise InvalidInput(f"smat of order {n} needs a vector of length "
                           f"{scale.shape[0]}, got shape {v.shape}")
    return v[pos] / scale_nn


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


# ---------------------------------------------------------------------------
# cone layout


@dataclass(frozen=True)
class ConeProgram:
    """Cone program data.  ``cones`` lists blocks as ``("nn", d)``,
    ``("soc", d)`` or ``("psd", n)`` covering the rows of ``G`` in order
    (PSD blocks occupy ``n (n + 1) / 2`` packed rows).

    An nn or psd block written ``(kind, order, start)`` declares a variable
    block ``x_b >= 0``: rows ``-I`` on the columns from ``start``, that no
    other variable block holds, and zero elsewhere; checked here, once, and
    eliminated by the psd KKT solve (:class:`_SchurKkt`)."""

    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    cones: tuple[tuple, ...]
    A: np.ndarray | None = None
    b: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "G", np.atleast_2d(np.asarray(self.G, dtype=float)))
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))
        cones, variables, rows = [], [], 0
        for cone in self.cones:
            kind, d = str(cone[0]), int(cone[1])
            if kind not in ("nn", "soc", "psd"):
                raise InvalidInput(f"unknown cone kind {kind!r}")
            if d < 0:
                raise InvalidInput(f"cone {kind!r} has negative order {d}")
            dim = d * (d + 1) // 2 if kind == "psd" else d
            cones.append((kind, d, *map(int, cone[2:])))
            if len(cone) > 2:
                variables.append((kind, rows, dim, cones[-1][2]))
            rows += dim
        object.__setattr__(self, "cones", tuple(cones))
        if self.A is not None:
            if self.b is None:
                raise InvalidInput("cone program has equality rows A but no b")
            object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
            object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        for name in ("c", "G", "h", "A", "b"):
            v = getattr(self, name)
            if v is not None and not np.all(np.isfinite(v)):
                raise InvalidInput(f"cone program {name} has a non-finite entry")
        if rows != self.G.shape[0] or self.h.shape[0] != rows:
            raise InvalidInput(f"cone rows {rows} do not match G/h ({self.G.shape[0]})")
        if self.G.shape[1] != self.c.shape[0]:
            raise InvalidInput("G columns do not match objective length")
        if self.A is not None and (self.A.shape[1] != self.c.shape[0]
                                   or self.A.shape[0] != self.b.shape[0]):
            raise InvalidInput("A/b shapes inconsistent with objective")
        used = np.zeros(self.G.shape[1], dtype=bool)
        for kind, row, dim, start in variables:
            G_b, cols = self.G[row:row + dim], slice(start, start + dim)
            # columns in G that no other block holds, and dim nonzeros in
            # the block's rows, all of them -1 on its own diagonal
            if (kind == "soc" or start < 0 or cols.stop > used.shape[0]
                    or used[cols].any() or np.count_nonzero(G_b) != dim
                    or not (G_b[:, cols].diagonal() == -1.0).all()):
                raise InvalidInput(f"variable block at row {row} is not an nn or psd block of "
                                   f"-I on its own columns {start}:{cols.stop}, zero elsewhere")
            used[cols] = True


def cone_program(c, blocks, A=None, b=None) -> ConeProgram:
    """The :class:`ConeProgram` of ``blocks`` in row order: ``(kind, order,
    G_rows, h_rows)``, stacked as given to the bit, or the variable block
    ``(kind, order, start[, h_rows])`` (see :class:`ConeProgram`), its
    ``-I`` rows built here and ``h_rows`` zero when not given."""
    G_rows, h_rows, cones = [], [], []
    for kind, order, *rest in blocks:
        if isinstance(rest[0], (int, np.integer)):
            start, dim = rest[0], svec_dim(order) if kind == "psd" else order
            G = np.zeros((dim, len(c)))
            G[:, start:start + dim] = -np.eye(dim)
            rest = [G, rest[1] if len(rest) > 1 else np.zeros(dim), start]
        G_rows.append(rest[0])
        h_rows.append(rest[1])
        cones.append((kind, order, *rest[2:]))
    return ConeProgram(c=c, G=np.vstack(G_rows), h=np.concatenate(h_rows),
                       cones=cones, A=A, b=b)


class _Block:
    """One cone block: its rows ``sl``, the columns ``cols`` of a declared
    variable block (else ``None``), and for a psd block its packed
    coordinates ``index`` (:func:`_svec_index`) and the packed positions
    ``diag`` of its diagonal."""

    __slots__ = ("kind", "dim", "sl", "cols", "order", "index", "diag")

    def __init__(self, kind: str, order: int, start: int, col: int | None = None):
        self.kind = kind
        self.order = order
        self.dim = svec_dim(order) if kind == "psd" else order
        self.sl = slice(start, start + self.dim)
        self.cols = None if col is None else slice(col, col + self.dim)
        self.index = _svec_index(order) if kind == "psd" else None
        self.diag = self.index[0].diagonal() if kind == "psd" else None


def _rows(v: np.ndarray, sl: slice, blocks: list[_Block]) -> np.ndarray:
    """The rows ``sl`` of ``v`` viewed as ``(k, d)``: one row per block of a
    run of ``k`` blocks of dimension ``d``."""
    return v[sl].reshape(len(blocks), blocks[0].dim)


class _Layout:
    """Cone blocks in row order, grouped into maximal runs of consecutive
    blocks of one kind and order.  The Jordan-algebra operations work run
    by run: an nn or soc run is one ``(k, d)`` view of the vector with the
    block formulas computed along its rows; psd blocks go one at a time.
    The operations that act only on the scaled point, the division by it
    and the step to the cone boundary from it, live on :class:`_Scaling`."""

    def __init__(self, cones):
        self.blocks: list[_Block] = []
        pos = 0
        for kind, d, *col in cones:
            if d <= 0:
                continue
            blk = _Block(kind, d, pos, *col)
            pos += blk.dim
            self.blocks.append(blk)
        self.m = pos
        self.deg = sum(b.order if b.kind in ("nn", "psd") else 1 for b in self.blocks)
        self.runs: list[tuple[str, slice, list[_Block]]] = []
        for (kind, _), group in itertools.groupby(self.blocks,
                                                  key=lambda b: (b.kind, b.order)):
            group = list(group)
            self.runs.append((kind, slice(group[0].sl.start, group[-1].sl.stop),
                              group))

    def identity(self) -> np.ndarray:
        e = np.zeros(self.m)
        for kind, sl, blocks in self.runs:
            if kind == "nn":
                e[sl] = 1.0
            elif kind == "soc":
                _rows(e, sl, blocks)[:, 0] = 1.0
            else:
                for b in blocks:
                    e[b.sl] = svec(np.eye(b.order))
        return e

    def _block_margins(self, v: np.ndarray):
        """Per-run arrays of each block's smallest cone eigenvalue (nan for
        a block that holds a nan, and for a psd block that holds an inf)."""
        for kind, sl, blocks in self.runs:
            if kind == "nn":
                yield np.minimum.reduce(_rows(v, sl, blocks), axis=1)
            elif kind == "soc":
                U = _rows(v, sl, blocks)
                yield U[:, 0] - np.linalg.norm(U[:, 1:], axis=1)
            else:
                margins = np.empty(len(blocks))
                for k, b in enumerate(blocks):
                    M = v[b.sl][b.index[0]] / b.index[1]
                    # on a nan eigvalsh raises or returns finite
                    # eigenvalues, depending on where the nan sits
                    margins[k] = (np.linalg.eigvalsh(M)[0] if np.isfinite(M).all()
                                  else math.nan)
                yield margins

    def margin_at_least(self, v: np.ndarray, floor: float) -> bool:
        """Whether every block's smallest cone eigenvalue is at least
        ``floor`` (so ``v`` lies in K for ``floor = 0``, in its interior for
        the least subnormal), decided run by run in row order: the first run
        below ``floor`` or nan decides, and the runs after it are not looked
        at.  An empty layout passes."""
        for margins in self._block_margins(v):
            if not np.minimum.reduce(margins) >= floor:
                return False
        return True

    def circ(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``u o v``."""
        out = np.empty(self.m)
        for kind, sl, blocks in self.runs:
            if kind == "nn":
                out[sl] = u[sl] * v[sl]
            elif kind == "soc":
                U, V = _rows(u, sl, blocks), _rows(v, sl, blocks)
                O = _rows(out, sl, blocks)
                O[:, 0] = np.einsum("ij,ij->i", U, V)
                O[:, 1:] = U[:, :1] * V[:, 1:] + V[:, :1] * U[:, 1:]
            else:
                for b in blocks:
                    pos, scale_nn, flat, scale = b.index
                    U, V = u[b.sl][pos] / scale_nn, v[b.sl][pos] / scale_nn
                    np.multiply((0.5 * (U @ V + V @ U)).ravel()[flat], scale, out=out[b.sl])
        return out


def _smallest_positive_root(p2: np.ndarray, p1: np.ndarray,
                            p0: np.ndarray) -> np.ndarray:
    """Smallest positive root of ``p2 a^2 + p1 a + p0 = 0``, entry by entry
    (inf where there is none)."""
    out = np.full(p2.shape, math.inf)
    # overflowing or nan coefficients end as inf or are skipped, silently
    with np.errstate(all="ignore"):
        linear = np.abs(p2) < 1e-300
        hit = linear & (p1 > 0) & (p0 < 0)
        out[hit] = -p0[hit] / p1[hit]
        disc = p1 * p1 - 4.0 * p2 * p0
        quad = ~linear & ~(disc < 0)
        sq = np.sqrt(disc[quad])
        a, b = -p1[quad], 2.0 * p2[quad]
        roots = np.stack([(a - sq) / b, (a + sq) / b])
        out[quad] = np.where(roots > 0, roots, math.inf).min(axis=0)
    return out


class _BlockOp:
    """A block-diagonal operator bound once: ``out[dst] = F v[src]`` for each
    part ``(kind, src, dst, F, index)``, ``v`` a vector or a matrix whose
    rows ``F`` mixes (``out`` may be ``v`` when each part's ``src`` is its
    ``dst``).  For nn ``F`` is a diagonal, for soc a ``(k, d, d)`` stack of
    ``k`` consecutive d x d blocks, and for one psd block the n x n matrix
    of the congruence ``V -> F.T V F`` with ``index`` the block's packed
    coordinates in the operator's ``dtype`` (see :func:`_congruence`)."""

    __slots__ = ("parts", "dtype")

    def __init__(self, parts: list, dtype=float):
        self.parts, self.dtype = parts, dtype

    def __call__(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(v.shape, dtype=self.dtype)
        for kind, src, dst, F, index in self.parts:
            vb = v[src]
            if kind == "psd":
                _congruence(F, index, vb, out[dst])
            elif kind == "soc":
                k, d, _ = F.shape
                cols = vb.shape[1] if vb.ndim == 2 else 1
                out[dst] = (F @ vb.reshape(k, d, cols)).reshape(vb.shape)
            else:
                np.multiply(F if vb.ndim == 1 else F[:, None], vb, out=out[dst])
        return out


def _congruence(F: np.ndarray, index: tuple, v: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """``svec(F.T smat(v) F)`` for one psd block, computed on n x n
    matrices: ``v`` is a packed vector or a matrix of packed columns, and
    ``index`` the block's packed coordinates (:func:`_svec_index`) in
    ``v``'s dtype (``out`` may be ``v``; a vector's is allocated when not
    given)."""
    pos, scale_nn, flat, scale = index
    if v.ndim == 1:
        # ndarray.dot: bitwise the same as matmul on one matrix, and for
        # longdouble about twice as fast
        T = F.T.dot(v[pos] / scale_nn).dot(F)
        return np.multiply(T.ravel()[flat], scale, out=out)
    T = F.T @ (v.T[:, pos] / scale_nn) @ F
    out[...] = (T.reshape(-1, F.size)[:, flat] * scale).T
    return out


class _Scaling:
    """Nesterov-Todd scaling, with its operators bound once per scaling.

    ``lam = W z = W^{-T} s`` is the scaled point.  ``runs`` keeps, per run
    of consecutive blocks of one kind and order, ``(kind, W, W^{-1})``: the
    diagonal as a vector for an nn run, ``(k, d, d)`` symmetric hyperbolic
    Householder matrices for a soc run, built for the whole run at once,
    and for a psd run the lists of each block's n x n scaling matrix ``R``
    and ``R^{-1}``, with ``W`` the congruence ``V -> R.T V R`` on n x n
    matrices (so ``W.T`` is ``V -> R V R.T``, the congruence by the
    transposed view).  ``W``, ``Wt``, ``Winv`` and ``Winvt`` are
    :class:`_BlockOp` operators built from them here, each applying an nn
    or soc run by one batched product and a psd block by one congruence; no
    operator is formed on the packed coordinates, and ``W`` never as an
    m x m matrix.

    On a psd block ``lam`` is diagonal, ``svec(diag(sigma))``; ``sigma``
    keeps those eigenvalues (decreasing) per psd block.  The scaled point's
    own operations, :meth:`divide` and :meth:`max_step`, read them and take
    no eigendecomposition of ``lam`` (but for tied eigenvalues).
    """

    def __init__(self, layout: _Layout, s: np.ndarray, z: np.ndarray):
        self.layout = layout
        self.lam = np.zeros(layout.m)
        self.sigma: list[np.ndarray] = []
        self.runs: list[tuple] = []
        W, Wt, Winv, Winvt = [], [], [], []
        for kind, run, blocks in layout.runs:
            if kind == "psd":
                Rs, Rinvs = [], []
                for b in blocks:
                    R, Rinv, sig = _psd_scaling(s[b.sl], z[b.sl], b.index)
                    self.sigma.append(sig)
                    self.lam[b.sl][b.diag] = sig
                    Rs.append(R)
                    Rinvs.append(Rinv)
                    W.append((kind, b.sl, b.sl, R, b.index))
                    Wt.append((kind, b.sl, b.sl, R.T, b.index))
                    Winv.append((kind, b.sl, b.sl, Rinv, b.index))
                    Winvt.append((kind, b.sl, b.sl, Rinv.T, b.index))
                self.runs.append((kind, Rs, Rinvs))
                continue
            if kind == "nn":
                w = np.sqrt(s[run] / z[run])
                F, Fi, lam = w, 1.0 / w, np.sqrt(s[run] * z[run])
            else:
                F, Fi, lam = _soc_scaling(_rows(s, run, blocks), _rows(z, run, blocks))
            self.lam[run] = lam.ravel()
            self.runs.append((kind, F, Fi))
            # nn and soc scalings are symmetric
            W.append((kind, run, run, F, None))
            Wt.append((kind, run, run, F, None))
            Winv.append((kind, run, run, Fi, None))
            Winvt.append((kind, run, run, Fi, None))
        self.W, self.Wt = _BlockOp(W), _BlockOp(Wt)
        self.Winv, self.Winvt = _BlockOp(Winv), _BlockOp(Winvt)

    def divide(self, v: np.ndarray) -> np.ndarray:
        """``lam^{-1} o v``, the ``u`` with ``lam o u = v``: on a psd block
        ``lam = diag(sigma)`` makes the equation entrywise."""
        lam = self.lam
        out = np.empty(self.layout.m)
        sig = iter(self.sigma)
        for kind, sl, blocks in self.layout.runs:
            if kind == "nn":
                out[sl] = v[sl] / lam[sl]
            elif kind == "soc":
                L, V = _rows(lam, sl, blocks), _rows(v, sl, blocks)
                O = _rows(out, sl, blocks)
                a = L[:, 0] ** 2 - np.einsum("ij,ij->i", L[:, 1:], L[:, 1:])
                u0 = (L[:, 0] * V[:, 0]
                      - np.einsum("ij,ij->i", L[:, 1:], V[:, 1:])) / a
                O[:, 0] = u0
                O[:, 1:] = (V[:, 1:] - u0[:, None] * L[:, 1:]) / L[:, :1]
            else:
                for b in blocks:
                    d = next(sig)
                    pos, scale_nn, flat, scale = b.index
                    U = 2.0 * (v[b.sl][pos] / scale_nn) / np.add.outer(d, d)
                    np.multiply(U.ravel()[flat], scale, out=out[b.sl])
        return out

    def max_step(self, ds) -> float:
        """Largest ``a`` with ``lam + t d`` in K for all ``t in [0, a]`` and
        every ``d`` in ``ds``: the least per-direction step, to the bit,
        sharing the work on ``lam``."""
        lam = self.lam
        out = math.inf
        sig = iter(self.sigma)
        for kind, sl, blocks in self.layout.runs:
            if kind == "nn":
                for d in ds:
                    lb, db = lam[sl], d[sl]
                    neg = db < 0
                    if np.logical_or.reduce(neg):
                        out = min(out, float(np.minimum.reduce(-lb[neg] / db[neg])))
            elif kind == "soc":
                # roots of |l1 + a d1|^2 = (l0 + a d0)^2, block by block
                L = _rows(lam, sl, blocks)
                # <= 0 inside
                p0 = np.einsum("ij,ij->i", L[:, 1:], L[:, 1:]) - L[:, 0] ** 2
                for d in ds:
                    D = _rows(d, sl, blocks)
                    p2 = np.einsum("ij,ij->i", D[:, 1:], D[:, 1:]) - D[:, 0] ** 2
                    p1 = 2.0 * (np.einsum("ij,ij->i", L[:, 1:], D[:, 1:])
                                - L[:, 0] * D[:, 0])
                    out = min(out, float(np.min(_smallest_positive_root(p2, p1, p0))))
            else:
                for b in blocks:
                    pos, scale_nn = b.index[:2]
                    # the directions' blocks as one (len(ds), n, n) stack
                    Ds = np.array([d[b.sl] for d in ds])[:, pos] / scale_nn
                    sv = next(sig)
                    if np.logical_and.reduce(sv[:-1] > sv[1:]):
                        # eigh of diag(sv) returns sv ascending and the
                        # reversal permutation, so this is its congruence
                        # entry for entry, to the bit
                        r = 1.0 / np.sqrt(np.maximum(sv[::-1], 1e-300))
                        Dm = (r[:, None] * Ds[:, ::-1, ::-1]) * r[None, :]
                    else:
                        # tied eigenvalues (a cold start, where lam = e):
                        # diag(sv) is lam's block unpacked, to the bit
                        w, Q = np.linalg.eigh(np.diag(sv))
                        w = np.maximum(w, 1e-300)
                        scale = Q / np.sqrt(w)[None, :]
                        Dm = np.stack([scale.T @ D @ scale for D in Ds])
                    for lo in np.linalg.eigvalsh(Dm)[:, 0].tolist():
                        if lo < 0:
                            out = min(out, -1.0 / lo)
        return out

    def gram(self, dtype=float) -> _BlockOp:
        """``W.T W`` as a :class:`_BlockOp` in ``dtype`` (on a psd block
        the congruence by ``R R.T``)."""
        parts = []
        for (kind, rows, _, F, index), (_, _, _, Ft, _) in zip(self.W.parts, self.Wt.parts):
            Q = F * F if kind == "nn" else F @ Ft
            if kind == "psd":
                index = _svec_index(F.shape[0], dtype)
            parts.append((kind, rows, rows, Q.astype(dtype, copy=False), index))
        return _BlockOp(parts, dtype)


def _soc_scaling(s: np.ndarray, z: np.ndarray):
    """NT scaling of ``k`` soc blocks of order ``d`` at once: ``s`` and ``z``
    are ``(k, d)``; returns ``W`` and ``W^{-1}`` as ``(k, d, d)`` and
    ``lam = W z`` as ``(k, d)``; ``W`` and ``W^{-1}`` are built in place."""
    s0, z0 = s[:, 0], z[:, 0]
    # relative floors keep the scaling finite when an iterate touches the
    # boundary; the solver then stops on its stall test instead of overflowing
    rho_s = np.sqrt(np.maximum(np.maximum(
        s0 ** 2 - np.einsum("ij,ij->i", s[:, 1:], s[:, 1:]), (1e-15 * s0) ** 2), 1e-300))
    rho_z = np.sqrt(np.maximum(np.maximum(
        z0 ** 2 - np.einsum("ij,ij->i", z[:, 1:], z[:, 1:]), (1e-15 * z0) ** 2), 1e-300))
    sb, zb = s / rho_s[:, None], z / rho_z[:, None]
    gamma = np.sqrt(np.maximum((1.0 + np.einsum("ij,ij->i", sb, zb)) / 2.0, 1e-300))
    wbar = np.concatenate([sb[:, :1] + zb[:, :1], sb[:, 1:] - zb[:, 1:]],
                          axis=1) / (2.0 * gamma)[:, None]
    # hyperbolic Householder point: the Jordan square root of wbar
    v = wbar.copy()
    v[:, 0] += 1.0
    v /= np.sqrt(2.0 * (wbar[:, 0] + 1.0))[:, None]
    eta = np.sqrt(rho_s / rho_z)[:, None, None]
    # J v as the product v @ J gives it: 0.0 - v turns a zero to +0.0
    jv = np.concatenate([v[:, :1], 0.0 - v[:, 1:]], axis=1)
    W, Winv = (2.0 * u[:, :, None] * u[:, None, :] for u in (v, jv))
    for H in (W, Winv):
        diag = H.reshape(len(v), -1)[:, ::v.shape[1] + 1]
        diag[:, 0] -= 1.0
        diag[:, 1:] += 1.0
    W *= eta
    Winv /= eta
    return W, Winv, np.einsum("kij,kj->ki", W, z)


def _chol_or_eig(S: np.ndarray) -> np.ndarray:
    """Factor ``S = F @ F.T`` for a (numerically) PD matrix."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        w, Q = np.linalg.eigh(0.5 * (S + S.T))
        w = np.maximum(w, max(1e-15 * float(w[-1]), 1e-300))
        return Q * np.sqrt(w)[None, :]


def _psd_scaling(s: np.ndarray, z: np.ndarray, index: tuple):
    """NT scaling of one psd block packed by ``index`` (:func:`_svec_index`):
    the n x n scaling matrix ``R`` of ``W: V -> R.T V R`` and its inverse,
    and the eigenvalues ``sigma`` (decreasing) of the scaled point ``lam =
    diag(sigma)``."""
    pos, scale_nn = index[:2]
    S, Z = s[pos] / scale_nn, z[pos] / scale_nn
    Ls = _chol_or_eig(S)
    Lz = _chol_or_eig(Z)
    U, sv, Vt = np.linalg.svd(Lz.T @ Ls)
    sv = np.maximum(sv, max(1e-15 * float(sv[0]), 1e-300))
    R = Ls @ Vt.T / np.sqrt(sv)[None, :]
    Rinv = (U.T @ Lz.T) / np.sqrt(sv)[:, None]
    return R, Rinv, sv


# ---------------------------------------------------------------------------
# result


class StopReason(str, enum.Enum):
    """Why :func:`solve_cone_program` stopped.  The first three come with
    the status of the same name (``converged`` with ``optimal``); the rest
    end in ``max_iterations`` with the best iterate seen."""

    CONVERGED = "converged"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    ITERATION_LIMIT = "iteration_limit"     # max_iter iterations taken
    STALL = "stall"                         # mu stopped falling
    FACTOR_FAILURE = "factor_failure"       # scaling, factorization or solve broke
    TAU_DENOMINATOR = "tau_denominator"     # the tau elimination's divisor vanished
    TINY_STEP = "tiny_step"                 # step length non-finite or below 1e-12
    LEFT_CONE = "left_cone"                 # the step left the cone interior


@dataclass
class ConeResult:
    status: str                    # optimal | primal_infeasible | dual_infeasible |
                                   # max_iterations (the best iterate seen)
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    s: np.ndarray | None = None
    pcost: float = math.nan
    dcost: float = math.nan
    gap: float = math.inf
    relgap: float = math.inf
    pres: float = math.inf
    dres: float = math.inf
    iterations: int = 0
    ray: np.ndarray | None = None          # improving direction when unbounded
    infeas_cert: tuple | None = None       # (y, z) certificate when infeasible
    stop_reason: StopReason | None = None  # set by solve_cone_program

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


# ---------------------------------------------------------------------------
# the solver


def solve_cone_program(prog: ConeProgram, *, reltol: float = 1e-8,
                       feastol: float | None = None, max_iter: int = 100,
                       warm: tuple | None = None) -> ConeResult:
    """Run the interior-point iteration on ``prog``.

    ``warm`` may carry ``(x, y, s, z)`` from a related solve.  Its relative
    residual in ``prog`` (:func:`_warm_residual`) is measured first, and
    then ``s`` and ``z`` are pushed back into the cone interior only as far
    as that residual (:func:`_warm_margin`): the embedding reduces residual
    and complementarity by one factor per iteration, so a warm point whose
    complementarity sat far above its residual would spend its iterations
    on the gap alone.  Returns an ``optimal`` or certificate result, else
    the best iterate as ``max_iterations``; either way ``stop_reason`` says
    which exit was taken.
    """
    layout = _Layout(prog.cones)
    if feastol is None:
        feastol = max(reltol, 1e-10)
    c, G, h = prog.c, prog.G, prog.h
    nx, m = c.shape[0], layout.m
    if prog.A is not None and prog.A.shape[0] > 0:
        A, b = prog.A, prog.b
    else:
        A, b = np.zeros((0, nx)), np.zeros(0)
    p = A.shape[0]
    if m == 0:
        raise InvalidInput("cone program has no cone rows")

    e = layout.identity()
    deg = layout.deg

    x = np.zeros(nx)
    y = np.zeros(p)
    s = e.copy()
    z = e.copy()
    tau, kappa = 1.0, 1.0
    if warm is not None:
        wx, wy, ws, wz = warm
        if wx is not None and ws is not None and wz is not None:
            x = np.asarray(wx, dtype=float).copy()
            y = (np.asarray(wy, dtype=float).copy() if wy is not None and p
                 else np.zeros(p))
            ws, wz = np.asarray(ws, dtype=float), np.asarray(wz, dtype=float)
            push = _warm_margin(_warm_residual(c, G, h, A, b, x, y, ws, wz), feastol)
            s = _push_interior(layout, ws, e, push)
            z = _push_interior(layout, wz, e, push)
            tau = 1.0
            kappa = max((s @ z) / deg, 1e-8)

    # a norm is math.sqrt(v @ v), numpy's own definition for a real vector
    norm_b = max(1.0, math.sqrt(b @ b)) if p else 1.0
    norm_h = max(1.0, math.sqrt(h @ h))
    norm_c = max(1.0, math.sqrt(c @ c))
    # the zero vectors that stand in for the equality rows when there are none
    zero_p, zero_x = np.zeros(0), np.zeros(nx)

    best: ConeResult | None = None
    best_metric = math.inf
    stall = 0
    last_mu = math.inf

    factor = _kkt_factory(G, A, layout)

    reason = StopReason.ITERATION_LIMIT
    for it in range(max_iter + 1):
        # residuals of the embedding
        r_x = G.T @ z + (A.T @ y if p else 0.0) + c * tau
        r_y = A @ x - b * tau if p else zero_p
        r_z = G @ x + s - h * tau
        r_tau = c @ x + (b @ y if p else 0.0) + h @ z + kappa
        mu = (s @ z + tau * kappa) / (deg + 1)

        # convergence metrics of the de-homogenized iterate, with residuals
        # measured relative to the size of the terms entering them (large
        # iterates would otherwise never pass an absolute test)
        xt, yt, zt, st = x / tau, y / tau, z / tau, s / tau
        pcost = float(c @ xt)
        dcost = float(-((b @ yt if p else 0.0) + h @ zt))
        gap = float(st @ zt)
        relgap = gap / max(1.0, abs(pcost), abs(dcost))
        Gx = G @ xt
        res = Gx + st - h
        pres = math.sqrt(res @ res) / max(norm_h, math.sqrt(Gx @ Gx), math.sqrt(st @ st))
        if p:
            Ax = A @ xt
            res = Ax - b
            pres = max(pres, math.sqrt(res @ res) / max(norm_b, math.sqrt(Ax @ Ax)))
        Gtz = G.T @ zt
        Aty = A.T @ yt if p else zero_x
        res = Gtz + Aty + c
        dres = math.sqrt(res @ res) / max(norm_c, math.sqrt(Gtz @ Gtz),
                                          math.sqrt(Aty @ Aty))

        metric = max(pres, dres, relgap)
        if metric < best_metric:
            best_metric = metric
            # the iterate's arrays are new each iteration and never written
            best = ConeResult(status="max_iterations", x=xt, y=yt, z=zt, s=st,
                              pcost=pcost, dcost=dcost, gap=gap, relgap=relgap,
                              pres=pres, dres=dres, iterations=it)

        if pres <= feastol and dres <= feastol and (relgap <= reltol or gap <= reltol):
            return ConeResult(status="optimal", x=xt, y=yt, z=zt, s=st,
                              pcost=pcost, dcost=dcost, gap=gap, relgap=relgap,
                              pres=pres, dres=dres, iterations=it,
                              stop_reason=StopReason.CONVERGED)

        # infeasibility certificates
        omega = -((b @ y if p else 0.0) + h @ z)
        if omega > feastol * max(tau, kappa):
            res = G.T @ (z / omega) + (A.T @ (y / omega) if p else 0.0)
            if (math.sqrt(res @ res) <= feastol * norm_c
                    and layout.margin_at_least(z / omega, -feastol)):
                return ConeResult(status="primal_infeasible", iterations=it,
                                  infeas_cert=(y / omega, z / omega),
                                  pres=pres, dres=dres, gap=gap, relgap=relgap,
                                  stop_reason=StopReason.PRIMAL_INFEASIBLE)
        omega_d = -(c @ x)
        if omega_d > feastol * max(tau, kappa):
            xr = x / omega_d
            ok = layout.margin_at_least(-G @ xr, -feastol * norm_h)
            if ok and p:
                res = A @ xr
                ok = math.sqrt(res @ res) <= feastol * norm_b
            if ok:
                return ConeResult(status="dual_infeasible", iterations=it, ray=xr,
                                  pres=pres, dres=dres, gap=gap, relgap=relgap,
                                  stop_reason=StopReason.DUAL_INFEASIBLE)

        if it == max_iter:
            break
        if mu > 0.9 * last_mu:
            stall += 1
            if stall >= _STALL_LIMIT:
                reason = StopReason.STALL
                break
        else:
            stall = 0
        last_mu = mu

        # scaling and KKT factorization
        try:
            sc = _Scaling(layout, s, z)
            kkt = factor(sc)
            dx1, dy1, dz1 = kkt.solve(-c, b, h)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError,
                ValueError):
            reason = StopReason.FACTOR_FAILURE
            break
        denom = c @ dx1 + (b @ dy1 if p else 0.0) + h @ dz1 - kappa / tau
        if not math.isfinite(denom) or abs(denom) < 1e-14:
            reason = StopReason.TAU_DENOMINATOR
            break

        lam = sc.lam
        lam_lam = layout.circ(lam, lam)

        def direction(sigma, corr_s, corr_tk):
            ds = sigma * mu * e - lam_lam - corr_s
            dtk = sigma * mu - tau * kappa - corr_tk
            fac = 1.0 - sigma
            rx2 = -fac * r_x
            ry2 = -fac * r_y if p else zero_p
            wds = sc.Wt(sc.divide(ds))
            rz2 = -fac * r_z - wds
            dx2, dy2, dz2 = kkt.solve(rx2, ry2, rz2)
            num = (-fac * r_tau - dtk / tau
                   - (c @ dx2 + (b @ dy2 if p else 0.0) + h @ dz2))
            dtau = num / denom
            dx = dx2 + dtau * dx1
            dy = dy2 + dtau * dy1
            dz = dz2 + dtau * dz1
            dz_sc = sc.W(dz)
            dsv = wds - sc.Wt(dz_sc)
            dkappa = (dtk - kappa * dtau) / tau
            return dx, dy, dz, dsv, dz_sc, dtau, dkappa

        def step(ds_sc, dz_sc, dtau, dkappa):
            # the fraction-to-boundary step along both scaled directions
            alpha = sc.max_step((ds_sc, dz_sc))
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            return min(1.0, _STEP * alpha)

        # predictor
        try:
            _, _, _, dsa, dz_sc, dta, dka = direction(0.0, 0.0, 0.0)
            ds_sc = sc.Winvt(dsa)
            alpha = step(ds_sc, dz_sc, dta, dka)
            mu_aff = ((lam + alpha * ds_sc) @ (lam + alpha * dz_sc)
                      + (tau + alpha * dta) * (kappa + alpha * dka)) / (deg + 1)
            sigma = min(0.99, max(0.0, (mu_aff / mu)) ** 3)

            # corrector
            corr_s = layout.circ(ds_sc, dz_sc)
            corr_tk = dta * dka
            dx, dy, dz, dsv, dz_sc, dtau, dkappa = direction(sigma, corr_s, corr_tk)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError,
                ValueError):
            reason = StopReason.FACTOR_FAILURE
            break
        alpha = step(sc.Winvt(dsv), dz_sc, dtau, dkappa)
        if not math.isfinite(alpha) or alpha < 1e-12:
            reason = StopReason.TINY_STEP
            break

        x = x + alpha * dx
        y = y + alpha * dy if p else y
        z = z + alpha * dz
        s = s + alpha * dsv
        tau += alpha * dtau
        kappa += alpha * dkappa
        # no double lies between 0 and the least subnormal, so a margin at
        # least that is > 0 exactly (and a nan fails)
        if (tau <= 0 or kappa < 0 or not layout.margin_at_least(s, math.ulp(0.0))
                or not layout.margin_at_least(z, math.ulp(0.0))):
            # a fraction-to-boundary step can still leave the cone in
            # floating point: the tests stop here on eps-path and trace-cap
            # stages (the golden instance and demo 06 among them), both dual
            # caps of solve_combined_dual, a dual phase 1 and an SOCP
            reason = StopReason.LEFT_CONE
            break

    if best is None:
        raise NumericalFailure("interior-point iteration produced no iterate")
    best.stop_reason = reason
    return best


def _warm_residual(c, G, h, A, b, x, y, s, z) -> float:
    """Relative residual of a warm point in the program being solved: the
    largest of ``|G x + s - h|``, ``|G.T z + A.T y + c|`` and, when there
    are equality rows, ``|A x - b|``, each over ``max(1, |h|)``,
    ``max(1, |c|)`` and ``max(1, |b|)``."""
    def rel(r, d):
        return math.sqrt(r @ r) / max(1.0, math.sqrt(d @ d))

    rho = max(rel(G @ x + s - h, h), rel(G.T @ z + A.T @ y + c, c))
    if A.shape[0]:
        rho = max(rho, rel(A @ x - b, b))
    return rho


def _warm_margin(rho: float, feastol: float) -> float:
    """The push factor of a warm start with relative residual ``rho``:
    ``rho`` itself, capped at ``_WARM_MARGIN``.  A warm point with ``rho <=
    feastol`` (or a non-finite ``rho``) already meets the program to the
    solve's own tolerance, so its residual gives no scale; it is re-centred
    with the full ``_WARM_MARGIN``."""
    if not rho > feastol:
        return _WARM_MARGIN
    return min(_WARM_MARGIN, rho)


def _push_interior(layout: _Layout, v: np.ndarray, e: np.ndarray,
                   push: float) -> np.ndarray:
    """Shift a warm-start cone point into the interior, block by block:
    each block whose smallest eigenvalue lies below ``push (|mean| + 1)``,
    with ``mean`` the block's mean eigenvalue (for nn the mean magnitude of
    its entries), is moved along the identity until it lies there; the
    others are left as they are.  ``push`` comes from :func:`_warm_margin`."""
    out = v.copy()
    for (kind, sl, blocks), margin in zip(layout.runs, layout._block_margins(v)):
        U = _rows(out, sl, blocks)
        if kind == "nn":
            mean = np.mean(np.abs(U), axis=1)
        elif kind == "soc":
            mean = np.abs(U[:, 0])
        else:
            diagonal = np.diag(_svec_index(blocks[0].order)[0])
            mean = U[:, diagonal].sum(axis=1) / blocks[0].order
        target = push * (np.abs(mean) + 1.0)
        low = margin < target
        U[low] += (target - margin)[low, None] * _rows(e, sl, blocks)[low]
    return out


class _KktFactor:
    """Factorization of the reduced Newton system with iterative refinement.

    Solves::

        [0   A.T  G.T ] [ux]   [rx]
        [A   0    0   ] [uy] = [ry]
        [G   0   -WtW ] [uz]   [rz]

    through the scaled rows ``Gs = inv(W).T G``: with ``v = W uz`` the cone
    rows read ``Gs ux - v = inv(W).T rz``, so the (1,1) Schur block is the
    Gram matrix ``Gs.T Gs``, regularized by ``1e-14 I``.  Two factorizations
    share the refinement loop of :meth:`solve`, which refines against the
    unreduced equations for at most ``_REFINE_ROUNDS`` rounds, keeps the
    best of them, and returns as soon as a residual falls below
    ``1e-14 (1 + max|rx|)``.  Each factorization is built once per scaling
    and binds the operators its solves apply (see :class:`_BlockOp`); a
    solve converts its right-hand side once to the residual's dtype:

    * :class:`_QrKkt`, for programs with no psd block: a QR factor of the
      stacked ``[Gs; 1e-7 I]`` gives ``R.T R = Gs.T Gs + 1e-14 I`` without
      forming the Gram matrix, and a second QR handles the equality rows.
      Residuals are taken in double.
    * :class:`_SchurKkt`, for programs with a psd block: each declared
      variable block is eliminated through its scaling and a dense LU
      factors the bordered system left (order ``l`` on the eps-path), with
      residuals in ``longdouble``.  It keeps the eps-path's stages at their
      1e-11 gaps: 0 of the 5040 stages of census seeds 1 and 4-17 end short.

    :func:`_kkt_factory` picks one per cone program from its layout.
    """

    _exact = float    # the dtype of the refinement residual

    def solve(self, rx, ry, rz):
        """The refined solution for the float vectors ``rx``, ``ry`` and
        ``rz``, each converted once to the residual's dtype."""
        every, finite = np.logical_and.reduce, np.isfinite
        if not (every(finite(rx)) and every(finite(rz))):
            raise np.linalg.LinAlgError("non-finite right-hand side")
        exact = self._exact
        rhs = (np.asarray(rx, exact), np.asarray(ry, exact), np.asarray(rz, exact))
        with np.errstate(all="ignore"):
            ux, uy, uz = self._solve_once(rx, ry, rz)
            if not every(finite(ux)):
                raise np.linalg.LinAlgError("singular reduced system")
            best = (ux, uy, uz)
            best_norm = math.inf
            done = 1e-14 * (1.0 + float(np.maximum.reduce(np.abs(rx))))
            for _ in range(_REFINE_ROUNDS):
                e1, e2, e3 = self._residual(*rhs, ux, uy, uz)
                norm = _max_abs(e1, e2, e3)
                if norm < best_norm:
                    best, best_norm = (ux, uy, uz), norm
                if norm < done:
                    # the residual after the loop would repeat this one
                    return best
                cx, cy, cz = self._solve_once(e1.astype(float), e2.astype(float),
                                              e3.astype(float))
                ux, uy, uz = ux + cx, uy + cy, uz + cz
            if _max_abs(*self._residual(*rhs, ux, uy, uz)) < best_norm:
                best = (ux, uy, uz)
        return best


def _max_abs(*parts: np.ndarray) -> float:
    """The largest magnitude over a residual's parts (``nan`` if any is)."""
    return float(np.maximum.reduce(np.abs(np.concatenate(parts))))


def _kkt_factory(G: np.ndarray, A: np.ndarray, layout: _Layout):
    """The factorization every iteration of one solve uses, as a function
    of the scaling: :class:`_QrKkt` when the layout has no psd run, else
    :class:`_SchurKkt` on the :class:`_SchurPlan` of ``G`` built once here."""
    if all(kind != "psd" for kind, _, _ in layout.runs):
        return functools.partial(_QrKkt, G, A)
    return functools.partial(_SchurKkt, _SchurPlan(G, A, layout))


def _scaled_rows(G: np.ndarray, sc: _Scaling) -> np.ndarray:
    Gs = sc.Winvt(G)
    if not np.isfinite(Gs).all():
        raise np.linalg.LinAlgError("scaling overflowed")
    return Gs


class _QrKkt(_KktFactor):
    """QR solve of the reduced system for programs with no psd block.

    ``R`` is the triangle of ``qr([Gs; 1e-7 I])``, so ``R.T R`` is the
    regularized Schur block ``H``; ``B = inv(R).T A.T`` and the triangle
    ``R_B`` of ``qr(B)`` give ``R_B.T R_B = A inv(H) A.T`` without forming
    either product.  A solve is then triangular solves and products:
    ``rzs = inv(W).T rz``, ``t = inv(R).T (rx + Gs.T rzs)``,
    ``R_B.T R_B uy = B.T t - ry``, ``ux = inv(R) (t - B uy)`` and
    ``uz = inv(W) (Gs ux - rzs)``.  Programs with no psd block reach the
    engine's gaps with residuals taken in double.
    """

    def __init__(self, G: np.ndarray, A: np.ndarray, sc: _Scaling):
        self.sc, self.G, self.A = sc, G, A
        self.Gs = _scaled_rows(G, sc)
        nx, self.p = G.shape[1], A.shape[0]
        self.R = np.linalg.qr(np.concatenate([self.Gs, math.sqrt(1e-14) * np.eye(nx)]),
                              mode="r")
        if self.p:
            self.B = self._tri(self.R, A.T, trans="T")
            self.R_B = np.linalg.qr(self.B, mode="r")
        self._WtW = sc.gram()

    @staticmethod
    def _tri(R, v, trans="N"):
        """``inv(R) v`` (``trans="N"``) or ``inv(R).T v`` (``"T"``) for the
        C-ordered upper triangle ``R``: LAPACK ``trtrs`` on ``R.T``, the
        Fortran-ordered lower triangle, exactly as ``solve_triangular``
        calls it (bitwise the same results) minus the wrapper's checks.  A
        zero on the diagonal raises ``LinAlgError``."""
        u, info = _trtrs(R.T, v, lower=1, trans=0 if trans == "T" else 1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular triangle: zero at diagonal {info - 1}")
        if info < 0:
            raise ValueError(f"trtrs rejected argument {-info}")
        return u

    def _solve_once(self, rx, ry, rz):
        rzs = self.sc.Winvt(rz)
        if not np.logical_and.reduce(np.isfinite(rzs)):
            raise np.linalg.LinAlgError("non-finite reduced right-hand side")
        t = self._tri(self.R, rx + self.Gs.T @ rzs, trans="T")
        if self.p:
            w = self._tri(self.R_B, self.B.T @ t - ry, trans="T")
            uy = self._tri(self.R_B, w)
            t = t - self.B @ uy
        else:
            uy = np.zeros(0)
        ux = self._tri(self.R, t)
        uz = self.sc.Winv(self.Gs @ ux - rzs)
        return ux, uy, uz

    def _residual(self, rx, ry, rz, ux, uy, uz):
        e1 = rx - self.G.T @ uz
        if self.p:
            e1 -= self.A.T @ uy
            e2 = ry - self.A @ ux
        else:
            e2 = np.zeros(0)
        e3 = rz - (self.G @ ux - self._WtW(uz))
        return e1, e2, e3


def _positions(mask: np.ndarray):
    """The indices where ``mask`` holds, as a slice when they are one
    stretch, else as an index array."""
    idx = np.flatnonzero(mask)
    if idx.size and idx[-1] - idx[0] + 1 != idx.size:
        return idx
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0)


class _SchurPlan:
    """Where the rows and columns of one cone program go in
    :class:`_SchurKkt`, built once per solve from the declared blocks.

    ``sel`` holds ``(kind, run, part, rows, cols)`` per declared variable
    block and ``dense`` ``(kind, run, part, rows, at)`` per other block:
    ``run`` indexes ``_Layout.runs``, ``part`` picks the block's share of
    that run's scaling in ``_Scaling.runs`` (an entry range of an nn run's
    diagonal, a one-block range of a soc run's stack, the position of a psd
    block in its run's list) and ``at`` its rows in ``GA = [A; G_D]``, the
    equality rows stacked over the dense rows ``G_D = G[dense_rows]``.
    ``GAt`` holds the transposed columns of ``GA`` per variable block,
    ``free`` the columns of no variable block.  ``G_D_l`` (and its
    transpose ``G_D_lt``) and ``A_l`` are the ``longdouble`` copies the
    refinement residual uses."""

    def __init__(self, G: np.ndarray, A: np.ndarray, layout: _Layout):
        self.nx, self.p, self.m = G.shape[1], A.shape[0], G.shape[0]
        self.sel, self.dense = [], []
        free, dense = np.ones(self.nx, dtype=bool), np.zeros(self.m, dtype=bool)
        at = self.p
        for r, (kind, run, blocks) in enumerate(layout.runs):
            for j, blk in enumerate(blocks):
                part = (slice(blk.sl.start - run.start, blk.sl.stop - run.start)
                        if kind == "nn" else j if kind == "psd" else slice(j, j + 1))
                if blk.cols is not None:
                    self.sel.append((kind, r, part, blk.sl, blk.cols))
                    free[blk.cols] = False
                else:
                    self.dense.append((kind, r, part, blk.sl, slice(at, at + blk.dim)))
                    dense[blk.sl] = True
                    at += blk.dim
        self.free, self.nf = _positions(free), int(free.sum())
        self.dense_rows = _positions(dense)
        G_D = G[self.dense_rows]
        self.GA = np.concatenate([A, G_D])
        self.GAt = [np.ascontiguousarray(self.GA[:, cols].T) for *_, cols in self.sel]
        self.G_D_l = G_D.astype(np.longdouble)
        self.G_D_lt = np.ascontiguousarray(self.G_D_l.T)
        self.A_l = A.astype(np.longdouble) if self.p else None


class _SchurKkt(_KktFactor):
    """The reduced system of a program with a psd block as one bordered
    Schur-complement system, with every variable block eliminated.

    A variable block ``b`` (cone rows ``-I`` on its own columns ``x_b``,
    declared in :class:`ConeProgram`) has the cone rows ``-ux_b - Q_b uz_b =
    rz_b`` with ``Q_b = W_b.T W_b``.  With ``w = (uy, v_D)``, the equality
    multipliers over the scaled directions ``v_D = W_D uz_D`` of the other
    (dense) blocks, and ``E = [A; inv(W_D).T G_D]`` the rows those meet,
    the ``x_b`` rows with the ``1e-14 I`` regularization then give::

        ux_b = t_b - Qt_b E_b.T w,   t_b = Qt_b rx_b - inv(I + 1e-14 Q_b) rz_b,

    where ``Qt_b = Q_b inv(I + 1e-14 Q_b)`` is the exact image of
    ``1e-14 I``, and ``E_b`` the columns ``x_b`` of ``E``.  What is left is
    bordered by the free columns ``x_f``::

        [1e-14 I  E_f.T                     ] [ux_f]   [rx_f                          ]
        [E_f      -(J + sum_b E_b Qt_b E_b.T)] [w   ] = [(ry; inv(W_D).T rz_D) - sum E_b t_b]

    with ``J`` the identity on the ``v_D`` rows and zero on the ``uy`` rows,
    so algebraically the full augmented system.  Its order is the free
    columns plus the equality and dense rows: ``l`` (10) on the eps-path,
    ``q + l + 1`` on the trace-cap path.  With no variable block it is the
    full augmented system itself.

    ``Qt_b`` is diagonal in the eigenbasis of ``Q_b``: the identity basis
    and ``w_b ** 2`` on an nn block, and on a psd block the left singular
    vectors ``U`` of ``R``, with ``Q_b: V -> P V P``, ``P = R R.T = U
    diag(s ** 2) U.T``, multiplying entry ``(i, j)`` of ``U.T V U`` by
    ``p_i p_j``.  (The SVD of ``R`` keeps its conditioning; ``eigh(R R.T)``
    would square it.)  ``E_b`` is turned into that basis once per factor,
    so ``sum_b E_b Qt_b E_b.T`` is a Gram matrix of the scaled rows and no
    operator on a block's packed coordinates is formed.  The factor binds,
    once, each psd block's transforms into and out of its eigenbasis (the
    congruences by ``U`` and ``U.T``), ``inv(W_D).T`` and ``inv(W_D)`` on
    the dense rows, and the ``longdouble`` ``W.T W`` of the residual, as
    :class:`_BlockOp` operators or bound congruences.

    Back-substitution is ``ux_b = t_b - Qt_b E_b.T w`` and ``uz_D = inv(W_D)
    v_D``; ``uz_b`` is read off the (regularized) ``x_b`` rows, which hold
    no ``W_b``: ``uz_b = 1e-14 ux_b + A_b.T uy + G_D,b.T uz_D - rx_b``.
    (Taking it as ``-inv(Q_b) (rz_b + ux_b)`` instead cancels ``ux_b``
    against ``rz_b`` and then multiplies the rounding by ``inv(Q_b)``.)

    The refinement residual is accumulated in ``longdouble`` against the
    unreduced equations, with the variable rows entering as the exact
    terms ``-ux_b`` and ``-uz_b``, the dense rows through ``G_D_l`` and
    ``W.T W`` through its congruences.

    The factor and the solves call LAPACK ``getrf`` and ``getrs`` directly:
    the same routines as ``scipy.linalg.lu_factor`` and ``lu_solve``, with
    bitwise the same results, minus the wrappers' per-call checks.  Those
    checks cannot fire here: ``K`` is checked finite before the factor, and
    :meth:`_solve_once` checks its right-hand side itself."""

    _DELTA = 1e-14    # the regularization of the (1,1) block
    _exact = np.longdouble

    def __init__(self, plan: _SchurPlan, sc: _Scaling):
        self.plan = plan
        delta, nf, p = self._DELTA, plan.nf, plan.p
        # inv(W_D).T on the dense rows: in place on E's rows, from rz's rows
        # into w's, and inv(W_D) from w's rows back into uz's
        on_E, from_rz, to_uz = [], [], []
        for kind, r, part, rows, at in plan.dense:
            Finv = sc.runs[r][2][part]
            index = _svec_index(Finv.shape[0]) if kind == "psd" else None
            Finvt = Finv.T if kind == "psd" else Finv
            on_E.append((kind, at, at, Finvt, index))
            from_rz.append((kind, rows, at, Finvt, index))
            to_uz.append((kind, at, rows, Finv, index))
        self._rz_to_w, self._w_to_uz = _BlockOp(from_rz), _BlockOp(to_uz)
        E = plan.GA.copy()
        _BlockOp(on_E)(E, E)
        N = nf + E.shape[0]
        K = np.zeros((N, N))
        S = K[nf:, nf:]
        self._sel = []
        for kind, r, part, rows, cols in plan.sel:
            F = sc.runs[r][1][part]
            if kind == "nn":
                to_basis = from_basis = None
                q = F * F
                Et = E[:, cols]
            else:
                index = _svec_index(F.shape[0])
                U, s, _ = np.linalg.svd(F)
                ss = s * s
                q = np.multiply.outer(ss, ss).ravel()[index[2]]
                to_basis = functools.partial(_congruence, U, index)
                from_basis = functools.partial(_congruence, U.T, index)
                Et = _congruence(U, index, E[:, cols].T,
                                 np.empty((len(q), E.shape[0]))).T
            d = 1.0 + delta * q
            qt, qi = q / d, 1.0 / d
            H = Et * np.sqrt(qt)
            S -= H @ H.T
            self._sel.append((rows, cols, to_basis, from_basis, Et, qt, qi))
        if nf:
            Ef = E[:, plan.free]
            K.flat[:nf * (N + 1):N + 1] = delta
            K[:nf, nf:] = Ef.T
            K[nf:, :nf] = Ef
        K.flat[(nf + p) * (N + 1)::N + 1] -= 1.0
        if not np.isfinite(K).all():
            raise np.linalg.LinAlgError("scaling overflowed")
        # K is symmetric, so its transpose is the Fortran-ordered matrix
        # getrf factors in place.  A zero pivot (info > 0) surfaces as
        # non-finite solves, which the refinement loop and the caller's
        # guards handle.  K is empty when variable blocks are all there is.
        self.lu, self.piv, info = _getrf(K.T, overwrite_a=True) if N else (K, None, 0)
        if info < 0:
            raise ValueError(f"getrf rejected argument {-info}")
        self._WtW_l = sc.gram(np.longdouble)

    def _solve_once(self, rx, ry, rz):
        plan = self.plan
        nf, p = plan.nf, plan.p
        rhs = np.empty(self.lu.shape[0])
        ux, uz = np.empty(plan.nx), np.empty(plan.m)
        if nf:
            rhs[:nf] = rx[plan.free]
        w = rhs[nf:]
        w[:p] = ry
        self._rz_to_w(rz, w)
        ts = []
        for rows, cols, to_basis, _, Et, qt, qi in self._sel:
            if to_basis is None:
                t = qt * rx[cols] - qi * rz[rows]
            else:
                t = qt * to_basis(rx[cols]) - qi * to_basis(rz[rows])
            w -= Et @ t
            ts.append(t)
        if not np.logical_and.reduce(np.isfinite(rhs)):
            raise np.linalg.LinAlgError("non-finite reduced right-hand side")
        sol = _getrs(self.lu, self.piv, rhs, overwrite_b=True)[0] if rhs.size else rhs
        if nf:
            ux[plan.free] = sol[:nf]
        w = sol[nf:]
        self._w_to_uz(w, uz)
        wz = np.concatenate([w[:p], uz[plan.dense_rows]]) if p else uz[plan.dense_rows]
        for (rows, cols, _, from_basis, Et, qt, _), t, GAt in zip(self._sel, ts, plan.GAt):
            u = t - qt * (w @ Et)
            ux[cols] = u if from_basis is None else from_basis(u)
            # the x_b rows: 1e-14 ux_b + A_b.T uy + G_D,b.T uz_D - uz_b = rx_b
            ub = uz[rows]
            GAt.dot(wz, out=ub)
            ub -= rx[cols]
            ub += self._DELTA * ux[cols]
        return ux, w[:p], uz

    def _residual(self, rx, ry, rz, ux, uy, uz):
        plan = self.plan
        long = np.longdouble
        ux_l, uz_l = ux.astype(long), uz.astype(long)
        # ndarray.dot, not @: for longdouble both sum each entry's products
        # in index order from zero, so the results are the same to the bit,
        # but matmul's generic loop takes two to three times as long.  The
        # right-hand side comes converted from solve (float ones promote to
        # longdouble exactly)
        e1 = rx - plan.G_D_lt.dot(uz_l[plan.dense_rows])
        for rows, cols, *_ in self._sel:
            e1[cols] += uz_l[rows]
        if plan.p:
            e1 -= plan.A_l.T.dot(uy.astype(long))
            e2 = ry - plan.A_l.dot(ux_l)
        else:
            e2 = np.zeros(0)
        # rz - G ux + W.T W uz: G ux through G_D_l on the dense rows and as
        # -ux_b on the rows of each variable block
        e3 = rz + self._WtW_l(uz_l)
        e3[plan.dense_rows] -= plan.G_D_l.dot(ux_l)
        for rows, cols, *_ in self._sel:
            e3[rows] += ux_l[cols]
        return e1, e2, e3
