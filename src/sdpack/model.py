"""Problem and solution data types with JSON serialization.

Documents are plain JSON objects with a top-level ``"kind"`` discriminator:

* ``"packing"``   -- ``{"C": [[..]], "constraints": [{"M": [[..]], "b": x}]}``
* ``"combined"``  -- packing fields plus ``"R0"``, ``"R"``, ``"h0"``, ``"h"``
  (and optionally a redundant ``"H"``, validated against the ``h`` columns)
* ``"design"``    -- ``{"A": [[[..]]] | "M": [[[..]]], "K": [[..]],
  "criterion": "c"|"a"|"e", "resource": {"P": [[..]], "d": [..]}}``

Matrices are dense row-major arrays of doubles; ``json.dumps`` emits the
shortest exact decimal representation, so a parse/serialize round trip
reproduces every entry bit for bit.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, SchemaError, ValidationError


class Status(str, enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"
    ASYMPTOTIC_SUP = "asymptotic_sup"
    NEAR_UNATTAINED = "near_unattained"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class KktResiduals:
    """Max-norm residuals of the three optimality blocks."""

    primal: float
    dual: float
    complementarity: float

    def max(self) -> float:
        return max(self.primal, self.dual, self.complementarity)

    def passes(self, tol: float, scale: float = 1.0) -> bool:
        return self.max() <= tol * scale


@dataclass(frozen=True)
class PackingProblem:
    """Data of ``max <C, X> s.t. <M_i, X> <= b_i, X PSD`` with C, M_i PSD.
    ``stack``, the ``mats`` as one ``(l, n, n)`` array, is built once, on
    first use: a problem's arrays are not to change after it is built."""

    C: np.ndarray
    mats: tuple[np.ndarray, ...]
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def l(self) -> int:
        return len(self.mats)

    @functools.cached_property
    def stack(self) -> np.ndarray:
        if not self.mats:  # the sum of no matrices is the scalar 0
            raise DimensionMismatch("expected a square matrix, got shape ()")
        return np.stack(self.mats).astype(float, copy=False)

    def mat_sum(self) -> np.ndarray:
        return linalg.symmetrize(self.stack.sum(0))


@dataclass(frozen=True)
class CombinedProblem:
    """Packing data extended with a second PSD variable and free variables.

    Constraints read ``<M_i, X> <= b_i + <R_i, Y> + h_i . lam`` with objective
    ``<C, X> + <R0, Y> + h0 . lam``.  The ``R`` matrices are symmetric but not
    required PSD; ``H`` stacks the ``h_i`` as columns (q x l), kept redundantly
    and validated consistent.
    """

    C: np.ndarray
    mats: tuple[np.ndarray, ...]
    b: np.ndarray
    R0: np.ndarray
    Rs: tuple[np.ndarray, ...]
    h0: np.ndarray
    hs: tuple[np.ndarray, ...]
    H: np.ndarray

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def l(self) -> int:
        return len(self.mats)

    @property
    def p(self) -> int:
        return self.R0.shape[0]

    @property
    def q(self) -> int:
        return self.h0.shape[0]


@dataclass(frozen=True)
class ResourceBlock:
    """Linear resource constraints ``P w <= d`` with ``P`` entrywise nonnegative."""

    P: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        if np.any(self.P < 0):
            idx = tuple(np.argwhere(self.P < 0)[0].tolist())
            raise ValidationError(f"resource.P has a negative entry at {idx}",
                                  witness=idx)


class Criterion(str, enum.Enum):
    C_OPT = "c"
    A_OPT = "a"
    E_OPT = "e"


@dataclass(frozen=True)
class DesignProblem:
    """Experimental-design data: observation maps and target functionals.

    Either the observation matrices ``obs[i]`` (rows x n) or the information
    matrices ``mats[i] = obs[i].T @ obs[i]`` may be given; when both are
    present they are validated against each other.  ``K`` holds the target
    functionals as columns (n x r).
    """

    K: np.ndarray
    criterion: Criterion
    obs: tuple[np.ndarray, ...] | None = None
    mats: tuple[np.ndarray, ...] = ()
    resource: ResourceBlock | None = None

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @property
    def r(self) -> int:
        return self.K.shape[1]

    @property
    def l(self) -> int:
        return len(self.mats)


@dataclass(frozen=True)
class Solution:
    """Primal/dual solution of a packing problem.

    ``route`` records how the solution was produced ("socp", "eps-path",
    "direct", "trivial"); ``path_values`` the objective sequence of a
    perturbation path when one was followed.
    """

    X: np.ndarray
    objective: float
    numerical_rank: int
    mu: np.ndarray
    status: Status
    kkt_residuals: KktResiduals | None = None
    route: str = ""
    path_values: tuple[float, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class CombinedSolution:
    """Solution of a combined problem, with the trace-cap path values."""

    X: np.ndarray
    Y: np.ndarray
    lam: np.ndarray
    objective: float
    status: Status
    gamma: tuple[float, ...] = field(default_factory=tuple)
    ranks: tuple[int, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# parsing


def _need(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"missing required key {key!r}")
    return doc[key]


def _as_array(obj, key: str, ndim: int = 2) -> np.ndarray:
    """A finite numeric field of ``ndim`` dimensions (1 for a vector)."""
    try:
        a = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        what = "matrix" if ndim == 2 else "vector"
        raise SchemaError(f"{key}: not a numeric {what}") from exc
    if a.ndim != ndim:
        raise SchemaError(f"{key}: expected a {ndim}-d array, got {a.ndim}-d")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{key}: non-finite entries", witness=key)
    return a


def _as_list(obj, key: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{key}: expected a list, got {type(obj).__name__}")
    return obj


def _each(items: list, key: str, parse, dim: int) -> tuple:
    """``parse(item, "key[i]")`` of every item in order, each checked to
    have ``dim`` rows before the next is parsed."""
    out = []
    for i, item in enumerate(items):
        a = parse(item, f"{key}[{i}]")
        if a.shape[0] != dim:
            raise ValidationError(f"{key}[{i}]: dimension {a.shape[0]} != {dim}",
                                  witness=(a.shape[0], dim))
        out.append(a)
    return tuple(out)


def _sym_or_empty(obj, key: str) -> np.ndarray:
    """A symmetric matrix field, where null or an empty list stands for
    order 0."""
    if obj is None or (isinstance(obj, list) and not obj):
        return np.zeros((0, 0))
    return linalg.symmetrize(_as_array(obj, key))


def _sym_psd(obj, key: str) -> np.ndarray:
    m = linalg.symmetrize(_as_array(obj, key))
    ok, witness = linalg.is_psd(m)
    if not ok:
        raise ValidationError(f"{key}: not positive semidefinite "
                              f"(min eigenvalue {witness:.3e})", witness=witness)
    return m


def _parse_packing_fields(doc: dict) -> tuple[np.ndarray, tuple, np.ndarray]:
    C = _sym_psd(_need(doc, "C"), "C")
    rows = _need(doc, "constraints")
    if not isinstance(rows, list) or len(rows) < 1:
        raise SchemaError("constraints: expected a non-empty list")
    mats, b = [], []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise SchemaError(f"constraints[{i}]: expected an object")
        m = _sym_psd(_need(row, "M"), f"constraints[{i}].M")
        if m.shape != C.shape:
            raise ValidationError(
                f"constraints[{i}].M: dimension {m.shape[0]} != {C.shape[0]}",
                witness=(m.shape[0], C.shape[0]))
        mats.append(m)
        bi = _need(row, "b")
        if isinstance(bi, bool) or not isinstance(bi, (int, float)) \
                or not np.isfinite(bi):
            raise SchemaError(f"constraints[{i}].b: expected a finite number")
        b.append(float(bi))
    return C, tuple(mats), np.asarray(b)


def _parse_packing(doc: dict) -> PackingProblem:
    C, mats, b = _parse_packing_fields(doc)
    return PackingProblem(C=C, mats=mats, b=b)


def _parse_combined(doc: dict) -> CombinedProblem:
    C, mats, b = _parse_packing_fields(doc)
    l = len(mats)

    R0 = _sym_or_empty(doc.get("R0"), "R0")
    p = R0.shape[0]
    rs_doc = doc.get("R")
    if rs_doc is None:
        Rs = tuple(np.zeros((p, p)) for _ in range(l))
    else:
        if len(_as_list(rs_doc, "R")) != l:
            raise ValidationError(f"R: expected {l} matrices, got {len(rs_doc)}",
                                  witness=(len(rs_doc), l))
        Rs = _each(rs_doc, "R", _sym_or_empty, p)

    h0 = _as_array(doc.get("h0", []), "h0", 1)
    q = h0.shape[0]
    hs_doc = doc.get("h")
    H_doc = None
    if doc.get("H") is not None:
        H_doc = doc["H"]
        H_doc = (np.zeros((q, l)) if isinstance(H_doc, list) and not H_doc
                 else _as_array(H_doc, "H"))
        if H_doc.shape != (q, l):
            raise ValidationError(f"H: shape {H_doc.shape} != ({q}, {l})",
                                  witness=(H_doc.shape, (q, l)))
        if hs_doc is None:
            hs_doc = [list(H_doc[:, j]) for j in range(l)]
    if hs_doc is None:
        hs = tuple(np.zeros(q) for _ in range(l))
    else:
        if len(_as_list(hs_doc, "h")) != l:
            raise ValidationError(f"h: expected {l} vectors, got {len(hs_doc)}",
                                  witness=(len(hs_doc), l))
        hs = _each(hs_doc, "h", lambda v, key: _as_array(v, key, 1), q)

    H = np.column_stack(hs) if l and q else np.zeros((q, l))
    if H_doc is not None and not np.array_equal(H_doc, H):
        j = int(np.argmax(np.any(H_doc != H, axis=0)))
        raise ValidationError(f"H column {j} does not equal h[{j}]", witness=j)
    return CombinedProblem(C=C, mats=mats, b=b, R0=R0, Rs=Rs, h0=h0, hs=hs, H=H)


def _parse_design(doc: dict) -> DesignProblem:
    K = _as_array(_need(doc, "K"), "K")
    if K.shape[1] < 1:
        raise ValidationError("K: needs at least one column", witness=K.shape)
    n = K.shape[0]

    crit_doc = _need(doc, "criterion")
    try:
        criterion = Criterion(crit_doc)
    except ValueError:
        raise SchemaError(f"criterion: expected one of 'c', 'a', 'e', got {crit_doc!r}")
    if criterion is Criterion.C_OPT and K.shape[1] != 1:
        raise ValidationError("criterion 'c' requires a single target column",
                              witness=K.shape[1])

    obs = None
    if doc.get("A") is not None:
        obs = []
        for i, ai in enumerate(_as_list(doc["A"], "A")):
            a = _as_array(ai, f"A[{i}]")
            if a.shape[1] != n:
                raise ValidationError(f"A[{i}]: {a.shape[1]} columns != {n}",
                                      witness=(a.shape[1], n))
            obs.append(a)
        obs = tuple(obs)

    if doc.get("M") is not None:
        mats = _each(_as_list(doc["M"], "M"), "M", _sym_psd, n)
        if obs is not None:
            if len(obs) != len(mats):
                raise ValidationError("A and M have different lengths",
                                      witness=(len(obs), len(mats)))
            for i, (a, m) in enumerate(zip(obs, mats)):
                err = float(np.linalg.norm(a.T @ a - m))
                if err > 1e-8 * max(1.0, float(np.linalg.norm(m))):
                    raise ValidationError(
                        f"A[{i}].T @ A[{i}] differs from M[{i}] by {err:.3e}",
                        witness=err)
    elif obs is not None:
        mats = tuple(linalg.symmetrize(a.T @ a) for a in obs)
    else:
        raise SchemaError("design document needs 'A' or 'M'")
    if len(mats) < 1:
        raise SchemaError("design document needs at least one experiment")

    resource = None
    if doc.get("resource") is not None:
        res = doc["resource"]
        if not isinstance(res, dict):
            raise SchemaError("resource: expected an object with 'P' and 'd'")
        P = _as_array(_need(res, "P"), "resource.P")
        d = _as_array(_need(res, "d"), "resource.d", 1)
        if P.shape[1] != len(mats):
            raise ValidationError(f"resource.P: {P.shape[1]} columns != {len(mats)}",
                                  witness=(P.shape[1], len(mats)))
        if P.shape[0] != d.shape[0]:
            raise ValidationError("resource: P rows != d length",
                                  witness=(P.shape[0], d.shape[0]))
        resource = ResourceBlock(P=P, d=d)

    return DesignProblem(K=K, criterion=criterion, obs=obs, mats=mats,
                         resource=resource)


_PROBLEM_PARSERS = {
    "packing": _parse_packing,
    "combined": _parse_combined,
    "design": _parse_design,
}


def parse_problem(text) -> PackingProblem | CombinedProblem | DesignProblem:
    """Parse a JSON document (string or dict) into a validated problem."""
    doc = _load(text)
    kind = _need(doc, "kind")
    parser = _PROBLEM_PARSERS.get(kind) if isinstance(kind, str) else None
    if parser is None:
        raise SchemaError(f"unknown problem kind {kind!r}")
    return parser(doc)


def parse_solution(text) -> Solution | CombinedSolution:
    """Parse a JSON solution document.  A field of the wrong type, or a
    required one missing, raises :class:`SchemaError`."""
    doc = _load(text)
    kind = _need(doc, "kind")
    if kind == "solution":
        kkt = None
        r = doc.get("kkt_residuals")
        if r is not None:
            if not isinstance(r, dict):
                raise SchemaError("kkt_residuals: expected an object, "
                                  f"got {type(r).__name__}")
            keys = ("primal", "dual", "complementarity")
            missing = [key for key in keys if key not in r]
            if missing:
                raise SchemaError(f"kkt_residuals: missing required key {missing[0]!r}")
            kkt = KktResiduals(*(_number(r[key], f"kkt_residuals.{key}") for key in keys))
        status = _status(_need(doc, "status"))
        obj_val = _need(doc, "objective")
        if obj_val is None:
            obj_val = math.inf if status is Status.UNBOUNDED else math.nan
        return Solution(
            X=linalg.symmetrize(_as_array(_need(doc, "X"), "X")),
            objective=_number(obj_val, "objective"),
            numerical_rank=_integer(_need(doc, "numerical_rank"), "numerical_rank"),
            mu=_as_array(_need(doc, "mu"), "mu", 1),
            status=status,
            kkt_residuals=kkt)
    if kind == "combined_solution":
        y = doc.get("Y")
        return CombinedSolution(
            X=linalg.symmetrize(_as_array(_need(doc, "X"), "X")),
            Y=(linalg.symmetrize(_as_array(y, "Y")) if y else np.zeros((0, 0))),
            lam=_as_array(doc.get("lambda", []), "lambda", 1),
            objective=_number(_need(doc, "objective"), "objective"),
            status=_status(_need(doc, "status")),
            gamma=tuple(_number(g, f"gamma[{i}]")
                        for i, g in enumerate(_as_list(doc.get("gamma", []), "gamma"))),
            ranks=tuple(_integer(r, f"ranks[{i}]")
                        for i, r in enumerate(_as_list(doc.get("ranks", []), "ranks"))))
    raise SchemaError(f"unknown solution kind {kind!r}")


def _number(obj, key: str) -> float:
    """A JSON number (not a bool) as a float."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SchemaError(f"{key}: expected a number, got {type(obj).__name__}")
    try:
        return float(obj)
    except OverflowError as exc:
        raise SchemaError(f"{key}: {obj} is out of range") from exc


def _integer(obj, key: str) -> int:
    """A JSON integer (not a bool, not a fraction)."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise SchemaError(f"{key}: expected an integer, got {type(obj).__name__}")
    return obj


def _status(obj) -> Status:
    try:
        return Status(obj)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"status: unknown status {obj!r}") from exc


def _load(text) -> dict:
    if isinstance(text, dict):
        return text
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    return doc


# ---------------------------------------------------------------------------
# serialization


def _mat(a: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(a)]


def _vec(a: np.ndarray) -> list:
    return [float(v) for v in np.asarray(a)]


def _kkt_doc(k: KktResiduals | None) -> dict | None:
    if k is None:
        return None
    return {"primal": k.primal, "dual": k.dual,
            "complementarity": k.complementarity}


def to_document(obj) -> dict:
    """Convert a problem or solution to a JSON-ready dict."""
    if isinstance(obj, (PackingProblem, CombinedProblem)):
        doc = {
            "kind": "packing",
            "C": _mat(obj.C),
            "constraints": [{"M": _mat(m), "b": float(bi)}
                            for m, bi in zip(obj.mats, obj.b)],
        }
        if isinstance(obj, CombinedProblem):
            doc.update(kind="combined", R0=_mat(obj.R0), R=[_mat(r) for r in obj.Rs],
                       h0=_vec(obj.h0), h=[_vec(h) for h in obj.hs], H=_mat(obj.H))
        return doc
    if isinstance(obj, DesignProblem):
        doc = {
            "kind": "design",
            "K": _mat(obj.K),
            "criterion": obj.criterion.value,
            "M": [_mat(m) for m in obj.mats],
        }
        if obj.obs is not None:
            doc["A"] = [_mat(a) for a in obj.obs]
        if obj.resource is not None:
            doc["resource"] = {"P": _mat(obj.resource.P), "d": _vec(obj.resource.d)}
        return doc
    if isinstance(obj, Solution):
        obj_val = float(obj.objective)
        doc = {
            "kind": "solution",
            "X": _mat(obj.X),
            "objective": obj_val if math.isfinite(obj_val) else None,
            "numerical_rank": int(obj.numerical_rank),
            "mu": _vec(obj.mu),
            "status": obj.status.value,
        }
        if obj.kkt_residuals is not None:
            doc["kkt_residuals"] = _kkt_doc(obj.kkt_residuals)
        return doc
    if isinstance(obj, CombinedSolution):
        return {
            "kind": "combined_solution",
            "X": _mat(obj.X),
            "Y": _mat(obj.Y),
            "lambda": _vec(obj.lam),
            "objective": float(obj.objective),
            "status": obj.status.value,
            "gamma": [float(g) for g in obj.gamma],
            "ranks": [int(r) for r in obj.ranks],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize(obj) -> str:
    """JSON text for a problem or solution; stable key order."""
    return json.dumps(to_document(obj), indent=2, sort_keys=True)
