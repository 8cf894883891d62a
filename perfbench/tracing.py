"""Spans at sdpack's module boundaries, recorded from outside the library.

A :class:`Tracer` replaces each public name in :data:`BOUNDARIES` with a
timing wrapper, on the module where its callers look it up (``solve.py``
imports ``solve_cone_program`` and ``check_bounded`` by name, so those are
wrapped on ``sdpack.solve`` as well as on their home modules).  Wrappers
are installed only around a traced call and removed after it, so untraced
calls run the library untouched.

Spans are kept in memory.  Every span records its parent, so the spans of
one top-level call form a tree; its self time is its duration minus the
durations of its direct children.  A layer's time counts only the spans
that are outermost in that layer, so nested calls inside one module are
not counted twice.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, name, layer); the layer is the module's short name
BOUNDARIES = (
    ("sdpack.solve", "solve_cone_program", "conelp"),
    ("sdpack.reduce", "solve_cone_program", "conelp"),
    ("sdpack.solve", "solve_packing_lowrank", "solve"),
    ("sdpack.solve", "solve_sdp", "solve"),
    ("sdpack.solve", "solve_socp", "solve"),
    ("sdpack.solve", "solve_dual_packing", "solve"),
    ("sdpack.solve", "solve_combined_eta", "solve"),
    ("sdpack.solve", "solve_combined_dual", "solve"),
    ("sdpack.solve", "recover_design", "solve"),
    ("sdpack.solve", "kkt_check", "solve"),
    ("sdpack.solve", "check_feasible", "analysis"),
    ("sdpack.solve", "check_bounded", "analysis"),
    ("sdpack.analysis", "check_feasible", "analysis"),
    ("sdpack.analysis", "check_bounded", "analysis"),
    ("sdpack.analysis", "dual_scalar_bound", "analysis"),
    ("sdpack.analysis", "nrt_bound", "analysis"),
    ("sdpack.analysis", "barvinok_pataki", "analysis"),
    ("sdpack.reduce", "project_packing", "reduce"),
    ("sdpack.reduce", "lift_solution", "reduce"),
    ("sdpack.reduce", "embed_dual", "reduce"),
    ("sdpack.reduce", "to_socp_rank1", "reduce"),
    ("sdpack.reduce", "combined_to_socp", "reduce"),
    ("sdpack.reduce", "build_c_optimal", "reduce"),
    ("sdpack.reduce", "build_a_optimal", "reduce"),
    ("sdpack.reduce", "build_e_optimal", "reduce"),
    ("sdpack.reduce", "build_resource_constrained", "reduce"),
    # the eigen-based helpers only; symmetrize is too cheap to time
    ("sdpack.linalg", "eigh_desc", "linalg"),
    ("sdpack.linalg", "rank_tol", "linalg"),
    ("sdpack.linalg", "is_psd", "linalg"),
    ("sdpack.linalg", "range_basis", "linalg"),
    ("sdpack.linalg", "null_basis", "linalg"),
    ("sdpack.linalg", "psd_factor", "linalg"),
    ("sdpack.linalg", "pinv", "linalg"),
    ("sdpack.model", "parse_problem", "model"),
    ("sdpack.cli", "main", "cli"),
)

BUILDERS = ("to_socp_rank1", "combined_to_socp", "build_c_optimal",
            "build_a_optimal", "build_e_optimal", "build_resource_constrained")


def _info(name: str, out):
    """What a span keeps of its call's result."""
    if name == "solve_cone_program":
        return {"iterations": int(out.iterations), "status": out.status}
    if name == "kkt_check":
        return {"passed": bool(out[1])}
    if name == "solve_packing_lowrank":
        return {"stages": len(out.path_values)}
    if name == "solve_combined_eta":
        return {"stages": len(out.gamma)}
    return None


class Tracer:
    """Records spans while active (``with tracer:``); one ``with`` block is
    one top-level call."""

    def __init__(self):
        # (call, parent, layer, name, t0, t1, info); parent -1 at the root
        self.spans: list = []
        self.calls = 0
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        for modname, name, layer in BOUNDARIES:
            module = sys.modules[modname]
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, layer, name))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        self.calls += 1
        return False

    def _wrap(self, fn, layer, name):
        spans, stack, clock, call = self.spans, self._stack, time.perf_counter, self.calls

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (call, parent, layer, name, t0, clock(),
                              {"raised": type(exc).__name__})
                raise
            finally:
                stack.pop()
            spans[idx] = (call, parent, layer, name, t0, clock(), _info(name, out))
            return out

        return traced


UNITS = {
    "conelp.s": "s/call", "conelp.share": "fraction",
    "conelp.solves": "1/call", "conelp.iterations": "1/call",
    "conelp.iters_per_solve": "1/solve", "conelp.ms_per_iter": "ms",
    "conelp.nonoptimal_frac": "fraction",
    "solve.self_s": "s/call", "solve.stages_per_call": "1/call",
    "solve.kkt_check_calls": "1/call", "solve.kkt_check_s": "s/call",
    "solve.polish_frac": "fraction",
    "reduce.project_s": "s/call", "reduce.build_s": "s/call",
    "reduce.calls": "1/call",
    "analysis.s": "s/call", "analysis.calls": "1/call",
    "linalg.s": "s/call", "linalg.calls": "1/call",
    "model.parse_s": "s/call", "cli.self_s": "s/call",
    "trace.overhead_frac": "fraction",
}


def summarize(spans: list, calls: int, traced_s: float,
              untraced_s: float) -> dict:
    """Per-layer metrics of the traced calls.

    Times and counts are per top-level call; ``conelp.share`` is a share
    of the traced calls' wall time and ``trace.overhead_frac`` compares it
    with the untraced wall time of the same calls.
    """
    dur = [s[5] - s[4] for s in spans]
    child_s = [0.0] * len(spans)
    children = defaultdict(list)
    # layers of each span's ancestors; parents precede their children
    above: list = []
    for i, (_, parent, layer, _, _, _, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += dur[i]
            children[parent].append(i)
            above.append(above[parent] | {spans[parent][2]})
        else:
            above.append(frozenset())

    def outer(layer, names=None):
        return [i for i, s in enumerate(spans) if s[2] == layer
                and layer not in above[i] and (names is None or s[3] in names)]

    def total(idx):
        return sum(dur[i] for i in idx)

    cone = outer("conelp")
    iters = sum(spans[i][6]["iterations"] for i in cone if "iterations" in spans[i][6])
    cone_s = total(cone)
    solve = [i for i, s in enumerate(spans) if s[2] == "solve"]
    kkt = [i for i in solve if spans[i][3] == "kkt_check"]
    lowrank = [i for i in solve if spans[i][3] == "solve_packing_lowrank"]
    polished = 0
    for i in lowrank:
        first = next((j for j in children[i] if spans[j][3] == "kkt_check"), None)
        if first is not None and not spans[first][6].get("passed", True):
            polished += 1
    stages = sum(spans[i][6]["stages"] for i in solve
                 if spans[i][6] and "stages" in spans[i][6])
    cli = [i for i, s in enumerate(spans) if s[2] == "cli"]
    per = 1.0 / max(calls, 1)
    return {
        "conelp.s": cone_s * per,
        "conelp.share": cone_s / traced_s if traced_s > 0 else 0.0,
        "conelp.solves": len(cone) * per,
        "conelp.iterations": iters * per,
        "conelp.iters_per_solve": iters / len(cone) if cone else 0.0,
        "conelp.ms_per_iter": 1e3 * cone_s / iters if iters else 0.0,
        "conelp.nonoptimal_frac": (sum(spans[i][6].get("status") != "optimal"
                                       for i in cone) / len(cone)) if cone else 0.0,
        "solve.self_s": sum(dur[i] - child_s[i] for i in solve
                            if spans[i][3] != "kkt_check") * per,
        "solve.stages_per_call": stages * per,
        "solve.kkt_check_calls": len(kkt) * per,
        "solve.kkt_check_s": total(kkt) * per,
        "solve.polish_frac": polished / len(lowrank) if lowrank else 0.0,
        "reduce.project_s": total(outer("reduce", ("project_packing",))) * per,
        "reduce.build_s": total(outer("reduce", BUILDERS)) * per,
        "reduce.calls": len(outer("reduce")) * per,
        "analysis.s": total(outer("analysis")) * per,
        "analysis.calls": len(outer("analysis")) * per,
        "linalg.s": total(outer("linalg")) * per,
        "linalg.calls": len(outer("linalg")) * per,
        "model.parse_s": total(outer("model")) * per,
        "cli.self_s": sum(dur[i] - child_s[i] for i in cli) * per,
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0,
    }
