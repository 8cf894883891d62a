"""Ledger of benchmark pairs: parent and change runs of ``perfbench/run.py``.

    python3 tools/bench_ledger.py --parent P1.json P2.json ... \
                                  --change C1.json C2.json ... -o BENCH_<label>.json

Each file is the record that ``perfbench/run.py --trace 0`` writes to
``perfbench/results/<workload>-seed<seed>-trace0.json``, copied aside after
each run (the next run of the same workload and seed overwrites it).  The
i-th parent and the i-th change file of a workload and seed, in the order
given, form one pair; run them at the same time or alternate their order,
so that both sides of a pair see the same machine.

For every workload and seed (keyed ``<workload>/seed<N>``) and every
end-to-end metric of ``BENCHMARK.json`` the ledger records the pair count,
the per-pair values, how many pairs the change wins (by the metric's
``better`` direction), both sides' medians and quartiles, the parent's
interquartile range, and whether the change's median lies beyond the
parent's median by more than that range.  It also records the machine
(nproc, BLAS threads) and both sides' git and source shas.  Per-layer
metrics are left out: they are means per call, and a time-bounded run of a
faster commit covers a different mix of calls, so they do not compare like
with like.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(paths):
    """Records by workload and seed, in the order given."""
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("trace") != 0:
            raise SystemExit(f"{path}: not an untraced (--trace 0) run")
        runs.setdefault(f"{doc['workload']}/seed{doc['seed']}", []).append(doc)
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _side(runs, key):
    """What the ledger keeps of one side's environment."""
    envs = [r["environment"] for r in runs]
    return sorted({str(e.get(key)) for e in envs})


def metric_entry(parent, change, better):
    pairs = list(zip(parent, change))
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in pairs)
    pq1, pmed, pq3 = _quartiles(parent)
    cq1, cmed, cq3 = _quartiles(change)
    iqr = pq3 - pq1
    gain = (cmed - pmed) if better == "higher" else (pmed - cmed)
    return {
        "pairs": len(pairs),
        "parent": parent,
        "change": change,
        "wins": wins,
        "parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
        "parent_iqr": iqr,
        "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
        "median_ratio": (cmed / pmed) if pmed else None,
        "beyond_parent_iqr": gain > iqr,
    }


def ledger(parent_paths, change_paths, label: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    parent, change = _load(parent_paths), _load(change_paths)
    if sorted(parent) != sorted(change):
        raise SystemExit("parent and change runs cover different workloads or seeds")
    out = {"label": label, "workloads": {}}
    for key in sorted(parent):
        p_runs, c_runs = parent[key], change[key]
        if len(p_runs) != len(c_runs):
            raise SystemExit(f"{key}: {len(p_runs)} parent runs, "
                             f"{len(c_runs)} change runs")
        runs = p_runs + c_runs
        out["workloads"][key] = {
            "seconds": sorted({r["seconds"] for r in runs}),
            "nproc": _side(runs, "nproc"),
            "blas_threads": _side(runs, "blas_threads"),
            "parent_git_sha": _side(p_runs, "git_sha"),
            "change_git_sha": _side(c_runs, "git_sha"),
            "parent_src_sha256": _side(p_runs, "src_sha256"),
            "change_src_sha256": _side(c_runs, "src_sha256"),
            "metrics": {name: metric_entry([r["metrics"][name] for r in p_runs],
                                           [r["metrics"][name] for r in c_runs],
                                           better)
                        for name, better in metrics.items()},
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", nargs="+", required=True, metavar="FILE")
    p.add_argument("--change", nargs="+", required=True, metavar="FILE")
    p.add_argument("--label", default="")
    p.add_argument("-o", "--output", default=None,
                   help="write the ledger here instead of stdout")
    args = p.parse_args(argv)
    doc = ledger(args.parent, args.change, args.label)
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
