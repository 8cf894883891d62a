"""sdpack benchmark: one seeded workload, timed, with every answer checked.

    python3 perfbench/run.py --workload lowrank_path --seed 1 --seconds 35 --trace 0

Run from the root of a source tree; the library is imported from ``src/``.
Each workload is a closed loop: one caller, each call starting after the
previous one returned, until ``--seconds`` of wall time (calls and their
untimed checks) have passed.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record (environment, setup samples, every call,
and for traced runs every span) goes to ``perfbench/results/``.

With ``--trace 1`` the calls alternate between untraced and traced runs of
the same case, so ``trace.overhead_frac`` compares like with like.
"""

import os
import sys
import time

# BLAS and OpenMP pools read these once, when numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# the CLI reads its default tolerance from here; inputs come from the seed only
os.environ.pop("SDPACK_TOL", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("lowrank_path", "socp_design", "cli_batch")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# set-up


def prepare(workload: str, seed: int, workdir: str):
    """Imports, inputs, files and one untimed warm-up call: everything
    between process start and the first timed call."""
    import workloads

    tap = None
    if workload == "cli_batch":
        tap = workloads.SolutionTap()
        warmup, cases = workloads.cli_batch(seed, workdir, tap)
    else:
        warmup, cases = getattr(workloads, workload)(seed)
    warmup.run()
    return cases, tap


def make_workdir(workload: str) -> str:
    base = os.path.join(HERE, ".work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{workload}-", dir=base)


def setup_probe(args) -> int:
    """Child process of :func:`measure_setup`: set up, report the wall-clock
    time at which the first timed call would start, clean up."""
    workdir = make_workdir(args.workload)
    try:
        prepare(args.workload, args.seed, workdir)
        print(f"ready {time.time()!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to the point where it would
    make its first timed call.  Both ends read the system's wall clock, the
    one clock two processes share."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=PROBE_TIMEOUT_S, check=False)
    word, _, stamp = out.stdout.strip().partition(" ")
    if out.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed (exit code {out.returncode})")
    return float(stamp) - t0


# ---------------------------------------------------------------------------
# environment


def _openblas():
    """(version string, thread count) of the OpenBLAS numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                cfg = getattr(lib, f"{prefix}_get_config{suffix}")
                nthr = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            cfg.restype, cfg.argtypes = ctypes.c_char_p, []
            nthr.restype, nthr.argtypes = ctypes.c_int, []
            return cfg().decode(), int(nthr())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}", None


def _git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sdpack")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    blas, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measurement


def timed(case):
    """Wall time of one call; an exception is the call's result."""
    t0 = time.perf_counter()
    try:
        out = case.run()
    except Exception as exc:  # a raising call is a failed call, not a crash
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, out, None


def verdict_of(case, out, exc):
    import checks

    if exc is not None:
        return checks.fail(f"raised {type(exc).__name__}: {exc}")
    try:
        return case.check(out)
    except Exception as err:  # the reference solve or the check itself broke
        return checks.fail(f"check raised {type(err).__name__}: {err}")


def record(case, seconds, verdict, traced=None) -> dict:
    rec = {"case": case.label, "seconds": seconds, "failed": verdict.failed,
           "uncertified": verdict.uncertified, "over_rank": verdict.over_rank,
           "digits": verdict.digits}
    if verdict.reason:
        rec["reason"] = verdict.reason
    if traced is not None:
        rec["traced"] = traced
    return rec


def closed_loop(cases, seconds: float, tracer=None) -> list:
    """Call the cases in order, cycling, until ``seconds`` have passed.  With
    a tracer, each case runs twice in a row, once traced and once not,
    alternating which goes first."""
    records = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        case = cases[k % len(cases)]
        if tracer is None:
            dt, out, exc = timed(case)
            records.append(record(case, dt, verdict_of(case, out, exc)))
        else:
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    with tracer:
                        dt, out, exc = timed(case)
                else:
                    dt, out, exc = timed(case)
                records.append(record(case, dt, verdict_of(case, out, exc),
                                      traced))
        k += 1
        if time.perf_counter() >= deadline:
            return records


def quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(records, setup_samples) -> dict:
    times = [r["seconds"] for r in records]
    n = len(records)
    agree = [r["digits"] for r in records if not r["failed"] and r["digits"] is not None]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "solves_per_s": (n / sum(times), "1/s"),
        "latency_p50_s": (statistics.median(times), "s"),
        "latency_p90_s": (quantile(times, 0.9), "s"),
        "pass_frac": (1.0 - sum(r["failed"] for r in records) / n, "fraction"),
        "certified_frac": (1.0 - sum(r["uncertified"] for r in records) / n,
                           "fraction"),
        "rank_ok_frac": (1.0 - sum(r["over_rank"] for r in records) / n,
                         "fraction"),
        "agree_digits_min": (min(agree) if agree else 0.0, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(records, tracer) -> dict:
    import tracing

    traced = [r["seconds"] for r in records if r["traced"]]
    untraced = [r["seconds"] for r in records if not r["traced"]]
    values = tracing.summarize(tracer.spans, tracer.calls, sum(traced), sum(untraced))
    return {name: (values[name], unit) for name, unit in tracing.UNITS.items()}


def write_results(args, env, setup_samples, own_setup_s, records, metrics,
                  tracer) -> str:
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "environment": env,
           "setup_samples_s": setup_samples, "own_setup_s": own_setup_s,
           "metrics": metrics, "calls": records}
    path = os.path.join(out_dir, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    if tracer is not None:
        keys = ("call", "parent", "layer", "name", "t0", "t1", "info")
        with open(os.path.join(out_dir, stem + "-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in tracer.spans], fh)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sdpack", "__init__.py")):
        print(f"error: no sdpack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import sdpack

    if os.path.dirname(os.path.abspath(sdpack.__file__)) != os.path.join(SRC, "sdpack"):
        print(f"error: imported sdpack from {sdpack.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    # set-up time is an end-to-end metric; the traced run does not report it
    setup_samples = ([] if args.trace
                     else [measure_setup(args) for _ in range(SETUP_SAMPLES)])
    t_own = time.perf_counter()
    workdir = make_workdir(args.workload)
    tap = tracer = None
    try:
        cases, tap = prepare(args.workload, args.seed, workdir)
        own_setup_s = time.perf_counter() - t_own
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        records = closed_loop(cases, args.seconds, tracer)
    finally:
        if tap is not None:
            tap.close()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = (per_layer(records, tracer) if args.trace
               else end_to_end(records, setup_samples))
    env = environment()
    failed = sum(r["failed"] for r in records)
    path = write_results(args, env, setup_samples, own_setup_s, records,
                         {k: v for k, (v, _) in metrics.items()}, tracer)
    print(json.dumps({"environment": env, "results": os.path.relpath(path, ROOT)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
