"""Seeded closed-loop benchmark of the tollkit design / verify / learn / forge
pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 0 --seconds 25 --trace 0

One client runs one item at a time, in this process, through
``tollkit.cli.main`` and checks every output. ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` alternates untraced and
traced passes over a fixed set of items and reports per-layer metrics and
the tracing overhead. The last line of standard output is the JSON result.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool: the benchmark must never run more threads
# than the cores it measures on.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix \
                        else line.strip()
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


# The reference loop: fixed pure-Python work, independent of tollkit, whose
# duration tracks how fast the machine runs this process at the moment. It
# mixes the kinds of work the program does: arithmetic, small allocations
# and dict/list traffic, and float maths with JSON output. REFERENCE_S is its
# duration on the reference machine, about that of a 2-CPU Xeon VM in a
# quiet stretch.
REFERENCE_S = 0.0035


def reference_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(8_000):
        acc += (i & 255) * 0.5 + (i % 7)
    out = []
    for i in range(1_500):
        d = {"a": i, "b": [i, i + 1.5, (i, "x")], "c": str(i)}
        out.append((d["b"][1] * 2.0, len(d["c"])))
    out.sort()
    rows = [[math.exp(-i * 1e-3) * k for k in range(8)] for i in range(100)]
    json.dumps(rows)
    return time.perf_counter() - t0


def reference_speed(samples: int = 5) -> float:
    """REFERENCE_S over the median of a few reference runs."""
    runs = [reference_seconds() for _ in range(samples)]
    return REFERENCE_S / statistics.median(runs)


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def layer_unit(name: str) -> str:
    if ".us_per_" in name:
        return "us"
    for suffix, unit in (("_s", "s"), ("_pct", "%"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def check_determinism(first, second) -> bool:
    return first.counters == second.counters and first.digest == second.digest


def import_seconds() -> float:
    """Time to import numpy and tollkit in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); import numpy, tollkit; "
            "print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def end_to_end(workload, seconds: float):
    from workloads import digest

    setups, setups_wall = [], []
    for _ in range(SETUP_REPEATS):
        speed = reference_speed()
        fresh_dir(workload.workdir)
        t0 = time.perf_counter()
        items = workload.setup()
        wall = import_seconds() + time.perf_counter() - t0
        setups_wall.append(wall)
        setups.append(wall * speed)

    # The closed loop cycles over the pool. Every visit sits between two runs
    # of the reference loop, and its wall time is scaled by REFERENCE_S over
    # their mean duration: other tenants of the machine change its speed by
    # up to half for tens of seconds at a time, and the scaled time follows
    # the program rather than the machine. An item's latency is the median
    # of its visits.
    first = [None] * len(items)
    visits = [[] for _ in items]
    raw = []
    failures = []
    before = reference_seconds()

    def visit(i: int) -> float:
        nonlocal before
        res = workload.run(items[i])
        after = reference_seconds()
        factor = 2 * REFERENCE_S / (before + after)
        before = after
        raw.append(res.seconds)
        if first[i] is None:
            first[i] = res
        if not res.ok:
            failures.append(f"{items[i].label}: {res.reason}")
        elif not check_determinism(first[i], res):
            failures.append(
                f"{items[i].label}: repeat visit differs from the first "
                f"(counters {first[i].counters} vs {res.counters})")
        else:
            return res.seconds * factor
        return math.inf          # a failed item misses any latency limit

    visit(0)                     # warm-up
    raw.clear()
    t_start = time.perf_counter()
    count = 0
    while time.perf_counter() - t_start < seconds or count < len(items):
        i = count % len(items)
        visits[i].append(visit(i))
        count += 1
    elapsed = time.perf_counter() - t_start

    seen = [i for i in range(len(items)) if visits[i]]
    latency = [statistics.median(visits[i]) for i in seen]
    total = sum(latency)
    work = sum(first[i].counters.get(workload.work_key, 0) for i in seen)
    lat_ms = [x * 1e3 for x in latency]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(seen) / total, "1/s"),
        "item_ms_p50": (quantile(lat_ms, 0.50), "ms"),
        "item_ms_p90": (quantile(lat_ms, 0.90), "ms"),
        "work_per_s": (work / total, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    pool_counters = {}
    for i in seen:
        for key, value in first[i].counters.items():
            pool_counters[key] = pool_counters.get(key, 0) + value
    extra = {
        "pool_items": len(items), "items_seen": len(seen), "visits": count,
        "elapsed_s": elapsed, workload.work_name: work / total,
        "fail_ratio": len(failures) / (count + 1),
        "wall_visits_per_s": count / elapsed,
        "wall_visit_ms_p50": quantile([x * 1e3 for x in raw], 0.50),
        "wall_visit_ms_p90": quantile([x * 1e3 for x in raw], 0.90),
        "setup_wall_s": statistics.median(setups_wall),
        "pool_counters": pool_counters,
        "pool_digest": digest(*(first[i].digest for i in seen)),
    }
    return metrics, count + 1, failures, extra


def traced(workload, seconds: float):
    import tracer as tr

    fresh_dir(workload.workdir)
    tracer = tr.Tracer()
    tracer.install()
    try:
        items = workload.setup()
    finally:
        tracer.uninstall()
    setup_spans, _, _ = tracer.take()
    items = items[:workload.trace_items]

    def one_pass():
        t0 = time.perf_counter()
        results = [workload.run(item) for item in items]
        return time.perf_counter() - t0, results

    failures = []
    reference = None
    attempted = 0

    def account(results):
        nonlocal reference, attempted
        attempted += len(results)
        for item, res in zip(items, results):
            if not res.ok:
                failures.append(f"{item.label}: {res.reason}")
        if reference is None:
            reference = results
        else:
            for item, a, b in zip(items, reference, results):
                if a.ok and b.ok and not check_determinism(a, b):
                    failures.append(f"{item.label}: repeat pass differs")

    # Untraced and traced passes alternate so that drift in the machine's
    # speed falls on both sides; the first untraced pass warms up.
    plain_walls, traced_walls, passes, first_spans = [], [], [], None
    wall, results = one_pass()
    account(results)
    t_start = time.perf_counter()
    while not traced_walls or time.perf_counter() - t_start < seconds:
        wall, results = one_pass()
        plain_walls.append(wall)
        account(results)
        tracer.install()
        try:
            wall, results = one_pass()
        finally:
            tracer.uninstall()
        spans, counters, rho_bases = tracer.take()
        if first_spans is None:
            first_spans = spans
        traced_walls.append(wall)
        passes.append(tr.layer_metrics(spans, counters, rho_bases, len(items)))
        account(results)

    metrics = tr.median_metrics(passes)
    metrics["forge.random_s"] = sum(
        t for s, t in zip(setup_spans, tr.self_times(setup_spans))
        if s[tr.NAME] == "random_instance")
    plain = statistics.median(plain_walls)
    with_spans = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = with_spans - plain
    metrics["trace.overhead_pct"] = (with_spans - plain) / plain * 100.0
    tr.write_spans(os.path.join(WORK, f"spans-{workload.name}.jsonl"),
                   {"setup": setup_spans, "pass": first_spans})
    out = {name: (value, layer_unit(name)) for name, value in metrics.items()}
    extra = {"trace_items": len(items), "untraced_pass_s": plain_walls,
             "traced_pass_s": traced_walls,
             "dominant_layer": max(tr.LAYERS,
                                   key=lambda layer: metrics[f"{layer}.share_pct"])}
    return out, attempted, failures, extra


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "tollkit", "__init__.py")):
        fail(f"no tollkit sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import numpy
    import tollkit
    from workloads import WORKLOADS
    if not os.path.abspath(tollkit.__file__).startswith(SRC + os.sep):
        fail(f"imported tollkit from {tollkit.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(WORKLOADS)}")

    machine = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": read_first("/proc/cpuinfo", "model name"),
        "loadavg_start": read_first("/proc/loadavg"),
        "commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    workload = WORKLOADS[args.workload](
        os.path.join(WORK, args.workload), args.seed)
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failures, extra = traced(workload, args.seconds)
        else:
            metrics, attempted, failures, extra = end_to_end(
                workload, args.seconds)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    machine["loadavg_end"] = read_first("/proc/loadavg")

    print("machine " + json.dumps(machine))
    print("run " + json.dumps(extra))
    for failure in failures:
        print(f"FAILED {failure}")
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        # JSON has no infinity; a failed run reports the largest float.
        "metrics": {name: {"value": min(value, sys.float_info.max), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
