"""pendavg benchmark: one workload per process, closed loop, outputs checked.

Usage (from the repository root):

    python3 pendbench/run.py --workload search|shoot|grid --seed N \
        --seconds S --trace 0|1

One thread, one op at a time: the next op starts when the previous one has
returned and been checked.  Ops come in whole cycles of (mode, p) classes
(``workloads.CYCLES``), so every run holds the same mix of op costs.

``--trace 0`` prints the end-to-end metrics: ``ops_per_s`` (ops over the
summed op time), ``op_s_p50`` (median op time), ``peak_rss_mb`` and
``setup_s`` (import plus warm-up, median of several fresh processes).  Op
and set-up times are wall times rescaled to a nominal host speed, read from
a fixed reference computation timed between ops (``hostspeed``); the wall
times themselves are in the summary line.
``--trace 1`` runs the ops under the tracer for half the time, replays the
same ops untraced for the overhead, and prints the per-layer metrics of
``probes.PER_LAYER``.  Spans go to ``.bench_out/spans_<workload>.csv``.

The last line of stdout is the JSON result; the line before it is a
summary with ``fail_frac``, the sample count and the environment.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "shoot", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def warm_up(workload):
    """Pay import and first-call costs before timing, on inputs outside the stream."""
    import workloads as wl
    from pendavg.continuation import verify_zero
    from pendavg.model import PerturbationSpec

    if workload == "search":
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "warmup_search.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"grid_radial": 2, "grid_angular": 4}, handle)
        code, _ = wl.run_search(["zeros", "--preset=corollary1", f"--config={path}"])
        if code != 0:
            raise RuntimeError(f"warm-up search exited with {code}")
    elif workload == "shoot":
        f1, f2 = wl.PRESET_TEXT["mode1"][:2]
        spec = PerturbationSpec.from_strings(f1, f2, "mode1", 1, 1)
        verify_zero(spec, wl.CORO1_ZEROS[0], wl.LADDER[:1], n_samples=8)
    else:
        case = wl.make_case(0, 0)
        wl.run_grid(case, wl.grid_points(0, case))


def setup_sample(workload):
    """(Wall seconds, host reference reading) from a fresh interpreter's first
    line to the end of warm-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    wall, ref = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(ref)


def run_ops(workload, seed, seconds, around=None, indices=None):
    """Run whole cycles of op classes for about ``seconds``, or replay ``indices``.

    Returns (index, op seconds, host reference seconds, error or None) per
    op, the reference read between ops (``hostspeed.op_reference``).
    ``around(i, thunk)`` may wrap each timed call (the tracer's root span).
    """
    import hostspeed
    import workloads as wl

    records = []
    readings = [hostspeed.reading()]
    start = time.perf_counter()
    i = 0
    while True:
        if indices is None:
            cycle = len(wl.CYCLES[workload])
            # Stop at the cycle boundary nearest to ``seconds``, after one cycle at least.
            if i and i % cycle == 0:
                elapsed = time.perf_counter() - start
                if elapsed + 0.5 * elapsed * cycle / i >= seconds:
                    break
            index = i
        elif i < len(indices):
            index = indices[i]
        else:
            break
        op = wl.prepare(workload, seed, index)
        error = None
        t = time.perf_counter()
        try:
            result = around(index, op.call) if around else op.call()
        except Exception as exc:  # a raising op is a failed op, the run goes on
            elapsed = time.perf_counter() - t
            error = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - t
            try:
                error = op.check(result)
            except Exception as exc:  # a malformed result fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        readings.append(hostspeed.reading())
        records.append((index, elapsed, error))
        i += 1
    return [
        (index, elapsed, hostspeed.op_reference(readings, i), error)
        for i, (index, elapsed, error) in enumerate(records)
    ]


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the name is informational
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": git_commit(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, setups):
    import hostspeed

    records = run_ops(args.workload, args.seed, args.seconds)
    wall = [seconds for _, seconds, _, _ in records]
    times = [hostspeed.rescale(seconds, ref) for _, seconds, ref, _ in records]
    setup_s = [hostspeed.rescale(seconds, ref) for seconds, ref in setups]
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    detail = {
        "op_s_samples": len(times),
        "setup_s_samples": setup_s,
        "ref_s_nominal": hostspeed.REF_S,
        "ref_s_median": statistics.median(ref for _, _, ref, _ in records),
        "wall": {
            "ops_per_s": len(wall) / sum(wall),
            "op_s_p50": statistics.median(wall),
            "setup_s": statistics.median(seconds for seconds, _ in setups),
        },
    }
    return records, metrics, detail


def measure_traced(args):
    import probes
    import pendavg.expr
    from tracer import Tracer

    tracer = Tracer()

    def around(index, thunk):
        tracer.op = index
        tracer.begin("bench.op")
        try:
            return thunk()
        finally:
            tracer.end()

    misses = pendavg.expr.compile_expr.cache_info().misses
    with probes.instrument(tracer):
        traced = run_ops(args.workload, args.seed, args.seconds / 2.0, around=around)
    misses = pendavg.expr.compile_expr.cache_info().misses - misses
    replay = run_ops(args.workload, args.seed, 0.0, indices=[index for index, _, _, _ in traced])
    traced_s = sum(seconds for _, seconds, _, _ in traced)
    untraced_s = sum(seconds for _, seconds, _, _ in replay)
    values = probes.layer_metrics(tracer, len(traced), misses, traced_s, untraced_s)
    units = {name: unit for name, unit, _, _ in probes.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name, _, _, _ in probes.PER_LAYER}
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans_{args.workload}.csv"))
    detail = {
        "traced_ops": len(traced),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "layer_totals": {name: list(v) for name, v in sorted(tracer.totals().items())},
    }
    return traced + replay, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pendavg", "__init__.py")):
        print(f"pendavg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401
    import pendavg  # noqa: F401
    import pendavg.cli  # noqa: F401

    import hostspeed

    warm_up(args.workload)
    setup_main = (time.perf_counter() - T0, hostspeed.reading())
    if args.setup_only:
        print(*map(repr, setup_main))
        return 0

    if args.trace:
        records, metrics, detail = measure_traced(args)
    else:
        setups = [setup_main] + [setup_sample(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        records, metrics, detail = measure(args, setups)

    failed = sum(1 for *_, error in records if error is not None)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "errors": [f"op {index}: {error}" for index, *_, error in records if error][:10],
        "detail": detail,
        "env": environment(),
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result_{args.workload}_trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump({**summary, "ops": records, "metrics": metrics}, handle, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:34s} {value:14.6g} {unit}")
    print(f"{args.workload:8s} {'fail_frac':34s} {summary['fail_frac']:14.6g} fraction ({failed}/{len(records)})")
    print("summary " + json.dumps(summary, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
