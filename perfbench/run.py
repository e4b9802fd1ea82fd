"""wedgecap benchmark: end-to-end metrics per workload, or a traced per-layer run.

Run from a checkout of the repository (the package is imported from its
``src/``, nothing is installed):

    python3 perfbench/run.py --workload equiv-family --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One caller drives the library in a closed loop, one op at a time, in
whole passes (see workloads.py).  A run is a fixed number of passes,
``round(seconds / PASS_SECONDS)``, sized so that it lasts about
``--seconds`` on a 2-core x86 box with single-threaded BLAS: a fixed op
count keeps the mix of inputs, and so the percentile behind op_tail_s,
the same on every seed and on both sides of a comparison.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes over the first pass's inputs and reports the
per-layer metrics plus ``trace.overhead_ratio``.  Outputs are checked
outside the timed region.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and sample count.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# single-threaded BLAS/OpenMP, fixed before numpy is first imported: with
# two BLAS threads on a 2-core box, thread contention dominates the
# run-to-run spread of the HeatLift matvecs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"
WORKLOADS = ("equiv-family", "dirac-sweep", "cli-demos")
TAIL_BEYOND = 10
SETUP_PROBES = 5


def require_checkout():
    if not os.path.isfile(os.path.join(SRC, "wedgecap", "__init__.py")):
        sys.exit("perfbench: no src/wedgecap under %s; run from a full checkout"
                 % ROOT)


def import_package():
    """Import wedgecap from this checkout's src/ and nowhere else."""
    require_checkout()
    sys.path[:0] = [SRC, HERE]
    import wedgecap
    import wedgecap.cli  # noqa: F401  (its import is part of set-up)
    if os.path.dirname(os.path.dirname(os.path.abspath(wedgecap.__file__))) != SRC:
        sys.exit("perfbench: imported wedgecap from %s, not from %s"
                 % (wedgecap.__file__, SRC))
    import workloads
    return wedgecap, workloads


def setup_probe(workload):
    """Child process: import + warm-up, timed from the start of this script."""
    _, workloads = import_package()
    workloads.WARM_UP[workload]()
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def measure_setup(workload):
    """Median set-up time over SETUP_PROBES fresh interpreter processes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--setup-probe", "--workload", workload],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit("perfbench: set-up probe failed:\n" + proc.stderr)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def environment():
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "mpmath": mpmath.__version__,
           "blas": "%s %s" % (blas.get("name"), blas.get("version"))}
    env.update((v, os.environ[v]) for v in THREAD_VARS)
    return env


# --------------------------------------------------------------------------
# the closed loop


def run_pass(wl, ops, gamma, tracer=None):
    """One op at a time; returns (wall_s, [(op, out, error, latency_s)])."""
    records = []
    t_pass = time.perf_counter()
    for op in ops:
        gamma.cache_clear()        # every op starts from a cold spectral cache
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            out, err = wl.run(op), None
        except Exception as exc:   # the loop goes on; the op counts as failed
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
            info = gamma.cache_info()
            tracer.count["gamma.hits"] += info.hits
            tracer.count["gamma.misses"] += info.misses
        records.append((op, out, err, dt))
    return time.perf_counter() - t_pass, records


def check_records(wl, records):
    """Per op: None, or (kind, reason), kind 'fail' or a KNOWN_DEFECTS key."""
    outcomes = []
    for op, out, err, _ in records:
        if err is not None:
            outcomes.append(("fail", err))
            continue
        try:
            outcomes.append(wl.check(op, out))
        except (KeyError, TypeError, ValueError) as exc:   # malformed output
            outcomes.append(("fail", "check failed on %s: %s"
                             % (type(exc).__name__, exc)))
    return outcomes


def tail(samples):
    """(value, percentile): highest percentile with TAIL_BEYOND samples beyond."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def pass_count(wl, seconds, minimum):
    return max(minimum, round(seconds / wl.PASS_SECONDS))


def end_to_end(wl, gamma, seconds):
    """Whole passes.  Throughput is taken from the median pass time and the
    latency median from every op of the run, so a burst of load on the host
    that slows one pass moves neither by much."""
    # enough passes that more than TAIL_BEYOND samples exist for op_tail_s
    passes = pass_count(wl, seconds, -(-(2 * TAIL_BEYOND) // len(wl.ops(0))))
    walls, records = [], []
    for index in range(passes):
        w, recs = run_pass(wl, wl.ops(index), gamma)
        walls.append(w)
        records += recs
    # before the oracles, which import mpmath, so the peak is the program's
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = check_records(wl, records)
    n = len(records)
    failed = sum(o is not None for o in outcomes)
    latencies = [r[3] for r in records]
    tail_s, tail_p = tail(latencies)
    rows = [
        ("ops_per_s", n / passes / statistics.median(walls), "1/s", n,
         "ops per pass / median pass time; %d passes, %.2f s timed"
         % (passes, sum(walls))),
        ("op_p50_s", statistics.median(latencies), "s", n,
         "median over every op of the run"),
        ("op_tail_s", tail_s, "s", n, "p%.1f, %d samples beyond"
         % (tail_p, TAIL_BEYOND)),
        ("ok_ratio", 1.0 - failed / n, "ratio", n, "fail_ratio %.4f = %d/%d"
         % (failed / n, failed, n)),
        ("peak_rss_mb", peak_mb, "MB", 1,
         "ru_maxrss of the workload process after the timed passes"),
    ]
    return rows, outcomes


def per_layer(wl, wedgecap, gamma, seconds):
    """Traced and untraced passes over the first pass's inputs, alternating."""
    from spans import DETERMINISTIC, Tracer
    from workloads import VERDICT_MISMATCH
    tracer = Tracer(wedgecap)
    ops = wl.ops(0)
    walls = {True: [], False: []}
    traced = []          # one dict per traced pass
    outcomes = []
    # traced passes first and last, so at least two of them are compared
    for on in [True] + [False, True] * pass_count(wl, seconds / 2.0, 1):
        if on:
            tracer.reset()
            with tracer.installed():
                w, recs = run_pass(wl, ops, gamma, tracer)
        else:
            w, recs = run_pass(wl, ops, gamma)
        walls[on].append(w)
        checked = check_records(wl, recs)
        outcomes += checked
        if on:
            traced.append({"counters": tracer.counters(), "timings": tracer.timings(),
                           "outcomes": checked, "records": recs,
                           "gamma": (tracer.count["gamma.hits"],
                                     tracer.count["gamma.misses"])})

    first = traced[0]
    problems = []
    for other in traced[1:]:
        diff = [k for k in DETERMINISTIC if other["counters"][k] != first["counters"][k]]
        if diff:
            problems.append("counters differ between traced passes: %s" % diff)
    metrics = dict(first["counters"])
    for key in first["timings"]:
        metrics[key] = statistics.median(t["timings"][key] for t in traced)
    hits, misses = first["gamma"]
    metrics["spectral.gamma.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["besov.verdict_mismatch"] = sum(
        1 for o in first["outcomes"] if o is not None and o[1].startswith(VERDICT_MISMATCH))
    metrics["cli.output_bytes"] = sum(wl.output_bytes(out)
                                      for _, out, err, _ in first["records"] if err is None)
    metrics["trace.overhead_ratio"] = (statistics.median(walls[True])
                                       / statistics.median(walls[False]))
    note = "per pass of %d ops; %d traced + %d untraced passes" % (
        len(ops), len(walls[True]), len(walls[False]))
    return metrics, outcomes, problems, note, len(traced)


# --------------------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload)
    require_checkout()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            code |= subprocess.run([sys.executable, os.path.abspath(__file__),
                                    "--workload", name, "--seed", str(args.seed),
                                    "--seconds", str(seconds),
                                    "--trace", str(args.trace)],
                                   cwd=ROOT, check=False).returncode
        return code

    os.chdir(ROOT)
    setup_s = measure_setup(args.workload) if args.trace == 0 else None
    wedgecap, workloads = import_package()
    workloads.WARM_UP[args.workload]()
    gamma = wedgecap.spectral.gamma_first_eigenvalue
    workdir = os.path.join(WORK, "%s-seed%d" % (args.workload, args.seed))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        if args.trace == 0:
            rows, outcomes = end_to_end(wl, gamma, seconds)
            rows.append(("setup_s", setup_s, "s", SETUP_PROBES,
                         "median of %d fresh processes: import + warm-up"
                         % SETUP_PROBES))
            problems = []
            names = [m["name"] for m in spec["end_to_end"]]
            note = "closed loop, 1 caller"
        else:
            metrics, outcomes, problems, note, n_traced = per_layer(
                wl, wedgecap, gamma, seconds)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            rows = [(k, metrics[k], units[k], n_traced, "") for k in units]
            names = list(units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    env = environment()
    print("# wedgecap perfbench: workload=%s seed=%d seconds=%g trace=%d (%s)"
          % (args.workload, args.seed, seconds, args.trace, note))
    print("# env: " + " ".join("%s=%s" % kv for kv in env.items()))
    print("# %-32s %16s %-6s %7s  %s" % ("metric", "value", "unit", "samples", "note"))
    for name, value, unit, n, extra in rows:
        print("  %-32s %16.6g %-6s %7d  %s" % (name, value, unit, n, extra))
    failures = [o for o in outcomes if o is not None]
    known = [o for o in failures if o[0] in workloads.KNOWN_DEFECTS]
    for kind, reason in failures[:5]:
        print("# %s: %s" % (kind, reason))
    for kind, text in workloads.KNOWN_DEFECTS.items():
        hits = sum(o[0] == kind for o in known)
        if hits:
            print("# %d of %d ops hit known defect %s: %s"
                  % (hits, len(outcomes), kind, text))
    for p in problems:
        print("# self-check failed: " + p)
    by_name = {r[0]: r for r in rows}
    result = {
        "correct": len(known) == len(failures) and not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {n: {"value": by_name[n][1], "unit": by_name[n][2]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
