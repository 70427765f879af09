"""takiff benchmark: one closed-loop workload of verification reports.

    python3 perfbench/run.py --workload closure [--seed 1] [--seconds 40] [--trace 0]

One caller sends each report only after the previous one returned; a
report is a ``takiff.run_suite`` call (or a library pump) serialised to
the CLI's canonical JSON.  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run of the same job list,
where every report also runs untraced to measure the overhead.  Every
report's ordered (check id, status) list is compared with
perfbench/expected/.  The last stdout line is the JSON result; the run
record (environment, drift probe, failures) also goes to
perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
FAILURES_KEPT = 20


def parse_args(argv):
    sys.path.insert(0, str(HERE))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def speed_probe():
    """Fixed pure-Python work (rational sums and dict churn); median of
    three timings.  A drift diagnostic only: it never scales a metric."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 20000):
            acc += Fraction(i % 97, i % 89 + 1)
            table[i % 251] = table.get(i % 251, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit():
    """HEAD of the checkout's own .git, read as files; "unknown" when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cold_setup(workload):
    """One setup_s sample from a fresh interpreter running cold.py."""
    done = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Loop:
    """The closed loop: one report at a time until the deadline.

    The loop runs the job list once, then replays it in order until
    the deadline, so every job runs many times (twenty to forty at
    40 s), spread over the run.  A report's time is the best of its
    runs: shared cores can switch between a fast and a slow speed (1.5x
    to 2x apart on a shared 2-core VM) for seconds at a time, and the
    best of runs spread over the run is what stays comparable between
    runs, as long as the run holds one fast phase.  setup_s
    samples (cold processes) are taken at evenly spaced points of the
    run for the same reason; the time they take extends the deadline.
    """

    def __init__(self, takiff, workloads, jobs, seconds, expected,
                 workload=None, wrap=None):
        self.takiff, self.workloads, self.jobs = takiff, workloads, jobs
        self.keys = [workloads.job_key(job) for job in jobs]
        self.seconds, self.expected = seconds, expected
        self.workload, self.wrap = workload, wrap
        # Only (job index, seconds) per run is kept, so the benchmark's
        # own memory does not grow with the number of runs.
        self.runs = []
        self.failed = 0
        self.failures = []  # the first FAILURES_KEPT failure records
        self.digest_diffs = 0
        self.setup = []
        self.wall = 0.0

    def run_one(self, index):
        job = self.jobs[index]
        t0 = time.perf_counter()
        try:
            if self.wrap is None:
                payload, checks = self.workloads.run_job(self.takiff, job)
            else:
                payload, checks = self.wrap(len(self.runs), self.workloads.run_job,
                                            self.takiff, job)
            error = None
        except Exception as exc:  # a failed report is counted, not fatal
            payload, checks, error = None, None, f"{type(exc).__name__}: {exc}"
        self.runs.append((index, time.perf_counter() - t0))
        failure = verdict(self.keys[index], payload, checks, error,
                          self.expected, self.workloads.digest)
        if failure == "digest":
            self.digest_diffs += 1
        elif failure:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append(failure)

    def run(self):
        start = time.perf_counter()
        deadline = start + self.seconds
        samples = SETUP_SAMPLES if self.workload else 0
        n = 0
        while True:
            now = time.perf_counter()
            if len(self.setup) < samples and (
                    now >= start + len(self.setup) * self.seconds / samples):
                self.setup.append(cold_setup(self.workload))
                deadline += time.perf_counter() - now
                continue
            if self.runs and now >= deadline:
                break
            self.run_one(n % len(self.jobs))
            n += 1
        self.wall = time.perf_counter() - start
        return self

    def best_times(self, times=None):
        """{job key: best time over its runs}; times maps run number to
        seconds and defaults to the loop's own timings."""
        best = {}
        for n, (index, t) in enumerate(self.runs):
            t = t if times is None else times[n]
            key = self.keys[index]
            best[key] = min(t, best.get(key, t))
        return best


def verdict(key, payload, checks, error, expected, digest):
    """None when a report matches the expectation file, "digest" when
    only its digest differs (information only), else a failure record."""
    want = expected.get(key)
    if error:
        return {"job": key, "error": error}
    if want is None:
        return {"job": key, "error": "no expectation recorded"}
    if [list(c) for c in checks] != want["checks"]:
        return {"job": key, "got": checks, "want": want["checks"]}
    if digest(payload) != want["sha256"]:
        return "digest"
    return None


def tail(times):
    """(value, percentile): the highest percentile that still has at
    least ten reports beyond it."""
    ordered = sorted(times)
    k = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[k - 1], 100.0 * k / len(ordered)


def end_to_end(loop):
    best = list(loop.best_times().values())
    tail_s, pct = tail(best)
    metrics = {
        "reports_per_s": len(best) / sum(best),
        "report_p50_s": statistics.median(best),
        "report_tail_s": tail_s,
        "setup_s": statistics.median(loop.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"distinct_reports": len(best), "tail_percentile": pct,
             "setup_samples_s": loop.setup,
             "wall_reports_per_s": len(loop.runs) / loop.wall}
    return metrics, extra


def traced(takiff, workloads, jobs, seconds, expected):
    """Closed loop in which every report runs traced and then at once
    untraced.  The tracing overhead compares the sums of the jobs' best
    times in the two modes, taken side by side so core-speed phases
    cancel.  Straightening-cache deltas cover the traced runs only."""
    import tracer as tracing

    # The lru_cache behind algebra.gen_times_lowering; absent, its
    # metrics read 0 and env lists it as untraced.
    cache = getattr(takiff.algebra, "_left_mul_cache", None)
    cache_info = getattr(cache, "cache_info", None)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.disable()
    untraced = {}
    hits = misses = 0

    def pair(n, fn, *args):
        nonlocal hits, misses
        before = cache_info() if cache_info else None
        tracer.enable()
        try:
            result = tracer.root(n, fn, *args)
        finally:
            tracer.disable()
        if cache_info:
            after = cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
        t0 = time.perf_counter()
        fn(*args)
        untraced[n] = time.perf_counter() - t0
        return result

    loop = Loop(takiff, workloads, jobs, seconds, expected, wrap=pair).run()
    if cache_info is None:
        tracer.missing.append("takiff.algebra._left_mul_cache")
    traced_s = sum(loop.best_times(tracer.root_durations()).values())
    untraced_s = sum(loop.best_times(untraced).values())
    metrics = tracing.layer_metrics(tracer, len(loop.runs), (hits, misses))
    metrics.update({
        "trace.reports": float(len(loop.runs)),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    })
    return loop, metrics, tracer


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "takiff" / "__init__.py").is_file():
        print(f"error: no takiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    import takiff

    expected = json.loads(
        (HERE / "expected" / f"{args.workload}.json").read_text())["jobs"]
    probe_before = speed_probe()
    anchor, *jobs = workloads.job_list(args.workload, args.seed)
    workloads.run_job(takiff, anchor)  # warm-up
    cpu0 = time.process_time()
    if args.trace:
        loop, measured, tracer = traced(takiff, workloads, jobs, args.seconds,
                                        expected)
        extra = {"untraced": tracer.missing}
    else:
        loop = Loop(takiff, workloads, jobs, args.seconds, expected,
                    args.workload).run()
        measured, extra = end_to_end(loop)
    cpu = time.process_time() - cpu0
    probe_after = speed_probe()
    failed, digest_diffs = loop.failed, loop.digest_diffs

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "backend": takiff.scalars.BACKEND, "nproc": os.cpu_count(),
        "commit": git_commit(), "reports": len(loop.runs),
        "failed_ratio": failed / len(loop.runs),
        "digest_mismatches": digest_diffs, "loop_wall_s": loop.wall,
        "cpu_s": cpu, "probe_before_s": probe_before,
        "probe_after_s": probe_after, **extra,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "failures": loop.failures},
        indent=2) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(loop.runs)} reports in "
          f"{loop.wall:.2f} s, {failed} failed "
          f"(failed_ratio {env['failed_ratio']:.4g}), "
          f"{digest_diffs} digest differences (information only)")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for failure in loop.failures[:5]:
        print(f"  FAILED {json.dumps(failure)[:300]}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(loop.runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
