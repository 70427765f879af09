"""The benchmark's own checks, at tiny sizes:

    python3 perfbench/selfcheck.py

Exits non-zero with the failing check's message.  Takes about a minute.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import takiff  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_seeds():
    for workload in workloads.WORKLOADS:
        one = workloads.job_list(workload, 1)
        assert one == workloads.job_list(workload, 1), workload
        assert one != workloads.job_list(workload, 2), workload


def check_flipped_status():
    """A report whose status list differs from the file counts as failed."""
    job = workloads.catalogue("suites")["axioms"][0][0]
    key = workloads.job_key(job)
    expected = json.loads((HERE / "expected" / "suites.json").read_text())["jobs"]
    payload, checks = workloads.run_job(takiff, job)
    assert run.verdict(key, payload, checks, None, expected, workloads.digest) is None
    flipped = [list(c) for c in checks]
    flipped[0][1] = "FAIL" if flipped[0][1] != "FAIL" else "PASS"
    failure = run.verdict(key, payload, flipped, None, expected, workloads.digest)
    assert failure and failure != "digest", failure


def check_self_times():
    """Self times within one report sum to that report's root span, and
    disabling restores every binding site."""
    original = takiff.tensor.family_act
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert takiff.tensor.family_act is not original
        assert takiff.cli.family_act is takiff.tensor.family_act
        suites = workloads.catalogue("suites")
        jobs = [suites[name][0][0]
                for name in ("axioms", "omega-constraint", "singular")]
        jobs.append(workloads.catalogue("closure")["miss"][0][0])
        for n, job in enumerate(jobs):
            tracer.root(n, workloads.run_job, takiff, job)
    finally:
        tracer.disable()
    assert takiff.tensor.family_act is original
    assert takiff.cli.family_act is original
    own = tracer.self_times()
    for n in range(len(jobs)):
        spans = [i for i, r in enumerate(tracer.report) if r == n]
        root = [i for i in spans if tracer.parent[i] < 0]
        assert len(root) == 1, (n, root)
        duration = tracer.end[root[0]] - tracer.start[root[0]]
        total = sum(own[i] for i in spans)
        assert abs(total - duration) < 1e-9 * max(1, len(spans)), (n, total, duration)
        assert len(spans) > 1, n


def run_main(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "suites", "--seconds", "1",
                         "--trace", str(trace)])
    assert code == 0, code
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = [m["name"] for m in spec[section]]
        assert all(NAME.fullmatch(n) for n in declared), declared
        result = run_main(trace)
        assert result["correct"] and result["failed"] == 0, result
        assert list(result["metrics"]) == declared, section
        for name, m in result["metrics"].items():
            assert NAME.fullmatch(name), name
            assert isinstance(m["value"], float), (name, m)


def main():
    for check in (check_seeds, check_flipped_status, check_self_times,
                  check_metric_names):
        check()
        print(f"ok   {check.__name__}", flush=True)


if __name__ == "__main__":
    main()
