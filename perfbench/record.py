"""Record the expectation file of each workload.

    python3 perfbench/record.py [workload ...]

Runs every catalogue entry once and writes perfbench/expected/<workload>.json
holding, per job, the ordered (check id, status) list and the sha256 of
the canonical report JSON.  Re-record only when the program's reports
are meant to change, and review the diff: the status lists are the
benchmark's correctness gate.  A per-stratum timing summary goes to
stderr.
"""

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import takiff  # noqa: E402
import workloads  # noqa: E402


def record(workload):
    jobs = {}
    for stratum, (entries, _) in sorted(workloads.catalogue(workload).items()):
        times = []
        for job in entries:
            start = time.perf_counter()
            payload, checks = workloads.run_job(takiff, job)
            times.append(time.perf_counter() - start)
            jobs[workloads.job_key(job)] = {
                "checks": [list(c) for c in checks],
                "sha256": workloads.digest(payload),
            }
        print(f"{workload}/{stratum}: {len(times)} jobs, total {sum(times):.2f} s, "
              f"median {statistics.median(times):.4f} s, max {max(times):.4f} s",
              file=sys.stderr)
    path = HERE / "expected" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    body = {"workload": workload, "catalogue_seed": workloads.CATALOGUE_SEED,
            "jobs": jobs}
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")


def main(argv):
    for workload in argv or workloads.WORKLOADS:
        if workload not in workloads.WORKLOADS:
            sys.exit(f"unknown workload {workload!r}")
        record(workload)


if __name__ == "__main__":
    main(sys.argv[1:])
