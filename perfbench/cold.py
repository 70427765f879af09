"""Cold set-up probe, run by run.py in a fresh interpreter per sample:

    python3 perfbench/cold.py <workload>

Times ``import takiff`` plus the workload's anchor report (cold
straightening cache, module construction with its certificate scan,
canonical JSON) and prints {"setup_s": seconds}.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (no takiff import inside)


def main(workload):
    job = workloads.ANCHORS[workload]
    start = time.perf_counter()
    import takiff

    workloads.run_job(takiff, job)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(sys.argv[1])
