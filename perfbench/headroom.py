"""Acceptance-budget headroom, one shot (not part of the timed workloads):

    python3 perfbench/headroom.py [NN ...]

Runs each criterion body of tests/test_acceptance.py once (or only the
numbered ones) and compares its wall time with the budget the test
asserts.  The tests and their budgets are read, never changed.  The
table goes to stdout and to perfbench/out/headroom.json.
"""

import importlib.util
import inspect
import json
import platform
import re
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
BUDGET = re.compile(r"time\.time\(\) - start < ([0-9.]+)")
BY_DESIGN = {
    "test_criterion_06_binomial_annihilators":
        "the claimed nonzero top-line probe computes to exactly zero",
}


def criteria(only):
    path = ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("test_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, fn in sorted(vars(module).items()):
        if name.startswith("test_criterion_") and (
                not only or name.split("_")[2] in only):
            yield name, fn


def measure(name, fn):
    budget = float(BUDGET.findall(inspect.getsource(fn))[-1])
    start = time.perf_counter()
    try:
        fn()
        status, detail = "pass", ""
    except AssertionError as exc:
        line = traceback.extract_tb(exc.__traceback__)[-1].line or ""
        if BUDGET.search(line):
            status, detail = "over budget", "every other assertion held"
        else:
            status, detail = "fail", str(exc).splitlines()[0][:120] if str(exc) else line
    elapsed = time.perf_counter() - start
    if name in BY_DESIGN and status == "fail":
        status, detail = "fail (by design)", BY_DESIGN[name]
    return {"criterion": name, "status": status, "seconds": elapsed,
            "budget_s": budget, "headroom_s": budget - elapsed,
            "share_of_budget": elapsed / budget, "detail": detail}


def main(argv):
    import takiff

    rows = []
    for name, fn in criteria(set(argv)):
        row = measure(name, fn)
        rows.append(row)
        print(f"{name[:48]:<48} {row['seconds']:8.1f} s / {row['budget_s']:5.0f} s "
              f"({100 * row['share_of_budget']:5.1f}%)  {row['status']}"
              + (f": {row['detail']}" if row["detail"] else ""), flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    record = {"python": platform.python_version(),
              "backend": takiff.scalars.BACKEND, "criteria": rows}
    (HERE / "out" / "headroom.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
