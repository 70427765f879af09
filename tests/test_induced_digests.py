"""Byte-identity of every induced report in the benchmark's expectation file.

perfbench/expected/induced.json holds, for each job of the induced
catalogue, the sha256 of the report's canonical JSON and its ordered
(check id, status) list.  This replays every job through the
benchmark's own runner (perfbench/workloads.py, loaded read-only) and
asserts both, so a change to the induced engines that alters a single
byte of a report fails here, not only when the benchmark runs.
"""

import importlib.util
import json
from pathlib import Path

import takiff

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_induced_reports_match_the_recorded_digests():
    workloads = load_workloads()
    expected = json.loads((PERFBENCH / "expected" / "induced.json").read_text())
    assert expected["workload"] == "induced" and expected["jobs"]
    for key, want in expected["jobs"].items():
        payload, checks = workloads.run_job(takiff, json.loads(key))
        assert [list(c) for c in checks] == want["checks"], key
        assert workloads.digest(payload) == want["sha256"], key
