"""Byte-identity of every report in the benchmark's expectation files.

perfbench/expected/<workload>.json holds, for each job of that
workload's catalogue, the sha256 of the report's canonical JSON and its
ordered (check id, status) list.  This replays every job through the
benchmark's own runner (perfbench/workloads.py, loaded read-only) and
asserts both, so a change to any engine that alters a single byte of a
report fails here, not only when the benchmark runs.  It also asserts
that no report repeats a check id.  The other tests replay each
workload's seed-1 job list in one shuffled order three ways: with the
process-wide memos emptied before each job, kept warm across jobs, and
with the singular-vector memo overfull: a report must not depend on
what ran before it in the same process.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

import takiff
from takiff import algebra, verma

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload",
                         ["closure", "induced", "suites", "whittaker"])
def test_reports_match_the_recorded_digests(workload):
    workloads = load_workloads()
    expected = json.loads(
        (PERFBENCH / "expected" / f"{workload}.json").read_text())
    assert expected["workload"] == workload and expected["jobs"]
    for key, want in expected["jobs"].items():
        payload, checks = workloads.run_job(takiff, json.loads(key))
        assert [list(c) for c in checks] == want["checks"], key
        ids = [check_id for check_id, _ in checks]
        assert len(set(ids)) == len(ids), key
        assert workloads.digest(payload) == want["sha256"], key


def shuffled_seed_1_jobs(workloads):
    """Every job of each workload's seed-1 job list but its anchor (which
    has no recorded digest), with its expectation, all shuffled together
    with a fixed seed."""
    jobs = []
    for workload in ("closure", "induced", "suites", "whittaker"):
        expected = json.loads(
            (PERFBENCH / "expected" / f"{workload}.json").read_text())["jobs"]
        jobs += [(job, expected[workloads.job_key(job)])
                 for job in workloads.job_list(workload, 1)[1:]]
    random.Random(5).shuffle(jobs)
    return jobs


def clear_memos():
    algebra._STRAIGHTEN.clear()
    algebra.gen_times_word.cache_clear()
    verma.singular_vectors.cache_clear()


def test_reports_do_not_depend_on_the_memos_history():
    """History independence: the shuffled seed-1 jobs, each run with the
    three process-wide memos (the straightening table, the word memo and
    the singular-vector scan) emptied first, give their recorded digests."""
    workloads = load_workloads()
    for job, want in shuffled_seed_1_jobs(workloads):
        clear_memos()
        payload, _ = workloads.run_job(takiff, job)
        assert workloads.digest(payload) == want["sha256"], job


@pytest.mark.parametrize("history", ["warm", "overfull"])
def test_reports_do_not_depend_on_warm_or_overfull_memos(history):
    """The same shuffled jobs with the memos emptied once and then kept
    warm across all of them; "overfull" first pre-fills singular_vectors
    past its 256 keys with level-1 scans of weights no job uses, so the
    run evicts as it goes."""
    workloads = load_workloads()
    clear_memos()
    if history == "overfull":
        for n in range(300):
            verma.singular_vectors(takiff.HighestWeight(takiff.Q(1000 + n),
                                                        takiff.Q(0)), 1)
        info = verma.singular_vectors.cache_info()
        assert info.currsize == info.maxsize == 256
    for job, want in shuffled_seed_1_jobs(workloads):
        payload, _ = workloads.run_job(takiff, job)
        assert workloads.digest(payload) == want["sha256"], job
