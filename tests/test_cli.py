"""Command-line surface: exit codes, the JSON report format, determinism."""

import dataclasses
import json
import subprocess
import sys

import pytest

from takiff import (ERROR, BiPoly, FamilyParams, JobConfig, PolyParseError,
                    act_eval, run_suite)
from takiff.cli import _suite_kwargs, build_parser
from takiff.tensor import KEY_FIELD


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "takiff", *args],
                          capture_output=True, text=True)


def test_axiom_suite_emits_the_report_schema():
    proc = run_cli("verify", "axioms", "--family", "gamma", "--lambda", "2",
                   "--a", "1", "--b", "-1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["schema"] == 1
    assert payload["suite"] == "axioms"
    assert payload["summary"]["pass"] == 15
    assert payload["summary"]["fail"] == 0
    for check in payload["checks"]:
        assert {"id", "status", "witness"} <= set(check)
    # timing goes to stderr so the payload stays byte-stable
    assert "elapsed" not in payload
    assert "suite axioms" in proc.stderr


def test_failing_suite_exits_one():
    proc = run_cli("verify", "lemma51", "--family", "gamma", "--lambda", "1",
                   "--eta", "1", "--theta", "0", "--g", "h", "--r", "2")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    statuses = [c["status"] for c in payload["checks"]]
    assert "FAIL" in statuses


def test_usage_errors_exit_two():
    assert run_cli("verify", "no-such-suite").returncode == 2
    proc = run_cli("act", "--family", "gamma", "--lambda", "1",
                   "--expr", "e*q", "--target", "1")
    assert proc.returncode == 2
    assert "parse error at symbol 'q'" in proc.stderr


@pytest.mark.parametrize("flag", ["--lambda", "--a", "--b"])
def test_a_zero_denominator_in_act_is_a_usage_error(flag):
    proc = run_cli("act", "--family", "gamma", "--lambda", "1", flag, "1/0",
                   "--expr", "e", "--target", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_a_key_field_past_its_width_is_one_error_record():
    """hb^(KEY_FIELD + 1) (x) v cannot be packed: the probe stops with
    one ERROR record and no traceback."""
    proc = run_cli("verify", "lemma51", "--g", f"hb^{KEY_FIELD + 1}",
                   "--r", "1")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert [c["status"] for c in payload["checks"]] == [ERROR]
    assert "field" in payload["checks"][0]["witness"]
    assert "Traceback" not in proc.stderr


def test_act_command_applies_generator_words():
    proc = run_cli("act", "--family", "gamma", "--lambda", "1",
                   "--expr", "e*f", "--target", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "h"
    proc2 = run_cli("act", "--family", "theta", "--lambda", "2",
                    "--expr", "hb", "--target", "h")
    assert proc2.stdout.strip() == "h*hb"


def test_report_files_are_byte_stable(tmp_path):
    args = ("verify", "irreducible", "--family", "gamma", "--lambda", "2",
            "--a", "1", "--b", "-1", "--eta", "1", "--theta", "0",
            "--depth", "5", "--seeds", "4", "--rng", "9")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.endswith(b"\n")
    payload = json.loads(b1)
    assert payload["config"]["rng"] == 9


def test_singular_command_lists_the_degenerate_vectors():
    proc = run_cli("singular", "--eta", "0", "--theta", "0", "--max-level", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    level1 = next(c for c in payload["checks"] if c["id"] == "singular/level-1")
    assert "fb v" in level1["witness"] and "f v" in level1["witness"]


def test_induced_verify_command():
    proc = run_cli("induced", "verify", "--family", "gamma", "--lambda", "1",
                   "--eta", "1", "--theta", "0", "--depth", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["suite"] == "induced"
    assert payload["summary"]["fail"] == 0


def test_induced_rejects_a_finite_second_factor():
    proc = run_cli("induced", "verify", "--family", "gamma", "--lambda", "1",
                   "--eta", "0", "--theta", "1", "--depth", "2")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["summary"]["error"] == 1


def test_whittaker_command_scans_the_grid():
    proc = run_cli("verify", "whittaker", "--family", "theta", "--lambda", "2",
                   "--a", "1", "--b", "1", "--eta", "0", "--theta", "2",
                   "--depth", "4", "--mu1=-1,0,1", "--mu2=-1,0,1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["summary"]["pass"] == 9


def test_run_suite_objects_and_error_path():
    rep = run_suite(JobConfig(suite="axioms", family="theta",
                              lam="3", a="-2", b="5"))
    assert rep.ok and len(rep.checks) == 15
    bad = run_suite(JobConfig(suite="axioms", family="gamma", lam="0"))
    assert not bad.ok
    assert bad.checks[0].status == ERROR


def test_act_eval_applies_words_in_order():
    params = FamilyParams("gamma", 1)
    assert act_eval(params, "e*f", BiPoly.const(1)) == BiPoly.var_h()
    assert act_eval(params, "eb", BiPoly.var_h()) == BiPoly.parse("h - 2")
    with pytest.raises(PolyParseError):
        act_eval(params, "e*q", BiPoly.const(1))


@pytest.mark.parametrize("fields, message", [
    pytest.param({"suite": "whittaker", "depth": -1},
                 "depth must be >= 0, got -1", id="whittaker-depth"),
    pytest.param({"suite": "induced", "eta": "1", "depth": -1},
                 "depth must be >= 0", id="induced-depth"),
    pytest.param({"suite": "irreducible", "eta": "1", "seeds": 0},
                 "seeds must be >= 1, got 0", id="no-seeds"),
    pytest.param({"suite": "irreducible", "eta": "1", "seeds": -2},
                 "seeds must be >= 1", id="negative-seeds"),
    pytest.param({"suite": "whittaker", "mu1": ""}, "grid is empty",
                 id="empty-mu1"),
    pytest.param({"suite": "whittaker", "mu2": " , "}, "grid is empty",
                 id="blank-mu2"),
    pytest.param({"suite": "singular", "max_level": 0},
                 "max_level must be >= 1, got 0", id="singular-level"),
    pytest.param({"suite": "lemma51", "eta": "1", "g": "1", "r": 0},
                 "r must be >= 1", id="lemma51-r"),
    pytest.param({"suite": "lemma51", "eta": "1", "g": "0", "r": 1},
                 "g must be nonzero", id="lemma51-zero-g"),
    pytest.param({"suite": "irreducible", "depth": 1},
                 "seed hb^2 (x) v lies outside the depth-1 window",
                 id="irreducible-seed-outside"),
])
def test_sizes_below_their_minimum_are_errors(fields, message):
    """A run on an empty window, seed list, grid or scan is one ERROR
    record, never a vacuous PASS."""
    rep = run_suite(JobConfig(**fields))
    assert [c.status for c in rep.checks] == [ERROR]
    assert message in rep.checks[0].witness
    assert not rep.ok


def test_sizes_at_their_minimum_still_run():
    rep = run_suite(JobConfig(suite="whittaker", depth=0, mu1="1", mu2="1"))
    assert [c.status for c in rep.checks] != [ERROR] and rep.checks
    rep = run_suite(JobConfig(suite="singular", eta="1", max_level=1))
    assert rep.ok and len(rep.checks) == 2


def test_empty_sizes_exit_one_with_an_error_record():
    for args in (("singular", "--max-level", "0"),
                 ("verify", "whittaker", "--mu1", "")):
        proc = run_cli(*args)
        assert proc.returncode == 1, args
        payload = json.loads(proc.stdout)
        assert payload["summary"]["error"] == 1
        assert payload["summary"]["pass"] == 0


@pytest.mark.parametrize("argv", [["verify", "irreducible"],
                                  ["induced", "verify"]])
def test_every_job_field_is_forwarded_from_the_flags(argv):
    args = build_parser().parse_args(argv + ["--depth", "3", "--rng", "7"])
    kwargs = _suite_kwargs(args)
    fields = {f.name for f in dataclasses.fields(JobConfig)} - {"suite"}
    assert set(kwargs) == fields
    assert kwargs["depth"] == 3 and kwargs["rng"] == 7
