"""Command-line surface: exit codes, the JSON report format, determinism."""

import json
import subprocess
import sys

import pytest

from takiff import (ERROR, GENERATORS, BiPoly, FamilyParams, HighestWeight,
                    JobConfig, PolyParseError, TensorModule, UniPoly,
                    act_eval, build_hw_module, ind_window_basis, run_suite)
from takiff.cli import _check_sizes, _depth_reach, _suite_kwargs, build_parser
from takiff.induced import InducedAction, PhiValues, borel_spec_for
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
    assert proc.stderr.startswith("error: bad scalar literal '1/0'")
    assert "Traceback" not in proc.stderr


ZERO_DEN = "bad scalar literal '1/0': zero denominator"


@pytest.mark.parametrize("args,witness", [
    pytest.param(("verify", "irreducible", "--eta", "1/0"), ZERO_DEN,
                 id="verify-eta"),
    pytest.param(("verify", "axioms", "--b", "1/0"), ZERO_DEN, id="verify-b"),
    pytest.param(("verify", "whittaker", "--mu2", "0,1/0"), ZERO_DEN,
                 id="verify-mu2"),
    pytest.param(("singular", "--theta", "1/0"), ZERO_DEN, id="singular-theta"),
    # literals Fraction reads but the grammar p or p/q does not
    pytest.param(("verify", "axioms", "--lambda", "1.5"),
                 "bad scalar literal '1.5': not p or p/q", id="decimal-point"),
    pytest.param(("verify", "axioms", "--lambda", "1e3"),
                 "bad scalar literal '1e3': not p or p/q", id="exponent"),
    pytest.param(("verify", "axioms", "--a", "1_000"),
                 "bad scalar literal '1_000': not p or p/q", id="underscore"),
    pytest.param(("singular", "--eta", ".5"),
                 "bad scalar literal '.5': not p or p/q", id="leading-point"),
])
def test_a_zero_denominator_in_a_suite_names_the_literal(args, witness):
    """A scalar flag goes through parse_scalar: the one ERROR record
    names the literal, not the exception's Fraction(1, 0), and a literal
    outside the grammar [+-]digits[/digits] is one such record too."""
    proc = run_cli(*args)
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert [c["status"] for c in payload["checks"]] == [ERROR]
    assert payload["checks"][0]["witness"] == witness
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


@pytest.mark.parametrize("expr, symbol, position", [
    ("e*q", "q", 2),
    ("e * q", "q", 4),
    ("e**f", "", 2),
    ("*f", "", 0),
    ("f* ", "", 2),
    ("  q*e", "q", 2),
    ("e*f*  hq ", "hq", 6),
])
def test_act_eval_reports_the_column_of_the_stripped_symbol(expr, symbol,
                                                             position):
    """The column of a bad symbol is where its stripped text starts; an
    empty piece is reported just after its '*'."""
    with pytest.raises(PolyParseError) as info:
        act_eval(FamilyParams("gamma", 1), expr, BiPoly.const(1))
    assert info.value.position == position
    assert str(info.value) == (f"parse error at symbol {symbol!r} "
                               f"(at position {position})")


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


def test_a_repeated_grid_value_is_checked_once():
    """mu1 = 0,0 and mu2 = 2,4/2 parse to the one point (0, 2): the grid
    keeps the first occurrence of each value, so the report has one
    record, not four with the same id."""
    rep = run_suite(JobConfig(suite="whittaker", family="gamma", lam="2",
                              eta="0", theta="1", depth=1, mu1="0,0",
                              mu2="2,4/2"))
    assert [c.id for c in rep.checks] == [
        "whittaker[mu1=0,mu2=2]/gamma(lam=2,a=0,b=0) (x) L(eta=0,theta=1)"]
    assert rep.config["grid"] == "(0,2)"


DEPTH_BOUND = KEY_FIELD - 2  # window fields reach depth + 2 in one step


@pytest.mark.parametrize("suite", ["irreducible", "induced", "whittaker"])
def test_a_depth_past_the_packing_bound_is_one_error_record(suite):
    """The window of depth bound + 1 cannot be packed, so the run stops
    before any work; the bound itself passes the size check.  On theta,
    whose phi adds no hb-degree, every suite has this bound."""
    _check_sizes(JobConfig(suite=suite, family="theta", eta="1",
                           depth=DEPTH_BOUND))
    config = JobConfig(suite=suite, family="theta", eta="1",
                       depth=DEPTH_BOUND + 1)
    message = f"depth must be <= {DEPTH_BOUND}, got {DEPTH_BOUND + 1}"
    with pytest.raises(ValueError, match=message):
        _check_sizes(config)  # first, so a wrong bound fails before a run
    rep = run_suite(config)
    assert [c.status for c in rep.checks] == [ERROR]
    assert rep.checks[0].witness == message


@pytest.mark.parametrize("family, beta, r, step", [
    pytest.param("gamma", "0", 3, 2, id="gamma"),
    pytest.param("theta", "0", 1, 2, id="theta"),
    pytest.param("omega", "0", 2, 1, id="omega-0"),
    pytest.param("omega", "hb", 2, 1, id="omega-hb"),
    pytest.param("omega", "hb^2", 3, 2, id="omega-hb2"),
    pytest.param("omega", "hb^3 + 1", 4, 3, id="omega-hb3"),
])
def test_the_depth_reach_is_the_measured_reach(family, beta, r, step):
    """At depth d = 1-4, the images of the window under the six
    generators reach field d + step exactly; phi of every induced window
    tuple reaches r * d exactly, and the homomorphism replay over the
    whole induced window, on both sides, reaches r * d + step exactly."""
    for suite in ("irreducible", "whittaker"):
        config = JobConfig(suite=suite, family=family, beta=beta)
        assert _depth_reach(config) == (1, step)
    config = JobConfig(suite="induced", family=family, beta=beta)
    assert _depth_reach(config) == (r, step)
    params = FamilyParams(family, 1, a=1, beta=UniPoly.parse(beta))
    mod = TensorModule(params, build_hw_module(HighestWeight(1, 0)))
    gens = [g for g in GENERATORS
            if g != "e" or "e" in borel_spec_for(mod).generators]

    def reach(vec):
        return max((max(sum(idx), i, j) for idx, i, j in map(mod.unpack, vec)),
                   default=0)

    for d in range(1, 5):
        assert max(reach(mod.image(gen, {key: 1})[1])
                   for key in mod.window_basis(d)
                   for gen in GENERATORS) == d + step
        phi, induced = PhiValues(mod), InducedAction(borel_spec_for(mod))
        window = ind_window_basis(d)
        assert max(reach(phi.of(key)[1]) for key in window) == r * d
        step_reach = max(max(reach(mod.image(gen, phi.of(key)[1])[1]),
                             reach(phi.lin(*induced.image(gen, key))[1]))
                         for key in window for gen in gens)
        assert step_reach == r * d + step, d


@pytest.mark.parametrize("suite, family, beta, bound", [
    ("induced", "gamma", "0", 1364),
    ("induced", "theta", "0", 4093),
    ("induced", "omega", "hb", 2047),
    ("induced", "omega", "hb^2", 1364),
    ("induced", "omega", "hb^3 + 1", 1023),
    ("irreducible", "omega", "hb^3 + 1", 4092),
    ("whittaker", "omega", "hb", 4094),
])
def test_a_depth_past_the_family_bound_is_one_error_record(suite, family,
                                                           beta, bound):
    """(KEY_FIELD - step) // r with the measured r and step: some field
    of the run at depth bound + 1 would pass KEY_FIELD, so the run is
    one ERROR record before any work; the bound passes the size check."""
    fields = dict(suite=suite, family=family, beta=beta, eta="1")
    _check_sizes(JobConfig(**fields, depth=bound))
    config = JobConfig(**fields, depth=bound + 1)
    message = f"depth must be <= {bound}, got {bound + 1}"
    with pytest.raises(ValueError, match=message):
        _check_sizes(config)  # first, so a wrong bound fails before a run
    rep = run_suite(config)
    assert [c.status for c in rep.checks] == [ERROR]
    assert rep.checks[0].witness == message


def test_a_huge_depth_exits_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "takiff", "verify", "irreducible", "--family",
         "gamma", "--lambda", "1", "--eta", "1", "--theta", "0", "--depth",
         "5000", "--seeds", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert [c["status"] for c in payload["checks"]] == [ERROR]
    assert payload["checks"][0]["witness"] == (f"depth must be <= "
                                               f"{DEPTH_BOUND}, got 5000")


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
    fields = set(JobConfig.FIELDS) - {"suite"}
    assert set(kwargs) == fields
    assert kwargs["depth"] == 3 and kwargs["rng"] == 7
