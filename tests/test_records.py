"""The record classes: check records, parameter packs, recovered
parameters.  They are plain classes, so every validation, coercion and
the frozen records' value semantics are written out by hand; these
tests pin each of them."""

from functools import lru_cache

import pytest

from takiff import (BorelSpec, FamilyParams, HighestWeight, Q, Report,
                    UniPoly)
from takiff.report import CheckRecord
from takiff.tensor import RecoveredParams


def test_an_unknown_status_is_refused():
    with pytest.raises(ValueError, match="unknown status 'MAYBE'"):
        CheckRecord("x", "MAYBE")
    rep = Report("s")
    with pytest.raises(ValueError, match="unknown status 'pass'"):
        rep.add("x", "pass")
    assert rep.checks == []


@pytest.mark.parametrize("args, kwargs, message", [
    pytest.param(("delta", 1), {}, "unknown family 'delta'", id="family"),
    pytest.param(("gamma", 0), {}, "lambda must be nonzero", id="gamma-lam"),
    pytest.param(("theta", "0/5"), {}, "lambda must be nonzero",
                 id="theta-lam"),
    pytest.param(("omega", 1), {"beta": 3}, "beta must be a UniPoly",
                 id="beta"),
    pytest.param(("gamma", 1), {"beta": [1]}, "beta must be a UniPoly",
                 id="gamma-beta"),
    pytest.param(("omega", 1), {"beta": "hb", "alpha": 2},
                 "alpha must be a UniPoly", id="alpha"),
])
def test_family_params_validation_messages(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        FamilyParams(*args, **kwargs)


def test_family_params_coerce_and_default():
    p = FamilyParams("gamma", "2", a=1, b="-1/2")
    assert (p.lam, p.a, p.b) == (Q(2), Q(1), Q(-1, 2))
    assert p.beta == UniPoly.zero() and p.alpha == UniPoly.zero()
    # an alpha given to a gamma module is not kept
    assert FamilyParams("gamma", 1, alpha=UniPoly.parse("hb")).alpha == \
        UniPoly.zero()
    o = FamilyParams("omega", 2, 1, beta="hb^2 + 1", alpha="hb")
    assert (o.beta, o.alpha) == (UniPoly.parse("hb^2 + 1"),
                                 UniPoly.parse("hb"))


@pytest.mark.parametrize("args, message", [
    pytest.param(("nope", 1), "unknown family 'nope'", id="family"),
    pytest.param(("theta", 0), "lambda must be nonzero", id="lam"),
])
def test_borel_spec_validation_messages(args, message):
    with pytest.raises(ValueError, match=message):
        BorelSpec(*args)


def test_frozen_records_refuse_assignment():
    records = [(FamilyParams("gamma", 1), "lam"),
               (HighestWeight(1, 0), "eta"),
               (BorelSpec("gamma", 1), "a"),
               (RecoveredParams("gamma", 1, 0, 0, None, 1, 0), "b")]
    for record, name in records:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field "
                                                 f"'{name}'"):
            setattr(record, name, 5)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) == before


def test_frozen_records_compare_and_hash_by_value():
    hw = HighestWeight(1, "1/2")
    assert (hw.eta, hw.theta) == (Q(1), Q(1, 2))
    assert hw == HighestWeight(Q(1), Q(1, 2))
    assert hash(hw) == hash(HighestWeight(Q(1), Q(1, 2)))
    assert hw != HighestWeight(Q(1, 2), Q(1))
    assert len({BorelSpec("theta", 2, 1), BorelSpec("theta", "2", "1"),
                BorelSpec("omega", 2, 1)}) == 2
    assert FamilyParams("omega", 1, beta="hb") == \
        FamilyParams("omega", Q(1), beta=UniPoly.parse("hb"))
    assert FamilyParams("gamma", 1) != FamilyParams("theta", 1)
    # equality is per class, never across two records with equal fields
    assert HighestWeight(1, 0) != RecoveredParams("x", 1, 0, 0, None, 1, 0)
    assert repr(hw) == f"HighestWeight(eta={Q(1)!r}, theta={Q(1, 2)!r})"


def test_equal_parameter_packs_hash_equal():
    """FamilyParams holds UniPolys, so it hashes through LinComb's hash,
    which agrees with its equality: two omega packs built apart are one
    dict key and one lru_cache key."""
    one = FamilyParams("omega", 1, a="1/2", beta="hb^2 + 1")
    two = FamilyParams("omega", Q(1), a=Q(1, 2),
                       beta=UniPoly.parse("1 + hb^2"))
    assert one == two and one.beta is not two.beta
    assert hash(one) == hash(two) and hash(one.alpha) == hash(two.alpha)
    assert hash(FamilyParams("gamma", 1)) == hash(FamilyParams("gamma", "1"))
    table = {one: "first"}
    table[two] = "second"
    assert table == {one: "second"}
    assert {one, two, FamilyParams("omega", 1, a="1/2", beta="hb")} == \
        {one, FamilyParams("omega", 1, a="1/2", beta="hb")}

    calls = []

    @lru_cache(maxsize=8)
    def alpha_text(params):
        calls.append(params)
        return params.alpha.text()

    assert alpha_text(one) == alpha_text(two)
    assert calls == [one]
