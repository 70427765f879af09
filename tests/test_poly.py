"""Ring laws, parsing, and derivations for the exact polynomial types."""

import random

import pytest

from takiff import BiPoly, PolyParseError, Q, UniPoly


def random_bipoly(rng, deg=4):
    p = BiPoly.zero()
    for _ in range(rng.randrange(1, 6)):
        c = Q(rng.randrange(-9, 10), rng.randrange(1, 5))
        p = p + BiPoly.monomial(c, rng.randrange(deg + 1), rng.randrange(deg + 1))
    return p


def random_unipoly(rng, deg=5):
    q = UniPoly.zero()
    for _ in range(rng.randrange(1, 5)):
        q = q + UniPoly.monomial(Q(rng.randrange(-6, 7)), rng.randrange(deg + 1))
    return q


def test_bipoly_ring_laws():
    rng = random.Random(101)
    for _ in range(30):
        p, q, r = (random_bipoly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p - p == BiPoly.zero()
        assert p * BiPoly.const(1) == p


def test_zero_coefficients_are_dropped():
    assert BiPoly.monomial(0, 1, 1).is_zero()
    assert BiPoly.monomial(0, 1, 1).terms == {}
    p = BiPoly.parse("h + hb")
    assert (p - p).terms == {}


def test_parse_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        p = random_bipoly(rng)
        assert BiPoly.parse(p.text()) == p
    for s in ("0", "1", "-1", "h", "hb", "2*h^3*hb - 1/2", "h*hb + -1/2"):
        p = BiPoly.parse(s)
        assert BiPoly.parse(p.text()) == p


def test_unipoly_round_trip_and_h_rejected():
    rng = random.Random(12)
    for _ in range(30):
        q = random_unipoly(rng)
        assert UniPoly.parse(q.text()) == q
    with pytest.raises(PolyParseError) as err:
        UniPoly.parse("hb + h")
    assert err.value.position == 5


def test_parse_errors_carry_positions():
    with pytest.raises(PolyParseError) as err:
        BiPoly.parse("h + $")
    assert err.value.position == 4
    with pytest.raises(PolyParseError) as err:
        BiPoly.parse("h + ")
    assert err.value.position == 2


def test_shift_h_is_substitution():
    p = BiPoly.parse("h^2 - 3*h*hb")
    assert p.shift_h(1) == BiPoly.parse("h^2 + 2*h + 1 - 3*h*hb - 3*hb")
    rng = random.Random(13)
    for d in (-2, 2, 4):
        q = random_bipoly(rng)
        # shifting back is exactly inverse, no rounding anywhere
        assert q.shift_h(d).shift_h(-d) == q
    q = random_bipoly(rng)
    assert q.shift_h(2).shift_h(2) == q.shift_h(4)
    assert q.shift_h(0) == q


def test_dbar_is_a_derivation():
    rng = random.Random(14)
    for _ in range(25):
        p, q = random_bipoly(rng), random_bipoly(rng)
        assert (p * q).dbar() == p.dbar() * q + p * q.dbar()
    assert BiPoly.var_hb().dbar() == BiPoly.const(1)
    assert BiPoly.var_h().dbar() == BiPoly.zero()
    assert BiPoly.parse("hb^3").dbar() == BiPoly.parse("3*hb^2")


def test_degrees_and_coefficients():
    p = BiPoly.parse("2*h^3*hb + hb^4 - 5")
    assert p.deg_h() == 3
    assert p.deg_hb() == 4
    assert p.coefficient(3, 1) == 2
    assert p.coefficient(0, 0) == -5
    assert p.coefficient(1, 1) == 0
    assert not p.divisible_by_hb()
    assert BiPoly.parse("h*hb + hb^2").divisible_by_hb()


def test_unipoly_derivative_and_eval():
    rng = random.Random(15)
    for _ in range(20):
        q, r = random_unipoly(rng), random_unipoly(rng)
        assert (q * r).derivative() == q.derivative() * r + q * r.derivative()
        x = Q(rng.randrange(-4, 5))
        assert (q * r).eval_at(x) == q.eval_at(x) * r.eval_at(x)
        assert (q + r).eval_at(x) == q.eval_at(x) + r.eval_at(x)
    assert UniPoly.parse("hb^2 - 2").eval_at(Q(3)) == 7


def test_unipoly_embeds_in_bipoly():
    rng = random.Random(16)
    for _ in range(10):
        q, r = random_unipoly(rng), random_unipoly(rng)
        assert (q + r).to_bipoly() == q.to_bipoly() + r.to_bipoly()
        assert (q * r).to_bipoly() == q.to_bipoly() * r.to_bipoly()
    assert UniPoly.var_hb().to_bipoly() == BiPoly.var_hb()
