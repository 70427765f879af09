"""The six-generator bracket table and the ordered-monomial normal form."""

import random

from takiff import GENERATORS, Q, UeaElement, bracket, uea_normalize
from takiff.algebra import annihilator_element, gen_times_word


def gen_elt(g):
    return UeaElement.gen(g)


def f_power(n):
    return UeaElement.monomial(1, j=n)


def test_bracket_antisymmetry_and_diagonal():
    for x in GENERATORS:
        assert bracket(x, x) == {}
        for y in GENERATORS:
            xy = bracket(x, y)
            assert bracket(y, x) == {g: -c for g, c in xy.items()}


def test_barred_half_is_abelian():
    for x in ("eb", "fb", "hb"):
        for y in ("eb", "fb", "hb"):
            assert bracket(x, y) == {}


def test_bracket_table_spot_values():
    assert bracket("e", "f") == {"h": 1}
    assert bracket("e", "fb") == {"hb": 1}
    assert bracket("eb", "f") == {"hb": 1}
    assert bracket("h", "e") == {"e": 2}
    assert bracket("h", "eb") == {"eb": 2}
    assert bracket("h", "fb") == {"fb": -2}
    assert bracket("hb", "f") == {"fb": -2}


def test_jacobi_identity_everywhere():
    def ad(x, terms):
        out = {}
        for g, c in terms.items():
            for g2, c2 in bracket(x, g).items():
                out[g2] = out.get(g2, 0) + c * c2
        return out

    for x in GENERATORS:
        for y in GENERATORS:
            for z in GENERATORS:
                total = {}
                for part in (ad(x, bracket(y, z)),
                             ad(y, bracket(z, x)),
                             ad(z, bracket(x, y))):
                    for g, c in part.items():
                        total[g] = total.get(g, 0) + c
                assert all(c == 0 for c in total.values()), (x, y, z, total)


def test_bracket_matches_envelope_commutator():
    for x in GENERATORS:
        for y in GENERATORS:
            expect = UeaElement.zero()
            for g, c in bracket(x, y).items():
                expect = expect + gen_elt(g).scale(c)
            assert gen_elt(x) * gen_elt(y) - gen_elt(y) * gen_elt(x) == expect


def test_normalize_strategies_agree():
    """Straightening in any rewrite order lands on the same normal form."""
    rng = random.Random(31)
    for _ in range(40):
        word = tuple(rng.choice(GENERATORS) for _ in range(rng.randrange(1, 7)))
        base = uea_normalize(word)
        assert uea_normalize(word, strategy="leftmost") == base
        assert uea_normalize(word, strategy="rightmost") == base


def test_normalize_carries_coefficients():
    word = ("e", "f")
    assert uea_normalize(word, coeff=Q(3)) == uea_normalize(word).scale(3)
    assert uea_normalize((), coeff=Q(5)) == UeaElement.one().scale(5)


def test_multiplication_is_associative():
    rng = random.Random(32)
    elts = []
    for _ in range(6):
        u = UeaElement.zero()
        for _ in range(2):
            word = tuple(rng.choice(GENERATORS) for _ in range(rng.randrange(0, 4)))
            u = u + uea_normalize(word, coeff=Q(rng.randrange(-3, 4)))
        elts.append(u)
    for a in elts[:3]:
        for b in elts[2:5]:
            for c in elts[4:]:
                assert (a * b) * c == a * (b * c)


def test_raising_past_unbarred_lowering_powers():
    # e f^n = f^n e + n f^(n-1) h - n(n-1) f^(n-1)
    for n in range(1, 7):
        expect = (UeaElement.monomial(1, j=n, p=1)
                  + UeaElement.monomial(n, j=n - 1, q=1)
                  + UeaElement.monomial(-n * (n - 1), j=n - 1))
        assert gen_elt("e") * f_power(n) == expect


def test_barred_raising_past_unbarred_lowering_powers():
    # eb f^n = f^n eb + n f^(n-1) hb - n(n-1) f^(n-2) fb
    for n in range(1, 7):
        expect = (UeaElement.monomial(1, j=n, m=1)
                  + UeaElement.monomial(n, j=n - 1, i=1))
        if n >= 2:
            expect = expect + UeaElement.monomial(-n * (n - 1), j=n - 2, k=1)
        assert gen_elt("eb") * f_power(n) == expect


def test_raising_past_barred_lowering_powers():
    # e fb^n = fb^n e + n fb^(n-1) hb, and eb slides through fb freely
    for n in range(1, 7):
        expect = (UeaElement.monomial(1, k=n, p=1)
                  + UeaElement.monomial(n, k=n - 1, i=1))
        assert gen_elt("e") * UeaElement.monomial(1, k=n) == expect
        assert gen_elt("eb") * UeaElement.monomial(1, k=n) == UeaElement.monomial(1, k=n, m=1)


def test_cartan_weights_through_lowering():
    for n in range(1, 6):
        assert gen_elt("h") * f_power(n) == (
            UeaElement.monomial(1, j=n, q=1) + UeaElement.monomial(-2 * n, j=n))
        assert gen_elt("hb") * f_power(n) == (
            UeaElement.monomial(1, j=n, i=1) + UeaElement.monomial(-2 * n, j=n - 1, k=1))


def test_cached_left_multiplication_agrees():
    for g in GENERATORS:
        for j in range(4):
            for k in range(3):
                assert UeaElement(gen_times_word(g, j, k, 0)) == \
                    gen_elt(g) * UeaElement.monomial(1, j=j, k=k)


def test_annihilator_elements_are_the_stated_binomials():
    lam, a = Q(2), Q(3)
    base = UeaElement.monomial(Q(1) / lam, m=1) - UeaElement.one()
    for r in (1, 2, 3):
        assert annihilator_element("gamma", r, lam) == base ** r
    base = UeaElement.monomial(Q(1) / lam, k=1) - UeaElement.one()
    for r in (1, 2):
        assert annihilator_element("theta", r, lam) == base ** r
    core = (UeaElement.monomial(1, k=1, m=1)
            + UeaElement.monomial(Q(1, 4), i=2)).scale(Q(4) / (a * a))
    for r in (1, 2):
        assert annihilator_element("omega", r, lam, a) == (core - UeaElement.one()) ** r
