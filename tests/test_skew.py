"""Operators on Q[h,hb] built from h, hb, the hb-derivative and the h-shift.

Composition has to thread the two rewrite rules (derivative past hb,
shift past h); everything here cross-checks the composed normal form
against direct application, and the integer products against a plain
rational loop written out below.
"""

import random
from math import comb

from hypothesis import given, settings, strategies as st

from takiff import BiPoly, Q
from takiff.skew import SkewOperator


def random_poly(rng, deg=3):
    p = BiPoly.zero()
    for _ in range(rng.randrange(1, 5)):
        p = p + BiPoly.monomial(Q(rng.randrange(-5, 6)),
                                rng.randrange(deg + 1), rng.randrange(deg + 1))
    return p


def random_operator(rng):
    op = SkewOperator.zero()
    for _ in range(rng.randrange(1, 4)):
        op = op + SkewOperator.word(Q(rng.randrange(-4, 5)),
                                    i=rng.randrange(3), j=rng.randrange(3),
                                    k=rng.randrange(3), m=rng.randrange(-2, 3))
    return op


def test_compose_matches_apply():
    rng = random.Random(21)
    for _ in range(25):
        A, B = random_operator(rng), random_operator(rng)
        p = random_poly(rng)
        assert (A * B).apply(p) == A.apply(B.apply(p))


def test_rewrite_relations():
    db = SkewOperator.dbar()
    hb = SkewOperator.mult(BiPoly.var_hb())
    h = SkewOperator.mult(BiPoly.var_h())
    one = SkewOperator.identity()
    # the derivative slides past hb at the cost of the identity
    assert db * hb - hb * db == one
    # and commutes with the other variable outright
    assert db * h == h * db
    # the shift walks past h, dropping it by two per step
    for m in (1, 2, 3):
        s = SkewOperator.sigma(m)
        assert s * h == h * s - s.scale(2 * m)
    assert SkewOperator.sigma(2) * SkewOperator.sigma(-2) == one
    assert SkewOperator.sigma(1) * SkewOperator.sigma(1) == SkewOperator.sigma(2)


def test_apply_examples():
    p = BiPoly.parse("h^2*hb + 3*h")
    assert SkewOperator.sigma(2).apply(p) == BiPoly.parse(
        "h^2*hb - 8*h*hb + 3*h + 16*hb - 12")
    assert SkewOperator.dbar().apply(p) == BiPoly.parse("h^2")
    assert SkewOperator.mult(BiPoly.var_hb()).apply(p) == BiPoly.parse(
        "h^2*hb^2 + 3*h*hb")
    assert SkewOperator.mult(p).apply(BiPoly.const(1)) == p


def test_commutator_and_linearity():
    rng = random.Random(22)
    for _ in range(15):
        A, B = random_operator(rng), random_operator(rng)
        p = random_poly(rng)
        assert A.commutator(B) == A * B - B * A
        assert (A + B).apply(p) == A.apply(p) + B.apply(p)
        assert A.scale(Q(3, 2)).apply(p) == BiPoly.const(Q(3, 2)) * A.apply(p)
        assert (-A).apply(p) == -A.apply(p)


def test_powers():
    db = SkewOperator.dbar()
    assert (db ** 3).apply(BiPoly.parse("hb^4")) == BiPoly.parse("24*hb")
    assert db ** 0 == SkewOperator.identity()
    assert SkewOperator.sigma(1) ** 3 == SkewOperator.sigma(3)
    rng = random.Random(23)
    A = random_operator(rng)
    assert A ** 2 == A * A


def reference_compose(A, B):
    """A . B by the rewrite rules on Fractions, term by term: the
    rational normal-form loop, kept here as the oracle of the integer
    products."""
    out = {}
    for (i1, j1, k1, m1), c1 in A.terms.items():
        for (i2, j2, k2, m2), c2 in B.terms.items():
            base = c1 * c2
            # s^m1 h^i2 -> (h - 2 m1)^i2 s^m1 ; db^k1 hb^j2 -> Leibniz
            for u in range(i2 + 1):
                cu = base * comb(i2, u) * Q(-2 * m1) ** (i2 - u)
                if cu == 0:
                    continue
                for t in range(min(k1, j2) + 1):
                    falling = 1
                    for r in range(t):
                        falling *= j2 - r
                    key = (i1 + u, j1 + j2 - t, k1 + k2 - t, m1 + m2)
                    out[key] = out.get(key, 0) + cu * comb(k1, t) * falling
    return {k: c for k, c in out.items() if c}


def reference_difference(x, y):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


rational_operators = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
              st.integers(-3, 3)),
    st.builds(Q, st.integers(-6, 6).filter(bool), st.integers(1, 6)),
    max_size=4).map(SkewOperator)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(rational_operators, rational_operators)
def test_integer_products_match_the_rational_loop(A, B):
    ab, ba = reference_compose(A, B), reference_compose(B, A)
    assert A.compose(B).terms == ab
    assert B.compose(A).terms == ba
    assert A.commutator(B).terms == reference_difference(ab, ba)
    assert A.commutator(B) == A.compose(B) - B.compose(A)
    for op in (A.compose(B), A.commutator(B)):
        assert all(type(c) is Q and c for c in op.terms.values())


coefficients = st.one_of(st.integers(-3, 3),
                         st.builds(Q, st.integers(-6, 6), st.integers(1, 6)))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(rational_operators, rational_operators,
       st.lists(st.tuples(coefficients, rational_operators), max_size=3))
def test_commutator_subtracts_the_bracket_side_on_ints(A, B, minus):
    want = reference_difference(reference_compose(A, B), reference_compose(B, A))
    for c, op in minus:
        want = reference_difference(want, {k: c * v for k, v in op.terms.items()})
    got = A.commutator(B, minus=minus)
    assert got.terms == want
    assert all(type(c) is Q and c for c in got.terms.values())
    assert A.commutator(B, minus=[(1, A.commutator(B))]).is_zero()
