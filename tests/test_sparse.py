"""The shared sparse kernel: accumulate's merge order, the linear
structure of all seven element types, the (den, ints) helpers, and the
one term renderer, held equal to the per-type text methods it folded."""

from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from takiff import (BiPoly, IndElement, Q, SkewOperator, TensorElement,
                    UeaElement, UniPoly, VermaElement, format_scalar)
from takiff.algebra import GENERATORS
from takiff.induced import ind_order_key
from takiff.sparse import (accumulate, clear_denominators, combine,
                           lowest_terms)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None,
                             derandomize=True)

small = st.integers(0, 2)
rationals = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))
nonzero_rationals = rationals.filter(bool)


def sparse(keys, values=rationals):
    # zero coefficients are drawn on purpose: constructors must drop them
    return st.dictionaries(keys, values, max_size=4)


KEYS = {
    BiPoly: st.tuples(small, small),
    UniPoly: st.integers(0, 4),
    SkewOperator: st.tuples(small, small, small, st.integers(-2, 2)),
    UeaElement: st.tuples(small, small, small, small, small, small),
    VermaElement: st.tuples(small, small),
    IndElement: st.tuples(small, small, small, small),
}


def elements(cls):
    if cls is TensorElement:
        polys = sparse(KEYS[BiPoly]).map(BiPoly)
        return sparse(st.one_of(st.tuples(small, small), small), polys).map(cls)
    return sparse(KEYS[cls]).map(cls)


def no_zero_stored(x):
    for c in x.terms.values():
        if not c:
            return False
        if isinstance(c, BiPoly) and not no_zero_stored(c):
            return False
    return True


@pytest.mark.parametrize("cls", [BiPoly, UniPoly, SkewOperator, UeaElement,
                                 VermaElement, IndElement, TensorElement],
                         ids=lambda cls: cls.__name__)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_linear_structure(cls, data):
    x = data.draw(elements(cls))
    y = data.draw(elements(cls))
    c = data.draw(nonzero_rationals)
    for z in (x, x + y, x - y, x.scale(c), -x, x.scale(0)):
        assert no_zero_stored(z)
    assert (x - x).is_zero() and not (x - x)
    assert (x + y) - y == x
    assert x.scale(c).scale(1 / c) == x
    assert x + y == y + x
    assert -x == x.scale(-1)


def _reference_merge(out, items):
    """The plain merge loop accumulate replaces, kept as its oracle."""
    for k, c in items:
        s = out.get(k, Q(0)) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


@PROPERTY_SETTINGS
@given(start=sparse(st.integers(0, 5)).map(lambda d: {k: c for k, c in d.items() if c}),
       items=st.lists(st.tuples(st.integers(0, 5), rationals), max_size=12))
def test_accumulate_keeps_the_merge_loop_order(start, items):
    got = accumulate(dict(start), items)
    want = _reference_merge(dict(start), items)
    assert list(got.items()) == list(want.items())


def test_accumulate_merges_polynomial_values():
    h, hb = BiPoly.var_h(), BiPoly.var_hb()
    out = {0: h, 1: hb}
    accumulate(out, [(0, -h), (2, h), (1, h)])
    assert list(out.items()) == [(1, hb + h), (2, h)]


# -- the (den, ints) helpers ---------------------------------------------

int_vectors = st.dictionaries(st.integers(0, 5), st.integers(-30, 30), max_size=5)
nonzero_ints = st.integers(-40, 40).filter(bool)


def as_rationals(den, ints):
    return {k: Q(n, den) for k, n in ints.items() if n}


@PROPERTY_SETTINGS
@given(den=nonzero_ints, ints=int_vectors)
def test_lowest_terms_is_the_same_vector_in_lowest_terms(den, ints):
    d, out = lowest_terms(den, ints)
    assert d > 0
    assert reduce(gcd, out.values(), d) == 1
    assert as_rationals(d, out) == as_rationals(den, ints)
    assert out.keys() == ints.keys()


@PROPERTY_SETTINGS
@given(vec=sparse(st.integers(0, 5)))
def test_clear_denominators_keeps_the_vector(vec):
    den, ints = clear_denominators(vec)
    assert den > 0 and all(type(n) is int and n for n in ints.values())
    assert as_rationals(den, ints) == {k: c for k, c in vec.items() if c}


@PROPERTY_SETTINGS
@given(vec=int_vectors, extra=sparse(st.integers(6, 9)))
def test_clear_denominators_agrees_with_the_rational_route(vec, extra):
    """Int vectors (zeros included) take the shortcut, mixed and
    Fraction vectors the lcm route; each gives what the same vector
    written in Fractions gives, as a new dict of ints."""
    mixed = {**vec, **extra}
    for v in (vec, mixed, {k: Q(c) for k, c in mixed.items()}):
        den, ints = clear_denominators(v)
        assert (den, ints) == clear_denominators({k: Q(c) for k, c in v.items()})
        assert all(type(n) is int for n in ints.values())
        assert ints is not v


@PROPERTY_SETTINGS
@given(parts=st.lists(st.tuples(st.one_of(st.integers(-4, 4), rationals),
                                st.integers(1, 6), int_vectors),
                      max_size=4))
def test_combine_sums_the_scaled_vectors(parts):
    """Int and Fraction coefficients mixed: an int takes the int path
    with its part's den, a Fraction folds its denominator into it."""
    den, out = combine(parts)
    want = accumulate({}, ((k, c * Q(n, d)) for c, d, ints in parts
                           for k, n in ints.items()))
    assert as_rationals(den, out) == want
    assert den == reduce(lcm, (Q(c).denominator * d for c, d, ints in parts
                               if c and ints), 1)
    assert all(type(n) is int and n for n in out.values())


# -- the term renderer -------------------------------------------------------
#
# The text methods the shared renderer replaced, written out as they
# were: LinComb.text with term_text, powers_text and each type's _word
# must print every element exactly as these did.


def _format_term(coeff, factors):
    pieces = []
    for name, e in factors:
        if e == 1:
            pieces.append(name)
        elif e > 1:
            pieces.append(f"{name}^{e}")
    if not pieces:
        return format_scalar(coeff)
    if coeff == 1:
        return "*".join(pieces)
    if coeff == -1:
        return "-" + "*".join(pieces)
    return "*".join([format_scalar(coeff)] + pieces)


def bipoly_text(self):
    if not self.terms:
        return "0"
    parts = []
    for (i, j) in sorted(self.terms, reverse=True):
        parts.append(_format_term(self.terms[(i, j)], (("h", i), ("hb", j))))
    return " + ".join(parts)


def unipoly_text(self):
    if not self.terms:
        return "0"
    parts = []
    for j in sorted(self.terms, reverse=True):
        parts.append(_format_term(self.terms[j], (("hb", j),)))
    return " + ".join(parts)


def mono_text(mono):
    if not any(mono):
        return "1"
    pieces = []
    for idx, exp in enumerate(mono):
        if exp == 1:
            pieces.append(GENERATORS[idx])
        elif exp > 1:
            pieces.append(f"{GENERATORS[idx]}^{exp}")
    return " ".join(pieces)


def uea_text(self):
    if not self.terms:
        return "0"
    parts = []
    for mono in sorted(self.terms, reverse=True):
        c = self.terms[mono]
        body = mono_text(mono)
        if body == "1":
            parts.append(format_scalar(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-" + body)
        else:
            parts.append(f"{format_scalar(c)}*{body}")
    return " + ".join(parts)


def verma_text(self):
    if not self.terms:
        return "0"
    parts = []
    for (i, j) in sorted(self.terms, reverse=True):
        c = self.terms[(i, j)]
        body = mono_text((i, j, 0, 0, 0, 0))
        word = "v" if body == "1" else f"{body} v"
        if c == 1:
            parts.append(word)
        elif c == -1:
            parts.append("-" + word)
        else:
            parts.append(f"{format_scalar(c)}*{word}")
    return " + ".join(parts)


def ind_text(self):
    if not self.terms:
        return "0"
    parts = []
    for key in sorted(self.terms, key=ind_order_key):
        j, k, q, i = key
        left = []
        for name, exp in (("f", j), ("fb", k), ("h", q)):
            if exp == 1:
                left.append(name)
            elif exp > 1:
                left.append(f"{name}^{exp}")
        head = " ".join(left) if left else "1"
        tail = f"hb^{i}" if i > 1 else ("hb" if i == 1 else "1")
        word = f"{head} (x) {tail}"
        c = self.terms[key]
        if c == 1:
            parts.append(word)
        elif c == -1:
            parts.append("-" + word)
        else:
            parts.append(f"{format_scalar(c)}*{word}")
    return " + ".join(parts)


ORACLE_TEXT = {BiPoly: bipoly_text, UniPoly: unipoly_text, UeaElement: uea_text,
               VermaElement: verma_text, IndElement: ind_text}

# units and zero drawn often, beside other rationals; small exponents
# draw the identity word (every exponent 0) often too
text_coefficients = st.one_of(st.sampled_from([Q(1), Q(-1), Q(0)]), rationals)


@pytest.mark.parametrize("cls", list(ORACLE_TEXT), ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_text_matches_the_per_type_renderers(cls, data):
    x = cls(data.draw(sparse(KEYS[cls], text_coefficients)))
    assert x.text() == ORACLE_TEXT[cls](x)


def test_text_of_units_on_the_identity_word():
    assert BiPoly({(0, 0): Q(-1), (1, 0): Q(1), (0, 2): Q(-1),
                   (2, 1): Q(3, 2)}).text() == "3/2*h^2*hb + h + -hb^2 + -1"
    assert UniPoly({0: Q(1), 1: Q(-1), 3: Q(-2, 3)}).text() == "-2/3*hb^3 + -hb + 1"
    assert UeaElement({(0,) * 6: Q(-1), (1, 0, 0, 0, 0, 1): Q(1),
                       (0, 2, 1, 0, 0, 0): Q(-1), (0, 0, 0, 1, 2, 0): Q(5)}
                      ).text() == "f eb + -fb^2 h + 5*hb e^2 + -1"
    assert VermaElement({(0, 0): Q(-1), (1, 0): Q(1), (0, 2): Q(-1),
                         (2, 1): Q(7, 3)}).text() == "7/3*f^2 fb v + f v + -fb^2 v + -v"
    assert IndElement({(0, 0, 0, 0): Q(-1), (1, 0, 0, 1): Q(1), (0, 2, 1, 0): Q(-1),
                       (2, 1, 0, 3): Q(-1, 2)}).text() == (
        "-1 (x) 1 + f (x) hb + -1/2*f^2 fb (x) hb^3 + -fb^2 h (x) 1")
    for cls in ORACLE_TEXT:
        assert cls().text() == "0"
