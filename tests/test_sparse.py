"""The shared sparse kernel: accumulate's merge order and the linear
structure of all seven element types."""

import pytest
from hypothesis import given, settings, strategies as st

from takiff import (BiPoly, IndElement, Q, SkewOperator, TensorElement,
                    UeaElement, UniPoly, VermaElement)
from takiff.sparse import accumulate

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
