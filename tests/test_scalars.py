"""The one scalar type, and the literal grammar the command line and the
polynomial parser read scalars in."""

import fractions
import re

import pytest

import takiff.scalars
from takiff.scalars import Q, ScalarParseError, parse_scalar


def test_the_scalar_type_is_fraction():
    """perfbench records BACKEND beside every run, so it names Q's type."""
    assert takiff.scalars.Q is fractions.Fraction
    assert takiff.scalars.BACKEND == "fractions"


@pytest.mark.parametrize("text,value", [
    ("3", Q(3)), ("-5/7", Q(-5, 7)), ("+4", Q(4)), ("6/4", Q(3, 2)),
    (" 1 / 2 ", Q(1, 2)), ("007", Q(7)), ("-0", Q(0)),
])
def test_parse_scalar_reads_p_and_p_over_q(text, value):
    got = parse_scalar(text)
    assert got == value and type(got) is Q


@pytest.mark.parametrize("text", [
    "1.5", "1e3", "1_000", ".5", "1 2", "- 3", "1/-2", "1/2/3", "0x10",
    "inf", "nan", "1/", "/2", "", "  ",
])
def test_parse_scalar_takes_only_p_or_p_over_q(text):
    with pytest.raises(ScalarParseError, match=re.escape(
            f"bad scalar literal {text!r}: not p or p/q")):
        parse_scalar(text)

