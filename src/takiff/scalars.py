"""Exact rational scalars.

Every quantity in this library is an exact rational number; floating
point never appears.  The canonical representation (reduced fraction,
positive denominator, 0 = 0/1) is exactly what ``fractions.Fraction``
guarantees, so that is the contract, and ``Q`` is that type.
"""

import re
from fractions import Fraction as Q

#: The scalar type's name, recorded beside every benchmark run.
BACKEND = "fractions"

ZERO = Q(0)

_LITERAL = re.compile(r"\s*([+-]?[0-9]+)\s*(?:/\s*([0-9]+)\s*)?")


class ScalarParseError(ValueError):
    """Raised when a string is not a valid rational literal."""


def parse_scalar(text):
    """Parse "p" or "p/q" into an exact rational.

    Whitespace around the literal (and around "/") is tolerated;
    anything else raises ScalarParseError.
    """
    match = _LITERAL.fullmatch(text)
    if match is None:
        raise ScalarParseError(f"bad scalar literal {text!r}: not p or p/q")
    num, den = match.groups()
    try:
        return Q(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ScalarParseError(f"bad scalar literal {text!r}: zero denominator") from None


def format_scalar(x):
    """Canonical text form: "p/q", with "/1" omitted."""
    return str(x)
