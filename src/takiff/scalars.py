"""Exact rational scalars.

Every quantity in this library is an exact rational number; floating
point never appears.  The canonical representation (reduced fraction,
positive denominator, 0 = 0/1) is exactly what ``fractions.Fraction``
guarantees, so that is the contract.  When gmpy2 is installed its
``mpq`` type is used instead -- same semantics, same string form,
roughly an order of magnitude faster, which matters in the row
reduction loops.
"""

try:  # pragma: no cover - exercised implicitly by every test
    from gmpy2 import mpq as _Q

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q

    BACKEND = "fractions"

#: Rational constructor.  Accepts ints, strings like "3" or "-5/7",
#: (num, den) pairs and existing rationals.
Q = _Q

ZERO = Q(0)
ONE = Q(1)


class ScalarParseError(ValueError):
    """Raised when a string is not a valid rational literal."""


def parse_scalar(text):
    """Parse "p" or "p/q" into an exact rational.

    Whitespace around the literal (and around "/") is tolerated;
    anything else raises ScalarParseError.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar literal")
    try:
        return Q(s)
    except ValueError as exc:
        raise ScalarParseError(f"bad scalar literal {text!r}: {exc}") from None
    except ZeroDivisionError:
        raise ScalarParseError(f"bad scalar literal {text!r}: zero denominator") from None


def format_scalar(x):
    """Canonical text form: "p/q", with "/1" omitted."""
    return str(x)
