"""The sparse linear-combination kernel shared by every exact element type.

Polynomials, skew operators, PBW words, Verma, induced and tensor
elements are all finite linear combinations stored as a dict
key -> coefficient with no zero coefficient ever stored.  ``accumulate``
is the one merge loop behind their arithmetic, and ``LinComb`` holds
the linear structure they share; each subclass adds only its
constructors, products and the word of one key.

Coefficients are exact rationals, or BiPoly for tensor elements; all
that is used of them is ``+``, unary ``-``, left multiplication by a
rational, ``==`` and truth (nonzero).

The engines run on integer vectors written (den, ints): an int dict
with no zero value and one positive common denominator, standing for
ints / den.  Rationals are cleared once, at the edge where they enter
an engine: ``clear_denominators`` makes a (den, ints) vector from them,
``combine`` sums multiples of several over one denominator, and
``lowest_terms`` divides out their common gcd.

Term text lives here too.  ``LinComb.text`` joins ``term_text`` of
each coefficient and the word a subclass gives its key (``_word``),
in the subclass's key order (``_keys``); ``powers_text`` writes a
word of powers such as "h^2*hb".
"""

from functools import reduce
from math import gcd, lcm

from .scalars import Q, format_scalar


def accumulate(out, items):
    """Add the (key, coeff) pairs into the dict ``out`` in place; return it.

    A key whose coefficient cancels is removed.  Dict order is that of
    the plain merge loop: an existing key is updated in place, a new key
    is appended, so no caller's iteration order depends on this helper.
    """
    get = out.get
    for k, c in items:
        cur = get(k)
        if cur is not None:
            c = cur + c
        if c:
            out[k] = c
        elif cur is not None:
            del out[k]
    return out


def clear_denominators(vec):
    """(den, ints) for a dict of rationals: den > 0 is the least common
    denominator, and ints, a new dict, maps each key with a nonzero value
    to the int den * value.  An int is a rational of denominator 1.

    Here and in the other hot loops gcd and lcm are folded with reduce
    rather than called on *values: a star call builds a tuple of the
    vector's length, and the interpreter keeps up to 2000 freed tuples
    of each short length, so the process would grow with every size seen.
    """
    den = reduce(lcm, (c.denominator for c in vec.values()), 1)
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in vec.items() if c}


def combine(parts):
    """sum(c * ints / den) over (c, den, ints) triples, c an int or a
    rational and ints a dict of ints (zeros may stay), as (den, ints)
    over one common denominator, without zeros.  An int c is used as it
    is; a rational c folds its denominator into its part's den.  den is
    the lcm of the nonzero parts' dens, and the merge keeps the key order
    of ``accumulate``."""
    scaled, den = [], 1
    for c, d, ints in parts:
        if c and ints:
            n, d = (c, d) if type(c) is int else (
                c.numerator, c.denominator * d)
            if den % d:
                den = lcm(den, d)
            scaled.append((n, d, ints))
    out = {}
    get = out.get
    for n, d, ints in scaled:
        f = n * (den // d)
        for k, v in ints.items():
            v = get(k, 0) + f * v
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return den, out


def lowest_terms(den, ints):
    """The vector ints / den, den a nonzero int of either sign, as
    (den, ints) with den > 0 and gcd 1 over den and every int.  The gcd
    fold stops at 1; a vector already so comes back as ints itself, since
    every caller passes a dict it has just built and no one else holds."""
    g = abs(den)
    for n in ints.values():
        if g == 1:
            break
        g = gcd(g, n)
    if den < 0:
        g = -g
    if g == 1:
        return den, ints
    return den // g, {k: n // g for k, n in ints.items()}


def powers_text(factors, sep):
    """The word of (name, exponent) pairs: "name" for exponent 1,
    "name^e" above it, nothing for 0, joined by sep."""
    return sep.join(name if e == 1 else f"{name}^{e}"
                    for name, e in factors if e > 0)


def term_text(c, word):
    """One term of a combination: the bare scalar for the empty word,
    "word" or "-word" for c = 1 or -1, else "c*word"."""
    if not word:
        return format_scalar(c)
    if c == 1:
        return word
    if c == -1:
        return "-" + word
    return f"{format_scalar(c)}*{word}"


class LinComb:
    """A finite linear combination: ``terms`` maps keys to nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def _raw(cls, d):
        """Wrap a dict already free of zero coefficients, without copying."""
        x = cls.__new__(cls)
        x.terms = d
        return x

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._raw(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._raw(accumulate(dict(self.terms),
                                    ((k, -c) for k, c in other.terms.items())))

    def __neg__(self):
        return self._raw({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Q(c)
        if c == 0:
            return type(self)()
        return self._raw({k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def _keys(self):
        """The keys in text order; a subclass may override the default."""
        return sorted(self.terms, reverse=True)

    def text(self):
        """Canonical form: the terms in ``_keys`` order, "0" when empty."""
        if not self.terms:
            return "0"
        return " + ".join(term_text(self.terms[k], self._word(k))
                          for k in self._keys())

    def __repr__(self):
        return f"{type(self).__name__}({self.text()!r})"
