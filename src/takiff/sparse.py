"""The sparse linear-combination kernel shared by every exact element type.

Polynomials, skew operators, PBW words, Verma, induced and tensor
elements are all finite linear combinations stored as a dict
key -> coefficient with no zero coefficient ever stored.  ``accumulate``
is the one merge loop behind their arithmetic, and ``LinComb`` holds
the linear structure they share; each subclass adds only its
constructors, products and text.

Coefficients are exact rationals, or BiPoly for tensor elements; all
that is used of them is ``+``, unary ``-``, left multiplication by a
rational, ``==`` and truth (nonzero).
"""

from .scalars import Q


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

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return f"{type(self).__name__}({self.text()!r})"
