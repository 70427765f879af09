"""The skew polynomial operator algebra acting on Q[h, hb].

Operators are finite sums of normal-form words

    h^i * hb^j * db^k * s^m        (i, j, k >= 0;  m any integer)

where h, hb act by multiplication, db is d/d(hb), and s is the shift
endomorphism (s p)(h, hb) = p(h - 2, hb).  s is invertible, so its
exponent is two-sided.  The rewriting rules that bring an arbitrary
composition back to normal form are

    db * hb = hb * db + 1
    s^m * h = (h - 2m) * s^m

and every other pair of generators commutes.  All six family actions
on Q[h, hb] are elements of this algebra, which turns the bracket
identities of the Lie algebra into exact identities between operator
normal forms: no sampling is involved when axioms are checked at this
level.
"""

from math import comb

from .scalars import Q, format_scalar
from .poly import BiPoly
from .sparse import LinComb, accumulate


def _falling(n, t):
    out = 1
    for r in range(t):
        out *= n - r
    return out


class SkewOperator(LinComb):
    """Sum of normal-form words, dict of (i, j, k, m) -> Q."""

    __slots__ = ()

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls):
        return cls({(0, 0, 0, 0): Q(1)})

    @classmethod
    def word(cls, c, i=0, j=0, k=0, m=0):
        c = Q(c)
        if i < 0 or j < 0 or k < 0:
            raise ValueError("negative exponent on h, hb or db")
        return cls({(i, j, k, m): c}) if c != 0 else cls()

    @classmethod
    def mult(cls, p, sigma=0, dbar=0):
        """Multiplication by BiPoly p, optionally followed on the right
        by db^dbar * s^sigma.  (Left factors multiply, right factors act
        first.)"""
        return cls({(i, j, dbar, sigma): c for (i, j), c in p.terms.items()})

    @classmethod
    def dbar(cls):
        return cls({(0, 0, 1, 0): Q(1)})

    @classmethod
    def sigma(cls, m=1):
        return cls({(0, 0, 0, m): Q(1)})

    # -- products ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, SkewOperator):
            return self.compose(other)
        return self.scale(other)

    def __rmul__(self, other):
        # other is a scalar (SkewOperator * SkewOperator went to __mul__)
        return self.scale(other)

    def compose(self, other):
        """self . other in normal form; other acts first."""
        return SkewOperator._raw(accumulate({}, self._compose_terms(other)))

    def _compose_terms(self, other):
        for (i1, j1, k1, m1), c1 in self.terms.items():
            for (i2, j2, k2, m2), c2 in other.terms.items():
                base = c1 * c2
                # s^m1 h^i2 -> (h - 2 m1)^i2 s^m1 ; db^k1 hb^j2 -> Leibniz
                for u in range(i2 + 1):
                    cu = base * comb(i2, u) * Q(-2 * m1) ** (i2 - u)
                    if cu == 0:
                        continue
                    for t in range(min(k1, j2) + 1):
                        c = cu * comb(k1, t) * _falling(j2, t)
                        if c == 0:
                            continue
                        yield (i1 + u, j1 + j2 - t, k1 + k2 - t, m1 + m2), c

    def commutator(self, other):
        return self.compose(other) - other.compose(self)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative operator power")
        out = SkewOperator.identity()
        for _ in range(n):
            out = out.compose(self)
        return out

    # -- action on polynomials -------------------------------------------

    def apply(self, p):
        """Apply to a BiPoly; the faithful representation of the algebra."""
        if not isinstance(p, BiPoly):
            raise TypeError("SkewOperator acts on BiPoly")
        out = BiPoly.zero()
        for (i, j, k, m), c in self.terms.items():
            q = p.shift_h(-2 * m) if m else p
            for _ in range(k):
                q = q.dbar()
                if q.is_zero():
                    break
            if q.is_zero():
                continue
            out = out + BiPoly.monomial(c, i, j) * q
        return out

    # -- text --------------------------------------------------------------

    def text(self):
        """Canonical form, e.g. "3/2*h^1*hb^2*db^1*s^-1"."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, reverse=True):
            i, j, k, m = key
            pieces = [format_scalar(self.terms[key])]
            if i:
                pieces.append(f"h^{i}")
            if j:
                pieces.append(f"hb^{j}")
            if k:
                pieces.append(f"db^{k}")
            if m:
                pieces.append(f"s^{m}")
            parts.append("*".join(pieces))
        return " + ".join(parts)
