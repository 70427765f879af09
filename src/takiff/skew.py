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

Products run on ints, through the (den, ints) helpers of ``sparse``.
``compose`` and ``commutator`` clear each operand's denominators once
(d1, d2), rewrite every pair of words with the integer factors of the
two rules, and form one rational per output word, over d1 * d2;
``commutator`` merges both orders, and any bracket side it is asked to
subtract, before that, so no two rational operators are ever
subtracted.  Stored coefficients stay rational.
"""

from math import comb, perm

from .scalars import Q, format_scalar
from .poly import BiPoly
from .sparse import LinComb, clear_denominators, combine


def _products(a, b, out, sign):
    """Add sign * (a . b) into the int dict out (zeros may stay); return it.

    a and b map words to ints.  Each pair of words is brought to normal
    form by the two rewrite rules: s^m1 h^i2 = (h - 2 m1)^i2 s^m1, and
    db^k1 hb^j2 = sum_t comb(k1, t) perm(j2, t) hb^(j2-t) db^(k1-t).
    """
    get = out.get
    for (i1, j1, k1, m1), c1 in a.items():
        for (i2, j2, k2, m2), c2 in b.items():
            for u in range(i2 + 1) if m1 else (i2,):
                cu = sign * c1 * c2 * comb(i2, u) * (-2 * m1) ** (i2 - u)
                for t in range(min(k1, j2) + 1):
                    key = (i1 + u, j1 + j2 - t, k1 + k2 - t, m1 + m2)
                    out[key] = get(key, 0) + cu * comb(k1, t) * perm(j2, t)
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

    # -- products ------------------------------------------------------

    def compose(self, other):
        """self . other in normal form; other acts first."""
        d1, a = clear_denominators(self.terms)
        d2, b = clear_denominators(other.terms)
        return SkewOperator._from_ints(d1 * d2, _products(a, b, {}, 1))

    def commutator(self, other, minus=()):
        """self . other - other . self - sum(c * op for (c, op) in minus),
        both orders and the subtracted operators merged on ints."""
        d1, a = clear_denominators(self.terms)
        d2, b = clear_denominators(other.terms)
        out = _products(b, a, _products(a, b, {}, 1), -1)
        return SkewOperator._from_ints(*combine(
            [(1, d1 * d2, out)]
            + [(-c, *clear_denominators(op.terms)) for c, op in minus]))

    @classmethod
    def _from_ints(cls, den, out):
        return cls._raw({w: Q(n, den) for w, n in out.items() if n})

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
        return " + ".join(
            "*".join([format_scalar(self.terms[key])]
                     + [f"{name}^{e}" for name, e
                        in zip(("h", "hb", "db", "s"), key) if e])
            for key in sorted(self.terms, reverse=True))
