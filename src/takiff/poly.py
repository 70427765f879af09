"""Sparse exact polynomials in h and hb.

BiPoly is the workhorse: an element of Q[h, hb] stored as a dict
mapping exponent pairs (i, j) -> coefficient, zero coefficients never
stored.  ``h`` is the Cartan variable, ``hb`` ("h bar") its degree-one
partner; the module actions are built from three primitive moves on
BiPoly: shift of h, differentiation in hb, and multiplication.

UniPoly is the one-variable restriction Q[hb], used for the
polynomial parameters alpha(hb), beta(hb) and for induced-module
coefficients.

The degree of the zero polynomial is None, deliberately: callers must
treat "no degree" explicitly instead of relying on a -1 sentinel
surviving arithmetic.
"""

from math import comb

from .scalars import Q, ZERO, parse_scalar, ScalarParseError
from .sparse import LinComb, accumulate, powers_text


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BiPoly(LinComb):
    """Polynomial in Q[h, hb], sparse dict of (h-exp, hb-exp) -> Q."""

    __slots__ = ()

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c):
        c = Q(c)
        return cls({(0, 0): c}) if c != 0 else cls()

    @classmethod
    def monomial(cls, c, i, j):
        c = Q(c)
        if i < 0 or j < 0:
            raise ValueError("negative exponent in monomial")
        return cls({(i, j): c}) if c != 0 else cls()

    @classmethod
    def var_h(cls):
        return cls({(1, 0): Q(1)})

    @classmethod
    def var_hb(cls):
        return cls({(0, 1): Q(1)})

    # -- ring structure -----------------------------------------------

    # Bound here, not only inherited, so that BiPoly.__dict__ holds it:
    # the benchmark tracer wraps the BiPoly methods it finds there.
    __add__ = LinComb.__add__

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            items = other.terms.items()
            return BiPoly._raw(accumulate({}, (
                ((i1 + i2, j1 + j2), c1 * c2)
                for (i1, j1), c1 in self.terms.items()
                for (i2, j2), c2 in items)))
        return self.scale(other)

    __rmul__ = __mul__

    # -- the three primitive moves --------------------------------------

    def shift_h(self, delta):
        """p(h, hb) -> p(h + delta, hb), delta an exact rational."""
        delta = Q(delta)
        if delta == 0 or not self.terms:
            return self
        # an integral shift keeps the binomial weights in int arithmetic
        d = int(delta) if delta.denominator == 1 else delta
        return BiPoly._raw(accumulate({}, (
            ((t, j), c * (comb(i, t) * d ** (i - t)))
            for (i, j), c in self.terms.items()
            for t in range(i + 1))))

    def dbar(self):
        """Partial derivative in hb."""
        return BiPoly._raw({(i, j - 1): c * j
                            for (i, j), c in self.terms.items() if j})

    # -- inspection -----------------------------------------------------

    def deg_h(self):
        """h-degree, or None for the zero polynomial."""
        return max((i for i, _ in self.terms), default=None)

    def deg_hb(self):
        return max((j for _, j in self.terms), default=None)

    def coefficient(self, i, j):
        return self.terms.get((i, j), ZERO)

    def divisible_by_hb(self):
        """True iff every term carries a positive hb power (zero counts)."""
        return all(j >= 1 for _, j in self.terms)

    # -- text -----------------------------------------------------------

    def _word(self, key):
        return powers_text(zip(("h", "hb"), key), "*")

    @classmethod
    def parse(cls, text):
        return _parse_poly(text, allow_h=True)


class UniPoly(LinComb):
    """Polynomial in Q[hb], sparse dict of hb-exp -> Q."""

    __slots__ = ()

    @classmethod
    def const(cls, c):
        c = Q(c)
        return cls({0: c}) if c != 0 else cls()

    @classmethod
    def monomial(cls, c, j):
        c = Q(c)
        if j < 0:
            raise ValueError("negative exponent in monomial")
        return cls({j: c}) if c != 0 else cls()

    @classmethod
    def var_hb(cls):
        return cls({1: Q(1)})

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            items = other.terms.items()
            return UniPoly._raw(accumulate({}, (
                (j1 + j2, c1 * c2)
                for j1, c1 in self.terms.items() for j2, c2 in items)))
        return self.scale(other)

    __rmul__ = __mul__

    def derivative(self):
        return UniPoly({j - 1: c * j for j, c in self.terms.items() if j})

    def deg(self):
        if not self.terms:
            return None
        return max(self.terms)

    def coefficient(self, j):
        return self.terms.get(j, ZERO)

    def to_bipoly(self):
        return BiPoly({(0, j): c for j, c in self.terms.items()})

    def eval_at(self, x):
        x = Q(x)
        return sum((c * x**j for j, c in self.terms.items()), ZERO)

    def _word(self, key):
        return powers_text((("hb", key),), "*")

    @classmethod
    def parse(cls, text):
        p = _parse_poly(text, allow_h=False)
        return cls({j: c for (_, j), c in p.terms.items()})


# -- parsing ------------------------------------------------------------
#
# poly   := [sign] term (sign term)*
# term   := factor ('*' factor)*
# factor := number | var ['^' digits]
# number := digits ['/' digits]
# var    := 'hb' | 'h'


def _tokenize(text):
    tokens = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == "/":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise PolyParseError("expected digits after '/'", i)
                while i < n and text[i].isdigit():
                    i += 1
            tokens.append(("num", text[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < n and text[i].isalnum():
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


def _parse_poly(text, allow_h):
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    result = {}
    pos = 0
    n = len(tokens)

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    while pos < n:
        sign = Q(1)
        while pos < n and tokens[pos][0] in "+-":
            if tokens[pos][0] == "-":
                sign = -sign
            pos += 1
        if pos >= n:
            raise PolyParseError("dangling sign", tokens[-1][2])
        coeff = sign
        exps = {"h": 0, "hb": 0}
        expecting_factor = True
        while expecting_factor:
            kind, value, at = take()
            if kind == "num":
                try:
                    coeff = coeff * parse_scalar(value)
                except ScalarParseError:
                    raise PolyParseError(f"bad number {value!r}", at) from None
            elif kind == "name":
                if value not in ("h", "hb"):
                    raise PolyParseError(f"unknown variable {value!r}", at)
                if value == "h" and not allow_h:
                    raise PolyParseError("variable 'h' not allowed here", at)
                e = 1
                if pos < n and tokens[pos][0] == "^":
                    pos += 1
                    if pos >= n or tokens[pos][0] != "num" or "/" in tokens[pos][1]:
                        raise PolyParseError("expected integer exponent after '^'",
                                             tokens[pos - 1][2])
                    e = int(tokens[pos][1])
                    pos += 1
                exps[value] += e
            else:
                raise PolyParseError(f"unexpected token {value!r}", at)
            if pos < n and tokens[pos][0] == "*":
                pos += 1
                if pos >= n:
                    raise PolyParseError("dangling '*'", tokens[-1][2])
            else:
                expecting_factor = False
        accumulate(result, (((exps["h"], exps["hb"]), coeff),))
    return BiPoly._raw(result)
