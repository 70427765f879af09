"""The Takiff algebra of sl2 and its universal envelope.

The Lie algebra is sl2 tensored with the dual numbers C[t]/(t^2): six
generators e, f, h (the classical copy) and eb, fb, hb (the copies
tensored by t, "barred").  Brackets are inherited from sl2 with the
rule that two barred elements always commute:

    [e,f]=h   [h,e]=2e    [h,f]=-2f
    [eb,f]=[e,fb]=hb      [h,eb]=[hb,e]=2eb     [h,fb]=[hb,f]=-2fb

Universal-envelope elements are kept in the Poincare-Birkhoff-Witt
normal form

    f^j fb^k h^q hb^i e^p eb^m

(generator order f < fb < h < hb < e < eb).  Products are normalized
by straightening: a generator is bubbled left through larger letters,
each swap paying the bracket correction.  The straightening of
(monomial, generator) pairs is memoized, which makes repeated module
actions cheap, as are the words gen * f^j fb^k (h^q) they read.  The
straightening memo holds ints: it is seeded with coefficient 1 and
only adds and multiplies the integer structure constants, so a
product's rationals come only from its factors' coefficients.
"""

from functools import lru_cache

from .scalars import Q
from .sparse import LinComb, accumulate, clear_denominators, powers_text

GENERATORS = ("f", "fb", "h", "hb", "e", "eb")
GEN_INDEX = {g: i for i, g in enumerate(GENERATORS)}

_BRACKET = {
    ("e", "f"): {"h": 1},
    ("h", "e"): {"e": 2},
    ("h", "f"): {"f": -2},
    ("eb", "f"): {"hb": 1},
    ("e", "fb"): {"hb": 1},
    ("h", "eb"): {"eb": 2},
    ("hb", "e"): {"eb": 2},
    ("h", "fb"): {"fb": -2},
    ("hb", "f"): {"fb": -2},
}


def bracket(x, y):
    """[x, y] as a dict generator -> integer coefficient."""
    if x not in GEN_INDEX or y not in GEN_INDEX:
        raise KeyError(f"unknown generator in bracket: {x!r}, {y!r}")
    if x == y:
        return {}
    if (x, y) in _BRACKET:
        return dict(_BRACKET[(x, y)])
    if (y, x) in _BRACKET:
        return {g: -c for g, c in _BRACKET[(y, x)].items()}
    return {}


IDENTITY_MONO = (0, 0, 0, 0, 0, 0)


def mono_letters(mono):
    """The generator word a normal monomial stands for, left to right."""
    return tuple(g for g, exp in zip(GENERATORS, mono) for _ in range(exp))


_STRAIGHTEN = {}  # (mono, gen) -> dict mono -> int, treat values as frozen


def _mono_times_gen(mono, g):
    """Normal form of (monomial * g); memoized."""
    key = (mono, g)
    hit = _STRAIGHTEN.get(key)
    if hit is not None:
        return hit
    gi = GEN_INDEX[g]
    top = -1
    for idx in range(5, -1, -1):
        if mono[idx]:
            top = idx
            break
    if top <= gi:
        lifted = list(mono)
        lifted[gi] += 1
        result = {tuple(lifted): 1}
    else:
        # mono = rest * y with y the largest letter; push g left past y:
        #   rest * y * g = (rest * g) * y + rest * [y, g]
        y = GENERATORS[top]
        rest = list(mono)
        rest[top] -= 1
        rest = tuple(rest)
        result = _dict_times_gen(_mono_times_gen(rest, g), y)
        accumulate(result, ((m3, cz * c3)
                            for z, cz in bracket(y, g).items()
                            for m3, c3 in _mono_times_gen(rest, z).items()))
    _STRAIGHTEN[key] = result
    return result


def _dict_times_gen(terms, g):
    return accumulate({}, ((m2, c * c2)
                           for mono, c in terms.items()
                           for m2, c2 in _mono_times_gen(mono, g).items()))


class UeaElement(LinComb):
    """Element of the universal envelope in PBW normal form."""

    __slots__ = ()

    @classmethod
    def one(cls):
        return cls({IDENTITY_MONO: Q(1)})

    @classmethod
    def gen(cls, g):
        mono = [0] * 6
        mono[GEN_INDEX[g]] = 1
        return cls({tuple(mono): Q(1)})

    @classmethod
    def monomial(cls, c, j=0, k=0, q=0, i=0, p=0, m=0):
        """c * f^j fb^k h^q hb^i e^p eb^m."""
        c = Q(c)
        return cls({(j, k, q, i, p, m): c}) if c != 0 else cls()

    def __mul__(self, other):
        if isinstance(other, UeaElement):
            out = {}
            for mono2, c2 in other.terms.items():
                t = self.terms
                for letter in mono_letters(mono2):
                    t = _dict_times_gen(t, letter)
                accumulate(out, ((m, c2 * c) for m, c in t.items()))
            return UeaElement._raw(out)
        return self.scale(other)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power in the envelope")
        out = UeaElement.one()
        for _ in range(n):
            out = out * self
        return out

    def _word(self, mono):
        return powers_text(zip(GENERATORS, mono), " ")


def uea_normalize(word, coeff=1, strategy=None):
    """Normal form of a generator word (a sequence of generator names).

    The default route folds the word through the memoized straightening
    tables.  strategy="leftmost" / "rightmost" instead rewrites the raw
    word one adjacent inversion at a time (choosing that inversion),
    which is the naive textbook procedure; all routes agree, and the
    test suite checks that they do.
    """
    for g in word:
        if g not in GEN_INDEX:
            raise KeyError(f"unknown generator {g!r}")
    if strategy is None:
        t = {IDENTITY_MONO: Q(coeff)}
        for g in word:
            t = _dict_times_gen(t, g)
        return UeaElement(t)
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pending = {tuple(word): Q(coeff)}
    done = {}
    while pending:
        w, c = pending.popitem()
        spots = [
            t for t in range(len(w) - 1)
            if GEN_INDEX[w[t]] > GEN_INDEX[w[t + 1]]
        ]
        if not spots:
            mono = [0] * 6
            for g in w:
                mono[GEN_INDEX[g]] += 1
            accumulate(done, ((tuple(mono), c),))
            continue
        t = spots[0] if strategy == "leftmost" else spots[-1]
        x, y = w[t], w[t + 1]
        accumulate(pending, ((w[:t] + (y, x) + w[t + 2:], c),))
        accumulate(pending, ((w[:t] + (z,) + w[t + 2:], c * cz)
                             for z, cz in bracket(x, y).items()))
    return UeaElement._raw(done)


@lru_cache(maxsize=None)
def gen_times_lowering(g, j, k):
    """Normal form of  g * f^j fb^k  -- the straightening behind every
    highest-weight module action -- as a UeaElement, memoized."""
    return UeaElement.gen(g) * UeaElement.monomial(1, j=j, k=k)


# perfbench/run.py reads the memo's cache_info() under this name.
_left_mul_cache = gen_times_lowering


_WORDS = {}  # (gen, j, k, q) -> (den, {mono: int}), treat values as frozen


def gen_times_word(gen, j, k, q):
    """gen * f^j fb^k h^q straightened, as (den, {mono: int}): the
    parameter-free word behind every induced action, memoized."""
    key = (gen, j, k, q)
    if key not in _WORDS:
        _WORDS[key] = clear_denominators(
            (UeaElement.gen(gen) * UeaElement.monomial(1, j=j, k=k, q=q)).terms)
    return _WORDS[key]


def annihilator_element(family, r, lam, a=None):
    """The degree-r binomial annihilator w^(r) for a family.

    For the first two families this is sum_i C(r,i) (-1)^(r-i) c^(-i) x^i
    with x = eb resp. fb and c the loop parameter; for the third it is
    the same binomial in the quadratic element eb*fb + (1/4) hb^2, whose
    action on the polynomial fiber is the scalar a^2/4.  Part of its
    charm: it kills the whole fiber, so over a tensor product it probes
    only the second factor.
    """
    from math import comb

    lam = Q(lam)
    if family in ("gamma", "theta"):
        if lam == 0:
            raise ValueError("lambda must be nonzero")
        out = {}
        for i in range(r + 1):
            c = Q(comb(r, i) * (-1) ** (r - i)) / lam**i
            mono = [0] * 6
            mono[GEN_INDEX["eb" if family == "gamma" else "fb"]] = i
            out[tuple(mono)] = c
        return UeaElement(out)
    if family == "omega":
        if a is None:
            raise ValueError("the omega annihilator needs the parameter a")
        a = Q(a)
        if a == 0:
            raise ValueError("the omega annihilator needs a != 0")
        quad = UeaElement.monomial(1, k=1, m=1) + UeaElement.monomial(Q(1, 4), i=2)
        scalar = a * a / 4
        out = UeaElement.zero()
        power = UeaElement.one()
        for i in range(r + 1):
            c = Q(comb(r, i) * (-1) ** (r - i)) / scalar**i
            out = out + power.scale(c)
            if i < r:
                power = power * quad
        return out
    raise ValueError(f"unknown family {family!r}")
