"""Highest-weight modules: Verma modules and finite-dimensional quotients.

A Verma module Lbar(eta, theta) has basis f^i fb^j v over the highest
weight vector v, with hb v = eta v, h v = theta v and e v = eb v = 0.
Generator actions are not hand-coded: the envelope product
gen * f^i fb^j is straightened to PBW normal form and then evaluated
by sending e, eb to zero and h, hb to theta, eta on the right.  That
makes the straightening tables the single source of truth for module
arithmetic.  The straightened words hold no parameter and only ints,
so they come from the process-wide word memo (``gen_times_word``);
``HwModule.act_ints`` evaluates them with the module's powers of
theta and eta, and ``verma_act_basis`` stays the rational route.

When eta = 0 and theta is a nonnegative integer, the irreducible
quotient collapses to the classical (theta+1)-dimensional sl2 module
with the barred half acting by zero; it is represented on the finite
basis f^i v, i = 0..theta.  Its irreducibility is read off the weight
chain: f moves each f^i v to a nonzero multiple of f^(i+1) v and e
moves it back to a nonzero multiple of f^(i-1) v, so every basis
vector generates the whole module.  Any other eta = 0 quotient is
rejected rather than approximated.

The singular-vector scan is one exact elimination per (weight, level),
memoized for the process.  For eta != 0 every level comes out empty,
since those Verma modules are irreducible (Wilson, J. Algebra 336).
"""

from functools import lru_cache

from .scalars import Q, format_scalar
from .algebra import GENERATORS, bracket, gen_times_word
from .linalg import nullspace
from .sparse import LinComb, accumulate, lowest_terms, powers_text
from .report import Frozen, Report, PASS, FAIL


class HighestWeight(Frozen):
    _fields = ("eta", "theta")

    def __init__(self, eta, theta):
        self.__dict__.update(eta=Q(eta), theta=Q(theta))

    def label(self):
        return f"(eta={format_scalar(self.eta)},theta={format_scalar(self.theta)})"


class VermaElement(LinComb):
    """Element of a Verma module: dict (f-power, fb-power) -> Q."""

    __slots__ = ()

    @classmethod
    def basis(cls, i, j, c=1):
        if i < 0 or j < 0:
            raise ValueError("negative exponents")
        c = Q(c)
        return cls({(i, j): c}) if c != 0 else cls()

    def _word(self, key):
        body = powers_text(zip(("f", "fb"), key), " ")
        return f"{body} v" if body else "v"


def verma_act_basis(gen, hw, i, j):
    """gen . (f^i fb^j v) as a dict (i', j') -> Q, via PBW straightening."""
    # e, eb annihilate the highest weight vector
    return accumulate({}, (((jj, kk), c * hw.theta**qq * hw.eta**ii)
                           for (jj, kk, qq, ii, pp, mm), c
                           in gen_times_word(gen, i, j, 0).items()
                           if not (pp or mm)))


def verma_act(gen, hw, x):
    return VermaElement._raw(accumulate({}, (
        (key, c * v)
        for (i, j), c in x.terms.items()
        for key, v in verma_act_basis(gen, hw, i, j).items())))


@lru_cache(maxsize=256)
def singular_vectors(hw, level):
    """Basis of the vectors at the given level killed by both e and eb.

    Kernel of the stacked e and eb actions from level to level-1: column
    t holds the images of the t-th level basis vector, read with
    ``HwModule.act_ints``, and every vector returned comes from the exact
    elimination ``nullspace``.  Memoized per (hw, level), 256 entries at
    most; callers only read the returned list.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    basis = [(i, level - i) for i in range(level + 1)]
    act = HwModule(hw, "verma").act_ints
    columns = [{(gen, key): Q(n, den) for gen in ("e", "eb")
                for den, ints in [act(gen, idx)] for key, n in ints.items()}
               for idx in basis]
    return [VermaElement({basis[t]: v[t] for t in sorted(v)})
            for v in nullspace(columns)]


def verma_reducible_predicate(hw):
    """Reducibility condition as stated: eta = 0 together with
    "i(theta - 2j - i + 1) = 0 for some i in {0,1}, j in Z+, (i,j) != (0,0)".

    The i = 0 branch makes the product vanish identically, so the
    second clause is always satisfiable and the predicate collapses to
    eta = 0.  The brute-force singular-vector scan is the ground truth
    this is tested against.
    """
    exists = any(
        Q(i) * (hw.theta - 2 * j - i + 1) == 0
        for i in (0, 1)
        for j in (0, 1, 2)
        if (i, j) != (0, 0)
    )
    return hw.eta == 0 and exists


class HwModule:
    """A concrete highest-weight module: Verma or finite-dimensional.

    kind "verma": basis pairs (i, j), infinite, certified free of
    singular vectors through a stated level.  kind "findim": basis
    integers 0..theta, barred generators act by zero.
    """

    def __init__(self, weight, kind, certificate=""):
        self.weight = weight
        self.kind = kind
        self.dimension = None if kind == "verma" else int(weight.theta) + 1
        self.certificate = certificate
        if kind == "verma":  # theta's and eta's num and den, and their powers
            self._bases = tuple(x for c in (weight.theta, weight.eta)
                                for x in (c.numerator, c.denominator))
            self._powers = ([1], [1], [1], [1])
            return
        t = self.theta_int()
        self._ints = {}  # (gen, i) -> {k: int}, the closed forms
        for i in range(t + 1):
            self._ints.update({("h", i): {i: t - 2 * i} if t != 2 * i else {},
                               ("e", i): {i - 1: i * (t - i + 1)} if i else {},
                               ("f", i): {i + 1: 1} if i < t else {},
                               ("eb", i): {}, ("fb", i): {}, ("hb", i): {}})

    def label(self):
        base = "Lbar" if self.kind == "verma" else "L"
        return f"{base}{self.weight.label()}"

    @property
    def highest_index(self):
        return (0, 0) if self.kind == "verma" else 0

    def level(self, idx):
        return idx[0] + idx[1] if self.kind == "verma" else idx

    def deepest_level(self, cap):
        """The deepest level of the basis at or below cap >= 0."""
        return cap if self.kind == "verma" else min(cap, self.theta_int())

    def basis_through_level(self, depth):
        """The basis vectors of level at most depth, shallowest first."""
        if self.kind == "verma":
            return [(i, l - i) for l in range(depth + 1) for i in range(l + 1)]
        return list(range(self.deepest_level(depth) + 1))

    def theta_int(self):
        return int(self.weight.theta)

    def act_basis(self, gen, idx):
        """gen . (basis vector) as a dict index -> Q, the rational route."""
        if self.kind == "verma":
            return verma_act_basis(gen, self.weight, idx[0], idx[1])
        return {k: Q(n) for k, n in self._ints[gen, idx].items()}

    def act_ints(self, gen, idx):
        """gen . (basis vector) as (den, {index: int}) in lowest terms, a
        dict callers only read.  On a Verma module: the terms of the
        straightened gen * f^i fb^j free of e and eb (which kill v), as
        c * theta^q * eta^m per target, over the den (theta's den * eta's
        den)^top, top the largest q or m, the powers grown as needed.  On
        L(0, theta): its one int table of closed forms, den 1."""
        if self.kind != "verma":
            return 1, self._ints[gen, idx]
        top, terms = 0, {}
        for (jj, kk, q, m, p, mb), c in gen_times_word(gen, *idx, 0).items():
            if not (p or mb):
                terms.setdefault((jj, kk), []).append((q, m, c))
                top = max(top, q, m)
        powers = self._powers
        while len(powers[0]) <= top:
            for table, base in zip(powers, self._bases):
                table.append(table[-1] * base)
        tn, td, en, ed = powers
        return lowest_terms(td[top] * ed[top], {
            key: n for key, triples in terms.items()
            if (n := sum(c * tn[q] * td[top - q] * en[m] * ed[top - m]
                         for q, m, c in triples))})

    def nilpotence(self, gen, idx):
        """Smallest n >= 1 with gen^n . (basis vector idx) = 0.

        Locally nilpotent generators terminate (e and eb on a Verma
        module; eb gives 1 on the finite quotient).  The walk stops
        after level + 2 steps and raises past that bound, which guards
        against calling this with h or f.
        """
        bound = self.level(idx) + 2
        vec = {idx: Q(1)}
        for n in range(1, bound + 1):
            vec = accumulate({}, ((k, c * v) for i, c in vec.items()
                                  for k, v in self.act_basis(gen, i).items()))
            if not vec:
                return n
        raise ValueError(f"{gen}^n did not annihilate within {bound} steps")


def _check_findim(module):
    """Irreducibility and bracket compatibility on the finite basis.

    Irreducibility is the weight chain: for i < theta, f sends basis i
    to exactly a nonzero multiple of basis i+1, and for i >= 1, e sends
    it to exactly a nonzero multiple of basis i-1.  Walking down with e
    and up with f then reaches every basis vector from any one of them.

    Both checks read the int table ``act_ints`` serves the tensor engine;
    a bracket holds on basis i when x.y.i - y.x.i - [x,y].i is zero.
    """
    dim = module.dimension
    idxs = range(dim)
    act = module._ints
    for i in idxs:
        for gen, to, moves in (("f", i + 1, i < dim - 1), ("e", i - 1, i > 0)):
            img = act[(gen, i)]
            if moves and (list(img) != [to] or not img[to]):
                return f"{gen} does not send basis {i} to a multiple of basis {to}"
    for x in GENERATORS:
        for y in GENERATORS:
            if x >= y:
                continue
            bracket_xy = bracket(x, y).items()
            for i in idxs:
                res = {}
                for s, a, b in ((1, x, y), (-1, y, x)):
                    for k, c in act[b, i].items():
                        for k2, c2 in act[a, k].items():
                            res[k2] = res.get(k2, 0) + s * c * c2
                for z, cz in bracket_xy:
                    for k, c in act[z, i].items():
                        res[k] = res.get(k, 0) - cz * c
                if any(res.values()):
                    return f"bracket [{x},{y}] fails on basis {i}"
    return None


def build_hw_module(hw):
    """Construct the irreducible highest-weight module L(eta, theta).

    eta != 0: the Verma module itself, with a singular-vector scan
    through level 6 recorded as the certificate (a semi-decision; the
    scan depth is part of the certificate text).

    eta = 0, theta a nonnegative integer: the (theta+1)-dimensional
    module, with the bracket relations verified outright on the finite
    basis and irreducibility read off the weight chain (f and e move
    each basis vector one step with a nonzero coefficient).

    Anything else is rejected.
    """
    if hw.eta != 0:
        depth = 6
        for level in range(1, depth + 1):
            found = singular_vectors(hw, level)
            if found:
                raise ValueError(
                    f"unexpected singular vector at level {level} for {hw.label()}"
                )
        return HwModule(
            hw, "verma",
            certificate=f"no singular vectors through level {depth}",
        )
    theta = hw.theta
    if theta.denominator == 1 and theta >= 0:
        module = HwModule(hw, "findim")
        problem = _check_findim(module)
        if problem:
            raise ValueError(f"finite-dimensional check failed: {problem}")
        module.certificate = (
            f"dimension {module.dimension}; axioms and irreducibility "
            "verified on basis")
        return module
    raise ValueError(
        f"no implemented irreducible quotient for {hw.label()}: "
        "eta = 0 requires theta a nonnegative integer"
    )


def build_verma_module(hw):
    """The Verma module itself (possibly reducible), unscanned; the
    singular-vector scan is check_singular_levels."""
    return HwModule(hw, "verma", certificate="scanned through level 0")


def check_singular_levels(hw, max_level):
    """Report-producing scan used by the CLI `singular` command."""
    report = Report(
        suite="singular",
        config={"eta": format_scalar(hw.eta), "theta": format_scalar(hw.theta),
                "max_level": max_level},
    )
    predicted = verma_reducible_predicate(hw)
    found_any = False
    for level in range(1, max_level + 1):
        vecs = singular_vectors(hw, level)
        found_any = found_any or bool(vecs)
        witness = "; ".join(v.text() for v in vecs) if vecs else "none"
        report.add(f"singular/level-{level}", PASS, witness)
    agree = found_any == predicted
    report.add(
        "singular/predicate-agrees-with-scan",
        PASS if agree else FAIL,
        f"predicate={predicted}, scan found={found_any}",
    )
    return report
