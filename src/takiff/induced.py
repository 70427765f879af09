"""Rank-one polynomial modules over an upper subalgebra, and the
triangular map that realizes a tensor module as induced from one.

The subalgebra in question is spanned by {eb, e, hb} for the gamma
family and by {eb, hb} for theta and omega.  It acts on Q[hb] by
first-order formulas (borel_act); inducing that action up to the whole
algebra reproduces the tensor module with a Verma factor.  This file
holds the small actions, their bracket and (ir)reducibility checks,
the restricted induced basis f^j fb^k h^q (x) hb^i, and the map phi
together with its leading-term / unitriangularity certificates.

check_phi runs on integers: both sides of every comparison are
(den, ints) vectors on packed tensor keys -- TensorModule.image for the
module action, PhiValues for phi, InducedAction for the induced action
-- and equality is decided by cross-multiplication (``_same``).
InducedAction keeps the spec's letters and a memo of their tails per
instance; only its straightened int words (gen_times_word, shared with
the Verma action) are process-wide.
ind_act, phi_map, borel_act and borel_to_operator are the rational
routes; the tests hold the integer path equal to them, and check_phi
itself uses them only to render the witness of a failing element.
The route agreement of check_borel_axioms runs on the same int letters
(borel_letter); SkewOperator.apply remains in lemma51 and the tests.
"""

import random
from math import lcm, perm

from .scalars import Q, format_scalar
from .poly import UniPoly, BiPoly
from .skew import SkewOperator
from .algebra import bracket, gen_times_word, UeaElement
from .families import FamilyParams
from .verma import verma_reducible_predicate
from .report import Frozen, Report, PASS, FAIL, ERROR, INCONCLUSIVE
from .sparse import (LinComb, accumulate, clear_denominators, combine,
                     lowest_terms, powers_text)

BOREL_GENERATORS = {
    "gamma": ("eb", "e", "hb"),
    "theta": ("eb", "hb"),
    "omega": ("eb", "hb"),
}


class BorelSpec(Frozen):
    """Parameters of one upper-subalgebra module on Q[hb].

    gamma uses (lam, eta); theta and omega also read a.  The generator
    set depends only on the family.
    """

    _fields = ("family", "lam", "a", "eta")

    def __init__(self, family, lam, a=0, eta=0):
        if family not in BOREL_GENERATORS:
            raise ValueError(f"unknown family {family!r}")
        lam = Q(lam)
        if lam == 0:
            raise ValueError("lambda must be nonzero")
        self.__dict__.update(family=family, lam=lam, a=Q(a), eta=Q(eta))

    @property
    def generators(self):
        return BOREL_GENERATORS[self.family]

    def label(self):
        bits = [f"lam={format_scalar(self.lam)}"]
        if self.family != "gamma":
            bits.append(f"a={format_scalar(self.a)}")
        bits.append(f"eta={format_scalar(self.eta)}")
        return f"borel-{self.family}({','.join(bits)})"

    def config_dict(self):
        return {
            "family": self.family,
            "lambda": format_scalar(self.lam),
            "a": format_scalar(self.a),
            "eta": format_scalar(self.eta),
        }


def borel_act(gen, spec, g):
    """gen applied to g(hb) in the rank-one module; exact.

    gamma:  eb.g = lam g,  e.g = -2 lam g',  hb.g = (hb + eta) g
    theta:  eb.g = -(hb^2 + a) g / (4 lam),  hb.g as above
    omega:  eb.g = lam (hb + a) g / 2,       hb.g as above
    """
    if gen not in spec.generators:
        raise ValueError(f"{gen!r} is outside the subalgebra for "
                         f"{spec.family}")
    if gen == "hb":
        return (UniPoly.var_hb() + UniPoly.const(spec.eta)) * g
    lam = spec.lam
    if spec.family == "gamma":
        if gen == "eb":
            return lam * g
        return (-2 * lam) * g.derivative()      # gen == "e"
    if spec.family == "theta":
        factor = UniPoly.var_hb() * UniPoly.var_hb() + UniPoly.const(spec.a)
        return (Q(-1) / (4 * lam)) * (factor * g)
    factor = UniPoly.var_hb() + UniPoly.const(spec.a)
    return (lam / 2) * (factor * g)


def borel_to_operator(gen, spec):
    """The same action as a skew operator (pure hb words, no shift).

    Kept separate from borel_act so that each route is an oracle for
    the other, mirroring the family-module pair of routes.
    """
    if gen not in spec.generators:
        raise ValueError(f"{gen!r} is outside the subalgebra for "
                         f"{spec.family}")
    lam, a, eta = spec.lam, spec.a, spec.eta
    if gen == "hb":
        return SkewOperator.word(1, j=1) + SkewOperator.word(eta)
    if spec.family == "gamma":
        if gen == "eb":
            return SkewOperator.word(lam)
        return SkewOperator.word(-2 * lam, k=1)     # gen == "e"
    if spec.family == "theta":
        c = Q(-1) / (4 * lam)
        return SkewOperator.word(c, j=2) + SkewOperator.word(c * a)
    return (SkewOperator.word(lam / 2, j=1)
            + SkewOperator.word(lam * a / 2))


def borel_letter(gen, op):
    """gen's operator op compiled to an int letter (den, [(j, k, n)]):
    den * op = sum of n * hb^j d^k, read by _apply_letter.  A word with
    an h or shift factor does not act on Q[hb]: ValueError names it."""
    for word in op.terms:
        if word[0] or word[3]:
            raise ValueError(
                f"{gen}: the word "
                f"{SkewOperator._raw({word: op.terms[word]}).text()} has an "
                f"h or shift factor, so it does not act on Q[hb]")
    den, ops = clear_denominators(op.terms)
    return den, [(j, k, n) for (_, j, k, _), n in ops.items()]


def check_borel_axioms(spec):
    """Bracket identities of the subalgebra on Q[hb], operator-exact.

    For every generator pair the commutator of the two operators is
    compared with the operator of the bracket; both sides are normal
    forms, so agreement is an identity on all of Q[hb].  A closure
    check first confirms each bracket stays inside the generator span.
    The route agreement compares borel_act on hb^0..hb^6 with the int
    letters InducedAction acts by, by cross-multiplication; a word that
    does not compile to a letter is a FAIL naming it.
    """
    report = Report(suite="borel-axioms", config=spec.config_dict())
    gens = spec.generators
    ops = {g: borel_to_operator(g, spec) for g in gens}
    label = spec.label()
    for n, x in enumerate(gens):
        for y in gens[n + 1:]:
            check_id = f"borel-bracket[{x},{y}]/{label}"
            image = bracket(x, y)
            outside = [g for g in image if g not in gens]
            if outside:
                report.add(check_id, FAIL,
                           f"[{x},{y}] leaves the subalgebra via {outside}")
                continue
            residual = ops[x].commutator(
                ops[y], minus=[(c, ops[z]) for z, c in image.items()])
            report.verdict(check_id,
                           residual and f"residual = {residual.text()}")
    for g in gens:
        check_id = f"borel-route-agreement[{g}]/{label}"
        try:
            den, letter = borel_letter(g, ops[g])
        except ValueError as exc:
            report.add(check_id, FAIL, str(exc))
            continue
        mismatch = None
        for k in range(7):
            direct = borel_act(g, spec, UniPoly.monomial(1, k))
            via_op = _apply_letter(letter, {k: 1})
            if not _same(clear_denominators(direct.terms), (den, via_op)):
                via_op = UniPoly._raw({e: Q(n, den) for e, n in via_op.items()})
                mismatch = f"hb^{k}: {direct.text()} vs {via_op.text()}"
                break
        report.verdict(check_id, mismatch, "polynomial route matches the "
                                           "operator route on hb^0..hb^6")
    return report


def borel_reducibility_check(spec, depth):
    """Certificate that the gamma module is irreducible at the given
    degree, or an explicit proper invariant subspace for theta/omega.

    gamma: e acts as a multiple of d/d(hb), so k applications take
    hb^k to a nonzero constant; together with (hb - eta)-shifts from 1
    this generates every polynomial of degree <= depth.  theta/omega:
    every generator multiplies by a polynomial, so hb*Q[hb] is a
    proper nonzero invariant subspace, PASS only when every invariance
    check passed.
    """
    report = Report(suite="borel-reducibility",
                    config={**spec.config_dict(), "depth": depth})
    label = spec.label()
    if spec.family == "gamma":
        for k in range(1, depth + 1):
            g = UniPoly.monomial(1, k)
            for _ in range(k):
                g = borel_act("e", spec, g)
            check_id = f"borel-reaches-unit[k={k}]/{label}"
            c = g.coefficient(0)
            report.verdict(check_id, not (g.deg() == 0 and c != 0)
                           and f"e^{k}.hb^{k} = {g.text()}",
                           f"e^{k}.hb^{k} = {format_scalar(c)} != 0")
        ok = True
        g = UniPoly.const(1)
        for i in range(1, depth + 1):
            g = borel_act("hb", spec, g) - spec.eta * g
            if g != UniPoly.monomial(1, i):
                ok = False
                break
        report.verdict(f"borel-generates-from-unit/{label}",
                       not ok and f"(hb - eta)^{i}.1 = {g.text()}",
                       f"(hb - eta)^i.1 = hb^i for i <= {depth}")
        return report
    for gen in spec.generators:
        check_id = f"borel-ideal-invariant[{gen}]/{label}"
        bad = None
        for i in range(depth + 1):
            img = borel_act(gen, spec, UniPoly.monomial(1, i + 1))
            if img.coefficient(0) != 0:
                bad = f"{gen}.hb^{i + 1} = {img.text()} has a constant term"
                break
        report.verdict(check_id, bad, f"{gen}.(hb g) stays divisible by hb "
                                      f"through degree {depth + 1}")
    failed = [c.id for c in report.checks if c.status == FAIL]
    report.verdict(f"borel-proper-submodule/{label}",
                   failed and "rests on the failed " + ", ".join(failed),
                   "hb*Q[hb] is invariant, nonzero (contains hb) and proper "
                   "(misses 1): the module is reducible")
    return report


# -- the restricted induced basis -------------------------------------------


class IndElement(LinComb):
    """Element of the induced space in the restricted basis: a sparse
    dict (j, k, q, i) -> Q standing for sum c * f^j fb^k h^q (x) hb^i."""

    __slots__ = ()

    @classmethod
    def basis(cls, j, k, q, i, c=1):
        if min(j, k, q, i) < 0:
            raise ValueError("negative exponents")
        c = Q(c)
        return cls({(j, k, q, i): c}) if c != 0 else cls()

    def _keys(self):
        return sorted(self.terms, key=ind_order_key)

    def _word(self, key):
        j, k, q, i = key
        head = powers_text((("f", j), ("fb", k), ("h", q)), " ") or "1"
        tail = powers_text((("hb", i),), "") or "1"
        return f"{head} (x) {tail}"


def ind_order_key(key):
    """The proof's total order: compare (k, j, i, q) lexicographically."""
    j, k, q, i = key
    return (k, j, i, q)


def ind_window_basis(depth):
    """All (j, k, q, i) with j + k <= depth and q, i <= depth, ordered."""
    out = [
        (j, k, q, i)
        for j in range(depth + 1)
        for k in range(depth + 1 - j)
        for q in range(depth + 1)
        for i in range(depth + 1)
    ]
    out.sort(key=ind_order_key)
    return out


def ind_act(gen, spec, x):
    """The induced action of one generator on the restricted basis span.

    gen * f^j fb^k h^q is straightened in the enveloping algebra; each
    normal word splits into a head f^j' fb^k' h^q' and a tail of
    subalgebra letters, and the tail is pushed onto hb^i through
    borel_act.  For theta/omega a surviving e letter falls outside the
    subalgebra, in which case the image leaves the restricted span and
    a ValueError is raised rather than a truncated answer returned.
    """
    out = {}
    for (j, k, q, i), c in x.terms.items():
        word = UeaElement.gen(gen) * UeaElement.monomial(1, j=j, k=k, q=q)
        for (j2, k2, q2, i2, p2, m2), c2 in word.terms.items():
            if p2 and "e" not in spec.generators:
                raise ValueError(
                    f"{gen}.(f^{j} fb^{k} h^{q} (x) hb^{i}) leaves the "
                    f"restricted basis span (free e letter)")
            g = UniPoly.monomial(1, i)
            for _ in range(m2):
                g = borel_act("eb", spec, g)
            for _ in range(p2):
                g = borel_act("e", spec, g)
            for _ in range(i2):
                g = borel_act("hb", spec, g)
            accumulate(out, (((j2, k2, q2, n), c * c2 * cn)
                             for n, cn in g.terms.items()))
    return IndElement._raw(out)


# -- the realization map ------------------------------------------------------


def borel_spec_for(mod):
    """The subalgebra module matching a tensor module's parameters."""
    return BorelSpec(mod.params.family, mod.params.lam, a=mod.params.a,
                     eta=mod.hw.weight.eta)


def phi_map(mod, x):
    """f^j fb^k h^q (x) hb^i  |->  f^j fb^k h^q . (hb^i (x) v).

    Defined for tensor modules whose highest-weight factor is a full
    Verma module (the realization needs the free f, fb directions).
    """
    if mod.hw.kind != "verma":
        raise ValueError("phi_map needs a Verma highest-weight factor")
    out = mod.zero()
    for (j, k, q, i), c in x.terms.items():
        word = UeaElement.monomial(c, j=j, k=k, q=q)
        target = mod.pure(BiPoly.monomial(1, 0, i))
        out = out + mod.act_uea(word, target)
    return out


class InducedAction:
    """The induced action of one BorelSpec, compiled to integers.

    image(gen, key) is ind_act(gen, spec, IndElement.basis(*key)) as
    (den, {(j, k, q, i): int}) with den > 0, read off the same
    straightened word.  The tail letters act through integer forms of
    the subalgebra operators: each letter is den * letter = sum of
    n * hb^j d^k, compiled by borel_letter once, in the constructor.
    The letters and a memo of the tails eb^m2 e^p2 hb^i2 . hb^i, keyed
    by (m2, p2, i2, i), belong to the instance; the straightened words
    come from gen_times_word, the one parameter-free memo of int words
    that every hb^i, spec and Verma module shares.
    ind_act and borel_act stay the oracle the tests check it against.
    """

    def __init__(self, spec):
        self._letters = {gen: borel_letter(gen, borel_to_operator(gen, spec))
                         for gen in spec.generators}
        self._tails = {}

    def image(self, gen, key):
        j, k, q, i = key
        terms = gen_times_word(gen, j, k, q)
        tails = self._tails
        den, parts = 1, []
        for (j2, k2, q2, i2, p2, m2), c in terms.items():
            if p2 and "e" not in self._letters:
                raise ValueError(
                    f"{gen}.(f^{j} fb^{k} h^{q} (x) hb^{i}) leaves the "
                    f"restricted basis span (free e letter)")
            t = m2, p2, i2, i
            if t not in tails:
                g, d = {i: 1}, 1
                for letter, times in (("eb", m2), ("e", p2), ("hb", i2)):
                    if times:
                        ld, op = self._letters[letter]
                        for _ in range(times):
                            g = _apply_letter(op, g)
                        d *= ld ** times
                tails[t] = g, d
            g, d = tails[t]
            den = lcm(den, d)
            parts.append((c, d, j2, k2, q2, g))
        out = {}
        for c, d, j2, k2, q2, g in parts:
            f = c * (den // d)
            accumulate(out, (((j2, k2, q2, n), f * v) for n, v in g.items()))
        return lowest_terms(den, out)


def _apply_letter(op, g):
    """op = [(j, k, n)], the sum of n * hb^j d^k, applied to the int
    polynomial g = {exp: int}."""
    out = {}
    for e, c in g.items():
        accumulate(out, ((e - k + j, n * perm(e, k) * c)
                         for j, k, n in op if k <= e))
    return out


class PhiValues:
    """phi on the restricted basis, each value as (den, {packed key: int}).

    phi peels one letter off the left of the word, so its values on all
    window tuples share work through this cache: walking down to a
    cached tuple and acting back up with TensorModule.image_reduced
    computes the same element as phi_map on a basis element, in lowest
    terms after each step.  (A loop rather than recursion, so no depth
    limit applies.)
    """

    def __init__(self, mod):
        self.mod = mod
        self._cache = {}

    def of(self, key):
        cache = self._cache
        hit = cache.get(key)
        if hit is not None:
            return hit
        pending = []
        while key not in cache:
            j, k, q, i = key
            if j:
                pending.append(("f", key))
                key = (j - 1, k, q, i)
            elif k:
                pending.append(("fb", key))
                key = (j, k - 1, q, i)
            elif q:
                pending.append(("h", key))
                key = (j, k, q - 1, i)
            else:
                cache[key] = (1, {self.mod.pack((self.mod.hw.highest_index,
                                                 0, i)): 1})
        den, val = cache[key]
        for gen, up in reversed(pending):
            den, val = cache[up] = self.mod.image_reduced(gen, den, val)
        return den, val

    def lin(self, den, terms):
        """phi of sum(n * basis(key)) / den, over one common denominator."""
        common, out = combine((n, *self.of(key)) for key, n in terms.items())
        return den * common, out


def _same(lhs, rhs):
    """Exact equality of two (den, ints) vectors, by cross-multiplication.

    Neither dict stores a zero and both dens are positive, so the two
    vectors agree iff their supports agree and a/d1 = b/d2, that is
    d2 * a == d1 * b, on every key: no division, no reduction needed.
    """
    (d1, a), (d2, b) = lhs, rhs
    return a.keys() == b.keys() and all(d2 * n == d1 * b[k]
                                        for k, n in a.items())


def check_phi(mod, depth):
    """Three exact certificates for the realization map on a window.

    (1) balance: on hb^i (x) v each subalgebra generator acts exactly
        as its rank-one formula, so phi is well defined on the induced
        quotient; plus a homomorphism replay phi(z.x) = z.phi(x) over
        the window for every generator whose induced image stays in
        the restricted span (all six for gamma, five for theta/omega).
        Some replays hold by construction of PhiValues and are no
        independent evidence: f on every tuple, fb on tuples with
        j = 0, and h on tuples with j = k = 0.  There the induced image
        of the tuple is the one next tuple, whose phi value PhiValues
        defines as mod.image(gen, phi(tuple)), the right-hand side.
    (2) triangularity: phi of a basis element has leading coordinate
        h^q hb^i (x) f^j fb^k v with coefficient exactly 1, everything
        else strictly lower in the order.
    (3) the window matrix of phi in the ordered bases is unitriangular,
        hence invertible with determinant 1 at every window size.  This
        follows from (2) and is read off its walk: TensorModule.order is
        injective and the leading coordinate carries the element's own
        order tuple, so once every other coordinate is strictly lower
        nothing sits on or above the diagonal except the unit lead.

    The check runs on integers (see the module docstring): a leading
    coefficient is 1 iff its numerator equals the denominator, and a
    matrix entry is nonzero iff its numerator is.  Rationals are formed
    only to render a failing witness, with phi_map naming a non-lower
    coordinate in the rational route's order.  An operator word that
    borel_letter refuses ends the check in one ERROR record naming it.
    """
    if mod.hw.kind != "verma":
        raise ValueError("check_phi needs a Verma highest-weight factor")
    spec = borel_spec_for(mod)
    label = mod.label()
    report = Report(
        suite="induced",
        config={"module": label, "depth": depth,
                **{f"borel_{k}": v for k, v in spec.config_dict().items()}},
    )
    try:
        induced = InducedAction(spec)
    except ValueError as exc:   # a word borel_letter refuses
        report.add(f"phi-letters/{label}", ERROR, str(exc))
        return report
    phi = PhiValues(mod)
    top = mod.hw.highest_index
    pack, order = mod.pack, mod.order
    from_ints = mod.from_ints  # witness text of a (den, ints) vector

    # (1a) the subalgebra acts on hb^i (x) v by the rank-one formulas
    for gen in spec.generators:
        check_id = f"phi-balance[{gen}]/{label}"
        bad = None
        for i in range(depth + 1):
            lhs = mod.image(gen, {pack((top, 0, i)): 1})
            g = borel_act(gen, spec, UniPoly.monomial(1, i))
            rhs = clear_denominators({pack((top, 0, n)): c
                                      for n, c in g.terms.items()})
            if not _same(lhs, rhs):
                bad = (f"{gen}.(hb^{i} (x) v) = {from_ints(*lhs).text()} but "
                       f"the rank-one formula gives {from_ints(*rhs).text()}")
                break
        report.verdict(check_id, bad,
                       f"matches the rank-one formula for i <= {depth}")

    # (1b) homomorphism replay on a deterministic sample of the window:
    # every small tuple, plus a fixed-seed draw from the rest
    basis = ind_window_basis(depth)
    if len(basis) <= 200:
        sample = list(basis)
    else:
        cap = min(depth, 3)
        sample = [key for key in basis if sum(key) <= cap]
        rest = [key for key in basis if sum(key) > cap]
        rng = random.Random(20210)
        sample += rng.sample(rest, min(40, len(rest)))
    hom_gens = ("e", "f", "h", "eb", "fb", "hb")
    for gen in hom_gens:
        check_id = f"phi-homomorphism[{gen}]/{label}"
        if gen == "e" and "e" not in spec.generators:
            report.add(check_id, INCONCLUSIVE,
                       "e sends the restricted basis outside its own "
                       "span (free e letter); the replay is not "
                       "expressible in this realization")
            continue
        bad = None
        for key in sample:
            lhs = phi.lin(*induced.image(gen, key))
            den, val = phi.of(key)
            d, out = mod.image(gen, val)
            rhs = (den * d, out)
            if not _same(lhs, rhs):
                bad = (f"x = {IndElement.basis(*key).text()}: "
                       f"phi({gen}.x) = {from_ints(*lhs).text()} but "
                       f"{gen}.phi(x) = {from_ints(*rhs).text()}")
                break
        report.verdict(check_id, bad, f"phi({gen}.x) = {gen}.phi(x) on "
                                      f"{len(sample)} sampled window elements")

    # (2) leading-term triangularity, and (3) read off the same walk
    check_id = f"phi-triangular/{label}"
    bad = None
    nnz = 0
    for key in basis:
        j, k, q, i = key
        den, flat = phi.of(key)
        nnz += len(flat)
        lead = pack(((j, k), q, i))
        c = flat.get(lead, 0)
        if c != den:
            bad = (f"phi({IndElement.basis(*key).text()}) has coefficient "
                   f"{format_scalar(Q(c, den))} on its leading coordinate")
            break
        t = order(lead)  # the order tuple of key itself
        if max(map(order, flat)) > t:
            # name the first such coordinate in the rational route's order
            x = IndElement.basis(*key)
            high = [fk for fk in phi_map(mod, x).flatten()
                    if order(pack(fk)) > t]
            bad = f"phi({x.text()}) has the non-lower coordinate {high[0]}"
            break
    unit_id = f"phi-unitriangular/{label}"
    if bad:
        report.add(check_id, FAIL, bad)
        report.add(unit_id, FAIL, "skipped: triangularity failed")
    else:
        n = len(basis)
        report.add(check_id, PASS,
                   f"leading coefficient 1 and strictly lower tails on "
                   f"all {n} window elements")
        report.add(unit_id, PASS,
                   f"window matrix {n}x{n}: unit diagonal, zero above it, "
                   f"{nnz} nonzero entries, determinant 1")
    return report


def induced_reducibility_predicate(params, hw):
    """Reducibility of the induced realization from its two factors.

    The polynomial factor is simple unless the family is omega with
    a = 0; the Verma factor is simple exactly when its barred weight
    is nonzero.  The realization is reducible iff either factor is.
    """
    if not isinstance(params, FamilyParams):
        raise TypeError("params must be FamilyParams")
    family_reducible = params.family == "omega" and params.a == 0
    return family_reducible or verma_reducible_predicate(hw)
