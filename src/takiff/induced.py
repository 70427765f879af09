"""Rank-one polynomial modules over an upper subalgebra, and the
triangular map that realizes a tensor module as induced from one.

The subalgebra in question is spanned by {eb, e, hb} for the gamma
family and by {eb, hb} for theta and omega.  It acts on Q[hb] by
first-order formulas (borel_act); inducing that action up to the whole
algebra reproduces the tensor module with a Verma factor.  This file
holds the small actions, their bracket and (ir)reducibility checks,
the restricted induced basis f^j fb^k h^q (x) hb^i, and the map phi
together with its leading-term / unitriangularity certificates.
"""

import random
from dataclasses import dataclass

from .scalars import Q, ZERO, format_scalar
from .poly import UniPoly, BiPoly
from .skew import SkewOperator
from .algebra import bracket, UeaElement
from .families import FamilyParams
from .verma import verma_reducible_predicate
from .report import Report, PASS, FAIL, INCONCLUSIVE
from .sparse import LinComb, accumulate

BOREL_GENERATORS = {
    "gamma": ("eb", "e", "hb"),
    "theta": ("eb", "hb"),
    "omega": ("eb", "hb"),
}


@dataclass(frozen=True)
class BorelSpec:
    """Parameters of one upper-subalgebra module on Q[hb].

    gamma uses (lam, eta); theta and omega also read a.  The generator
    set depends only on the family.
    """

    family: str
    lam: "Q"
    a: "Q" = 0
    eta: "Q" = 0

    def __post_init__(self):
        if self.family not in BOREL_GENERATORS:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "lam", Q(self.lam))
        if self.lam == 0:
            raise ValueError("lambda must be nonzero")
        object.__setattr__(self, "a", Q(self.a))
        object.__setattr__(self, "eta", Q(self.eta))

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


def check_borel_axioms(spec):
    """Bracket identities of the subalgebra on Q[hb], operator-exact.

    For every generator pair the commutator of the two operators is
    compared with the operator of the bracket; both sides are normal
    forms, so agreement is an identity on all of Q[hb].  A closure
    check first confirms each bracket stays inside the generator span.
    """
    report = Report(suite="borel-axioms", config=spec.config_dict())
    gens = spec.generators
    ops = {g: borel_to_operator(g, spec) for g in gens}
    for n, x in enumerate(gens):
        for y in gens[n + 1:]:
            check_id = f"borel-bracket[{x},{y}]/{spec.label()}"
            image = bracket(x, y)
            outside = [g for g in image if g not in gens]
            if outside:
                report.add(check_id, FAIL,
                           f"[{x},{y}] leaves the subalgebra via {outside}")
                continue
            rhs = SkewOperator.zero()
            for z, c in image.items():
                rhs = rhs + ops[z].scale(c)
            residual = ops[x].commutator(ops[y]) - rhs
            if residual:
                report.add(check_id, FAIL, f"residual = {residual.text()}")
            else:
                report.add(check_id, PASS)
    hb = BiPoly.var_hb()
    for g in gens:
        check_id = f"borel-route-agreement[{g}]/{spec.label()}"
        mismatch = None
        for k in range(7):
            direct = borel_act(g, spec, UniPoly.monomial(1, k)).to_bipoly()
            via_op = ops[g].apply(hb ** k)
            if direct != via_op:
                mismatch = f"hb^{k}: {direct.text()} vs {via_op.text()}"
                break
        if mismatch:
            report.add(check_id, FAIL, mismatch)
        else:
            report.add(check_id, PASS, "polynomial route matches the "
                                       "operator route on hb^0..hb^6")
    return report


def borel_reducibility_check(spec, depth):
    """Certificate that the gamma module is irreducible at the given
    degree, or an explicit proper invariant subspace for theta/omega.

    gamma: e acts as a multiple of d/d(hb), so k applications take
    hb^k to a nonzero constant; together with (hb - eta)-shifts from 1
    this generates every polynomial of degree <= depth.  theta/omega:
    every generator multiplies by a polynomial, so hb*Q[hb] is a
    proper nonzero invariant subspace.
    """
    report = Report(suite="borel-reducibility",
                    config={**spec.config_dict(), "depth": depth})
    if spec.family == "gamma":
        for k in range(1, depth + 1):
            g = UniPoly.monomial(1, k)
            for _ in range(k):
                g = borel_act("e", spec, g)
            check_id = f"borel-reaches-unit[k={k}]/{spec.label()}"
            c = g.coefficient(0)
            if g.deg() == 0 and c != 0:
                report.add(check_id, PASS,
                           f"e^{k}.hb^{k} = {format_scalar(c)} != 0")
            else:
                report.add(check_id, FAIL, f"e^{k}.hb^{k} = {g.text()}")
        ok = True
        g = UniPoly.const(1)
        for i in range(1, depth + 1):
            g = borel_act("hb", spec, g) - spec.eta * g
            if g != UniPoly.monomial(1, i):
                ok = False
                break
        check_id = f"borel-generates-from-unit/{spec.label()}"
        if ok:
            report.add(check_id, PASS,
                       f"(hb - eta)^i.1 = hb^i for i <= {depth}")
        else:
            report.add(check_id, FAIL, f"(hb - eta)^{i}.1 = {g.text()}")
        return report
    for gen in spec.generators:
        check_id = f"borel-ideal-invariant[{gen}]/{spec.label()}"
        bad = None
        for i in range(depth + 1):
            img = borel_act(gen, spec, UniPoly.monomial(1, i + 1))
            if img.coefficient(0) != 0:
                bad = f"{gen}.hb^{i + 1} = {img.text()} has a constant term"
                break
        if bad:
            report.add(check_id, FAIL, bad)
        else:
            report.add(check_id, PASS,
                       f"{gen}.(hb g) stays divisible by hb through "
                       f"degree {depth + 1}")
    report.add(f"borel-proper-submodule/{spec.label()}", PASS,
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

    def text(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=ind_order_key):
            j, k, q, i = key
            left = []
            for name, exp in (("f", j), ("fb", k), ("h", q)):
                if exp == 1:
                    left.append(name)
                elif exp > 1:
                    left.append(f"{name}^{exp}")
            head = " ".join(left) if left else "1"
            tail = f"hb^{i}" if i > 1 else ("hb" if i == 1 else "1")
            word = f"{head} (x) {tail}"
            c = self.terms[key]
            if c == 1:
                parts.append(word)
            elif c == -1:
                parts.append("-" + word)
            else:
                parts.append(f"{format_scalar(c)}*{word}")
        return " + ".join(parts)


def ind_order_key(key):
    """The proof's total order: compare (k, j, i, q) lexicographically."""
    j, k, q, i = key
    return (k, j, i, q)


def tensor_order_key(flat_key):
    """The matching order on tensor coordinates ((f, fb), h-exp, hb-exp).

    Written so that the expected leading coordinate of phi on a basis
    element carries the same order tuple as the element itself.
    """
    (fj, fk), hq, hbi = flat_key
    return (fk, fj, hbi, hq)


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


def check_phi(mod, depth):
    """Three exact certificates for the realization map on a window.

    (1) balance: on hb^i (x) v each subalgebra generator acts exactly
        as its rank-one formula, so phi is well defined on the induced
        quotient; plus a homomorphism replay phi(z.x) = z.phi(x) over
        the window for every generator whose induced image stays in
        the restricted span (all six for gamma, five for theta/omega).
    (2) triangularity: phi of a basis element has leading coordinate
        h^q hb^i (x) f^j fb^k v with coefficient exactly 1, everything
        else strictly lower in the order.
    (3) the window matrix of phi in the ordered bases is unitriangular,
        hence invertible with determinant 1 at every window size.
    """
    if mod.hw.kind != "verma":
        raise ValueError("check_phi needs a Verma highest-weight factor")
    spec = borel_spec_for(mod)
    report = Report(
        suite="induced",
        config={"module": mod.label(), "depth": depth,
                **{f"borel_{k}": v for k, v in spec.config_dict().items()}},
    )

    # phi peels one letter off the left of the word, so its values on
    # all window tuples share work through this cache; walking down to
    # a cached tuple and acting back up computes the same element as
    # phi_map on a basis element.  (A loop, not recursion: a recursive
    # closure is a reference cycle that would keep mod, its action
    # columns and this cache alive until the cycle collector runs.)
    cache = {}

    def phi_of(key):
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
                cache[key] = mod.pure(BiPoly.monomial(1, 0, i))
        val = cache[key]
        for gen, up in reversed(pending):
            val = cache[up] = mod.act(gen, val)
        return val

    def phi_lin(x):
        out = mod.zero()
        for key, c in x.terms.items():
            out = out + phi_of(key).scale(c)
        return out

    # (1a) the subalgebra acts on hb^i (x) v by the rank-one formulas
    for gen in spec.generators:
        check_id = f"phi-balance[{gen}]/{mod.label()}"
        bad = None
        for i in range(depth + 1):
            lhs = mod.act(gen, mod.pure(BiPoly.monomial(1, 0, i)))
            rhs = mod.pure(
                borel_act(gen, spec, UniPoly.monomial(1, i)).to_bipoly())
            if lhs != rhs:
                bad = (f"{gen}.(hb^{i} (x) v) = {lhs.text()} but the "
                       f"rank-one formula gives {rhs.text()}")
                break
        if bad:
            report.add(check_id, FAIL, bad)
        else:
            report.add(check_id, PASS,
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
        check_id = f"phi-homomorphism[{gen}]/{mod.label()}"
        if gen == "e" and "e" not in spec.generators:
            report.add(check_id, INCONCLUSIVE,
                       "e sends the restricted basis outside its own "
                       "span (free e letter); the replay is not "
                       "expressible in this realization")
            continue
        bad = None
        for key in sample:
            x = IndElement.basis(*key)
            lhs = phi_lin(ind_act(gen, spec, x))
            rhs = mod.act(gen, phi_of(key))
            if lhs != rhs:
                bad = (f"x = {x.text()}: phi({gen}.x) = {lhs.text()} but "
                       f"{gen}.phi(x) = {rhs.text()}")
                break
        if bad:
            report.add(check_id, FAIL, bad)
        else:
            report.add(check_id, PASS,
                       f"phi({gen}.x) = {gen}.phi(x) on "
                       f"{len(sample)} sampled window elements")

    # (2) leading-term triangularity
    columns = {}
    check_id = f"phi-triangular/{mod.label()}"
    bad = None
    for key in basis:
        j, k, q, i = key
        flat = phi_of(key).flatten()
        columns[key] = flat
        lead = ((j, k), q, i)
        c = flat.get(lead, ZERO)
        if c != 1:
            bad = (f"phi({IndElement.basis(*key).text()}) has coefficient "
                   f"{format_scalar(c)} on its leading coordinate")
            break
        t = ind_order_key(key)
        high = [fk for fk in flat
                if fk != lead and not tensor_order_key(fk) < t]
        if high:
            bad = (f"phi({IndElement.basis(*key).text()}) has the "
                   f"non-lower coordinate {high[0]}")
            break
    if bad:
        report.add(check_id, FAIL, bad)
    else:
        report.add(check_id, PASS,
                   f"leading coefficient 1 and strictly lower tails on "
                   f"all {len(basis)} window elements")

    # (3) the ordered window matrix is unitriangular
    check_id = f"phi-unitriangular/{mod.label()}"
    if bad:
        report.add(check_id, FAIL, "skipped: triangularity failed")
        return report
    pos = {ind_order_key(key): n for n, key in enumerate(basis)}
    nnz = 0
    offdiag = None
    for key in basis:
        col = pos[ind_order_key(key)]
        for fk, c in columns[key].items():
            nnz += 1
            row = pos.get(tensor_order_key(fk))
            if row is not None and row > col and c != 0:
                offdiag = (row, col, c)
                break
        if offdiag:
            break
    if offdiag:
        report.add(check_id, FAIL,
                   f"entry {format_scalar(offdiag[2])} at row {offdiag[0]}, "
                   f"column {offdiag[1]} above the diagonal")
    else:
        n = len(basis)
        report.add(check_id, PASS,
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
