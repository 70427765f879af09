"""Highest-weight modules: Verma modules and finite-dimensional quotients.

A Verma module Lbar(eta, theta) has basis f^i fb^j v over the highest
weight vector v, with hb v = eta v, h v = theta v and e v = eb v = 0.
Generator actions are not hand-coded: the envelope product
gen * f^i fb^j is straightened to PBW normal form and then evaluated
by sending e, eb to zero and h, hb to theta, eta on the right.  That
makes the straightening tables the single source of truth for module
arithmetic.

When eta = 0 and theta is a nonnegative integer, the irreducible
quotient collapses to the classical (theta+1)-dimensional sl2 module
with the barred half acting by zero; it is represented on the finite
basis f^i v, i = 0..theta.  Any other eta = 0 quotient is rejected
rather than approximated.
"""

from dataclasses import dataclass

from .scalars import Q, ZERO, format_scalar
from .algebra import GENERATORS, bracket, gen_times_lowering, mono_text
from .linalg import nullspace, Echelon
from .sparse import LinComb, accumulate
from .report import Report, PASS, FAIL


@dataclass(frozen=True)
class HighestWeight:
    eta: "Q"
    theta: "Q"

    def __post_init__(self):
        object.__setattr__(self, "eta", Q(self.eta))
        object.__setattr__(self, "theta", Q(self.theta))

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

    @classmethod
    def highest(cls):
        return cls({(0, 0): Q(1)})

    def level(self):
        """Highest level (total lowering degree) present, None when zero."""
        if not self.terms:
            return None
        return max(i + j for i, j in self.terms)

    def text(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, reverse=True):
            c = self.terms[(i, j)]
            body = mono_text((i, j, 0, 0, 0, 0))
            word = "v" if body == "1" else f"{body} v"
            if c == 1:
                parts.append(word)
            elif c == -1:
                parts.append("-" + word)
            else:
                parts.append(f"{format_scalar(c)}*{word}")
        return " + ".join(parts)


def verma_act_basis(gen, hw, i, j):
    """gen . (f^i fb^j v) as a dict (i', j') -> Q, via PBW straightening."""
    # e, eb annihilate the highest weight vector
    return accumulate({}, (((jj, kk), c * hw.theta**qq * hw.eta**ii)
                           for (jj, kk, qq, ii, pp, mm), c
                           in gen_times_lowering(gen, i, j).terms.items()
                           if not (pp or mm)))


def verma_act(gen, hw, x):
    return VermaElement._raw(accumulate({}, (
        (key, c * v)
        for (i, j), c in x.terms.items()
        for key, v in verma_act_basis(gen, hw, i, j).items())))


def annihilation_index(gen, hw, x, bound=None):
    """Smallest n >= 0 with gen^n . x = 0, or raise if not reached.

    Only locally nilpotent generators terminate (e and eb on a Verma
    module); the bound guards against calling this with h or f.
    """
    if x.is_zero():
        return 0
    if bound is None:
        bound = (x.level() or 0) + 2
    current = x
    for n in range(1, bound + 1):
        current = verma_act(gen, hw, current)
        if current.is_zero():
            return n
    raise ValueError(f"{gen}^n did not annihilate within {bound} steps")


def singular_vectors(hw, level):
    """Basis of the vectors at the given level killed by both e and eb.

    Exact kernel of the stacked action matrices from level to level-1.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    basis = [(i, level - i) for i in range(level + 1)]
    target = [(i, level - 1 - i) for i in range(level)]
    tpos = {b: r for r, b in enumerate(target)}
    rows = [[ZERO] * len(basis) for _ in range(2 * len(target))]
    for col, (i, j) in enumerate(basis):
        for gen, block in (("e", 0), ("eb", len(target))):
            for key, c in verma_act_basis(gen, hw, i, j).items():
                rows[block + tpos[key]][col] = c
    out = []
    for coeffs in nullspace(rows, len(basis)):
        out.append(VermaElement({basis[c]: v for c, v in enumerate(coeffs) if v}))
    return out


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

    def __init__(self, weight, kind, dimension=None, certificate=""):
        self.weight = weight
        self.kind = kind
        self.dimension = dimension
        self.certificate = certificate

    def label(self):
        base = "Lbar" if self.kind == "verma" else "L"
        return f"{base}{self.weight.label()}"

    @property
    def highest_index(self):
        return (0, 0) if self.kind == "verma" else 0

    def level(self, idx):
        return idx[0] + idx[1] if self.kind == "verma" else idx

    def basis_at_level(self, level):
        if self.kind == "verma":
            return [(i, level - i) for i in range(level + 1)]
        return [level] if 0 <= level <= self.theta_int() else []

    def basis_through_level(self, depth):
        out = []
        for l in range(depth + 1):
            out.extend(self.basis_at_level(l))
        return out

    def theta_int(self):
        return int(self.weight.theta)

    def act_basis(self, gen, idx):
        """gen . (basis vector) as a dict index -> Q."""
        if self.kind == "verma":
            return verma_act_basis(gen, self.weight, idx[0], idx[1])
        i = idx
        theta = self.weight.theta
        if gen == "h":
            return {i: theta - 2 * i} if theta != 2 * i else {}
        if gen == "e":
            c = Q(i) * (theta - i + 1)
            return {i - 1: c} if i and c else {}
        if gen == "f":
            return {i + 1: Q(1)} if i < self.theta_int() else {}
        if gen in ("eb", "fb", "hb"):
            return {}
        raise KeyError(f"unknown generator {gen!r}")


def _check_findim(module):
    """Bracket compatibility and irreducibility on the finite basis."""
    dim = module.dimension
    idxs = list(range(dim))
    for x in GENERATORS:
        for y in GENERATORS:
            if x >= y:
                continue
            for i in idxs:
                lhs = accumulate({}, ((k2, c * c2)
                                      for k, c in module.act_basis(y, i).items()
                                      for k2, c2 in module.act_basis(x, k).items()))
                accumulate(lhs, ((k2, -c * c2)
                                 for k, c in module.act_basis(x, i).items()
                                 for k2, c2 in module.act_basis(y, k).items()))
                rhs = accumulate({}, ((k, cz * c)
                                      for z, cz in bracket(x, y).items()
                                      for k, c in module.act_basis(z, i).items()))
                if lhs != rhs:
                    return f"bracket [{x},{y}] fails on basis {i}"
    # irreducibility: the span closure of any basis vector is everything
    for start in idxs:
        span = Echelon()
        frontier = [{start: Q(1)}]
        span.insert(frontier[0])
        while frontier:
            vec = frontier.pop()
            for gen in ("e", "f", "h"):
                img = accumulate({}, ((k, c * v) for i, c in vec.items()
                                      for k, v in module.act_basis(gen, i).items()))
                if img:
                    if span.insert(img)[0] is not None:
                        frontier.append(img)
        if len(span) != dim:
            return f"closure from basis {start} spans {len(span)} < {dim}"
    return None


def build_hw_module(hw, depth=6):
    """Construct the irreducible highest-weight module L(eta, theta).

    eta != 0: the Verma module itself, with a singular-vector scan
    through the requested level recorded as the certificate (a
    semi-decision; the scan depth is part of the certificate text).

    eta = 0, theta a nonnegative integer: the (theta+1)-dimensional
    module, with module axioms and irreducibility verified outright on
    the finite basis.

    Anything else is rejected.
    """
    if hw.eta != 0:
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
        dim = int(theta) + 1
        module = HwModule(hw, "findim", dimension=dim)
        problem = _check_findim(module)
        if problem:
            raise ValueError(f"finite-dimensional check failed: {problem}")
        module.certificate = (
            f"dimension {dim}; axioms and irreducibility verified on basis"
        )
        return module
    raise ValueError(
        f"no implemented irreducible quotient for {hw.label()}: "
        "eta = 0 requires theta a nonnegative integer"
    )


def build_verma_module(hw, scan_depth=0):
    """The Verma module itself (possibly reducible), with an optional
    singular-vector scan recorded but not enforced."""
    notes = []
    for level in range(1, scan_depth + 1):
        found = singular_vectors(hw, level)
        if found:
            notes.append(f"level {level}: {len(found)} singular")
    cert = "; ".join(notes) if notes else f"scanned through level {scan_depth}"
    return HwModule(hw, "verma", certificate=cert)


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
