"""Tensor products V (x) L of a family module with a highest-weight module.

Elements are finite sums p_w(h, hb) (x) w over the L-basis; generators
act by the Leibniz rule.  On top of the action sit the five engines:

  vandermonde_reduce     pump with eb and fit the resulting polynomial
                         in the exponent to extract an h-free element
                         of the generated submodule (gamma only)
  certify_irreducible    sound span-closure reachability of 1 (x) v
  check_invariant_subspace   exact closure of hb*Q[h,hb] (x) L (omega, a=0)
  annihilator_check      the binomial operators w^(r): kill V, probe L
  whittaker_vector_search    exact eigenvector solve on a finite window
  recover_parameters     read the construction parameters back off
                         probe actions on 1 (x) v

The action is compiled.  Each TensorModule instance keeps a table of
integer action columns, filled lazily: the image of one basis label
h^i hb^j (x) idx under one generator, as int numerators over one
denominator, read in closed form off the words of family_to_operator
(the first factor) plus hw.act_basis (the second).  ``act`` and the
closure and Whittaker engines are integer sparse combinations of these
columns.  The table belongs to the instance and dies with it; nothing
is shared between modules or across calls with other parameters.
family_act stays the independent oracle the tests check it against.

Everything is exact; "certified" means a genuine membership witness
exists (and can be replayed), never "converged numerically".
"""

import heapq
from dataclasses import dataclass
from functools import reduce
from math import comb, gcd, lcm, perm
from typing import Optional

from .scalars import Q, format_scalar
from .poly import BiPoly, UniPoly
from .algebra import UeaElement, mono_letters, annihilator_element
# family_act is not called here, but the name stays bound in this module:
# perfbench/selfcheck.py looks it up as takiff.tensor.family_act.
from .families import FamilyParams, family_act, family_to_operator  # noqa: F401
from .verma import HwModule, annihilation_index, VermaElement
from .linalg import (RANK_PRIME, Echelon, clear_denominators,
                     independent_mod_p, mod_p)
from .report import Report, PASS, FAIL, INCONCLUSIVE
from .sparse import LinComb, accumulate


class TensorModule:
    """V(params) (x) L(hw), with the expected-irreducibility note."""

    def __init__(self, params, hw):
        if not isinstance(params, FamilyParams):
            raise TypeError("params must be FamilyParams")
        if not isinstance(hw, HwModule):
            raise TypeError("hw must be an HwModule")
        self.params = params
        self.hw = hw
        if params.family == "omega" and params.a == 0:
            self.expectation = "reducible: a = 0 gives the invariant subspace hb*Q[h,hb] (x) L"
        else:
            self.expectation = "irreducible (family simple and L irreducible)"
        # Integer forms of the action, filled on first use: per gen the
        # operator words and per (gen, idx) the second factor's images,
        # each as (den, {key: int}), and the assembled columns.
        self._parts = {}
        self._columns = {}  # gen -> {flat key: (den, keys, nums)}

    def label(self):
        return f"{self.params.label()} (x) {self.hw.label()}"

    # -- elements -------------------------------------------------------

    def zero(self):
        return TensorElement({})

    def pure(self, p, idx=None):
        """p (x) (basis vector); default index is the highest-weight vector."""
        if idx is None:
            idx = self.hw.highest_index
        if isinstance(p, str):
            p = BiPoly.parse(p)
        return TensorElement({idx: p})

    def one_v(self):
        return self.pure(BiPoly.const(1))

    # -- the Leibniz action ----------------------------------------------

    def act(self, gen, x):
        den, out = self.image(gen, x.flatten())
        return TensorElement.from_flat({k: Q(n, den) for k, n in out.items()})

    def image(self, gen, flat):
        """gen applied to a flat vector, as (den, ints).

        flat maps flat keys (idx, i, j) to ints or rationals; the image
        is the returned int dict divided by den > 0.  Each term's column
        and its own denominator fix one common denominator, so the merge
        runs on ints.
        """
        cols = self._columns.get(gen, {})
        den = 1
        parts = []
        for key, c in flat.items():
            col = cols.get(key) or self.column(gen, key)
            d = col[0] * int(c.denominator)
            den = lcm(den, d)
            parts.append((int(c.numerator), d, col[1], col[2]))
        out = {}
        for n, d, keys, nums in parts:
            f = n * (den // d)
            accumulate(out, zip(keys, map(f.__mul__, nums)))
        return den, out

    def column(self, gen, key):
        """The image of the basis label key = (idx, i, j) under gen.

        Returned as (den, keys, nums): flat keys and int numerators with
        gen . (h^i hb^j (x) idx) = sum(num * key) / den, den as small as
        possible.  Each column is computed once per module instance, on
        first use.  (Lists, not tuples: freed tuples of many lengths
        would stay cached by the interpreter after the module is gone.)
        """
        cols = self._columns.get(gen)
        if cols is None:
            cols = self._columns[gen] = {}
        col = cols.get(key)
        if col is None:
            col = cols[key] = self._compile(gen, key)
        return col

    def _compile(self, gen, key):
        # The word c * h^wi hb^wj db^k s^m sends h^i hb^j to
        # c * perm(j, k) * sum_t comb(i, t) (-2m)^(i-t) h^(wi+t) hb^(wj+j-k);
        # the Leibniz term 1 (x) gen adds h^i hb^j (x) gen.idx.
        idx, i, j = key
        words = self._parts.get(gen)
        if words is None:
            words = self._parts[gen] = clear_denominators(
                family_to_operator(gen, self.params).terms)
        second = self._parts.get((gen, idx))
        if second is None:
            second = self._parts[(gen, idx)] = clear_denominators(
                self.hw.act_basis(gen, idx))
        (wden, wnums), (sden, snums) = words, second
        den = lcm(wden, sden)
        out = {}
        for (wi, wj, k, m), n in wnums.items():
            n *= (den // wden) * perm(j, k)
            if n:
                accumulate(out, (((idx, wi + t, wj + j - k),
                                  n * comb(i, t) * (-2 * m) ** (i - t))
                                 for t in range(i + 1)))
        f = den // sden
        accumulate(out, (((idx2, i, j), n * f) for idx2, n in snums.items()))
        g = reduce(gcd, out.values(), den)
        return den // g, list(out), [n // g for n in out.values()]

    def act_uea(self, u, x):
        """Universal-envelope action: each PBW word acts rightmost-first."""
        total = TensorElement({})
        for mono, c in u.terms.items():
            cur = x
            for letter in reversed(mono_letters(mono)):
                cur = self.act(letter, cur)
                if cur.is_zero():
                    break
            total = total + cur.scale(c)
        return total

    # -- flat vector plumbing ----------------------------------------------

    def flat_key_order(self, key):
        idx, i, j = key
        if self.hw.kind == "verma":
            return (idx[0] + idx[1], idx[0], idx[1], i, j)
        return (idx, idx, 0, i, j)

    def in_window(self, x, depth, deg_cap=None):
        if deg_cap is None:
            deg_cap = depth
        for idx, p in x.terms.items():
            if self.hw.level(idx) > depth:
                return False
            if p.deg_h() > deg_cap or p.deg_hb() > deg_cap:
                return False
        return True

    def window_basis(self, depth):
        """All basis labels (idx, i, j) inside the depth window, ordered."""
        out = []
        for idx in self.hw.basis_through_level(depth):
            for i in range(depth + 1):
                for j in range(depth + 1):
                    out.append((idx, i, j))
        out.sort(key=self.flat_key_order)
        return out


class TensorElement(LinComb):
    """Finite sum of BiPoly (x) L-basis terms; dict idx -> BiPoly."""

    __slots__ = ()

    def h_degree(self):
        """Max h-degree over terms; None when zero."""
        if not self.terms:
            return None
        return max(p.deg_h() for p in self.terms.values())

    def flatten(self):
        out = {}
        for idx, p in self.terms.items():
            for (i, j), c in p.terms.items():
                out[(idx, i, j)] = c
        return out

    @classmethod
    def from_flat(cls, flat):
        terms = {}
        for (idx, i, j), c in flat.items():
            if c:
                terms.setdefault(idx, {})[(i, j)] = c
        return cls._raw({idx: BiPoly._raw(d) for idx, d in terms.items()})

    def text(self):
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms, key=_idx_sort):
            p = self.terms[idx]
            body = p.text()
            if len(p.terms) > 1:
                body = f"({body})"
            parts.append(f"{body} (x) {_index_text(idx)}")
        return " + ".join(parts)


def _idx_sort(idx):
    return (idx[0] + idx[1], idx[0], idx[1]) if isinstance(idx, tuple) else (idx, idx, 0)


def _index_text(idx):
    if isinstance(idx, tuple):
        return VermaElement.basis(idx[0], idx[1]).text()
    return VermaElement.basis(idx, 0).text()


# -- Vandermonde reduction ------------------------------------------------


@dataclass
class Reduced:
    element: TensorElement
    combo: UeaElement  # replay: act_uea(combo, input) == element


def _eb_nilpotence(mod, idx):
    if mod.hw.kind == "findim":
        return 1
    return annihilation_index("eb", mod.hw.weight,
                              VermaElement.basis(idx[0], idx[1]))


def vandermonde_reduce(mod, x):
    """Extract an h-free element of the submodule generated by x.

    x is pumped with eb: for m past the nilpotence index K of the
    L-components, y_m = lam^(-m) eb^m . x is a polynomial function of m
    (degree at most deg_h(x) + K - 1), because eb acts on the first
    factor as lam times the shift.  Sampling one more point than the
    degree and inverting the Vandermonde matrix splits y_m into its
    coefficient elements; the top nonzero coefficient is returned.  Its
    leading part comes only from maximal (h-power + eb-depth) pairs,
    which carry no h, so the result is h-free except for accidental
    cancellations between those pairs; in that rare case the reduction
    is re-applied, and if no progress is possible (the element can be
    an eb-eigenvector) a ValueError reports the obstruction.

    Returns the element together with the explicit eb-combination that
    produced it, so the caller can replay it through the action.
    """
    if mod.params.family != "gamma":
        raise ValueError("the eb-pump reduction requires the gamma family")
    if x.is_zero():
        raise ValueError("cannot reduce the zero element")
    lam = mod.params.lam
    combo_total = UeaElement.one()
    current = x
    for _round in range(x.h_degree() + 2):
        r = current.h_degree()
        if r == 0:
            return Reduced(current, combo_total)
        K = max(_eb_nilpotence(mod, idx) for idx in current.terms)
        degree = r + K - 1
        points = list(range(K, K + degree + 1))
        # sample y_m incrementally
        samples = {}
        cur = current
        step = 0
        for m in points:
            while step < m:
                cur = mod.act("eb", cur)
                step += 1
            samples[m] = cur.scale(Q(1) / lam**m)
        weights = _vandermonde_inverse(points)
        # top nonzero coefficient of the fitted polynomial, highest power first
        for d in range(degree, -1, -1):
            coeff_elt = TensorElement({})
            for col, m in enumerate(points):
                coeff_elt = coeff_elt + samples[m].scale(weights[d][col])
            if not coeff_elt.is_zero():
                top = coeff_elt
                combo = UeaElement.zero()
                for col, m in enumerate(points):
                    w = weights[d][col] / lam**m
                    if w:
                        combo = combo + UeaElement.monomial(w, m=m)
                break
        else:  # pragma: no cover - F vanishes nowhere (top L-level survives)
            raise ValueError("eb pump produced the zero function")
        if top.h_degree() >= r:
            raise ValueError(
                "reduction stalled: element behaves as an eb-eigenvector, "
                f"no h-free extraction by eb alone (value {top.text()})"
            )
        current = top
        combo_total = combo * combo_total
    raise ValueError("reduction failed to reach h-degree zero")  # pragma: no cover


def _vandermonde_inverse(points):
    """Inverse of the matrix [m^d] (rows m in points, columns d)."""
    n = len(points)
    rows = [[Q(m) ** d for d in range(n)] + [Q(0)] * n for m in points]
    for i in range(n):
        rows[i][n + i] = Q(1)
    from .linalg import rref

    rref(rows)
    # rows now [I | V^-1]; row d of the inverse weights sample column m
    return [[rows[d][n + c] for c in range(n)] for d in range(n)]


# -- irreducibility certification ------------------------------------------


def make_seeds(mod, count, rng_seed, max_level=2, max_deg=2):
    """Structured seeds plus a reproducible pseudo-random batch.

    Random terms are monomials of total degree at most max_deg times
    basis vectors of level at most max_level, occasionally mixed across
    two levels.  Terms at the deepest level stay h-free: stripping
    h-powers from deep levels is by far the costliest closure
    direction, and low-degree seeds already exercise every generator
    (the closure itself still sweeps through high-degree products).
    """
    import random

    rng = random.Random(rng_seed)
    h = BiPoly.var_h()
    hb = BiPoly.var_hb()
    levels = [idx for idx in mod.hw.basis_through_level(max_level)]
    monos = [(i, j) for i in range(max_deg + 1)
             for j in range(max_deg + 1 - i)]
    deep = mod.hw.level(levels[-1])

    def pick_mono(idx):
        if mod.hw.level(idx) >= deep and deep > 1:
            return 0, rng.randrange(1, max_deg + 1)
        return monos[rng.randrange(len(monos))]

    seeds = [
        mod.pure(h),
        mod.pure(hb * hb),
        TensorElement({levels[-1]: hb * hb if deep > 1 else h * hb}),
    ]
    while len(seeds) < count:
        idx = levels[rng.randrange(len(levels))]
        p = BiPoly.zero()
        for _ in range(rng.randrange(1, 4)):
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            i, j = pick_mono(idx)
            p = p + BiPoly.monomial(c, i, j)
        if p.is_zero():
            continue
        x = TensorElement({idx: p})
        if rng.random() < 0.4 and len(levels) > 1:
            idx2 = levels[rng.randrange(len(levels))]
            i, j = pick_mono(idx2)
            x = x + TensorElement({idx2: BiPoly.monomial(
                rng.choice([-2, -1, 1, 2]), i, j)})
        if not x.is_zero():
            seeds.append(x)
    return seeds[:count]


def closure_search(mod, seed, depth, track_tags=False):
    """Grow the exact span closure of the seed under all six generators.

    Only elements inside the window (every term of h-degree, hb-degree
    and L-level at most depth) are expanded further; their images are
    kept whole, never truncated, so membership in the span always means
    membership in the submodule.  Returns (found, span, tags): found is
    True once 1 (x) v enters the span, at which point the search stops.

    The window is escalated: the search first runs inside smaller
    sub-windows, whose level cap s comes with degree cap min(2s, depth)
    because raising a level costs up to two degrees, and only widens to
    the full depth window when the target is still missing.  A hit in
    any sub-window is already sound.
    """
    if seed.is_zero():
        raise ValueError("seed must be nonzero")
    if not mod.in_window(seed, depth):
        raise ValueError("seed lies outside the window")
    start = 0
    for idx, p in seed.terms.items():
        start = max(start, mod.hw.level(idx), p.deg_h(), p.deg_hb())
    start = max(start, 2)
    rungs = [(s, min(2 * s, depth)) for s in range(start, depth, 2)]
    rungs.append((depth, depth))
    result = None
    for lvl_cap, deg_cap in rungs:
        result = _closure_window(mod, seed, lvl_cap, deg_cap, track_tags)
        if result[0]:
            return result
    return result


def _closure_window(mod, seed, lvl_cap, deg_cap, track_tags):
    # Pivots sit on the deepest column of each row: breadth-first images
    # concentrate at high level/degree, so eliminating those columns
    # first keeps the stored rows sparse (much less fill-in than pivoting
    # on the lowest column).
    #
    # Every image of an expanded row is stored (it lives at most one
    # generator application beyond the window), but only rows whose
    # reduced representative lies inside the window are expanded
    # further.  Storing the margin is what lets combinations cancel
    # out-of-window parts: an in-window element of the submodule often
    # arises as a combination of images that each stick out, and
    # discarding those images would lose it.
    #
    # Rows stay flat int vectors throughout: the image of a stored row
    # is a positive multiple of gen . row, which spans the same line,
    # and the target residual only has to reach zero.
    order = mod.flat_key_order
    keyfn = lambda k: tuple(-t for t in order(k))
    level = mod.hw.level
    span = Echelon(keyfn=keyfn)
    tags = []
    target_res = {(mod.hw.highest_index, 0, 0): 1}

    def window_score(row):
        # None outside the window, else max over L-labels of level +
        # h-degree + hb-degree of that label's polynomial
        degs = {}
        for idx, i, j in row:
            if i > deg_cap or j > deg_cap:
                return None
            di, dj = degs.get(idx, (0, 0))
            degs[idx] = (max(di, i), max(dj, j))
        if any(level(idx) > lvl_cap for idx in degs):
            return None
        return max(level(idx) + di + dj for idx, (di, dj) in degs.items())

    counter = 0
    heap = []

    def push(vec, tag):
        # Returns True once the target is in the span.  The target
        # residual stays reduced against every stored row, so only the
        # newly inserted row can shrink it further: one subtraction
        # replaces a full sweep.
        nonlocal counter, target_res
        ridx, combo, mult, content = span.insert(vec)
        if ridx is None:
            return False
        if track_tags:
            t = tag.scale(mult)
            for i, c in combo.items():
                t = t - tags[i].scale(c)
            tags.append(t.scale(Q(1, content)))
        else:
            tags.append(None)
        row = span.rows[ridx]
        pk = min(row, key=keyfn)
        c = target_res.get(pk)
        if c:
            g = gcd(c, row[pk])
            a, b = row[pk] // g, c // g
            target_res = accumulate({k: a * v for k, v in target_res.items()},
                                    ((k2, -b * v2) for k2, v2 in row.items()))
            if not target_res:
                return True
        score = window_score(row)
        if score is not None:
            heapq.heappush(heap, (score, counter, ridx))
            counter += 1
        return False

    if push(seed.flatten(), UeaElement.one()):
        return True, span, tags

    gens = ("eb", "e", "hb", "h", "fb", "f")
    while heap:
        _, _, ridx = heapq.heappop(heap)
        row = span.rows[ridx]
        for gen in gens:
            den, img = mod.image(gen, row)
            if not img:
                continue
            tag = None
            if track_tags:
                tag = (UeaElement.gen(gen) * tags[ridx]).scale(den)
            if push(img, tag):
                return True, span, tags
    return False, span, tags


def certify_irreducible(mod, seeds, depth, track_tags=False):
    """Sound reachability of 1 (x) v from each seed; never 'reducible'."""
    report = Report(
        suite="irreducible",
        config={"module": mod.label(), "depth": depth, "seeds": len(seeds)},
    )
    for n, seed in enumerate(seeds):
        found, span, _ = closure_search(mod, seed, depth, track_tags=track_tags)
        check_id = f"reach[seed-{n}]/{mod.label()}"
        witness = f"closure dimension {len(span)}, seed {seed.text()}"
        if found:
            report.add(check_id, PASS, witness)
        else:
            report.add(check_id, INCONCLUSIVE,
                       witness + "; 1 (x) v not reached at this depth")
    return report


def check_invariant_subspace(mod, depth):
    """Exact closure of hb*Q[h,hb] (x) L under all six generators (omega, a=0)."""
    if mod.params.family != "omega" or mod.params.a != 0:
        raise ValueError("invariant-subspace check applies to omega with a = 0")
    report = Report(
        suite="invariant-subspace",
        config={"module": mod.label(), "depth": depth},
    )
    gens = ("e", "f", "h", "eb", "fb", "hb")
    for gen in gens:
        bad = None
        for idx in mod.hw.basis_through_level(depth):
            for i in range(depth):
                for j in range(depth):
                    p = BiPoly.monomial(1, i, j + 1)
                    img = mod.act(gen, TensorElement({idx: p}))
                    for idx2, q in img.terms.items():
                        if not q.divisible_by_hb():
                            bad = (idx, i, j + 1, idx2, q)
                            break
                    if bad:
                        break
                if bad:
                    break
            if bad:
                break
        check_id = f"hb-subspace[{gen}]/{mod.label()}"
        if bad:
            report.add(check_id, FAIL,
                       f"image of h^{bad[1]} hb^{bad[2]} (x) basis{bad[0]} "
                       f"leaves hb*Q[h,hb]: {bad[4].text()}")
        else:
            report.add(check_id, PASS, f"closed through depth {depth}")
    return report


# -- binomial annihilators -------------------------------------------------


def uea_to_family_operator(u, params):
    """Image of an envelope element in the skew algebra of one family."""
    from .skew import SkewOperator

    total = SkewOperator.zero()
    for mono, c in u.terms.items():
        op = SkewOperator.identity()
        for letter in mono_letters(mono):
            op = op.compose(family_to_operator(letter, params))
        total = total + op.scale(c)
    return total


def annihilator_check(mod, g, r):
    """The two-part probe for the binomial annihilator w^(r).

    (i) w^(r) kills g inside V alone whenever r exceeds the h-degree
    of g -- checked by exact operator application.  (ii) In the tensor
    module, w^(r).(g (x) v) with v the highest-weight vector is
    computed exactly and reported with its value; the check passes when
    the value is nonzero (so w^(r) genuinely probes the second factor).
    For the gamma family the exact value is zero -- eb moves across the
    tensor as a pure shift and part (i) wins -- and the check reports
    that honestly; a supplementary record shows the same probe based at
    f v, where it is nonzero.
    """
    params = mod.params
    if r <= (g.deg_h() or 0):
        raise ValueError("need r > deg_h(g)")
    if params.family == "omega" and params.a == 0:
        raise ValueError("omega annihilator needs a != 0")
    report = Report(
        suite="lemma51",
        config={"module": mod.label(), "g": g.text(), "r": r},
    )
    w = annihilator_element(params.family, r, params.lam, params.a)

    value_v = uea_to_family_operator(w, params).apply(g)
    report.add(
        f"annihilator/kills-V[r={r}]/{params.label()}",
        PASS if value_v.is_zero() else FAIL,
        f"w^({r}).g = {value_v.text()} in V",
    )

    probe = mod.act_uea(w, mod.pure(g))
    report.add(
        f"annihilator/tensor-probe[r={r}]/{mod.label()}",
        FAIL if probe.is_zero() else PASS,
        f"w^({r}).(g (x) v) = {probe.text()}",
    )

    if mod.hw.kind == "verma":
        base = (1, 0)
        probe2 = mod.act_uea(w, TensorElement({base: g}))
        report.add(
            f"annihilator/tensor-probe-at-fv[r={r}]/{mod.label()}",
            PASS if not probe2.is_zero() else FAIL,
            f"w^({r}).(g (x) f v) = {probe2.text()}",
        )
    else:
        report.add(
            f"annihilator/finite-dim-observation[r={r}]/{mod.label()}",
            PASS,
            "barred generators act by zero on L, so the tensor probe "
            "reduces to the V-side value",
        )
    return report


# -- Whittaker search -------------------------------------------------------


class WhittakerWindow:
    """The Whittaker eigenvector equations of one module on a depth window.

    A window vector x = sum_t x_t b_t solves e.x = mu1 x and eb.x = mu2 x
    exactly when x lies in the kernel of the stacked matrix
    [E - mu1 I ; Eb - mu2 I], whose column t holds the images of the
    basis label b_t.  The images of e and eb are computed once, exactly
    and untruncated, so every (mu1, mu2) reuses them; a solution
    satisfies the equations in the full module, and the kernel is
    complete for the window.

    ``solve`` decides each point in one of two ways:

    * Certificate.  The columns are mapped to F_p (p = ``RANK_PRIME``)
      and eliminated on ints.  If no entry and neither eigenvalue has a
      denominator divisible by p, and the images have full column rank
      mod p, the rational kernel is zero: a nonzero rational kernel
      vector, scaled to be p-integral with a unit entry, would reduce
      to a nonzero kernel vector mod p.  ``solve`` then returns [].
    * Exact solve.  Whenever the certificate does not hold -- the kernel
      mod p is nonzero, or p divides a denominator -- the kernel is
      computed with the exact ``Echelon`` on the cached images.

    So an empty answer always rests on the full-rank-mod-p certificate
    or on the exact solve, and every returned vector comes from the
    exact solve.
    """

    def __init__(self, mod, depth):
        self.basis = mod.window_basis(depth)
        order = mod.flat_key_order
        # Same deepest-pivot policy as the closure search: raising
        # operators push support toward high strata, so pivoting there
        # keeps the elimination sparse.
        self.keyfn = lambda sk: tuple(-t for t in (sk[0],) + order(sk[1:]))
        # Per label: (den, {(block, idx, i, j): int}), block 0 = e and
        # 1 = eb; the stacked image of the label is the ints over den.
        self.columns = []
        for key in self.basis:
            (d0, k0, n0), (d1, k1, n1) = mod.column("e", key), mod.column("eb", key)
            den = lcm(d0, d1)
            stacked = {(0,) + k: n * (den // d0) for k, n in zip(k0, n0)}
            stacked.update(((1,) + k, n * (den // d1)) for k, n in zip(k1, n1))
            self.columns.append((den, stacked))
        # The certificate's columns: the images mod p on integer row
        # keys ranked by the pivot policy, and each column's two
        # diagonal row keys; None when p divides a denominator.
        keys = {k for _, img in self.columns for k in img}
        keys.update((block,) + b for b in self.basis for block in (0, 1))
        rank = {k: n for n, k in enumerate(sorted(keys, key=self.keyfn))}
        self._diag = [(rank[(0,) + b], rank[(1,) + b]) for b in self.basis]
        self._residues = []
        for den, img in self.columns:
            if den % RANK_PRIME == 0:
                self._residues = None
                break
            inv = pow(den, -1, RANK_PRIME)
            col = {rank[k]: n * inv % RANK_PRIME for k, n in img.items()}
            self._residues.append({k: r for k, r in col.items() if r})

    def certify_empty(self, mu1, mu2):
        """True only when the columns have full rank mod p (see above)."""
        m1, m2 = mod_p(Q(mu1)), mod_p(Q(mu2))
        if self._residues is None or m1 is None or m2 is None:
            return False

        def shifted():
            for col, (d1, d2) in zip(self._residues, self._diag):
                out = dict(col)
                for d, m in ((d1, m1), (d2, m2)):
                    s = (out.get(d, 0) - m) % RANK_PRIME
                    if s:
                        out[d] = s
                    else:
                        out.pop(d, None)
                yield out

        return independent_mod_p(shifted())

    def exact_solutions(self, mu1, mu2):
        """Basis of the window kernel, by exact elimination."""
        mu1, mu2 = Q(mu1), Q(mu2)
        span = Echelon(keyfn=self.keyfn)
        tags = []  # per stored row: its rational combination of labels
        kernel = []
        for t, ((den, img), key) in enumerate(zip(self.columns, self.basis)):
            # den times the stacked column of [E - mu1 I ; Eb - mu2 I]
            stacked = accumulate(dict(img), (((0,) + key, -mu1 * den),
                                             ((1,) + key, -mu2 * den)))
            ridx, combo, mult, content = span.insert(stacked)
            m = mult * den
            tag = accumulate({t: m}, ((t2, -c * c2) for i2, c in combo.items()
                                      for t2, c2 in tags[i2].items()))
            if ridx is None:
                kernel.append({k: Q(c) / m for k, c in tag.items()})
            else:
                tags.append({k: Q(c) / content for k, c in tag.items()})
        return [TensorElement.from_flat({self.basis[t]: c for t, c in tag.items()})
                for tag in kernel]

    def solve(self, mu1, mu2):
        """All window vectors x with e.x = mu1 x and eb.x = mu2 x."""
        if self.certify_empty(mu1, mu2):
            return []
        return self.exact_solutions(mu1, mu2)


def whittaker_vector_search(mod, mu1, mu2, depth):
    """All x in the depth window with e.x = mu1 x and eb.x = mu2 x.

    The images of e and eb are computed exactly (not truncated), so a
    returned x satisfies the eigenvector equations in the full module,
    and the list is complete for the window.  The empty answer is
    certified when p = 2^61 - 1 divides no denominator of the images or
    of mu1, mu2 and the stacked columns [E - mu1 I ; Eb - mu2 I] have
    full column rank mod p: a nonzero rational kernel vector, scaled to
    be p-integral with a unit entry, would reduce to a nonzero kernel
    vector mod p.  In every other case -- the kernel mod p is nonzero,
    or p divides a denominator -- the exact ``Echelon`` solve decides.
    See ``WhittakerWindow``.
    """
    return WhittakerWindow(mod, depth).solve(mu1, mu2)


def whittaker_report(mod, grid, depth):
    """Search over a grid of (mu1, mu2); PASS means no Whittaker vector.

    The window images are built once for the whole grid.  A PASS rests
    either on full column rank of [E - mu1 I ; Eb - mu2 I] mod
    p = 2^61 - 1, with p dividing no denominator (a primitive rational
    kernel vector would survive reduction mod p), or, whenever that
    certificate does not hold -- the kernel mod p is nonzero, or p
    divides a denominator of the images or of mu -- on the exact
    ``Echelon`` solve.  A FAIL lists the exact solutions.  See
    ``WhittakerWindow``.
    """
    report = Report(
        suite="whittaker",
        config={"module": mod.label(), "depth": depth,
                "grid": "; ".join(f"({format_scalar(Q(a))},{format_scalar(Q(b))})"
                                   for a, b in grid)},
    )
    window = WhittakerWindow(mod, depth)
    for mu1, mu2 in grid:
        sols = window.solve(mu1, mu2)
        check_id = (f"whittaker[mu1={format_scalar(Q(mu1))},"
                    f"mu2={format_scalar(Q(mu2))}]/{mod.label()}")
        if sols:
            report.add(check_id, FAIL,
                       "solutions: " + "; ".join(s.text() for s in sols))
        else:
            report.add(check_id, PASS, f"no solution in window (depth {depth})")
    return report


# -- parameter recovery ------------------------------------------------------


@dataclass(frozen=True)
class RecoveredParams:
    family: str
    lam: "Q"
    a: "Q"
    b: Optional["Q"]
    beta: Optional[UniPoly]
    eta: "Q"
    theta: "Q"

    def as_tuple(self):
        beta = self.beta.text() if self.beta is not None else None
        return (self.family, format_scalar(self.lam), format_scalar(self.a),
                None if self.b is None else format_scalar(self.b),
                beta, format_scalar(self.eta), format_scalar(self.theta))


def recover_parameters(mod):
    """Read (lam, a, b or beta, eta, theta) back off probe actions on 1 (x) v.

    Works for any valid module of the three families; the postcondition
    (recovered == constructed) is what makes the parameters genuine
    isomorphism invariants at the computational level.
    """
    hwidx = mod.hw.highest_index
    one_v = mod.one_v()

    def vpart(gen):
        return mod.act(gen, one_v).terms.get(hwidx, BiPoly.zero())

    eta = vpart("hb").coefficient(0, 0)
    theta = vpart("h").coefficient(0, 0)
    fam = mod.params.family
    if fam == "gamma":
        lam = vpart("eb").coefficient(0, 0)
        a = -4 * lam * vpart("fb").coefficient(0, 0)
        b = -2 * lam * vpart("f").coefficient(0, 0)
        return RecoveredParams(fam, lam, a, b, None, eta, theta)
    if fam == "theta":
        lam = vpart("fb").coefficient(0, 0)
        a = -4 * lam * vpart("eb").coefficient(0, 0)
        b = -2 * lam * vpart("e").coefficient(0, 0)
        return RecoveredParams(fam, lam, a, b, None, eta, theta)
    if fam == "omega":
        ebp = vpart("eb")
        lam = 2 * ebp.coefficient(0, 1)
        a = 2 * ebp.coefficient(0, 0) / lam
        fp = vpart("f")
        beta = UniPoly({j: c for (i, j), c in fp.terms.items() if i == 0})
        return RecoveredParams(fam, lam, a, None, beta, eta, theta)
    raise ValueError(f"unknown family {fam!r}")


def recover_report(mod):
    rec = recover_parameters(mod)
    params = mod.params
    hw = mod.hw.weight
    checks = [("lambda", rec.lam == params.lam),
              ("a", rec.a == params.a),
              ("eta", rec.eta == hw.eta),
              ("theta", rec.theta == hw.theta)]
    if params.family == "omega":
        checks.append(("beta", rec.beta == params.beta))
    else:
        checks.append(("b", rec.b == params.b))
    report = Report(suite="recover", config={"module": mod.label()})
    for name, ok in checks:
        report.add(f"recover[{name}]/{mod.label()}", PASS if ok else FAIL)
    return report
