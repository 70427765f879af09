"""Tensor products V (x) L of a family module with a highest-weight module.

Elements are finite sums p_w(h, hb) (x) w over the L-basis; generators
act by the Leibniz rule.  On top of the action sit the six engines:

  vandermonde_reduce     pump with eb and fit the resulting polynomial
                         in the exponent to extract an h-free element
                         of the generated submodule (gamma only)
  certify_irreducible    sound span-closure reachability of 1 (x) v
  check_invariant_subspace   hb*Q[h,hb] (x) L is closed (omega, a=0),
                         decided per window monomial off the family table
  annihilator_check      the binomial operators w^(r): kill V, probe L
  whittaker_vector_search    exact eigenvector solve on a finite window
  recover_parameters     read the construction parameters back off
                         probe actions on 1 (x) v

The action is compiled.  In the Leibniz rule x.(h^i hb^j (x) w) =
(x.h^i hb^j) (x) w + h^i hb^j (x) x.w the first term depends on (x, i, j)
alone and the second on (x, w) alone, so each TensorModule instance
keeps two integer tables, filled lazily: per generator the words of
family_to_operator over one denominator, with the image of each
h^i hb^j built from the words on hb^j and then one factor (h - 2m) per
power of h (``_family_entry``), and per (generator, w) hw.act_ints.
The tables belong to the instance; family_act and hw.act_basis stay
the oracle.

Labels are packed ints (``TensorModule.pack``): the fields (level, a, b,
i, j) of a Verma label idx = (a, b), or (idx, i, j) for L(0, theta),
KEY_BITS each, most significant first, each field f stored as
KEY_FIELD - f.  So plain int order is the deepest-first pivot order of
the closure and Whittaker eliminations, and a field past KEY_FIELD
raises ValueError instead of wrapping.  ``act``, ``act_uea``, the eb
pump and the closure, Whittaker and phi engines are integer sparse
combinations of the table entries on packed keys; ``image`` takes int
vectors only, and rationals are cleared once where they enter.  Keys
are unpacked only at the element and witness edge (``from_ints``,
Whittaker solutions, the invariant-subspace witness); the triangularity
walk reads its order off the packed key (``order``).

Everything is exact; "certified" means a genuine membership witness
exists (and can be replayed), never "converged numerically".
"""

import heapq
from math import lcm, perm

from .scalars import Q, format_scalar
from .poly import BiPoly, UniPoly
from .algebra import GENERATORS, UeaElement, annihilator_element, mono_letters
# family_act is not called here, but the name stays bound in this module:
# perfbench/selfcheck.py looks it up as takiff.tensor.family_act.
from .families import FamilyParams, family_act, family_to_operator  # noqa: F401
from .verma import HwModule, VermaElement
from .linalg import Echelon, nullspace
from .skew import SkewOperator
from .report import Frozen, Report, PASS, FAIL, INCONCLUSIVE
from .sparse import (LinComb, accumulate, clear_denominators, combine,
                     lowest_terms)

#: Bits per field of a packed flat key, and the largest field value.
KEY_BITS = 12
KEY_FIELD = (1 << KEY_BITS) - 1
#: The (i, j) fields: key | LOW packs (idx, 0, 0), the label's head.
LOW = (1 << 2 * KEY_BITS) - 1


class TensorModule:
    """V(params) (x) L(hw), with the expected-irreducibility note."""

    def __init__(self, params, hw):
        if not isinstance(params, FamilyParams):
            raise TypeError("params must be FamilyParams")
        if not isinstance(hw, HwModule):
            raise TypeError("hw must be an HwModule")
        self.params = params
        self.hw = hw
        self._verma = hw.kind == "verma"
        self.key_bits = (5 if self._verma else 3) * KEY_BITS
        if params.family == "omega" and params.a == 0:
            self.expectation = "reducible: a = 0 gives the invariant subspace hb*Q[h,hb] (x) L"
        else:
            self.expectation = "irreducible (family simple and L irreducible)"
        # The action's tables, filled on first use: gen -> (words' den,
        # words, {low: (deltas, nums)}) and gen -> {head: (den, heads, nums)}.
        self._family = {}
        self._leibniz = {gen: {} for gen in GENERATORS}

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

    # -- packed flat keys -----------------------------------------------

    def pack(self, key):
        """The flat key (idx, i, j) of h^i hb^j (x) idx as one int (see
        the module docstring); ValueError for a field past KEY_FIELD."""
        idx, i, j = key
        fields = (idx[0] + idx[1], *idx, i, j) if self._verma else key
        out = 0
        for f in fields:
            if not 0 <= f <= KEY_FIELD:
                raise ValueError(f"flat key {key} has a field outside "
                                 f"0..{KEY_FIELD}")
            out = out << KEY_BITS | KEY_FIELD - f
        return out

    def unpack(self, key):
        """The flat key (idx, i, j) of a packed int."""
        m, b = KEY_FIELD, KEY_BITS
        if self._verma:
            idx = (m - (key >> 3 * b & m), m - (key >> 2 * b & m))
        else:
            idx = m - (key >> 2 * b)
        return idx, m - (key >> b & m), m - (key & m)

    def order(self, key):
        """check_phi's order (fb, f, hb, h) of a packed Verma key ((f, fb),
        h, hb), read by shift and mask, as one int that compares alike."""
        m, b = KEY_FIELD, KEY_BITS
        return ((m - (key >> 2 * b & m)) << 3 * b
                | (m - (key >> 3 * b & m)) << 2 * b
                | (m - (key & m)) << b | m - (key >> b & m))

    def flat(self, x):
        """An element as a flat vector {packed key: coefficient}."""
        return {self.pack(k): c for k, c in x.flatten().items()}

    def from_ints(self, den, ints):
        """The element sum(n * key) / den of a packed int vector."""
        return TensorElement.from_flat({self.unpack(k): Q(n, den)
                                        for k, n in ints.items()})

    # -- the Leibniz action ----------------------------------------------

    def act(self, gen, x):
        den, ints = clear_denominators(self.flat(x))
        return self.from_ints(*self.image_reduced(gen, den, ints))

    def image(self, gen, ints):
        """gen applied to an int vector, as (den, ints).

        ints maps packed keys to nonzero ints and is only read; the image
        is the returned int dict divided by den > 0, with no zero stored.
        A label adds its value times its family entry, keyed head + delta
        over the words' den, and times its Leibniz entry, keyed h2 - low
        over that entry's den; den is the lcm of wden and these (1 for the
        zero vector), not always the least, each folded in only where it
        does not divide den.  One merge loop runs on ints.
        """
        wden, _, family = self._family.get(gen) or self._words(gen)
        leibniz = self._leibniz[gen]
        den = wden if ints else 1
        parts = []
        for key, n in ints.items():
            # family_entry's lookup, inlined: a call per key slows image
            low, head = LOW ^ (key & LOW), key | LOW
            deltas, fnums = family.get(low) or self._family_entry(gen, key, low)
            sden, heads, snums = leibniz.get(head) or self._leibniz_entry(gen, head)
            if den % sden:
                den = lcm(den, sden)
            parts.append((n, wden, head, deltas, fnums))
            if heads:
                parts.append((n, sden, -low, heads, snums))
        out = {}
        get = out.get
        for n, d, base, keys, nums in parts:
            f = n * (den // d)
            for k, v in zip(keys, nums):
                k += base
                v = get(k, 0) + f * v
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        return den, out

    def image_reduced(self, gen, den, ints):
        """gen applied to the vector ints / den, as (den, ints) in lowest
        terms: the gcd of the new den and every int is 1.  With (1,
        {key: 1}) it is the column of one packed label."""
        d, out = self.image(gen, ints)
        return lowest_terms(den * d, out)

    def family_entry(self, gen, key):
        """gen's family part on the label key, as (deltas, ints) over the
        words' den (see ``_family_entry``): the first Leibniz term."""
        _, _, family = self._family.get(gen) or self._words(gen)
        low = LOW ^ (key & LOW)
        return family.get(low) or self._family_entry(gen, key, low)

    def _words(self, gen):
        """gen's family table, built on first use."""
        entry = self._family[gen] = (*clear_denominators(
            family_to_operator(gen, self.params).terms), {})
        return entry

    def _family_entry(self, gen, key, low):
        """gen's family part on h^i hb^j (x) idx, low = i << KEY_BITS | j,
        as (deltas to the label's head, ints) over the words' den:
        h^i' hb^j' (x) idx packs to head - (i' << KEY_BITS) - j'.

        The words n h^wi hb^wj db^k s^m make F(0, j), the sum of
        n perm(j, k) h^wi hb^(wj+j-k).  Every word of one generator
        carries the same shift s^m, and s^m h = (h - 2m) s^m, so
        F(i, j) = (h - 2m) F(i - 1, j): the entry is walked up from the
        nearest one below it in the table, each step stored, in a loop
        rather than recursion."""
        _, words, family = self._family[gen]
        i, j = low >> KEY_BITS, low & KEY_FIELD
        if any((wi + i > KEY_FIELD or wj + j - k > KEY_FIELD) and perm(j, k)
               for wi, wj, k, _ in words):
            raise ValueError(f"{gen} takes the flat key {self.unpack(key)} "
                             f"past the field limit {KEY_FIELD}")
        step = 1 << KEY_BITS
        base = low
        while base >= step and base not in family:
            base -= step
        if base not in family:
            out = accumulate({}, ((-(wi << KEY_BITS) - wj - j + k, n * perm(j, k))
                                  for (wi, wj, k, _), n in words.items()))
            family[base] = (list(out), list(out.values()))
        deltas, nums = family[base]
        two_m = 2 * next(iter(words), (0, 0, 0, 0))[3]
        while base < low:
            base += step
            out = dict(zip([d - step for d in deltas], nums))  # h F
            if two_m:
                accumulate(out, zip(deltas, [-two_m * c for c in nums]))
            deltas, nums = family[base] = (list(out), list(out.values()))
        return deltas, nums

    def _leibniz_entry(self, gen, head):
        idx = self.unpack(head)[0]
        sden, snums = self.hw.act_ints(gen, idx)
        entry = self._leibniz[gen][head] = (
            sden, [self.pack((idx2, 0, 0)) for idx2 in snums], list(snums.values()))
        return entry

    def act_uea(self, u, x):
        """Universal-envelope action: each PBW word acts rightmost-first.

        Words of one element often end alike (eb^m for consecutive m, the
        letters of a binomial annihilator), so the image of each distinct
        letter suffix is computed once per call, as (den, ints) through
        ``image_reduced``, in lowest terms after each letter.
        The memo lives only for this call.
        """
        images = {(): clear_denominators(self.flat(x))}
        parts = []
        for mono, c in u.terms.items():
            letters = mono_letters(mono)
            s = 0
            while letters[s:] not in images:
                s += 1
            while s:
                s -= 1
                images[letters[s:]] = self.image_reduced(
                    letters[s], *images[letters[s + 1:]])
            parts.append((c, *images[letters]))
        return self.from_ints(*combine(parts))

    # -- windows ------------------------------------------------------------

    def window_basis(self, depth):
        """The packed labels (idx, i, j) inside the depth window, the
        shallowest first (descending int order)."""
        return sorted((self.pack((idx, i, j))
                       for idx in self.hw.basis_through_level(depth)
                       for i in range(depth + 1) for j in range(depth + 1)),
                      reverse=True)


class TensorElement(LinComb):
    """Finite sum of BiPoly (x) L-basis terms; dict idx -> BiPoly."""

    __slots__ = ()

    def h_degree(self):
        """Max h-degree over terms; None when zero."""
        if not self.terms:
            return None
        return max(p.deg_h() for p in self.terms.values())

    def flatten(self):
        return {(idx, i, j): c for idx, p in self.terms.items()
                for (i, j), c in p.terms.items()}

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
        for idx in sorted(self.terms, key=lambda idx: (sum(_ab(idx)), _ab(idx))):
            p = self.terms[idx]
            body = p.text()
            if len(p.terms) > 1:
                body = f"({body})"
            parts.append(f"{body} (x) {VermaElement.basis(*_ab(idx)).text()}")
        return " + ".join(parts)


def _ab(idx):
    """An L-label as the exponents (a, b) of its basis vector f^a fb^b v."""
    return idx if isinstance(idx, tuple) else (idx, 0)


# -- Vandermonde reduction ------------------------------------------------


class Reduced:
    def __init__(self, element, combo):
        self.element = element
        self.combo = combo  # replay: act_uea(combo, input) == element


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
        K = max(mod.hw.nilpotence("eb", idx) for idx in current.terms)
        degree = r + K - 1
        points = list(range(K, K + degree + 1))
        # sample eb^m . current incrementally, as (den, ints)
        samples = []
        den, ints = clear_denominators(mod.flat(current))
        step = 0
        for m in points:
            while step < m:
                den, ints = mod.image_reduced("eb", den, ints)
                step += 1
            samples.append((den, ints))
        weights = _vandermonde_inverse(points)
        # top nonzero coefficient of the fitted polynomial, highest power
        # first; sample m enters y_m with the factor lam^(-m)
        for d in range(degree, -1, -1):
            ws = [w / lam**m for w, m in zip(weights[d], points)]
            den, ints = combine((w, *sample) for w, sample in zip(ws, samples))
            if ints:
                top = mod.from_ints(den, ints)
                combo = UeaElement.zero()
                for w, m in zip(ws, points):
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
    """Inverse of the matrix [m^d] (rows m in points, columns d).

    Column r holds the coefficients of the Lagrange basis polynomial
    prod_{s != r} (m - m_s) / (m_r - m_s), which is 1 at m_r and 0 at
    every other point; row d weights the samples for the power m^d."""
    columns = []
    for r, mr in enumerate(points):
        poly, den = [1], 1  # int coefficients, lowest power first
        for s, ms in enumerate(points):
            if s != r:
                poly = [a - ms * b for a, b in zip([0, *poly], [*poly, 0])]
                den *= mr - ms
        columns.append([Q(c, den) for c in poly])
    return [list(row) for row in zip(*columns)]


# -- irreducibility certification ------------------------------------------


def make_seeds(mod, count, rng_seed):
    """Structured seeds plus a reproducible pseudo-random batch.

    Random terms are monomials of total degree at most 2 times basis
    vectors of level at most 2, occasionally mixed across two levels.
    Terms at the deepest level stay h-free: stripping h-powers from
    deep levels is by far the costliest closure direction, and
    low-degree seeds already exercise every generator (the closure
    itself still sweeps through high-degree products).
    """
    import random

    max_level = max_deg = 2
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


def closure_search(mod, seed, depth):
    """Grow the exact span closure of the seed under all six generators.

    Only elements inside the window (every term of h-degree, hb-degree
    and L-level at most depth) are expanded further; their images are
    kept whole, never truncated, so membership in the span always means
    membership in the submodule.  Returns (found, span, steps): found
    is True once 1 (x) v enters the span, that is once its key, the
    largest, becomes a pivot, and the search stops there.  steps[r] = (parent, gen, scale, combo, content), all ints
    but gen, records how row r arose: scale * gen . rows[parent] ==
    content * rows[r] + sum(combo[i] * rows[i]), each i < r, and for the
    seed's step (parent = gen = None, combo empty) scale * seed ==
    content * rows[0].  Replayed in order, they rebuild every row.

    The window is escalated: the search first runs inside smaller
    sub-windows, whose level cap s comes with degree cap min(2s, depth)
    because raising a level costs up to two degrees, and only widens to
    the full depth window when the target is still missing (a hit in
    any sub-window is already sound).  A level cap is clipped to the
    module's deepest level within it and a repeated rung is skipped: the
    window reads the cap only through lvl > cap on the module's labels,
    so neither changes an elimination step, and a repeat would miss
    again.  The span is the ``Echelon`` the search eliminated on, keyed
    by ``mod.pack`` ints; ``mod.unpack`` reads a key back as (idx, i, j).
    """
    if seed.is_zero():
        raise ValueError("seed must be nonzero")
    start = 0
    for idx, p in seed.terms.items():
        start = max(start, mod.hw.level(idx), p.deg_h(), p.deg_hb())
    if start > depth:
        raise ValueError(f"seed {seed.text()} lies outside the depth-{depth} window")
    start = max(start, 2)
    rungs = [(s, min(2 * s, depth)) for s in range(start, depth, 2)]
    rungs.append((depth, depth))
    for lvl_cap, deg_cap in dict.fromkeys(
            (mod.hw.deepest_level(s), d) for s, d in rungs):
        found, span, steps = _closure_window(mod, seed, lvl_cap, deg_cap)
        if found:
            break
    return found, span, steps


def _closure_window(mod, seed, lvl_cap, deg_cap):
    # Pivots sit on the deepest column of each row, the smallest packed
    # key: breadth-first images concentrate at high level/degree, so
    # eliminating those columns first keeps the stored rows sparse.
    #
    # Every image of an expanded row is stored (it lives at most one
    # generator application beyond the window), but only rows whose
    # reduced representative lies inside the window are expanded
    # further.  Storing the margin lets combinations cancel the
    # out-of-window parts of images that each stick out.
    #
    # Rows stay int vectors: the image of a stored row is a positive
    # multiple of gen . row, which spans the same line.
    #
    # 1 (x) v packs to the largest key.  The pivots of an echelon basis
    # are the minimal keys of its span's vectors, and a row whose pivot
    # is the largest key is that unit vector, so the span holds 1 (x) v
    # exactly when its key is a pivot: the row just inserted is the only
    # one that can make it one.
    field, bits = KEY_FIELD, KEY_BITS
    level_shift = mod.key_bits - 3 * bits  # the level field of a label's head
    span = Echelon()
    insert, rows, pivots = span.insert, span.rows, span.pivots
    target = mod.pack((mod.hw.highest_index, 0, 0))

    def window_score(row):
        # None outside the window, else max over L-labels of level +
        # h-degree + hb-degree of that label's polynomial; the label
        # (head), i and j are read off each key by shift and mask
        degs = {}
        for k in row:
            i, j = field - (k >> bits & field), field - (k & field)
            if i > deg_cap or j > deg_cap:
                return None
            head = k >> 2 * bits
            di, dj = degs.get(head, (0, 0))
            degs[head] = (max(di, i), max(dj, j))
        score = 0
        for head, (di, dj) in degs.items():
            lvl = field - (head >> level_shift)
            if lvl > lvl_cap:
                return None
            score = max(score, lvl + di + dj)
        return score

    # steps[r] for row r, the seed's row 0.  The heap holds (score, row
    # index) of rows to expand; indices grow, so ties pop first in first.
    den, ints = clear_denominators(mod.flat(seed))
    content = insert(ints)[3]
    steps = [(None, None, den, {}, content)]
    if pivots[0] == target:
        return True, span, steps
    score = window_score(rows[0])
    heap = [] if score is None else [(score, 0)]
    image, heappop, heappush = mod.image, heapq.heappop, heapq.heappush
    gens = ("eb", "e", "hb", "h", "fb", "f")
    while heap:
        ridx = heappop(heap)[1]
        row = rows[ridx]
        for gen in gens:
            # img is den * gen . row: the step's scale is den * mult
            den, img = image(gen, row)
            if not img:
                continue
            new, combo, mult, content = insert(img)
            if new is None:
                continue
            steps.append((ridx, gen, den * mult, combo, content))
            if pivots[new] == target:
                return True, span, steps
            score = window_score(rows[new])
            if score is not None:
                heappush(heap, (score, new))
    return False, span, steps


def certify_irreducible(mod, seeds, depth):
    """Sound reachability of 1 (x) v from each seed; never 'reducible'."""
    label = mod.label()
    report = Report(
        suite="irreducible",
        config={"module": label, "depth": depth, "seeds": len(seeds)},
    )
    for n, seed in enumerate(seeds):
        found, span, _ = closure_search(mod, seed, depth)
        check_id = f"reach[seed-{n}]/{label}"
        witness = f"closure dimension {len(span)}, seed {seed.text()}"
        if found:
            report.add(check_id, PASS, witness)
        else:
            report.add(check_id, INCONCLUSIVE,
                       witness + "; 1 (x) v not reached at this depth")
    return report


def check_invariant_subspace(mod, depth):
    """Exact closure of hb*Q[h,hb] (x) L under all six generators (omega, a=0).

    By the Leibniz rule x.(p (x) w) = (x.p) (x) w + p (x) x.w.  For a
    window monomial p = h^i hb^(j+1), i, j < depth, the second term keeps
    the factor hb^(j+1), so none of its keys has hb-exponent 0 and none
    cancels such a key of the first term, which does not depend on w.
    So x takes some p (x) w out of the subspace exactly when its family
    part on p (``TensorModule.family_entry``) has a key of hb-exponent 0,
    and each generator costs at most depth^2 table reads, whatever L is.
    The first failing p (x) v, v the top label, the first failing label
    in the order (label, i, j), is rendered through ``act`` to name a
    non-divisible polynomial.
    """
    if mod.params.family != "omega" or mod.params.a != 0:
        raise ValueError("invariant-subspace check applies to omega with a = 0")
    label = mod.label()
    report = Report(
        suite="invariant-subspace",
        config={"module": label, "depth": depth},
    )
    for gen in ("e", "f", "h", "eb", "fb", "hb"):
        report.verdict(f"hb-subspace[{gen}]/{label}",
                       hb_subspace_exit(mod, gen, depth),
                       f"closed through depth {depth}")
    return report


def hb_subspace_exit(mod, gen, depth):
    """check_invariant_subspace's FAIL witness for gen, or None; any
    family and any a."""
    top = mod.hw.highest_index
    for i in range(depth):
        for j in range(1, depth + 1):
            deltas, _ = mod.family_entry(gen, mod.pack((top, i, j)))
            # h^i' hb^j' (x) idx is keyed head - (i' << KEY_BITS) - j'
            if any(not -d & KEY_FIELD for d in deltas):
                img = mod.act(gen, TensorElement({top: BiPoly.monomial(1, i, j)}))
                q = next(q for q in img.terms.values() if not q.divisible_by_hb())
                return (f"image of h^{i} hb^{j} (x) basis{top} "
                        f"leaves hb*Q[h,hb]: {q.text()}")
    return None


# -- binomial annihilators -------------------------------------------------


def uea_to_family_operator(u, params):
    """Image of an envelope element in the skew algebra of one family."""
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
    if g.is_zero():
        raise ValueError("g must be nonzero")
    if r <= (g.deg_h() or 0):
        raise ValueError("need r > deg_h(g)")
    if params.family == "omega" and params.a == 0:
        raise ValueError("omega annihilator needs a != 0")
    label = mod.label()
    report = Report(
        suite="lemma51",
        config={"module": label, "g": g.text(), "r": r},
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
        f"annihilator/tensor-probe[r={r}]/{label}",
        FAIL if probe.is_zero() else PASS,
        f"w^({r}).(g (x) v) = {probe.text()}",
    )

    if mod.hw.kind == "verma":
        base = (1, 0)
        probe2 = mod.act_uea(w, TensorElement({base: g}))
        report.add(
            f"annihilator/tensor-probe-at-fv[r={r}]/{label}",
            PASS if not probe2.is_zero() else FAIL,
            f"w^({r}).(g (x) f v) = {probe2.text()}",
        )
    else:
        report.add(
            f"annihilator/finite-dim-observation[r={r}]/{label}",
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

    ``solve`` decides most grid points by the leading keys of their int
    columns.  When every column is nonzero and their smallest keys are
    pairwise distinct, the kernel is zero: in a vanishing combination,
    the column with the smallest lead is the only one with an entry at
    that key, so its coefficient is 0, and so on up the leads.  The
    leads are then a triangular minor, a certificate a reader can check
    by eye.  A zero column, or two columns with one lead, proves
    nothing, and ``nullspace`` decides the point exactly.
    """

    def __init__(self, mod, depth):
        self.mod = mod
        self.basis = mod.window_basis(depth)
        # Row keys are (1 - block) << key_bits | key, block 0 = e and
        # 1 = eb, so int order takes eb rows, then the deepest label,
        # first: the closure's pivot policy, since raising operators push
        # support toward high strata.  Per label: (den, {row key: int}),
        # the stacked image of the label as ints over den.
        self._e_row = e_row = 1 << mod.key_bits
        self.columns = []
        for key in self.basis:
            (d0, i0), (d1, i1) = (mod.image_reduced(gen, 1, {key: 1})
                                  for gen in ("e", "eb"))
            den = lcm(d0, d1)
            stacked = {e_row | k: n * (den // d0) for k, n in i0.items()}
            stacked.update((k, n * (den // d1)) for k, n in i1.items())
            self.columns.append((den, stacked))

    def _shifted(self, mu1, mu2):
        """den_t * d times column t of [E - mu1 I ; Eb - mu2 I], as new
        int vectors, d the lcm of the denominators of mu1 and mu2."""
        mu1, mu2 = Q(mu1), Q(mu2)
        d = lcm(mu1.denominator, mu2.denominator)
        n1 = mu1.numerator * (d // mu1.denominator)
        n2 = mu2.numerator * (d // mu2.denominator)
        e_row = self._e_row
        for (den, img), key in zip(self.columns, self.basis):
            yield accumulate({k: n * d for k, n in img.items()},
                             ((e_row | key, -n1 * den), (key, -n2 * den)))

    def solve(self, mu1, mu2):
        """All window vectors x with e.x = mu1 x and eb.x = mu2 x."""
        columns = list(self._shifted(mu1, mu2))
        if len({min(col) for col in columns if col}) == len(columns):
            return []
        dens = [den for den, _ in self.columns]
        unpack = self.mod.unpack
        out = []
        for vec in nullspace(columns):
            # back to the unscaled columns, with 1 at the top label again
            top = dens[max(vec)]
            out.append(TensorElement.from_flat(
                {unpack(self.basis[t]): c * dens[t] / top
                 for t, c in vec.items()}))
        return out


def whittaker_vector_search(mod, mu1, mu2, depth):
    """All x in the depth window with e.x = mu1 x and eb.x = mu2 x:
    exact solutions of the full module, complete for the window (see
    ``WhittakerWindow``)."""
    return WhittakerWindow(mod, depth).solve(mu1, mu2)


def whittaker_report(mod, grid, depth):
    """Search over a grid of (mu1, mu2); PASS means no Whittaker vector.

    One ``WhittakerWindow`` serves the whole grid.  A PASS rests on the
    columns' pairwise distinct leading keys, or, where they collide or a
    column is zero, on an empty kernel from ``nullspace``; a FAIL lists
    the exact solutions.
    """
    label = mod.label()
    report = Report(
        suite="whittaker",
        config={"module": label, "depth": depth,
                "grid": "; ".join(f"({format_scalar(Q(a))},{format_scalar(Q(b))})"
                                   for a, b in grid)},
    )
    window = WhittakerWindow(mod, depth)
    for mu1, mu2 in grid:
        sols = window.solve(mu1, mu2)
        check_id = (f"whittaker[mu1={format_scalar(Q(mu1))},"
                    f"mu2={format_scalar(Q(mu2))}]/{label}")
        report.verdict(check_id,
                       sols and "solutions: " + "; ".join(s.text() for s in sols),
                       f"no solution in window (depth {depth})")
    return report


# -- parameter recovery ------------------------------------------------------


class RecoveredParams(Frozen):
    """b is None for omega and beta is None for gamma and theta."""

    _fields = ("family", "lam", "a", "b", "beta", "eta", "theta")

    def __init__(self, family, lam, a, b, beta, eta, theta):
        self.__dict__.update(family=family, lam=lam, a=a, b=b, beta=beta,
                             eta=eta, theta=theta)

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
    if fam in ("gamma", "theta"):  # theta: gamma's letters, e and f swapped
        x, y, z = ("eb", "fb", "f") if fam == "gamma" else ("fb", "eb", "e")
        lam = vpart(x).coefficient(0, 0)
        a = -4 * lam * vpart(y).coefficient(0, 0)
        b = -2 * lam * vpart(z).coefficient(0, 0)
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
    label = mod.label()
    report = Report(suite="recover", config={"module": label})
    for name, ok in checks:
        report.add(f"recover[{name}]/{label}", PASS if ok else FAIL)
    return report
