"""Exact sparse linear algebra over the rationals.

Three tools live here.  ``rref`` is the one dense eliminator for the
small systems (the Vandermonde inverse), with ``nullspace`` (singular
vectors) and ``solve_unique`` (the omega alpha constraint) reading
their answers off it.  ``Echelon`` is an incremental row-echelon span
for the big jobs -- submodule closure and Whittaker searches -- where
vectors are sparse dicts keyed by arbitrary hashable basis labels and
insertion order matters for performance.  It is fraction-free: every
stored row is a primitive integer vector (content 1, positive pivot
entry) whose pivot is the minimum of its support under the supplied
ordering, which makes membership reduction a strictly-increasing
sweep and hence easy to reason about.  An input's denominators are
cleared once and elimination is gcd-reduced cross-multiplication on
ints, in the style of Bareiss.  ``independent_mod_p`` is a one-sided
certificate: it can prove a set of rational vectors independent by
eliminating their images in F_p, and when it cannot, the caller
decides exactly.

No floats anywhere; there is no tolerance to tune.
"""

import heapq
from functools import reduce
from math import gcd, lcm

from .scalars import Q, ZERO

#: Prime of the modular rank certificate (the Mersenne prime 2^61 - 1).
RANK_PRIME = 2**61 - 1


def rref(rows):
    """In-place reduced row echelon form; returns the pivot column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_unique(rows, nvars):
    """The unique solution of the augmented system [A | b], or None.

    Each row is [a_1, ..., a_nvars, b].  None when the system is
    inconsistent (the augmented column takes a pivot) or underdetermined
    (some variable column takes none).
    """
    work = [list(r) for r in rows]
    if rref(work) != list(range(nvars)):
        return None
    return [work[i][nvars] for i in range(nvars)]


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix (list of coefficient lists).

    Deterministic: one basis vector per free column, in column order,
    with a 1 in the free position.
    """
    work = [list(r) for r in rows]
    pivots = rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


def clear_denominators(vec):
    """(den, ints) for a dict of rationals: den > 0 is the least common
    denominator, and ints maps each key with a nonzero value to the int
    den * value.

    Here and in the other hot loops gcd and lcm are folded with reduce
    rather than called on *values: a star call builds a tuple of the
    vector's length, and the interpreter keeps up to 2000 freed tuples
    of each short length, so the process would grow with every size seen.
    """
    den = reduce(lcm, (int(c.denominator) for c in vec.values()), 1)
    return den, {k: int(c.numerator) * (den // int(c.denominator))
                 for k, c in vec.items() if c}


class Echelon:
    """Incremental echelon span of sparse dict-vectors, fraction-free.

    keyfn maps a basis label to a sortable value; smaller keys are
    preferred as pivots.  Every stored row is a primitive integer
    vector: its entries are ints with gcd 1, its pivot sits at the
    keyfn-minimal key of its support, and the pivot entry is positive.
    Rows, once stored, are never modified, which keeps combination
    bookkeeping (for tags) simple.  Input vectors may hold ints or
    rationals; their denominators are cleared once, and elimination
    then runs on ints alone.
    """

    def __init__(self, keyfn=None):
        self.keyfn = keyfn or (lambda k: k)
        self.rows = []
        self.pivot_of = {}  # basis label -> row index

    def __len__(self):
        return len(self.rows)

    def _eliminate(self, vec):
        """(residual, mult, combo), all ints, with mult > 0 and
        mult * vec == residual + sum(combo[i] * rows[i]).

        Pivot hits are consumed smallest-first through a heap; since a
        stored row's support never goes below its own pivot, each
        subtraction only introduces keys above the one just cleared,
        and the sweep terminates.  A hit on key k with residual entry c
        and row pivot p scales the residual by p/g and subtracts c/g
        times the row, g = gcd(c, p): cross-multiplication reduced by
        the gcd, so no rational is ever formed.
        """
        mult, residual = clear_denominators(vec)
        steps = []  # (row index, coefficient, mult when it was taken)
        keyfn = self.keyfn
        pivot_of = self.pivot_of
        rows = self.rows
        heap = [(keyfn(k), k) for k in residual if k in pivot_of]
        heapq.heapify(heap)
        while heap:
            _, k = heapq.heappop(heap)
            c = residual.get(k)
            if not c:
                continue
            ri = pivot_of[k]
            row = rows[ri]
            p = row[k]
            g = gcd(c, p)
            if g != p:
                a = p // g
                for k2 in residual:
                    residual[k2] *= a
                mult *= a
            b = c // g
            steps.append((ri, b, mult))
            for k2, v2 in row.items():
                old = residual.get(k2, 0)
                s = old - b * v2
                if s:
                    residual[k2] = s
                    if not old and k2 in pivot_of:
                        heapq.heappush(heap, (keyfn(k2), k2))
                else:
                    del residual[k2]
        # a coefficient taken at multiplier m was scaled by mult / m since
        combo = {}
        for ri, b, m in steps:
            combo[ri] = combo.get(ri, 0) + b * (mult // m)
        return residual, mult, combo

    def reduce(self, vec):
        """Fully reduce a sparse vector against the span.

        Returns (residual, combo) as rationals: residual is what
        remains, and combo maps row indices to the coefficients that
        were subtracted, so vec = residual + sum(combo[i] * rows[i]).
        """
        residual, mult, combo = self._eliminate(vec)
        return ({k: Q(c, mult) for k, c in residual.items()},
                {i: Q(c, mult) for i, c in combo.items()})

    def insert(self, vec):
        """Reduce and, if independent, store as a primitive integer row.

        Returns (row_index, combo, mult, content), all ints, with
        mult > 0 and mult * vec == content * rows[row_index] +
        sum(combo[i] * rows[i]).  row_index is None (and content 0)
        when vec was already in the span.
        """
        residual, mult, combo = self._eliminate(vec)
        if not residual:
            return None, combo, mult, 0
        pivot = min(residual, key=self.keyfn)
        content = reduce(gcd, residual.values(), 0)
        if residual[pivot] < 0:
            content = -content
        idx = len(self.rows)
        self.rows.append({k: c // content for k, c in residual.items()})
        self.pivot_of[pivot] = idx
        return idx, combo, mult, content


def mod_p(c):
    """Image of a rational in F_p, or None when p divides its denominator."""
    p = RANK_PRIME
    num, den = int(c.numerator), int(c.denominator)
    if den == 1:
        return num % p
    if den % p == 0:
        return None
    return num * pow(den, -1, p) % p


def independent_mod_p(vectors):
    """True when the vectors are independent over F_p, p = RANK_PRIME.

    Each vector is a sparse dict int key -> nonzero residue mod p.
    Stored rows keep their pivot at the smallest key of their support,
    as in ``Echelon``, but only leading terms are eliminated: keys are
    popped smallest-first from a heap until one is not a pivot, and
    that key becomes the new row's pivot.  ``vectors`` may be a lazy
    iterable; the sweep stops at the first vector that reduces to zero.

    Used as a certificate over Q: if rational vectors with no
    denominator divisible by p have independent images mod p, they are
    independent over Q.  A rational relation sum x_i v_i = 0 with
    x != 0 can be scaled so every x_i is p-integral and one is a unit;
    reducing it mod p gives a nontrivial relation among the images.
    The converse fails (an entry equal to p vanishes mod p), so False
    proves nothing and the caller must decide exactly.
    """
    p = RANK_PRIME
    rows = {}  # pivot key -> row with pivot entry 1
    for vec in vectors:
        residual = dict(vec)
        heap = list(residual)
        heapq.heapify(heap)
        pivot = None
        while heap:
            k = heapq.heappop(heap)
            c = residual.get(k)
            if not c:
                continue
            row = rows.get(k)
            if row is None:
                pivot = k
                break
            for k2, v2 in row.items():
                old = residual.get(k2, 0)
                s = (old - c * v2) % p
                if s:
                    residual[k2] = s
                    if not old:
                        heapq.heappush(heap, k2)
                else:
                    del residual[k2]
        if pivot is None:
            return False
        inv = pow(residual[pivot], -1, p)
        rows[pivot] = {k: c * inv % p for k, c in residual.items()}
    return True
