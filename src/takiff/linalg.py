"""Exact sparse linear algebra over the rationals.

``Echelon`` is the one exact eliminator: an incremental row-echelon
span of sparse dicts keyed by hashable basis labels, used directly by
submodule closure and through ``nullspace`` by everything else.  It is
fraction-free: every stored row is a primitive integer vector whose
pivot is the minimum of its support in the labels' natural order (the
packed int keys of the tensor engines).  Elimination is gcd-reduced
cross-multiplication on ints alone, in the style of Bareiss (Math.
Comp. 22, 1968), in place on the int vector it is handed.  Keys that
are the pivot of a one-key row, a unit row, are stripped before the heap
sweep at multiplier 1, the singleton step of structured Gaussian
elimination (LaMacchia and Odlyzko, CRYPTO '90, LNCS 537); most closure
rows are unit rows.  ``insert`` returns the stored row's combination of
the rows before it, with no zero coefficient, which the closure keeps as
each row's int provenance.  Rationals are cleared once, in
``nullspace``, which reads a kernel off one elimination;
``solve_unique`` (the omega alpha constraint) reads its solution off
that kernel.  There is no second eliminator: the Whittaker window
decides most grid points by its columns' leading keys alone and hands
the rest to ``nullspace``.

No floats anywhere; there is no tolerance to tune.
"""

import heapq
from math import gcd

from .scalars import Q, ZERO
from .sparse import clear_denominators, combine, lowest_terms


class Echelon:
    """Incremental echelon span of sparse dict-vectors, fraction-free.

    Labels are compared as they are (natural order, as for packed int
    keys); smaller labels are preferred as pivots.  Every stored row is
    a primitive integer vector: its entries are ints with gcd 1, its
    pivot, ``pivots[i]`` for ``rows[i]`` (``pivot_of`` inverts it), is
    the smallest label of its support, and the pivot entry is
    positive.  A one-key row is therefore the unit vector of its pivot;
    ``unit_of`` maps the pivot of each one-key row to its index, and
    elimination strips those keys first.  Rows, once stored, are never
    modified.  Input vectors are dicts of nonzero ints, and the
    eliminator owns them: ``insert`` and ``reduce`` reduce their argument
    in place, and store a primitive residual as the very dict passed, so
    a caller that still needs its vector passes a copy.
    """

    def __init__(self):
        self.rows = []
        self.pivots = []    # row index -> basis label
        self.pivot_of = {}  # basis label -> row index
        self.unit_of = {}   # pivot of each one-key row -> row index

    def __len__(self):
        return len(self.rows)

    def _eliminate(self, vec):
        """(residual, mult, combo), all ints, with mult > 0 and
        mult * vec == residual + sum(combo[i] * rows[i]); residual is vec,
        and combo holds no zero coefficient.

        Unit rows go first: a key of vec that is the pivot of a one-key
        row is popped into combo at multiplier 1.  That is exact, since a
        primitive one-key row with a positive pivot is the unit vector,
        so the step takes the entry as it is and touches no other key.
        The remaining pivot hits are consumed smallest-first through a
        heap; since a stored row's support never goes below its own
        pivot, each subtraction only introduces keys above the one just
        cleared, and the sweep terminates.  A hit on key k with residual
        entry c and row pivot p scales the residual and combo by p/g and
        subtracts c/g times the row, g = gcd(c, p): cross-multiplication
        reduced by the gcd, so no rational is ever formed.  A row may
        bring a stripped unit key back; its second hit adds to the
        coefficient taken first, and a sum that cancels is dropped.
        """
        mult, residual = 1, vec
        pivot_of, unit_of = self.pivot_of, self.unit_of
        rows = self.rows
        pop, push = heapq.heappop, heapq.heappush
        combo, heap = {}, []
        for k in [k for k in residual if k in pivot_of]:
            ri = unit_of.get(k)
            if ri is None:
                heap.append(k)
            else:
                combo[ri] = residual.pop(k)
        heapq.heapify(heap)
        while heap:
            k = pop(heap)
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
                for i in combo:
                    combo[i] *= a
                mult *= a
            b = c // g
            s = combo.get(ri, 0) + b  # a stripped unit key met again
            if s:
                combo[ri] = s
            else:
                del combo[ri]
            for k2, v2 in row.items():
                old = residual.get(k2, 0)
                s = old - b * v2
                if s:
                    residual[k2] = s
                    if not old and k2 in pivot_of:
                        push(heap, k2)
                else:
                    del residual[k2]
        return residual, mult, combo

    def reduce(self, vec):
        """Fully reduce an int vector against the span; vec is consumed.

        Returns (residual, combo) as rationals: residual is what
        remains, and combo maps row indices to the nonzero coefficients
        that were subtracted, so vec = residual + sum(combo[i] * rows[i]).
        """
        residual, mult, combo = self._eliminate(vec)
        return ({k: Q(c, mult) for k, c in residual.items()},
                {i: Q(c, mult) for i, c in combo.items()})

    def insert(self, vec):
        """Reduce an int vector (consumed) and store it if independent.

        Returns (row_index, combo, mult, content), all ints, with
        mult > 0 and mult * vec == content * rows[row_index] +
        sum(combo[i] * rows[i]), and no zero in combo.  row_index is None
        (and content 0) when vec was already in the span.  A residual of
        content 1 is stored as it is.  A one-key row joins ``unit_of``.
        """
        residual, mult, combo = self._eliminate(vec)
        if not residual:
            return None, combo, mult, 0
        pivot = min(residual)
        content = gcd(*residual.values())
        if residual[pivot] < 0:
            content = -content
        if content != 1:
            residual = {k: c // content for k, c in residual.items()}
        idx = len(self.rows)
        self.rows.append(residual)
        self.pivots.append(pivot)
        self.pivot_of[pivot] = idx
        if len(residual) == 1:
            self.unit_of[pivot] = idx
        return idx, combo, mult, content


def nullspace(columns):
    """Basis of the kernel of the matrix with the given sparse columns.

    Columns, dicts of rationals, are cleared to new int vectors and
    inserted in order into one ``Echelon``, each column's den folded
    into mult; each stored row keeps its combination of columns.
    A column that reduces to zero gives one basis vector: a dict column
    index -> Q with 1 at that column and support on earlier columns
    only.  That is the basis the reduced row echelon form reads off its
    free columns, and the vectors come in column order.
    """
    span = Echelon()
    tags = []  # tags[i] = (den, ints): rows[i] = sum(ints[t] * columns[t]) / den
    kernel = []
    for t, col in enumerate(columns):
        cden, ints = clear_denominators(col)
        ridx, combo, mult, content = span.insert(ints)
        mult *= cden
        # mult * col - sum(combo[i] * rows[i]) is content * rows[ridx],
        # or zero; as a combination of columns it is tag / den
        den, tag = combine([(mult, 1, {t: 1})]
                           + [(-c, *tags[i]) for i, c in combo.items()])
        if ridx is None:
            kernel.append({k: Q(n, den * mult) for k, n in tag.items()})
        else:
            tags.append(lowest_terms(den * content, tag))
    return kernel


def solve_unique(columns, rhs):
    """The unique x with sum(x[t] * columns[t]) == rhs, or None.

    Columns and rhs are sparse dicts.  The kernel of [A | b] must be
    exactly one vector, with its 1 in the column of b: otherwise some
    column of A depends on earlier ones (underdetermined) or b is not
    in their span (inconsistent).  Then x = -v on the columns of A.
    """
    n = len(columns)
    kernel = nullspace([*columns, rhs])
    if len(kernel) != 1 or n not in kernel[0]:
        return None
    return [-kernel[0].get(t, ZERO) for t in range(n)]

