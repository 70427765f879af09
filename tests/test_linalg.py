"""The fraction-free eliminator, the kernel and unique-solve readings
built on it, each against a small dense elimination written out here as
the oracle, the eliminator's unit rows against a plain heap sweep, and the
closed-form Vandermonde inverse."""

import heapq
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import takiff
from takiff import Q, linalg, tensor
from takiff.linalg import Echelon, nullspace, solve_unique
from takiff.tensor import _vandermonde_inverse

from test_digests import load_workloads


def reference_rank(rows):
    """Rank of a dense list of rows by plain Gaussian elimination on
    Fractions; independent of ``Echelon`` on purpose."""
    work = [[Q(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


KEYS = range(6)


def rank(vectors):
    return reference_rank([[v.get(k, 0) for k in KEYS] for v in vectors])


def col(*entries):
    """A sparse column from its dense entries, zeros dropped."""
    return {r: Q(x) for r, x in enumerate(entries) if x}


def test_solve_unique_returns_the_solution_of_a_determined_system():
    # x + 2y = 5, 3x - y = 1, and a redundant consistent third row
    columns, rhs = [col(1, 3, 4), col(2, -1, 1)], col(5, 1, 6)
    assert solve_unique(columns, rhs) == [Q(1), Q(2)]
    # input untouched
    assert columns == [col(1, 3, 4), col(2, -1, 1)] and rhs == col(5, 1, 6)


def test_solve_unique_rejects_an_underdetermined_system():
    # x + y = 1 twice over: the y column depends on the x column
    assert solve_unique([col(1, 2), col(1, 2)], col(1, 2)) is None
    assert solve_unique([col(0), col(1)], col(3)) is None


def test_solve_unique_rejects_an_inconsistent_system():
    # x = 1 and x = 2: the right-hand side is not in the span
    assert solve_unique([col(1, 1)], col(1, 2)) is None
    assert solve_unique([col(1, 0, 1), col(0, 1, 1)], col(1, 1, 3)) is None
    # x + y = 1 and 2x + 2y = 3: the one kernel vector misses b's column
    assert solve_unique([col(1, 2), col(1, 2)], col(1, 3)) is None


def combine(pairs):
    """sum(c * vec) over (c, vec) pairs, as a dict without zeros."""
    out = {}
    for c, vec in pairs:
        for k, x in vec.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


sparse_vectors = st.dictionaries(
    st.sampled_from(KEYS),
    st.builds(Q, st.integers(-3, 3), st.sampled_from([1, 2, 3, 6])),
    max_size=4)
# Echelon's own input: nonzero ints, never a rational
int_vectors = st.dictionaries(st.sampled_from(KEYS),
                              st.integers(-6, 6).filter(bool), max_size=4)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(int_vectors, max_size=8), int_vectors)
def test_echelon_is_fraction_free_and_exact(vectors, probe):
    """Pivots follow the labels' natural order: each is the smallest
    key of its row, and pivot_of inverts pivots.  insert and reduce
    consume their argument, so each gets a copy."""
    span = Echelon()
    seen = []
    for vec in vectors:
        before = rank(seen)
        seen.append(vec)
        ridx, combo, mult, content = span.insert(dict(vec))
        # the span grows exactly when the rank does
        assert (ridx is None) == (rank(seen) == before)
        assert all(type(x) is int for x in (mult, content, *combo.values()))
        assert mult > 0 and all(combo.values())
        stored = [] if ridx is None else [(content, span.rows[ridx])]
        assert combine([(mult, vec)]) == combine(
            stored + [(c, span.rows[i]) for i, c in combo.items()])
    assert len(span) == rank(vectors)
    for idx, row in enumerate(span.rows):
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
        pivot = min(row)
        assert row[pivot] > 0 and span.pivot_of[pivot] == idx
        assert span.pivots[idx] == pivot
    assert span.pivot_of == {k: n for n, k in enumerate(span.pivots)}
    residual, combo = span.reduce(dict(probe))
    assert all(combo.values())
    assert combine([(1, probe)]) == combine(
        [(1, residual)] + [(c, span.rows[i]) for i, c in combo.items()])
    assert not set(residual) & set(span.pivot_of)
    assert (not residual) == (rank(vectors + [probe]) == len(span))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(int_vectors, max_size=8), int_vectors)
def test_echelon_without_a_keyfn_pivots_in_natural_order(vectors, probe):
    """The labels' own order is the pivot order: each pivot is the
    smallest key of its row, and relabelling by an order-preserving map
    (k -> 3k + 7) changes every step only by that relabelling."""
    def moved(vec):
        return {3 * k + 7: x for k, x in vec.items()}
    plain, shifted = Echelon(), Echelon()
    for vec in vectors:
        assert plain.insert(dict(vec)) == shifted.insert(moved(vec))
    assert [moved(row) for row in plain.rows] == shifted.rows
    assert [3 * k + 7 for k in plain.pivots] == shifted.pivots
    assert plain.pivots == [min(row) for row in plain.rows]
    assert plain.pivot_of == {k: n for n, k in enumerate(plain.pivots)}
    residual, combo = plain.reduce(dict(probe))
    assert shifted.reduce(moved(probe)) == (moved(residual), combo)


P61 = 2**61 - 1
# entries up to the Mersenne prime 2^61 - 1 in size, mixed with small
# ones so that dependent lists are common
wide_vectors = st.dictionaries(
    st.sampled_from(KEYS),
    st.one_of(st.integers(-3, 3), st.sampled_from([-P61, P61]),
              st.integers(-P61, P61)).filter(bool),
    max_size=4)


@st.composite
def wide_vector_lists(draw):
    """Up to 8 wide vectors; half the time one of them is a combination
    of the others divided by its content, so its leading entry need not
    be a multiple of the pivot it meets."""
    vectors = draw(st.lists(wide_vectors, max_size=7))
    if vectors and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(vectors),
                               max_size=len(vectors)))
        dependent = combine(zip(coeffs, vectors))
        if dependent:
            g = gcd(*dependent.values())
            vectors.insert(draw(st.integers(0, len(vectors))),
                           {k: x // g for k, x in dependent.items()})
    return vectors


class ReferenceEchelon:
    """Echelon's insert without unit rows: every pivot hit goes through
    the heap, each hit appends (row, coefficient, mult when taken) to a
    steps list, and a post-pass scales each coefficient by the mult
    gathered after it.  Independent of ``Echelon`` on purpose."""

    def __init__(self):
        self.rows, self.pivots, self.pivot_of = [], [], {}

    def insert(self, vec):
        mult, residual, steps = 1, dict(vec), []
        heap = [k for k in residual if k in self.pivot_of]
        heapq.heapify(heap)
        while heap:
            k = heapq.heappop(heap)
            c = residual.get(k)
            if not c:
                continue
            ri = self.pivot_of[k]
            row = self.rows[ri]
            g = gcd(c, row[k])
            if g != row[k]:
                a = row[k] // g
                residual = {k2: v * a for k2, v in residual.items()}
                mult *= a
            b = c // g
            steps.append((ri, b, mult))
            for k2, v2 in row.items():
                old = residual.get(k2, 0)
                residual[k2] = old - b * v2
                if not residual[k2]:
                    del residual[k2]
                elif not old and k2 in self.pivot_of:
                    heapq.heappush(heap, k2)
        combo = {}
        for ri, b, m in steps:
            combo[ri] = combo.get(ri, 0) + b * (mult // m)
        if not residual:
            return None, combo, mult, 0
        pivot = min(residual)
        content = reduce(gcd, residual.values(), 0)
        if residual[pivot] < 0:
            content = -content
        self.rows.append({k: c // content for k, c in residual.items()})
        self.pivots.append(pivot)
        self.pivot_of[pivot] = len(self.rows) - 1
        return len(self.rows) - 1, combo, mult, content


def assert_unit_rows(span):
    """unit_of maps the pivot of exactly the one-key rows to their index,
    and each such row is the unit vector."""
    units = {p: i for i, (p, row) in enumerate(zip(span.pivots, span.rows))
             if len(row) == 1}
    assert span.unit_of == units
    assert all(span.rows[i] == {p: 1} for p, i in units.items())


class CheckedEchelon(Echelon):
    """An Echelon that inserts every vector into a ReferenceEchelon too
    and asserts the same (row, combo, mult, content), the same stored
    row and exact unit rows after each insert."""

    def __init__(self):
        super().__init__()
        self.reference = ReferenceEchelon()

    def insert(self, vec):
        want = self.reference.insert(vec)
        got = super().insert(vec)
        assert got == want
        assert self.rows == self.reference.rows
        assert_unit_rows(self)
        return got


def insert_all(vectors):
    span = CheckedEchelon()
    for vec in vectors:
        span.insert(dict(vec))
    return span


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.lists(int_vectors, max_size=10))
def test_insert_matches_the_reference_heap_sweep(vectors):
    """Stripping unit keys first and keeping one combination dict gives
    the plain heap sweep's insert exactly, with no zero coefficient."""
    insert_all(vectors)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(wide_vector_lists())
def test_insert_matches_the_reference_heap_sweep_on_wide_entries(vectors):
    insert_all(vectors)


def test_a_unit_key_brought_back_and_cancelled_leaves_no_zero():
    """Row 0 = {0: 1, 1: 1}, row 1 = {1: 1} is a unit row.  Inserting
    row 0 again strips key 1 into combo[1] = 1; clearing key 0 with row 0
    brings key 1 back as -1, and its second hit cancels combo[1], which
    is dropped rather than kept as a zero."""
    span = insert_all([{0: 1, 1: 1}, {1: 1}])
    assert span.unit_of == {1: 1}
    assert span.insert({0: 1, 1: 1}) == (None, {0: 1}, 1, 0)
    assert span.reduce({0: 2, 1: 2, 2: 5}) == ({2: Q(5)}, {0: Q(2)})


def test_every_closure_echelon_matches_the_reference(monkeypatch):
    """Every Echelon built while the seed-1 closure job list runs (the
    closure spans and the kernels behind nullspace) inserts exactly as
    the reference heap sweep does, and stores unit rows, many of them."""
    spans = []

    def checked():
        spans.append(CheckedEchelon())
        return spans[-1]

    monkeypatch.setattr(tensor, "Echelon", checked)
    monkeypatch.setattr(linalg, "Echelon", checked)
    workloads = load_workloads()
    for job in workloads.job_list("closure", 1):
        workloads.run_job(takiff, job)
    assert spans and sum(len(span.unit_of) for span in spans) > 1000


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(sparse_vectors, max_size=8))
def test_nullspace_is_the_free_column_basis(columns):
    kernel = nullspace(columns)
    assert len(kernel) == len(columns) - rank(columns)
    tops = []
    for vec in kernel:
        top = max(vec)
        tops.append(top)
        # 1 at a column that depends on the columns before it
        assert vec[top] == 1
        assert rank(columns[:top + 1]) == rank(columns[:top])
        assert all(type(c) is Q and c for c in vec.values())
        assert combine([(c, columns[t]) for t, c in vec.items()]) == {}
    assert tops == sorted(set(tops))
    # the basis is unique, so the row ordering cannot change it: the
    # order-reversing relabelling k -> 5 - k gives the same kernel
    assert nullspace([{5 - k: x for k, x in c.items()}
                      for c in columns]) == kernel


def test_nullspace_folds_each_column_den():
    """Columns over dens 2, 3, 5 and 7: each is cleared to ints on its
    own, so the kernel is written in the rational columns themselves."""
    columns = [{0: Q(1, 2)}, {0: Q(1, 3)}, {0: Q(1), 1: Q(1, 5)}, {1: Q(2, 7)}]
    assert nullspace(columns) == [{0: Q(-2, 3), 1: Q(1)},
                                  {0: Q(20, 7), 2: Q(-10, 7), 3: Q(1)}]


@pytest.mark.parametrize("points", [[0], [1, 2], [2, 3, 4, 5], [-1, 0, 3, 7, 8]]
                         + [list(range(K, K + n))
                            for K in range(7) for n in range(1, 9)])
def test_vandermonde_inverse_inverts(points):
    n = len(points)
    inverse = _vandermonde_inverse(points)
    assert all(type(x) is Q for row in inverse for x in row)
    product = [[sum(inverse[d][c] * Q(points[c]) ** k for c in range(n))
                for k in range(n)] for d in range(n)]
    assert product == [[Q(int(d == k)) for k in range(n)] for d in range(n)]
