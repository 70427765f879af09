"""Highest-weight modules: the infinite tower, its finite quotients, and
the singular-vector scan that decides between them."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from takiff import (ERROR, HighestWeight, JobConfig, Q, VermaElement,
                    build_hw_module, build_verma_module,
                    check_singular_levels, run_suite, singular_vectors,
                    verma_reducible_predicate)
from takiff import verma
from takiff.algebra import GENERATORS, UeaElement, gen_times_word
from takiff.linalg import nullspace
from takiff.sparse import clear_denominators
from takiff.verma import HwModule, _check_findim, verma_act, verma_act_basis

from test_digests import load_workloads

RATIONALS = st.builds(Q, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


def test_lowering_operators_act_freely():
    hw = HighestWeight(Q(2), Q(3))
    x = VermaElement.basis(1, 2)
    assert verma_act("f", hw, x) == VermaElement.basis(2, 2)
    assert verma_act("fb", hw, x) == VermaElement.basis(1, 3)


def test_action_closed_forms():
    """Raising and Cartan images of basis vectors, written out directly
    from the straightening identities and compared term by term."""
    rng = random.Random(51)
    for _ in range(12):
        eta = Q(rng.randrange(-4, 5))
        theta = Q(rng.randrange(-4, 5))
        hw = HighestWeight(eta, theta)
        for i in range(4):
            for j in range(4):
                x = VermaElement.basis(i, j)

                e_exp = VermaElement.zero()
                if i:
                    e_exp = e_exp + VermaElement.basis(i - 1, j).scale(
                        Q(i) * (theta - 2 * j - i + 1))
                if j:
                    e_exp = e_exp + VermaElement.basis(i, j - 1).scale(Q(j) * eta)
                assert verma_act("e", hw, x) == e_exp

                eb_exp = VermaElement.zero()
                if i:
                    eb_exp = eb_exp + VermaElement.basis(i - 1, j).scale(Q(i) * eta)
                if i >= 2:
                    eb_exp = eb_exp + VermaElement.basis(i - 2, j + 1).scale(
                        Q(-i * (i - 1)))
                assert verma_act("eb", hw, x) == eb_exp

                assert verma_act("h", hw, x) == x.scale(theta - 2 * i - 2 * j)

                hb_exp = x.scale(eta)
                if i:
                    hb_exp = hb_exp + VermaElement.basis(i - 1, j + 1).scale(Q(-2 * i))
                assert verma_act("hb", hw, x) == hb_exp


def test_singular_scan_matches_predicate_on_a_grid():
    for eta in range(-2, 3):
        for theta in range(-2, 3):
            hw = HighestWeight(Q(eta), Q(theta))
            found = any(singular_vectors(hw, lev) for lev in range(1, 4))
            assert found == verma_reducible_predicate(hw), (eta, theta)


def test_singular_basis_at_the_doubly_degenerate_point():
    hw = HighestWeight(Q(0), Q(0))
    texts = sorted(v.text() for v in singular_vectors(hw, 1))
    assert texts == ["f v", "fb v"]


def test_singular_vectors_are_killed_by_both_raisings():
    for eta, theta in ((0, 0), (0, 2), (0, -1)):
        hw = HighestWeight(Q(eta), Q(theta))
        found_some = False
        for lev in range(1, 4):
            for v in singular_vectors(hw, lev):
                found_some = True
                assert verma_act("e", hw, v).is_zero()
                assert verma_act("eb", hw, v).is_zero()
        assert found_some


def test_build_guards():
    m = build_hw_module(HighestWeight(Q(1), Q(0)))
    assert m.kind == "verma"
    m = build_hw_module(HighestWeight(Q(0), Q(3)))
    assert m.kind == "findim" and m.dimension == 4
    with pytest.raises(ValueError):
        build_hw_module(HighestWeight(Q(0), Q(-1)))
    with pytest.raises(ValueError):
        build_hw_module(HighestWeight(Q(0), Q(1, 2)))


def test_finite_quotient_kills_the_barred_generators():
    m = build_hw_module(HighestWeight(Q(0), Q(2)))
    for gen in ("eb", "fb", "hb"):
        for idx in range(3):
            assert m.act_basis(gen, idx) == {}


def test_finite_quotient_weights_and_raising():
    m = build_hw_module(HighestWeight(Q(0), Q(3)))
    assert m.act_basis("h", 1) == {1: Q(1)}
    assert m.act_basis("e", 2) == {1: Q(4)}
    assert m.act_basis("f", 3) == {}
    assert m.basis_through_level(10) == [0, 1, 2, 3]


@pytest.mark.parametrize("eta, theta", [(1, 2), (0, 0), (0, 1), (0, 2), (0, 3)])
def test_the_deepest_level_is_that_of_the_last_basis_vector(eta, theta):
    """The closure's clipped level cap, computed directly, is the level
    of the last basis vector through s, on Lbar(1, 2) and on L(0, theta)."""
    weight = HighestWeight(Q(eta), Q(theta))
    hw = build_hw_module(weight) if eta == 0 else build_verma_module(weight)
    for s in range(9):
        assert hw.deepest_level(s) == hw.level(hw.basis_through_level(s)[-1])


def test_annihilation_index_terminates_on_raising():
    hw = HighestWeight(Q(1), Q(2))
    m = build_verma_module(hw)
    n = m.nilpotence("eb", (2, 1))
    assert n >= 1
    cur = VermaElement.basis(2, 1)
    for _ in range(n):
        cur = verma_act("eb", hw, cur)
    assert cur.is_zero()
    with pytest.raises(ValueError):
        m.nilpotence("f", (2, 1))


def _walk_nilpotence(gen, hw, x):
    """Smallest n with gen^n . x = 0, walking VermaElements through verma_act."""
    n = 0
    while not x.is_zero():
        x = verma_act(gen, hw, x)
        n += 1
    return n


def test_nilpotence_matches_the_verma_walk():
    for eta in (-2, -1, 1, 3):
        for theta in (-2, 0, 1, Q(1, 2), 3):
            hw = HighestWeight(Q(eta), Q(theta))
            m = build_verma_module(hw)
            for idx in m.basis_through_level(4):
                for gen in ("e", "eb"):
                    want = _walk_nilpotence(gen, hw, VermaElement.basis(*idx))
                    assert m.nilpotence(gen, idx) == want, (hw, idx, gen)


def test_nilpotence_on_the_finite_quotient():
    for theta in range(4):
        m = build_hw_module(HighestWeight(Q(0), Q(theta)))
        assert [m.nilpotence("eb", i) for i in range(theta + 1)] == [1] * (theta + 1)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(eta=st.builds(Q, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
       theta=st.builds(Q, st.integers(-9, 9), st.integers(1, 6)))
@example(eta=Q(1, 2), theta=Q(3))
@example(eta=Q(-2, 3), theta=Q(5, 4))
def test_act_ints_is_the_rational_action_cleared(eta, theta):
    """The int reader of the shared straightened action, evaluated with
    the module's power tables, is verma_act_basis cleared to lowest
    terms, for every generator through level 4."""
    m = build_verma_module(HighestWeight(eta, theta))
    for idx in m.basis_through_level(4):
        for gen in GENERATORS:
            want = clear_denominators(m.act_basis(gen, idx))
            assert m.act_ints(gen, idx) == want, (gen, idx)


def test_act_ints_on_the_finite_quotient():
    for theta in range(5):
        m = build_hw_module(HighestWeight(Q(0), Q(theta)))
        for i in m.basis_through_level(theta):
            for gen in GENERATORS:
                want = clear_denominators(m.act_basis(gen, i))
                assert m.act_ints(gen, i) == want, (theta, gen, i)


def test_findim_check_reads_the_weight_chain():
    for theta in range(6):
        m = HwModule(HighestWeight(Q(0), Q(theta)), "findim")
        assert _check_findim(m) is None
    m = HwModule(HighestWeight(Q(0), Q(3)), "findim")
    m._ints["f", 1] = {}  # the int table act_ints and the engine read
    assert m.act_ints("f", 1) == (1, {})
    problem = _check_findim(m)
    assert problem == "f does not send basis 1 to a multiple of basis 2"


def test_findim_check_names_a_failing_bracket():
    """An hb that fixes basis 1 of L(0, 2) keeps the weight chain but
    breaks [f, hb] = 0 on basis 0, the first pair and basis checked."""
    m = HwModule(HighestWeight(Q(0), Q(2)), "findim")
    m._ints["hb", 1] = {1: 1}
    assert _check_findim(m) == "bracket [f,hb] fails on basis 0"


def test_a_failed_findim_check_is_a_value_error_and_one_error_record(
        monkeypatch):
    """``build_hw_module`` refuses a finite module whose check fails, and
    ``run_suite`` turns the refusal into one ERROR record."""

    class Corrupt(HwModule):
        def __init__(self, weight, kind, certificate=""):
            super().__init__(weight, kind, certificate)
            if kind == "findim":
                self._ints["hb", 1] = {1: 1}

    monkeypatch.setattr(verma, "HwModule", Corrupt)
    problem = ("finite-dimensional check failed: "
               "bracket [f,hb] fails on basis 0")
    with pytest.raises(ValueError) as exc:
        build_hw_module(HighestWeight(Q(0), Q(2)))
    assert str(exc.value) == problem
    rep = run_suite(JobConfig(suite="recover", family="gamma", lam="2",
                              eta="0", theta="2"))
    assert rep.config == {"argv_error": problem}
    assert [(c.id, c.status, c.witness) for c in rep.checks] == [
        ("recover/setup", ERROR, problem)]


def test_findim_dimension_is_read_off_the_weight():
    """L(0, theta) has dimension theta + 1, and the constructor takes no
    second value that could disagree with it: a dimension of 3 given
    with theta = 3 once let _check_findim certify a 4-vector basis
    without looking at basis 3."""
    hw = HighestWeight(Q(0), Q(3))
    with pytest.raises(TypeError):
        HwModule(hw, "findim", dimension=3)
    m = HwModule(hw, "findim")
    assert m.dimension == 4 == len(m.basis_through_level(10))
    m._ints["e", 3] = {}  # basis 3, the last one, breaks the weight chain
    assert _check_findim(m) == "e does not send basis 3 to a multiple of basis 2"


def test_level_scan_report():
    rep = check_singular_levels(HighestWeight(Q(0), Q(0)), 3)
    assert rep.ok
    assert rep.checks[-1].id == "singular/predicate-agrees-with-scan"


def test_certificates_record_the_scan():
    m = build_hw_module(HighestWeight(Q(2), Q(1)))
    assert "level 6" in m.certificate


# -- the mod-p certificate of the singular scan and its exact fallback -------


def reference_kernel(hw, level):
    """Kernel of the stacked e/eb columns of a level by dense reduced row
    echelon form on Fractions: one vector per free column, 1 there and
    support on the earlier pivot columns.  Independent of ``Echelon``
    and of the mod-p certificate on purpose."""
    basis = [(i, level - i) for i in range(level + 1)]
    images = [{(gen, key): c for gen in ("e", "eb")
               for key, c in verma_act_basis(gen, hw, i, j).items()}
              for i, j in basis]
    work = [[img.get(r, Q(0)) for img in images]
            for r in sorted({r for img in images for r in img})]
    pivots = []
    for c in range(len(basis)):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    kernel = []
    for t in range(len(basis)):
        if t not in pivots:
            vec = {basis[t]: Q(1)}
            vec.update((basis[c], -work[r][t])
                       for r, c in enumerate(pivots) if work[r][t])
            kernel.append(vec)
    return kernel


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(eta=RATIONALS, theta=RATIONALS, level=st.integers(1, 5))
@example(eta=Q(0), theta=Q(0), level=1)
@example(eta=Q(0), theta=Q(2), level=3)
@example(eta=Q(0), theta=Q(1, 2), level=4)
@example(eta=Q(1, 3), theta=Q(-2, 3), level=5)
def test_singular_vectors_match_a_dense_reference_kernel(eta, theta, level):
    hw = HighestWeight(eta, theta)
    got = [v.terms for v in singular_vectors(hw, level)]
    assert got == reference_kernel(hw, level)


def test_the_scanned_straightening_coefficients_are_integers():
    """act_ints reads the word memo's ints as they are: the rational
    product gen * f^i fb^j has integer coefficients, and they are the
    memo's."""
    for level in range(1, 8):
        for i in range(level + 1):
            for gen in GENERATORS:
                terms = (UeaElement.gen(gen)
                         * UeaElement.monomial(1, j=i, k=level - i)).terms
                assert all(c.denominator == 1 for c in terms.values())
                ints = gen_times_word(gen, i, level - i, 0)
                assert all(type(c) is int for c in ints.values())
                assert ints == terms


def count_exact_kernels(monkeypatch):
    """Empty the scan's memo and count its eliminations, by level size."""
    singular_vectors.cache_clear()
    calls = []

    def counting(columns):
        calls.append(len(columns))
        return nullspace(columns)

    monkeypatch.setattr(verma, "nullspace", counting)
    return calls


P61 = 2**61 - 1


@pytest.mark.parametrize("eta", [Q(P61), Q(1, P61)],
                         ids=["singular-mod-p", "p-in-denominator"])
def test_the_exact_scan_is_empty_where_eta_vanishes_mod_p(monkeypatch, eta):
    """eta = p makes every level matrix the eta = 0 one mod p, where
    fb^n v is singular, though it is not over Q; eta = 1/p has no image
    mod p.  The exact elimination finds no singular vector, once per
    level: build_hw_module rescans levels 1-4 from the memo."""
    calls = count_exact_kernels(monkeypatch)
    hw = HighestWeight(eta, Q(0))
    for level in range(1, 5):
        assert singular_vectors(hw, level) == []
    assert calls == [2, 3, 4, 5]
    calls.clear()
    module = build_hw_module(hw)
    assert module.certificate == "no singular vectors through level 6"
    assert calls == [6, 7]


def test_benchmark_verma_weights_scan_empty_once_per_level(monkeypatch):
    """Every eta != 0 weight of the benchmark's Verma grid has no
    singular vector through level 6, the depth build_hw_module scans,
    and a second scan of each (weight, level) eliminates nothing."""
    calls = count_exact_kernels(monkeypatch)
    weights = [HighestWeight(Q(eta), Q(theta))
               for eta, theta in load_workloads().VERMA if Q(eta) != 0]
    assert len(weights) == 16
    for _ in range(2):
        for hw in weights:
            for level in range(1, 7):
                assert singular_vectors(hw, level) == [], (hw, level)
    assert calls == [2, 3, 4, 5, 6, 7] * 16


def test_interleaved_scans_match_the_reference_kernel(monkeypatch):
    """Weights and levels in a shuffled order, each (weight, level) met
    three times, eta = 0 weights with nonempty kernels among them: every
    call, memo hit or miss, is the dense reference kernel, and each
    (weight, level) is eliminated once."""
    calls = count_exact_kernels(monkeypatch)
    weights = [HighestWeight(eta, theta) for eta, theta in
               ((0, 0), (0, 2), (0, Q(1, 2)), (0, -3), (1, 0), (Q(-2, 3), 3))]
    keys = [(hw, level) for hw in weights for level in range(1, 6)] * 3
    random.Random(71).shuffle(keys)
    nonempty = set()
    for hw, level in keys:
        got = [v.terms for v in singular_vectors(hw, level)]
        assert got == reference_kernel(hw, level), (hw, level)
        if got:
            nonempty.add(hw)
    assert nonempty == set(weights[:4])
    assert len(calls) == len(weights) * 5
    info = singular_vectors.cache_info()
    assert (info.hits, info.misses) == (len(keys) - len(calls), len(calls))


def test_the_scan_memo_stays_within_its_maxsize():
    """More distinct (weight, level) keys than the memo holds: it fills
    to its maxsize, never past it, and the least recent keys go."""
    singular_vectors.cache_clear()
    maxsize = singular_vectors.cache_info().maxsize
    assert maxsize == 256
    for n in range(maxsize + 40):
        assert singular_vectors(HighestWeight(n + 1, n), 1) == []
        assert singular_vectors.cache_info().currsize == min(n + 1, maxsize)
    singular_vectors(HighestWeight(1, 0), 1)
    assert singular_vectors.cache_info().misses == maxsize + 41
