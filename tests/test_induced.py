"""Rank-one modules over the upper subalgebra and the triangular lift."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from takiff import (ERROR, FAIL, INCONCLUSIVE, PASS, BiPoly, BorelSpec,
                    FamilyParams, HighestWeight, IndElement, JobConfig, Q,
                    SkewOperator, TensorElement, TensorModule, UniPoly,
                    borel_act, borel_reducibility_check, borel_to_operator,
                    build_hw_module, build_verma_module, check_borel_axioms,
                    check_phi, format_scalar, ind_act, ind_window_basis,
                    induced_reducibility_predicate, phi_map, run_suite,
                    verma_reducible_predicate)
from takiff import GENERATORS, induced, uea_normalize
from takiff.algebra import gen_times_word
from takiff.induced import (InducedAction, PhiValues, borel_letter,
                            borel_spec_for)
from takiff.sparse import (accumulate, clear_denominators, combine,
                           lowest_terms)
from takiff.tensor import KEY_FIELD

HOM_GENS = ("e", "f", "h", "eb", "fb", "hb")
# rationals with denominators 1, 2 and 3
RATIONALS = st.builds(Q, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
NONZERO = RATIONALS.filter(bool)


def test_rank_one_action_worked_examples():
    assert borel_act("e", BorelSpec("gamma", 2), UniPoly.parse("hb^2")) == \
        UniPoly.parse("-8*hb")
    assert borel_act("eb", BorelSpec("gamma", 3), UniPoly.parse("hb")) == \
        UniPoly.parse("3*hb")
    assert borel_act("hb", BorelSpec("gamma", 1, eta=2), UniPoly.var_hb()) == \
        UniPoly.parse("hb^2 + 2*hb")
    assert borel_act("eb", BorelSpec("theta", 1, 3), UniPoly.const(1)) == \
        UniPoly.parse("-1/4*hb^2 - 3/4")
    assert borel_act("eb", BorelSpec("omega", 2, 1), UniPoly.var_hb()) == \
        UniPoly.parse("hb^2 + hb")


def test_rank_one_routes_agree_and_axioms_hold():
    for spec in (BorelSpec("gamma", 2, eta=1), BorelSpec("theta", 1, 3),
                 BorelSpec("omega", 2, 1, eta=-1)):
        rep = check_borel_axioms(spec)
        assert rep.ok, rep.render_text()
        for gen in spec.generators:
            op = borel_to_operator(gen, spec)
            g = UniPoly.parse("hb^3 - 2*hb")
            image = op.apply(g.to_bipoly())
            assert image == borel_act(gen, spec, g).to_bipoly()


def test_rank_one_reducibility_split():
    rep = borel_reducibility_check(BorelSpec("gamma", 2, eta=1), 5)
    assert rep.ok
    assert any("reaches-unit" in c.id for c in rep.checks)
    for spec in (BorelSpec("theta", 1, 2), BorelSpec("omega", 3, -1)):
        rep2 = borel_reducibility_check(spec, 5)
        assert rep2.ok
        ids = [c.id for c in rep2.checks]
        assert any("ideal-invariant" in i for i in ids)
        assert any("proper-submodule" in i for i in ids)


def test_rank_one_reducibility_names_each_failure(monkeypatch):
    """Under an action where e kills everything, hb carries an extra
    identity term and eb an extra constant, each of the three checks
    FAILs with the value that broke it.  On theta the proper-submodule
    record rests on the eb check, so it FAILs too and names it."""
    real = borel_act

    def corrupt(gen, spec, g):
        if gen == "e":
            return UniPoly.zero()
        if gen == "hb":
            return real(gen, spec, g) + g
        if gen == "eb" and spec.family != "gamma":
            return real(gen, spec, g) + UniPoly.const(1)
        return real(gen, spec, g)

    monkeypatch.setattr(induced, "borel_act", corrupt)
    rep = borel_reducibility_check(BorelSpec("gamma", 2, eta=1), 2)
    gamma = "borel-gamma(lam=2,eta=1)"
    assert [(c.id, c.status, c.witness) for c in rep.checks] == [
        (f"borel-reaches-unit[k=1]/{gamma}", FAIL, "e^1.hb^1 = 0"),
        (f"borel-reaches-unit[k=2]/{gamma}", FAIL, "e^2.hb^2 = 0"),
        (f"borel-generates-from-unit/{gamma}", FAIL,
         "(hb - eta)^1.1 = hb + 1"),
    ]
    rep = borel_reducibility_check(BorelSpec("theta", 1, 2), 2)
    assert [(c.id, c.status, c.witness) for c in rep.checks] == [
        ("borel-ideal-invariant[eb]/borel-theta(lam=1,a=2,eta=0)", FAIL,
         "eb.hb^1 = -1/4*hb^3 + -1/2*hb + 1 has a constant term"),
        ("borel-ideal-invariant[hb]/borel-theta(lam=1,a=2,eta=0)", PASS,
         "hb.(hb g) stays divisible by hb through degree 3"),
        ("borel-proper-submodule/borel-theta(lam=1,a=2,eta=0)", FAIL,
         "rests on the failed borel-ideal-invariant[eb]/"
         "borel-theta(lam=1,a=2,eta=0)"),
    ]
    assert not rep.ok


def test_borel_spec_validation():
    with pytest.raises(ValueError):
        BorelSpec("gamma", 0)
    with pytest.raises(ValueError):
        BorelSpec("nope", 1)
    assert BorelSpec("gamma", 2).generators == ("eb", "e", "hb")
    assert BorelSpec("theta", 2).generators == ("eb", "hb")


def test_window_basis_shape():
    basis = ind_window_basis(2)
    assert (0, 0, 0, 0) in basis
    assert all(j + k <= 2 and q <= 2 and i <= 2 for (j, k, q, i) in basis)
    assert len(basis) == len(set(basis))
    assert basis == sorted(basis, key=lambda key: (key[1], key[0], key[3], key[2]))


def test_pbw_action_worked_values():
    spec = BorelSpec("gamma", 1)
    vac = IndElement.basis(0, 0, 0, 0)
    assert ind_act("f", spec, vac) == IndElement.basis(1, 0, 0, 0)
    assert ind_act("eb", spec, vac) == vac  # lam = 1 fixes the vacuum
    x = IndElement.basis(1, 1, 0, 0)
    assert ind_act("h", spec, x) == (IndElement.basis(1, 1, 1, 0)
                                     + IndElement.basis(1, 1, 0, 0).scale(-4))


def test_pbw_action_where_it_is_defined():
    x = IndElement.basis(1, 1, 1, 1)
    spec = BorelSpec("gamma", 2, eta=1)
    for gen in ("e", "f", "h", "eb", "fb", "hb"):
        ind_act(gen, spec, x)  # closes for the three-generator subalgebra
    spec2 = BorelSpec("theta", 1, 1)
    ind_act("f", spec2, x)
    with pytest.raises(ValueError):
        ind_act("e", spec2, x)  # a free e letter escapes the restricted span


def test_element_arithmetic_and_text():
    x = IndElement.basis(1, 2, 1, 3)
    assert x.text() == "f fb^2 h (x) hb^3"
    assert (x - x).is_zero()
    assert x.scale(2) + x.scale(-2) == IndElement.zero()
    assert IndElement.zero().text() == "0"


def test_triangular_lift_worked_examples():
    mod = TensorModule(FamilyParams("gamma", 1),
                       build_verma_module(HighestWeight(Q(1), Q(0))))
    assert phi_map(mod, IndElement.basis(0, 0, 0, 0)).text() == "1 (x) v"
    assert phi_map(mod, IndElement.basis(0, 0, 1, 0)).text() == "h (x) v"
    assert phi_map(mod, IndElement.basis(0, 1, 0, 0)).text() == \
        "-1/4*hb^2 (x) v + 1 (x) fb v"


def test_lift_is_a_module_map_with_unitriangular_matrix():
    for params, eta, theta in ((FamilyParams("gamma", 2), 1, 1),
                               (FamilyParams("theta", 1, 1, 0), 1, 2),
                               (FamilyParams("omega", 1, 3, beta="hb"), 1, 3)):
        mod = TensorModule(params,
                           build_verma_module(HighestWeight(Q(eta), Q(theta))))
        rep = check_phi(mod, 3)
        assert rep.ok, rep.render_text()
        tri = next(c for c in rep.checks if c.id.startswith("phi-unitriangular"))
        assert tri.status == PASS
        assert "determinant 1" in tri.witness
        inconclusive = [c for c in rep.checks if c.status == INCONCLUSIVE]
        if params.family == "gamma":
            assert not inconclusive
        else:
            # e leaves the restricted window, so its replay is left open
            assert inconclusive
            assert all("free e letter" in c.witness for c in inconclusive)


def test_lift_requires_the_infinite_tower():
    mod = TensorModule(FamilyParams("gamma", 1),
                       build_hw_module(HighestWeight(Q(0), Q(1))))
    with pytest.raises(ValueError):
        phi_map(mod, IndElement.basis(0, 0, 0, 0))


def test_reducibility_predicate_combines_both_sources():
    hw_red = HighestWeight(Q(0), Q(1))
    hw_irr = HighestWeight(Q(1), Q(0))
    assert verma_reducible_predicate(hw_red)
    assert not verma_reducible_predicate(hw_irr)
    assert induced_reducibility_predicate(FamilyParams("gamma", 1), hw_red)
    assert not induced_reducibility_predicate(FamilyParams("gamma", 1), hw_irr)
    assert induced_reducibility_predicate(
        FamilyParams("omega", 1, 0, beta="hb"), hw_irr)
    assert not induced_reducibility_predicate(
        FamilyParams("omega", 1, 2, beta="hb"), hw_irr)


# -- the int letters of the route agreement ----------------------------------


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(family=st.sampled_from(("gamma", "theta", "omega")), lam=NONZERO,
       a=RATIONALS, eta=RATIONALS)
def test_borel_letters_are_the_operator_route(family, lam, a, eta):
    """The compiled letter of every generator acts on hb^0..hb^8 as
    SkewOperator.apply acts with borel_to_operator."""
    spec = BorelSpec(family, lam, a=a, eta=eta)
    for gen in spec.generators:
        op = borel_to_operator(gen, spec)
        den, letter = borel_letter(gen, op)
        assert den > 0 and all(n for _, _, n in letter)
        for k in range(9):
            ints = induced._apply_letter(letter, {k: 1})
            assert all(ints.values())
            assert BiPoly({(0, e): Q(n, den) for e, n in ints.items()}) == \
                op.apply(BiPoly.monomial(1, 0, k)), (gen, k)


ROUTE_SPECS = (BorelSpec("gamma", 2, eta=1), BorelSpec("theta", 3, 2),
               BorelSpec("omega", Q(1, 2), 3, eta=-1))


def doubled_eb(gen, op):
    return op.scale(2) if gen == "eb" else op


def deep_word(gen, op):
    return op if gen == "hb" else op + SkewOperator.word(Q(1, 3), j=1, k=3)


def h_word(gen, op):
    return op + SkewOperator.word(1, i=1) if gen == "hb" else op


def shift_word(gen, op):
    return op + SkewOperator.word(1, m=1) if gen == "eb" else op


GAMMA, THETA, OMEGA = (spec.label() for spec in ROUTE_SPECS)
NOT_ON_QHB = "has an h or shift factor, so it does not act on Q[hb]"

# The value mismatches are the texts the rational route (borel_act
# against SkewOperator.apply on BiPoly) prints for these corruptions.
ROUTE_WITNESSES = {
    doubled_eb: {
        f"eb]/{GAMMA}": "hb^0: 2 vs 4",
        f"eb]/{THETA}": "hb^0: -1/12*hb^2 + -1/6 vs -1/6*hb^2 + -1/3",
        f"eb]/{OMEGA}": "hb^0: 1/4*hb + 3/4 vs 1/2*hb + 3/2",
    },
    deep_word: {
        f"eb]/{GAMMA}": "hb^3: 2*hb^3 vs 2*hb^3 + 2*hb",
        f"e]/{GAMMA}": "hb^3: -12*hb^2 vs -12*hb^2 + 2*hb",
        f"eb]/{THETA}": "hb^3: -1/12*hb^5 + -1/6*hb^3 vs "
                        "-1/12*hb^5 + -1/6*hb^3 + 2*hb",
        f"eb]/{OMEGA}": "hb^3: 1/4*hb^4 + 3/4*hb^3 vs "
                        "1/4*hb^4 + 3/4*hb^3 + 2*hb",
    },
    h_word: {f"hb]/{label}": f"hb: the word 1*h^1 {NOT_ON_QHB}"
             for label in (GAMMA, THETA, OMEGA)},
    shift_word: {f"eb]/{label}": f"eb: the word 1*s^1 {NOT_ON_QHB}"
                 for label in (GAMMA, THETA, OMEGA)},
}


@pytest.mark.parametrize("corrupt", ROUTE_WITNESSES,
                         ids=lambda corrupt: corrupt.__name__)
def test_corrupt_borel_operator_fails_the_route_agreement(monkeypatch,
                                                          corrupt):
    """A value mismatch prints the first differing hb^k with both
    routes' values; a word outside hb^j db^k is named, not read as its
    hb part."""
    route = induced.borel_to_operator
    monkeypatch.setattr(induced, "borel_to_operator",
                        lambda gen, spec: corrupt(gen, route(gen, spec)))
    prefix = "borel-route-agreement["
    got = {c.id[len(prefix):]: c.witness for spec in ROUTE_SPECS
           for c in check_borel_axioms(spec).checks
           if c.status == FAIL and c.id.startswith(prefix)}
    assert got == ROUTE_WITNESSES[corrupt]


def test_a_word_outside_the_letters_is_one_error_record(monkeypatch):
    """check_phi compiles its letters through borel_letter too: the
    induced suite keeps the Borel records, whose route agreement names
    the word as a FAIL, and adds one ERROR record naming it for phi."""
    route = induced.borel_to_operator
    monkeypatch.setattr(induced, "borel_to_operator",
                        lambda gen, spec: h_word(gen, route(gen, spec)))
    report = run_suite(JobConfig(suite="induced", eta="1", depth=1))
    assert report.suite == "induced"
    assert any(c.id.startswith("borel-bracket") for c in report.checks)
    witness = f"hb: the word 1*h^1 {NOT_ON_QHB}"
    assert [(c.status, c.id.split("/")[0], c.witness)
            for c in report.checks if c.status != PASS] == [
        (FAIL, "borel-route-agreement[hb]", witness),
        (ERROR, "phi-letters", witness)]


# -- the integer induced picture against the rational routes -----------------


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(family=st.sampled_from(("gamma", "theta", "omega")), lam=NONZERO,
       a=RATIONALS, eta=RATIONALS,
       keys=st.lists(st.tuples(*[st.integers(0, 3)] * 4), min_size=1,
                     max_size=4))
def test_compiled_induced_action_matches_ind_act(family, lam, a, eta, keys):
    spec = BorelSpec(family, lam, a=a, eta=eta)
    action = InducedAction(spec)
    for key in keys:
        x = IndElement.basis(*key)
        for gen in HOM_GENS:
            if gen == "e" and family != "gamma":
                with pytest.raises(ValueError, match="free e letter"):
                    action.image(gen, key)
                with pytest.raises(ValueError, match="free e letter"):
                    ind_act(gen, spec, x)
                continue
            den, ints = action.image(gen, key)
            assert den > 0 and all(ints.values())
            assert IndElement({k: Q(n, den) for k, n in ints.items()}) == \
                ind_act(gen, spec, x)


TAIL_SPECS = (BorelSpec("gamma", Q(-2, 3), eta=5),
              BorelSpec("theta", 2, a=Q(1, 3), eta=-1),
              BorelSpec("omega", Q(1, 2), a=3, eta=2))


@pytest.mark.parametrize("spec", TAIL_SPECS, ids=lambda spec: spec.family)
def test_tail_memo_is_exact_in_any_order(spec):
    """One InducedAction images every window key under every generator
    twice, in a shuffled order, so a tail is read back from the memo
    for keys other than the one that built it; and a caller who edits a
    returned dict changes nothing the memo gives out later."""
    action = InducedAction(spec)
    gens = [gen for gen in HOM_GENS if gen in spec.generators or gen != "e"]
    jobs = [(gen, key) for gen in gens for key in ind_window_basis(2)]
    want = {(gen, key): ind_act(gen, spec, IndElement.basis(*key))
            for gen, key in jobs}
    jobs *= 2
    random.Random(24).shuffle(jobs)
    for gen, key in jobs:
        den, ints = action.image(gen, key)
        assert IndElement({k: Q(n, den) for k, n in ints.items()}) == \
            want[gen, key], (gen, key)
    for gen, key in jobs[:30]:
        den, ints = action.image(gen, key)
        kept = dict(ints)
        ints.clear()
        ints[(9, 9, 9, 9)] = 1
        assert action.image(gen, key) == (den, kept), (gen, key)


def test_shared_words_are_the_naive_rewrite():
    """The memoised gen * f^j fb^k h^q against the raw-word rewrite,
    which shares no table with the straightening memos."""
    for gen in GENERATORS:
        for j in range(3):
            for k in range(3):
                for q in range(3):
                    word = [gen] + ["f"] * j + ["fb"] * k + ["h"] * q
                    naive = uea_normalize(word, strategy="leftmost")
                    assert (1, gen_times_word(gen, j, k, q)) == \
                        clear_denominators(naive.terms), word
                    # one value per key for the whole process
                    assert gen_times_word(gen, j, k, q) is \
                        gen_times_word(gen, j, k, q)


def test_shared_words_carry_no_parameter_between_specs():
    keys = [(j, k, q, i) for j in range(3) for k in range(3 - j)
            for q in range(3) for i in range(2)]
    warm = InducedAction(BorelSpec("gamma", 3, eta=Q(1, 2)))
    for key in keys:
        for gen in HOM_GENS:
            warm.image(gen, key)
    for spec in (BorelSpec("gamma", Q(-2, 3), eta=5),
                 BorelSpec("theta", 2, a=Q(1, 3), eta=-1),
                 BorelSpec("omega", Q(1, 2), a=3, eta=2)):
        action = InducedAction(spec)
        for key in keys:
            x = IndElement.basis(*key)
            for gen in HOM_GENS:
                if gen == "e" and spec.family != "gamma":
                    with pytest.raises(ValueError, match="free e letter"):
                        action.image(gen, key)
                    continue
                den, ints = action.image(gen, key)
                assert IndElement({k: Q(n, den) for k, n in ints.items()}) \
                    == ind_act(gen, spec, x), (spec, gen, key)


def tensor_module(family, lam, a, b, eta, theta):
    if family == "omega":
        params = FamilyParams("omega", lam, a, beta="hb + 1")
    else:
        params = FamilyParams(family, lam, a, b)
    return TensorModule(params, build_verma_module(HighestWeight(eta, theta)))


@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(family=st.sampled_from(("gamma", "theta", "omega")), lam=NONZERO,
       a=RATIONALS, b=RATIONALS, eta=RATIONALS, theta=RATIONALS)
def test_integer_phi_values_match_phi_map(family, lam, a, b, eta, theta):
    mod = tensor_module(family, lam, a, b, eta, theta)
    phi = PhiValues(mod)
    for key in ind_window_basis(2):
        den, ints = phi.of(key)
        assert den > 0 and all(ints.values())
        assert TensorElement.from_flat({mod.unpack(k): Q(n, den)
                                        for k, n in ints.items()}) == \
            phi_map(mod, IndElement.basis(*key))


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(family=st.sampled_from(("gamma", "theta", "omega")), lam=NONZERO,
       a=RATIONALS, b=RATIONALS, eta=RATIONALS, theta=RATIONALS)
def test_phi_replay_on_random_parameters(family, lam, a, b, eta, theta):
    """check_phi passes on random parameters: phi is unitriangular, and
    the only open records are the free-e replays of theta and omega."""
    rep = check_phi(tensor_module(family, lam, a, b, eta, theta), 2)
    assert rep.ok, rep.render_text()
    tri = next(c for c in rep.checks if c.id.startswith("phi-unitriangular"))
    assert tri.status == PASS
    inconclusive = [c for c in rep.checks if c.status == INCONCLUSIVE]
    assert all("free e letter" in c.witness for c in inconclusive)
    assert family != "gamma" or not inconclusive


@pytest.mark.parametrize("depth", (1, 2))
@pytest.mark.parametrize("family", ("gamma", "theta"))
def test_check_phi_runs_every_replay_itself(monkeypatch, family, depth):
    """No replay reuses an image that PhiValues computed: check_phi
    makes one TensorModule.image call per balance step, one per phi
    value it builds (every cached value but the seeded hb^i (x) v), and
    one per homomorphism replay, by-construction replays included."""
    calls, made = [], []
    image = TensorModule.image

    def counted(self, gen, ints):
        calls.append(gen)
        return image(self, gen, ints)

    class Recorded(PhiValues):
        def __init__(self, mod):
            super().__init__(mod)
            made.append(self)

    monkeypatch.setattr(TensorModule, "image", counted)
    monkeypatch.setattr(induced, "PhiValues", Recorded)
    mod = tensor_module(family, Q(3, 2), 1, Q(-1, 2), Q(1, 3), 2)
    rep = check_phi(mod, depth)
    assert rep.ok, rep.render_text()
    (phi,) = made
    spec = borel_spec_for(mod)
    basis = ind_window_basis(depth)
    assert len(basis) <= 200  # so the replay sample is the whole window
    balance = len(spec.generators) * (depth + 1)
    built = sum(key[:3] != (0, 0, 0) for key in phi._cache)
    replays = sum(gen != "e" or gen in spec.generators for gen in HOM_GENS)
    assert len(calls) == balance + built + replays * len(basis)


# -- the proof's order, read off packed keys ---------------------------------


def proof_order(flat_key):
    """The order of the triangularity proof on tensor coordinates
    ((f, fb), h, hb): compare (fb, f, hb, h) lexicographically."""
    (fj, fk), hq, hbi = flat_key
    return (fk, fj, hbi, hq)


def assert_packed_order_agrees(mod, keys):
    """TensorModule.order on the packed keys sorts them as proof_order
    does, and tells every two of them apart."""
    keys = list(keys)
    order = {k: mod.order(mod.pack(k)) for k in keys}
    assert len(set(order.values())) == len(keys)
    assert sorted(keys, key=order.get) == sorted(keys, key=proof_order)


@pytest.mark.parametrize("family", ("gamma", "theta", "omega"))
def test_packed_order_agrees_on_the_phi_coordinates(family):
    """On every coordinate of the phi values at depths 1-3, and on each
    value's lead against the rest of it."""
    mod = tensor_module(family, Q(3, 2), 1, Q(-1, 2), Q(1, 3), 2)
    phi = PhiValues(mod)
    coords = set()
    for depth in (1, 2, 3):
        for j, k, q, i in ind_window_basis(depth):
            flat = [mod.unpack(key) for key in phi.of((j, k, q, i))[1]]
            lead = ((j, k), q, i)
            assert proof_order(lead) == induced.ind_order_key((j, k, q, i))
            assert_packed_order_agrees(mod, flat)
            coords.update(flat)
    assert_packed_order_agrees(mod, coords)


VERMA_KEYS = st.tuples(
    st.tuples(st.integers(0, KEY_FIELD), st.integers(0, KEY_FIELD)).filter(
        lambda ab: sum(ab) <= KEY_FIELD),
    st.integers(0, KEY_FIELD), st.integers(0, KEY_FIELD))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(keys=st.lists(st.one_of(VERMA_KEYS, st.tuples(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 2), st.integers(0, 2))), min_size=2, max_size=8, unique=True))
def test_packed_order_agrees_on_random_verma_keys(keys):
    mod = tensor_module("gamma", 1, 0, 0, 1, 0)
    assert_packed_order_agrees(mod, keys)


# -- FAIL witnesses, rendered through the rational routes --------------------


def rational_witnesses(mod, depth):
    """check_phi's FAIL verdicts, recomputed through borel_act, ind_act,
    phi_map, TensorModule.act and format_scalar.  At depth <= 2 the
    window has at most 200 tuples, so the replay sample is the whole
    window."""
    spec = borel_spec_for(mod)
    basis = ind_window_basis(depth)
    out = {}
    for gen in spec.generators:
        for i in range(depth + 1):
            lhs = mod.act(gen, mod.pure(BiPoly.monomial(1, 0, i)))
            rhs = mod.pure(
                borel_act(gen, spec, UniPoly.monomial(1, i)).to_bipoly())
            if lhs != rhs:
                out[f"phi-balance[{gen}]"] = (
                    FAIL, f"{gen}.(hb^{i} (x) v) = {lhs.text()} but the "
                          f"rank-one formula gives {rhs.text()}")
                break
    for gen in HOM_GENS:
        if gen == "e" and "e" not in spec.generators:
            continue
        for key in basis:
            x = IndElement.basis(*key)
            lhs = phi_map(mod, ind_act(gen, spec, x))
            rhs = mod.act(gen, phi_map(mod, x))
            if lhs != rhs:
                out[f"phi-homomorphism[{gen}]"] = (
                    FAIL, f"x = {x.text()}: phi({gen}.x) = {lhs.text()} but "
                          f"{gen}.phi(x) = {rhs.text()}")
                break
    for key in basis:
        j, k, q, i = key
        x = IndElement.basis(*key)
        flat = phi_map(mod, x).flatten()
        lead = ((j, k), q, i)
        c = flat.get(lead, Q(0))
        high = [fk for fk in flat if fk != lead and
                not proof_order(fk) < induced.ind_order_key(key)]
        if c != 1:
            out["phi-triangular"] = (
                FAIL, f"phi({x.text()}) has coefficient {format_scalar(c)} "
                      f"on its leading coordinate")
        elif high:
            out["phi-triangular"] = (
                FAIL, f"phi({x.text()}) has the non-lower coordinate {high[0]}")
        else:
            continue
        out["phi-unitriangular"] = (FAIL, "skipped: triangularity failed")
        break
    return out


def failures(report):
    return {c.id.split("/")[0]: (c.status, c.witness) for c in report.checks
            if c.status == FAIL}


def corrupt_column(monkeypatch, mod, gen, key, scale=1, extra=()):
    """Make gen's image of one basis label wrong, on this instance: its
    column (den, ints) in lowest terms becomes scale * ints plus the
    extra terms over den, in every image that reads it."""
    image = mod.image
    key = mod.pack(key)
    den, col = lowest_terms(*image(gen, {key: 1}))
    wrong = accumulate({k: (scale - 1) * n for k, n in col.items()},
                       ((mod.pack(k), n) for k, n in extra))

    def corrupted(gen2, flat):
        parts = [(1, *image(gen2, flat))]
        if gen2 == gen and key in flat:
            parts.append((flat[key], den, wrong))
        return combine(parts)

    monkeypatch.setattr(mod, "image", corrupted)


CORRUPT_MODULES = (
    (FamilyParams("gamma", 2, 1, -1), 1, 1),
    (FamilyParams("theta", Q(1, 2), 1, 0), Q(1, 2), 2),
    (FamilyParams("omega", 1, 3, beta="hb"), -1, 3),
)


@pytest.mark.parametrize("params,eta,theta", CORRUPT_MODULES,
                         ids=lambda v: getattr(v, "family", None))
def test_corrupt_column_fails_with_the_rational_witnesses(
        monkeypatch, params, eta, theta):
    mod = TensorModule(params, build_verma_module(HighestWeight(eta, theta)))
    # f . (1 (x) v) doubled: phi(f (x) 1) gets leading coefficient 2
    corrupt_column(monkeypatch, mod, "f", ((0, 0), 0, 0), scale=2)
    got = failures(check_phi(mod, 2))
    assert got == rational_witnesses(mod, 2)
    assert "phi-homomorphism[h]" in got
    assert got["phi-triangular"] == (
        FAIL, "phi(f (x) 1) has coefficient 2 on its leading coordinate")
    assert got["phi-unitriangular"] == (FAIL, "skipped: triangularity failed")


def test_corrupt_balance_column_fails_with_the_rational_witness(monkeypatch):
    params, eta, theta = CORRUPT_MODULES[1]
    mod = TensorModule(params, build_verma_module(HighestWeight(eta, theta)))
    corrupt_column(monkeypatch, mod, "eb", ((0, 0), 0, 1), scale=3)
    got = failures(check_phi(mod, 2))
    assert got == rational_witnesses(mod, 2)
    assert got["phi-balance[eb]"][1].startswith("eb.(hb^1 (x) v) = ")


def test_non_lower_coordinate_is_named_in_the_rational_order(monkeypatch):
    params, eta, theta = CORRUPT_MODULES[0]
    mod = TensorModule(params, build_verma_module(HighestWeight(eta, theta)))
    # two coordinates above every window tuple; the integer image lists
    # ((0, 3), 4, 4) first, the rational route groups ((0, 0), 5, 5) first
    corrupt_column(monkeypatch, mod, "h", ((0, 0), 0, 0),
                   extra=((((0, 3), 4, 4), 5), (((0, 0), 5, 5), 7)))
    got = failures(check_phi(mod, 2))
    assert got == rational_witnesses(mod, 2)
    assert got["phi-triangular"] == (
        FAIL, "phi(h (x) 1) has the non-lower coordinate ((0, 0), 5, 5)")


def test_corrupt_borel_letter_fails_with_the_rational_witnesses(monkeypatch):
    mod = TensorModule(FamilyParams("gamma", 2, 1, -1),
                       build_verma_module(HighestWeight(Q(1), Q(1))))

    def doubled(route):
        def corrupted(gen, spec, *rest):
            out = route(gen, spec, *rest)
            return out.scale(2) if gen == "eb" else out
        return corrupted

    with monkeypatch.context() as m:
        # the compiled induced action reads its letters off this route
        m.setattr(induced, "borel_to_operator",
                  doubled(induced.borel_to_operator))
        got = failures(check_phi(mod, 2))
    with monkeypatch.context() as m:
        # ... and the oracle ind_act off this one, which phi-balance
        # also reads, so the oracle's balance verdicts are left out
        m.setattr(induced, "borel_act", doubled(induced.borel_act))
        expected = {name: v for name, v in rational_witnesses(mod, 2).items()
                    if not name.startswith("phi-balance")}
    assert got == expected
    # eb on the vacuum: phi(eb.x) = 2 lam (1 (x) v), eb.phi(x) = lam (1 (x) v)
    assert got["phi-homomorphism[eb]"] == (
        FAIL, "x = 1 (x) 1: phi(eb.x) = 4 (x) v but eb.phi(x) = 2 (x) v")
    # phi values never read the subalgebra letters
    assert "phi-triangular" not in got


def test_borel_residual_texts_of_a_perturbed_operator(monkeypatch):
    """The residual witnesses: the commutator subtracts the bracket side
    inside its integer merge and must print what the rational residual
    lhs - rhs prints."""
    route = induced.borel_to_operator

    def perturbed(gen, spec):
        op = route(gen, spec)
        if gen != "hb":
            return op
        return op + SkewOperator.word(Q(1, 3), j=2) + SkewOperator.word(Q(1, 3), k=1)

    monkeypatch.setattr(induced, "borel_to_operator", perturbed)
    got = {spec.family: [(c.id, c.witness) for c in check_borel_axioms(spec).checks
                         if c.status == FAIL and c.id.startswith("borel-bracket")]
           for spec in (BorelSpec("gamma", 2, eta=1), BorelSpec("theta", 3, 2),
                        BorelSpec("omega", Q(1, 2), 3))}
    assert got == {
        "gamma": [("borel-bracket[e,hb]/borel-gamma(lam=2,eta=1)",
                   "residual = -8/3*hb^1")],
        "theta": [("borel-bracket[eb,hb]/borel-theta(lam=3,a=2,eta=0)",
                   "residual = 1/18*hb^1")],
        "omega": [("borel-bracket[eb,hb]/borel-omega(lam=1/2,a=3,eta=0)",
                   "residual = -1/12")],
    }
