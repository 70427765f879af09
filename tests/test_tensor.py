"""Tensor modules V (x) L: the Leibniz action and the six engines on top.

Every engine that claims membership in a submodule is replayed through
the action itself, so these tests double as soundness proofs for the
witnesses the engines hand back.
"""

import copy
import random
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import takiff
from takiff import (FAIL, INCONCLUSIVE, PASS, BiPoly, FamilyParams,
                    HighestWeight, Q, TensorElement, TensorModule, UeaElement,
                    UniPoly, annihilator_check, bracket, build_hw_module,
                    build_verma_module, certify_irreducible,
                    check_invariant_subspace, closure_search, make_seeds,
                    recover_parameters, recover_report, singular_vectors,
                    vandermonde_reduce, whittaker_report,
                    whittaker_vector_search)
from takiff import tensor
from takiff.algebra import annihilator_element, mono_letters
from takiff.families import family_act, family_to_operator
from takiff.linalg import nullspace, solve_unique
from takiff.tensor import KEY_FIELD, RecoveredParams, WhittakerWindow

from test_digests import load_workloads

GENS = ("e", "f", "h", "eb", "fb", "hb")


def over_verma(params, eta=1, theta=0):
    return TensorModule(params, build_verma_module(HighestWeight(Q(eta), Q(theta))))


def random_element(mod, rng, deg=2, level=2):
    idxs = mod.hw.basis_through_level(level)
    x = TensorElement({})
    for _ in range(rng.randrange(1, 4)):
        idx = idxs[rng.randrange(len(idxs))]
        p = BiPoly.monomial(Q(rng.randrange(-4, 5)),
                            rng.randrange(deg + 1), rng.randrange(deg + 1))
        x = x + TensorElement({idx: p})
    return x


ORACLE_PARAMS = [
    FamilyParams("gamma", Q(2, 3), 1, -1),
    FamilyParams("theta", 3, Q(-2, 5), 5),
    FamilyParams("omega", Q(1, 2), 3, beta="2*hb^2 - 1"),
]
ORACLE_FACTORS = [build_verma_module(HighestWeight(Q(2), Q(-1, 3))),
                  build_hw_module(HighestWeight(Q(0), Q(2)))]


def leibniz(mod, gen, x):
    """gen . x from the direct polynomial route and the second factor's
    basis action: gen (x) 1 + 1 (x) gen, written out term by term."""
    total = mod.zero()
    for idx, p in x.terms.items():
        total = total + TensorElement({idx: family_act(gen, mod.params, p)})
        for idx2, c in mod.hw.act_basis(gen, idx).items():
            total = total + TensorElement({idx2: p.scale(c)})
    return total


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=lambda p: p.family)
@pytest.mark.parametrize("hw", ORACLE_FACTORS, ids=lambda hw: hw.kind)
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_compiled_action_matches_the_leibniz_oracle(params, hw, data):
    mod = TensorModule(params, hw)
    coeff = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))
    monos = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                            coeff, max_size=3)
    x = TensorElement({idx: BiPoly(data.draw(monos))
                       for idx in data.draw(st.lists(
                           st.sampled_from(hw.basis_through_level(2)),
                           max_size=3))})
    for gen in GENS:
        assert mod.act(gen, x) == leibniz(mod, gen, x), (gen, x.text())


@pytest.mark.parametrize("params", ORACLE_PARAMS + [
    FamilyParams("omega", -1, 0, beta="hb")], ids=lambda p: f"{p.family}-a={p.a}")
def test_family_entries_walk_up_one_shift_and_match_family_act(params):
    """Every generator's family_to_operator words carry one shift s^m,
    the premise of F(i, j) = (h - 2m) F(i - 1, j).  Over L(0, 0), where
    every generator acts by zero, a label's image is its family entry
    alone: it equals family_act on h^i hb^j through h-degree 12, with
    the table filled upwards, downwards and in a shuffled order."""
    one = build_hw_module(HighestWeight(Q(0), Q(0)))
    labels = [(0, i, j) for i in range(13) for j in range(4)]
    orders = [labels, labels[::-1],
              random.Random(12).sample(labels, len(labels))]
    for gen in GENS:
        assert len({m for *_, m in family_to_operator(gen, params).terms}) == 1
        want = {key: TensorElement({0: family_act(
            gen, params, BiPoly.monomial(1, key[1], key[2]))})
            for key in labels}
        for order in orders:
            mod = TensorModule(params, one)
            for key in order:
                got = mod.from_ints(*mod.image(gen, {mod.pack(key): 1}))
                assert got == want[key], (gen, key)


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=lambda p: p.family)
@pytest.mark.parametrize("hw", ORACLE_FACTORS, ids=lambda hw: hw.kind)
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_image_of_int_and_rational_inputs_agree(params, hw, data):
    """``image`` takes int vectors, its dens from the tables alone;
    ``act`` is the rational edge: it clears x = ints / d once, and its
    value is the image of the cleared ints over d and the Leibniz
    oracle."""
    mod = TensorModule(params, hw)
    ints = data.draw(st.dictionaries(
        st.sampled_from(mod.window_basis(2)),
        st.integers(-6, 6).filter(bool), min_size=1, max_size=4))
    d = data.draw(st.integers(1, 4))
    x = mod.from_ints(d, ints)
    for gen in GENS:
        den, out = mod.image(gen, ints)
        assert den > 0 and all(type(n) is int and n for n in out.values())
        assert mod.act(gen, x) == mod.from_ints(den * d, out) == \
            leibniz(mod, gen, x), gen


def meeting_columns(mod, gen, keys):
    """Two labels whose gen-columns share a key, and that key."""
    for n, k1 in enumerate(keys):
        for k2 in keys[n + 1:]:
            shared = (mod.image(gen, {k1: 1})[1].keys()
                      & mod.image(gen, {k2: 1})[1].keys())
            if shared:
                return k1, k2, min(shared)


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=lambda p: p.family)
@pytest.mark.parametrize("hw", ORACLE_FACTORS, ids=lambda hw: hw.kind)
def test_image_drops_a_key_whose_terms_cancel(params, hw):
    mod = TensorModule(params, hw)
    k1, k2, shared = meeting_columns(mod, "h", mod.window_basis(2))
    (d1, col1), (d2, col2) = (mod.image_reduced("h", 1, {k: 1})
                              for k in (k1, k2))
    # weighted so that the two images cancel on the shared key
    ints = {k1: col2[shared] * d1, k2: -col1[shared] * d2}
    den, out = mod.image("h", ints)
    assert shared not in out and all(out.values())
    assert mod.from_ints(den, out) == leibniz(mod, "h", mod.from_ints(1, ints))


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=lambda p: p.family)
@pytest.mark.parametrize("hw", ORACLE_FACTORS, ids=lambda hw: hw.kind)
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_columns_are_the_leibniz_oracle_in_lowest_terms(params, hw, data):
    mod = TensorModule(params, hw)
    for key in data.draw(st.lists(st.sampled_from(mod.window_basis(3)),
                                  min_size=1, max_size=3)):
        x = mod.from_ints(1, {key: 1})
        for gen in GENS:
            den, col = mod.image_reduced(gen, 1, {key: 1})
            assert den > 0 and all(col.values())
            assert reduce(gcd, col.values(), den) == 1
            assert mod.from_ints(den, col) == leibniz(mod, gen, x), \
                (gen, mod.unpack(key))


def test_tables_are_built_once_per_instance(monkeypatch):
    """Imaging every window label under one generator reads the words
    once per generator and hw.act_ints once per L-label, and builds one
    family entry per (i, j), label by label or all at once; a second
    module with the same parameters builds its own tables."""
    calls = Counter()
    hw = build_verma_module(HighestWeight(Q(2), Q(-1, 3)))
    to_operator, act_ints = tensor.family_to_operator, hw.act_ints

    def counted_to_operator(gen, params):
        calls[gen] += 1
        return to_operator(gen, params)

    def counted_act_ints(gen, idx):
        calls[gen, idx] += 1
        return act_ints(gen, idx)

    monkeypatch.setattr(tensor, "family_to_operator", counted_to_operator)
    monkeypatch.setattr(hw, "act_ints", counted_act_ints)
    for _ in range(2):
        calls.clear()
        mod = TensorModule(ORACLE_PARAMS[0], hw)
        labels = mod.window_basis(3)
        for key in labels:
            mod.image("f", {key: 1})
        mod.image("f", dict.fromkeys(labels, 2))
        idxs = {mod.unpack(key)[0] for key in labels}
        assert calls == Counter({"f": 1, **{("f", idx): 1 for idx in idxs}})
        assert len(mod._family["f"][2]) == 4 * 4


def count_fractions(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


@pytest.mark.parametrize("weight", [(Q(1, 2), Q(3)), (Q(0), Q(3))],
                         ids=["verma", "findim"])
def test_table_entries_are_built_without_a_fraction(monkeypatch, weight):
    """Once the process-wide memos (the straightened highest-weight
    action and the word shapes) hold the window's structure, every
    Leibniz and family entry of a depth-3 window is built on ints: no
    Fraction is formed, and neither is one in the certificate path of
    the singular scan.  The memos are filled first through a second
    factor (of other parameters on the Verma side); each module's words,
    which come from the rational family_to_operator, are read before
    counting."""
    eta, theta = weight
    warm = build_hw_module(HighestWeight(eta + 1 if eta else eta,
                                         theta - 1 if eta else theta))
    hw = build_hw_module(HighestWeight(eta, theta))
    for params in ORACLE_PARAMS:
        filled, mod = TensorModule(params, warm), TensorModule(params, hw)
        for gen in GENS:
            mod.image(gen, {})
            for key in filled.window_basis(3):
                filled.image(gen, {key: 1})
        made = count_fractions(monkeypatch)
        for gen in GENS:
            for key in mod.window_basis(3):
                mod.image(gen, {key: 1})
        monkeypatch.undo()
        assert made == [], params.family
        assert all(len(mod._family[gen][2]) == 4 * 4 for gen in GENS)
    if eta:
        made = count_fractions(monkeypatch)
        assert all(singular_vectors(hw.weight, level) == [] for level in range(1, 7))
        assert made == []


def test_columns_belong_to_their_module():
    hw = ORACLE_FACTORS[0]
    one, two = (TensorModule(FamilyParams("gamma", lam), hw) for lam in (1, 2))
    key = ((0, 0), 1, 0)  # h (x) v
    for mod in (one, two):
        mod.act("eb", mod.pure("h"))
    # eb = lam * s sends h to lam * (h - 2)
    keys = [one.pack(k) for k in (((0, 0), 0, 0), ((0, 0), 1, 0))]
    key = one.pack(key)
    assert one.image_reduced("eb", 1, {key: 1}) == (1, dict(zip(keys, [-2, 1])))
    assert two.image_reduced("eb", 1, {key: 1}) == (1, dict(zip(keys, [-4, 2])))
    # a new module with the same parameters builds its own tables
    again = TensorModule(FamilyParams("gamma", 1), hw)
    assert again.image_reduced("eb", 1, {key: 1}) == \
        one.image_reduced("eb", 1, {key: 1})
    assert again._family["eb"] is not one._family["eb"]


def flat_key_order(mod, key):
    """The tuple order the closure pivots followed before keys were
    packed, written out as the oracle."""
    idx, i, j = key
    if mod.hw.kind == "verma":
        return (idx[0] + idx[1], idx[0], idx[1], i, j)
    return (idx, idx, 0, i, j)


FIELDS = st.one_of(st.integers(0, 3), st.integers(0, KEY_FIELD))


@pytest.mark.parametrize("hw", ORACLE_FACTORS, ids=lambda hw: hw.kind)
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_packed_keys_round_trip_in_the_pivot_order(hw, data):
    mod = TensorModule(FamilyParams("gamma", 1), hw)
    if hw.kind == "verma":
        idx = st.tuples(FIELDS, FIELDS).filter(lambda ab: sum(ab) <= KEY_FIELD)
    else:
        idx = FIELDS
    keys = data.draw(st.lists(st.tuples(idx, FIELDS, FIELDS), min_size=2,
                              max_size=6))
    old = [tuple(-t for t in flat_key_order(mod, k)) for k in keys]
    new = [mod.pack(k) for k in keys]
    assert [mod.unpack(p) for p in new] == keys
    for a in range(len(keys)):
        for b in range(len(keys)):
            assert (new[a] < new[b]) == (old[a] < old[b]), (keys[a], keys[b])


def test_a_field_past_its_width_raises():
    mod = over_verma(FamilyParams("gamma", 1))
    edge = TensorElement({(0, 0): BiPoly.monomial(1, 0, KEY_FIELD)})
    assert mod.act("eb", edge) == edge  # eb = lam * s keeps the hb-degree
    with pytest.raises(ValueError, match=re.escape(
            f"hb takes the flat key {((0, 0), 0, KEY_FIELD)} past the "
            f"field limit {KEY_FIELD}")):
        mod.act("hb", edge)  # hb^KEY_FIELD * hb
    deep = TensorElement({(KEY_FIELD, 0): BiPoly.const(1)})
    with pytest.raises(ValueError, match="field"):
        mod.act("f", deep)  # f^KEY_FIELD v up one level
    for key in (((0, 0), KEY_FIELD + 1, 0), ((0, 0), -1, 0),
                ((KEY_FIELD, 1), 0, 0)):
        with pytest.raises(ValueError, match="field"):
            mod.pack(key)


@pytest.mark.parametrize("family, gen", [("gamma", "fb"), ("theta", "eb")])
def test_one_step_from_the_window_raises_a_field_by_two(family, gen):
    """The margin behind the CLI's depth bound KEY_FIELD - 2: the images
    of h hb^d (x) f v, in the depth-d window, pack under all six
    generators, and their largest field is d + 2 (gen's hb^2 word); at
    hb-degree d + 1, gen's image cannot be packed."""
    mod = over_verma(FamilyParams(family, 1))
    d = KEY_FIELD - 2
    reach = 0
    for g in GENS:
        for key in mod.image(g, {mod.pack(((1, 0), 1, d)): 1})[1]:
            (a, b), i, j = mod.unpack(key)
            reach = max(reach, a + b, i, j)
    assert reach == d + 2 == KEY_FIELD
    with pytest.raises(ValueError, match="field"):
        mod.image(gen, {mod.pack(((1, 0), 1, d + 1)): 1})


def test_action_satisfies_the_bracket():
    rng = random.Random(61)
    mods = [
        over_verma(FamilyParams("gamma", 2, 1, -1)),
        over_verma(FamilyParams("theta", 3, -2, 5), eta=2, theta=1),
        TensorModule(FamilyParams("omega", 1, 3, beta="hb"),
                     build_hw_module(HighestWeight(Q(0), Q(2)))),
    ]
    for mod in mods:
        for x in GENS:
            for y in GENS:
                t = random_element(mod, rng)
                lhs = mod.act(x, mod.act(y, t)) - mod.act(y, mod.act(x, t))
                rhs = mod.zero()
                for g, c in bracket(x, y).items():
                    rhs = rhs + mod.act(g, t).scale(c)
                assert lhs == rhs, (mod.label(), x, y)


def test_envelope_action_is_multiplicative():
    rng = random.Random(62)
    mod = over_verma(FamilyParams("gamma", 2, 1, -1))
    u = UeaElement.gen("e") * UeaElement.gen("f") + UeaElement.monomial(2, i=1)
    w = UeaElement.gen("eb") - UeaElement.one()
    for _ in range(5):
        t = random_element(mod, rng)
        assert mod.act_uea(u * w, t) == mod.act_uea(u, mod.act_uea(w, t))


def test_pump_reduction_strips_h():
    rng = random.Random(63)
    mod = over_verma(FamilyParams("gamma", 2, 1, -1), eta=1, theta=3)
    for _ in range(30):
        x = random_element(mod, rng, deg=3)
        red = vandermonde_reduce(mod, x)
        assert not red.element.is_zero()
        assert red.element.h_degree() == 0
        # the witness combination really produces the element
        assert mod.act_uea(red.combo, x) == red.element


def test_pump_reduction_preconditions():
    mod = over_verma(FamilyParams("theta", 1))
    with pytest.raises(ValueError):
        vandermonde_reduce(mod, mod.one_v())
    gmod = over_verma(FamilyParams("gamma", 1))
    with pytest.raises(ValueError):
        vandermonde_reduce(gmod, gmod.zero())


def test_pump_reduction_fixes_h_free_input():
    mod = over_verma(FamilyParams("gamma", 1))
    x = mod.pure("hb^2 + 1")
    red = vandermonde_reduce(mod, x)
    assert red.element == x
    assert red.combo == UeaElement.one()


def act_word_by_word(mod, u, x):
    """u . x with every PBW word walked letter by letter through ``act``,
    rightmost letter first, and the words summed: no sharing."""
    total = mod.zero()
    for mono, c in u.terms.items():
        cur = x
        for letter in reversed(mono_letters(mono)):
            cur = mod.act(letter, cur)
        total = total + cur.scale(c)
    return total


def eb_powers(coeffs, start):
    """sum(c * eb^(start + n)): the shape of a pump combination."""
    u = UeaElement.zero()
    for n, c in enumerate(coeffs):
        u = u + UeaElement.monomial(c, m=start + n)
    return u


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=lambda p: p.family)
@pytest.mark.parametrize("hw", ORACLE_FACTORS, ids=lambda hw: hw.kind)
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_envelope_action_matches_the_letter_walk(params, hw, data):
    mod = TensorModule(params, hw)
    coeff = st.builds(Q, st.integers(-5, 5), st.integers(1, 4))
    monos = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                            coeff, max_size=3)
    x = TensorElement({idx: BiPoly(data.draw(monos))
                       for idx in data.draw(st.lists(
                           st.sampled_from(hw.basis_through_level(2)),
                           max_size=3))})
    # words that share suffixes: eb powers under other letters
    words = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                      st.integers(0, 1), st.integers(0, 1), st.integers(0, 3))
    u = UeaElement(data.draw(st.dictionaries(words, coeff.filter(bool),
                                             max_size=5)))
    assert mod.act_uea(u, x) == act_word_by_word(mod, u, x)


def test_envelope_action_on_shared_suffixes_and_dying_words():
    for params in ORACLE_PARAMS:
        for hw in ORACLE_FACTORS:
            mod = TensorModule(params, hw)
            x = (mod.pure(BiPoly.parse("3/2*h^2*hb - 1/3*hb^2 + h"))
                 + mod.pure(BiPoly.parse("-2/5*h*hb"), idx=hw.basis_through_level(1)[1]))
            us = [eb_powers([Q(1, 3), Q(-2), Q(5, 7), Q(1), Q(-1, 4)], 2),
                  annihilator_element(params.family, 3, params.lam, params.a),
                  (UeaElement.gen("f") + UeaElement.gen("hb")) * eb_powers(
                      [Q(2), Q(-1, 2), Q(3)], 1)]
            for u in us:
                assert mod.act_uea(u, x) == act_word_by_word(mod, u, x)
    # e kills h^2 (x) v: e = -2 lam db s on the first factor and e v = 0,
    # so every word ending in e dies after its first letter
    mod = over_verma(FamilyParams("gamma", Q(2, 3), 1, -1))
    x = mod.pure("h^2")
    assert mod.act("e", x).is_zero()
    u = (UeaElement.monomial(Q(5, 2), j=2, p=1) + UeaElement.monomial(1, q=1, p=1)
         + UeaElement.monomial(Q(-1, 3), m=2))
    assert mod.act_uea(u, x) == act_word_by_word(mod, u, x)
    assert mod.act_uea(u, x) == mod.act_uea(UeaElement.monomial(Q(-1, 3), m=2), x)
    assert not mod.act_uea(u, x).is_zero()


def leibniz_replay(mod, u, x):
    """u . x through the oracle route: every letter by ``leibniz``, from
    family_act and hw.act_basis, not through the compiled columns."""
    total = mod.zero()
    for mono, c in u.terms.items():
        cur = x
        for letter in reversed(mono_letters(mono)):
            cur = leibniz(mod, letter, cur)
        total = total + cur.scale(c)
    return total


PUMP_FACTORS = [(Q(1), Q(0)), (Q(2), Q(3)), (Q(-1), Q(1)), (Q(1, 2), Q(-1)),
                (Q(0), Q(1)), (Q(0), Q(2)), (Q(0), Q(3))]


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_pump_on_random_parameters(data):
    """Random gamma parameters and random pump inputs: one to three
    distinct monomials with a positive h-power, over Verma and L(0, theta)
    factors."""
    rational = st.builds(Q, st.integers(-4, 4), st.integers(1, 4))
    params = FamilyParams("gamma", data.draw(rational.filter(bool)),
                          data.draw(rational), data.draw(rational))
    eta, theta = data.draw(st.sampled_from(PUMP_FACTORS))
    hw = build_hw_module(HighestWeight(eta, theta))
    mod = TensorModule(params, hw)
    idxs = hw.basis_through_level(2)
    monos = [(idx, i, j) for idx in idxs for i in (1, 2, 3) for j in range(4)]
    x = mod.zero()
    for idx, i, j in data.draw(st.lists(st.sampled_from(monos), min_size=1,
                                        max_size=3, unique=True)):
        c = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        x = x + TensorElement({idx: BiPoly.monomial(c, i, j)})
    red = vandermonde_reduce(mod, x)
    assert red.element.h_degree() == 0
    assert leibniz_replay(mod, red.combo, x) == red.element


def replay_steps(mod, seed, span, steps):
    """Rebuild every stored row from the seed by its int step, with each
    generator applied through ``leibniz`` (family_act and hw.act_basis,
    not the compiled tables), and check it against the stored row."""
    assert len(steps) == len(span.rows)
    rebuilt = []
    for r, (parent, gen, scale, combo, content) in enumerate(steps):
        assert all(type(n) is int for n in (scale, content, *combo.values()))
        assert scale > 0 and content and all(i < r for i in combo)
        if parent is None:
            assert r == 0 and gen is None and not combo
            x = seed
        else:
            assert parent < r and gen in GENS
            x = leibniz(mod, gen, rebuilt[parent])
        x = x.scale(scale)
        for i, c in combo.items():
            x = x - rebuilt[i].scale(c)
        x = x.scale(Q(1, content))
        assert x == mod.from_ints(1, span.rows[r]), r
        rebuilt.append(x)


@pytest.mark.parametrize("params", ORACLE_PARAMS + [
    FamilyParams("omega", Q(1, 2), 0, beta=UniPoly.zero())],
    ids=lambda p: f"{p.family}-a={p.a}")
@pytest.mark.parametrize("hw", ORACLE_FACTORS, ids=lambda hw: hw.kind)
def test_closure_steps_replay_through_the_leibniz_oracle(params, hw):
    """Each stored row's step (parent, gen, scale, combo, content) holds
    scale * gen . rows[parent] == content * rows[r] + sum(combo[i] *
    rows[i]) through the oracle action.  The seed has a denominator,
    which its step's scale clears.  On a hit the span reduces 1 (x) v to
    zero; omega with a = 0 misses, and its steps replay all the same."""
    mod = TensorModule(params, hw)
    low = hw.basis_through_level(1)[-1]
    seed = (mod.pure(BiPoly.monomial(Q(2, 3), 1, 0))
            + TensorElement({low: BiPoly.monomial(Q(-1, 2), 0, 1)}))
    found, span, steps = closure_search(mod, seed, 3)
    assert found == mod.expectation.startswith("irreducible")
    assert steps[0][2] % 6 == 0
    replay_steps(mod, seed, span, steps)
    if found:
        residual, _ = span.reduce({mod.pack((hw.highest_index, 0, 0)): 1})
        assert not residual


def test_closure_finds_the_target_when_its_key_becomes_a_pivot(monkeypatch):
    """Over every closure search of the seed-1 closure job list, found
    holds exactly when Echelon.reduce leaves no residual of 1 (x) v; on
    a hit the row pivoted on its key is that unit vector."""
    searches = []
    search = tensor.closure_search

    def recorded(mod, seed, depth):
        out = search(mod, seed, depth)
        searches.append((mod, out))
        return out

    monkeypatch.setattr(tensor, "closure_search", recorded)
    workloads = load_workloads()
    for job in workloads.job_list("closure", 1):
        workloads.run_job(takiff, job)
    hits = 0
    for mod, (found, span, _) in searches:
        target = mod.pack((mod.hw.highest_index, 0, 0))
        residual, _ = span.reduce({target: 1})
        assert found == (not residual), mod.label()
        if found:
            hits += 1
            assert span.rows[span.pivot_of[target]] == {target: 1}
    assert 0 < hits < len(searches)


def test_closure_span_comes_back_on_labels_in_pivot_order():
    """The span the search returns is the one it eliminated on: keyed
    by packed ints, each pivot the smallest key of its row, and every
    pivot a label that mod.unpack and mod.pack carry back and forth."""
    mod = over_verma(FamilyParams("theta", 2, 1, 1), eta=1, theta=1)
    found, span, _ = closure_search(mod, mod.pure("h*hb"), 4)
    assert found and any(len(row) > 1 for row in span.rows)
    assert span.pivot_of == {k: n for n, k in enumerate(span.pivots)}
    assert span.pivots == [min(row) for row in span.rows]
    for pivot in span.pivots:
        assert mod.pack(mod.unpack(pivot)) == pivot


def test_a_depth_6_closure_miss_keeps_its_trajectory():
    """The miss of ``verify irreducible --family omega --lambda 2 --a 0
    --eta 1 --theta 0 --seeds 2 --depth 6``, past the catalogues' depth 5:
    both closures sweep the whole window to their recorded dimensions,
    and hb*Q[h,hb] (x) L is closed under every generator."""
    report = takiff.run_suite(takiff.JobConfig(
        suite="irreducible", family="omega", lam="2", a="0", eta="1",
        theta="0", seeds=2, depth=6))
    module = "omega(lam=2,a=0,beta=0) (x) Lbar(eta=1,theta=0)"
    reached = "; 1 (x) v not reached at this depth"
    assert [(c.id, c.status, c.witness) for c in report.checks] == [
        (f"reach[seed-0]/{module}", INCONCLUSIVE,
         "closure dimension 2120, seed h (x) v" + reached),
        (f"reach[seed-1]/{module}", INCONCLUSIVE,
         "closure dimension 1596, seed hb^2 (x) v" + reached),
    ] + [(f"hb-subspace[{gen}]/{module}", PASS, "closed through depth 6")
         for gen in ("e", "f", "h", "eb", "fb", "hb")]


def test_certification_examples():
    mod = over_verma(FamilyParams("gamma", 1), eta=1, theta=1)
    seeds = [mod.pure("h"), mod.pure("hb^2"),
             TensorElement({(0, 0): BiPoly.parse("h + hb"),
                            (1, 0): BiPoly.parse("h + hb")})]
    rep = certify_irreducible(mod, seeds, 8)
    assert rep.ok and all(c.status == PASS for c in rep.checks), rep.render_text()

    fmod = TensorModule(FamilyParams("theta", 2, 1, 1),
                        build_hw_module(HighestWeight(Q(0), Q(2))))
    rep2 = certify_irreducible(fmod, [fmod.pure(BiPoly.const(1), idx=2)], 6)
    assert rep2.ok and all(c.status == PASS for c in rep2.checks)


def test_a_seed_on_the_target_is_found_at_its_first_insert():
    """A seed that is a multiple of 1 (x) v is its own first row, with
    its den 2 as the scale and its numerator 3 as the content."""
    mod = over_verma(FamilyParams("gamma", 2, 1, -1), eta=1, theta=3)
    seed = mod.one_v().scale(Q(3, 2))
    found, span, steps = closure_search(mod, seed, 2)
    assert found and len(span) == 1
    assert steps == [(None, None, 2, {}, 3)]
    rep = certify_irreducible(mod, [seed], 2)
    assert [(c.status, c.witness) for c in rep.checks] == [
        (PASS, "closure dimension 1, seed 3/2 (x) v")]


def test_degenerate_point_is_never_certified():
    mod = over_verma(FamilyParams("omega", 1, 0, beta=UniPoly.zero()),
                     eta=1, theta=1)
    seed = mod.pure("hb")
    found, span, _ = closure_search(mod, seed, 4)
    assert not found
    # the whole closure stays inside hb*Q[h,hb] (x) L
    for row in span.rows:
        assert all(mod.unpack(key)[2] >= 1 for key in row)
    rep = certify_irreducible(mod, [seed], 4)
    assert all(c.status == INCONCLUSIVE for c in rep.checks)
    inv = check_invariant_subspace(mod, 5)
    assert inv.ok and len(inv.checks) == 6
    with pytest.raises(ValueError):
        check_invariant_subspace(over_verma(FamilyParams("gamma", 1)), 3)


def test_invariant_subspace_names_the_first_label_that_leaves_it():
    """fb's family part on h^1 hb^2 is corrupted in the family table, to
    add h: then fb, and fb alone, takes h^1 hb^2 (x) w out of
    hb*Q[h,hb] (x) L for every w.  The check reads the table once per
    monomial and names the monomial on the top label, rendered through
    ``act``, which reads the same table."""
    mod = over_verma(FamilyParams("omega", 1, 0, beta=UniPoly.zero()),
                     eta=1, theta=1)
    key = mod.pack(((0, 0), 1, 2))
    deltas, nums = mod.family_entry("fb", key)
    wden, _, table = mod._family["fb"]
    table[tensor.LOW ^ (key & tensor.LOW)] = (
        deltas + [-(1 << tensor.KEY_BITS)], nums + [wden])
    rep = check_invariant_subspace(mod, 3)
    assert [c.status for c in rep.checks] == [PASS, PASS, PASS, PASS, FAIL, PASS]
    img = mod.act("fb", TensorElement({(0, 0): BiPoly.monomial(1, 1, 2)}))
    q = next(q for q in img.terms.values() if not q.divisible_by_hb())
    assert q.coefficient(1, 0) == 1
    assert rep.checks[4].witness == ("image of h^1 hb^2 (x) basis(0, 0) "
                                     "leaves hb*Q[h,hb]: -1/2*h*hb^3 + h + -hb^3")


def per_label_exit(mod, gen, depth):
    """The invariant-subspace check as a scan of every window label's
    image: the witness of the first label h^i hb^(j+1) (x) idx, i, j <
    depth, in the order (idx, i, j), whose image has a key of
    hb-exponent 0, or None."""
    for idx in mod.hw.basis_through_level(depth):
        for i in range(depth):
            for j in range(1, depth + 1):
                _, img = mod.image(gen, {mod.pack((idx, i, j)): 1})
                if any(k & KEY_FIELD == KEY_FIELD for k in img):
                    x = mod.act(gen, TensorElement({idx: BiPoly.monomial(1, i, j)}))
                    q = next(q for q in x.terms.values()
                             if not q.divisible_by_hb())
                    return (f"image of h^{i} hb^{j} (x) basis{idx} "
                            f"leaves hb*Q[h,hb]: {q.text()}")
    return None


INVARIANT_FACTORS = ([build_hw_module(HighestWeight(Q(0), Q(t))) for t in range(4)]
                     + [build_verma_module(HighestWeight(Q(1), Q(0))),
                        build_verma_module(HighestWeight(Q(2), Q(1)))])


@pytest.mark.parametrize("hw", INVARIANT_FACTORS, ids=lambda hw: hw.label())
@pytest.mark.parametrize("params", [
    FamilyParams("omega", 2, 0, beta=UniPoly.zero()),
    FamilyParams("omega", Q(1, 2), 0, beta="hb^2 + 1"),
    FamilyParams("omega", -1, 0, beta="2 + hb"),
    FamilyParams("omega", 1, 3, beta="2*hb^2 - 1"),
    FamilyParams("omega", 2, Q(1, 3), beta="hb + 1"),
], ids=lambda p: p.label())
def test_invariant_subspace_agrees_with_the_per_label_scan(params, hw):
    """Generator by generator, at depths 1 to 4, the check's witness (or
    None) is the per-label scan's.  With a = 0 every generator keeps the
    subspace.  With a != 0 e and f take h^0 hb^1 out of it, a FAIL with
    no corruption, and the witnesses agree there too."""
    mod = TensorModule(params, hw)
    for depth in range(1, 5):
        exits = {gen: tensor.hb_subspace_exit(mod, gen, depth) for gen in GENS}
        assert exits == {gen: per_label_exit(mod, gen, depth) for gen in GENS}
        failed = [gen for gen in GENS if exits[gen]]
        assert failed == ([] if params.a == 0 else ["e", "f"])
        assert all(exits[gen].startswith("image of h^0 hb^1 (x) ")
                   for gen in failed)
    if params.a == 0:
        assert check_invariant_subspace(mod, 4).ok


@pytest.mark.parametrize("depth", [3, 6])
def test_invariant_subspace_reads_do_not_grow_with_the_factor(monkeypatch, depth):
    """The check reads the family table once per generator and window
    monomial: 6 * depth^2 reads over L(0, 0) and over Lbar(1, 0) alike,
    and no ``image`` call when every generator passes."""
    params = FamilyParams("omega", 2, 0, beta="hb")
    counts = []
    for hw in (build_hw_module(HighestWeight(Q(0), Q(0))),
               build_verma_module(HighestWeight(Q(1), Q(0)))):
        mod = TensorModule(params, hw)
        reads = Counter()
        entry = mod.family_entry

        def counted(gen, key):
            reads[gen] += 1
            return entry(gen, key)

        def no_image(gen, ints):
            raise AssertionError("a passing check reads no image")

        monkeypatch.setattr(mod, "family_entry", counted)
        monkeypatch.setattr(mod, "image", no_image)
        assert check_invariant_subspace(mod, depth).ok
        counts.append(reads)
    assert counts[0] == counts[1] == {gen: depth * depth for gen in GENS}


@pytest.mark.parametrize("eta, theta, depth, windows", [
    pytest.param(None, 1, 3, [(1, 3)], id="L(0,1)"),
    pytest.param(None, 2, 3, [(2, 3)], id="L(0,2)"),
    pytest.param(None, 0, 5, [(0, 4), (0, 5)], id="L(0,0)"),
    pytest.param(1, 1, 4, [(2, 4), (4, 4)], id="Lbar(1,1)"),
])
def test_closure_runs_each_distinct_window_once(monkeypatch, eta, theta,
                                                depth, windows):
    """Level caps are clipped to the deepest level of the factor and a
    repeated rung is skipped, so a miss over L(0, theta) sweeps each
    distinct window once.  The verdict and span are those of the last
    rung of the unclipped schedule, (depth, depth), run directly."""
    hw = (build_hw_module(HighestWeight(Q(0), Q(theta))) if eta is None
          else build_verma_module(HighestWeight(Q(eta), Q(theta))))
    mod = TensorModule(FamilyParams("omega", 1, 0, beta=UniPoly.zero()), hw)
    seed = mod.pure("h")
    window = tensor._closure_window
    calls = []

    def recording(mod, seed, lvl_cap, deg_cap):
        calls.append((lvl_cap, deg_cap))
        return window(mod, seed, lvl_cap, deg_cap)

    monkeypatch.setattr(tensor, "_closure_window", recording)
    found, span, _ = closure_search(mod, seed, depth)
    assert calls == windows
    assert not found
    direct, oracle, _ = window(mod, seed, depth, depth)
    assert (found, span.rows, span.pivots) == (direct, oracle.rows,
                                               oracle.pivots)


@pytest.mark.parametrize("lvl_cap, deg_cap", [(1, 3), (2, 3)])
def test_closure_expands_only_rows_inside_the_window(lvl_cap, deg_cap):
    """Every row the window expands, the parent of a later step, has all
    its keys inside the caps: level at most lvl_cap, h- and hb-degree at
    most deg_cap; images of expanded rows do stick out, one level past
    the cap.  The factor L(0, 3) is finite, so a window that ignored its level cap
    would still end."""
    mod = TensorModule(FamilyParams("omega", 1, 0, beta=UniPoly.zero()),
                       build_hw_module(HighestWeight(Q(0), Q(3))))
    found, span, steps = tensor._closure_window(mod, mod.pure("h"),
                                                lvl_cap, deg_cap)
    assert not found
    parents = {step[0] for step in steps[1:]}
    for p in parents:
        for key in span.rows[p]:
            idx, i, j = mod.unpack(key)
            assert mod.hw.level(idx) <= lvl_cap and max(i, j) <= deg_cap, p
    assert max(mod.hw.level(mod.unpack(k)[0]) for k in span.pivots) > lvl_cap


def test_closure_rejects_bad_seeds():
    mod = over_verma(FamilyParams("gamma", 1))
    with pytest.raises(ValueError):
        closure_search(mod, mod.zero(), 4)
    far = TensorElement({(0, 0): BiPoly.monomial(1, 9, 0)})
    with pytest.raises(ValueError):
        closure_search(mod, far, 4)


def test_seed_generation_is_reproducible_and_valid():
    mod = over_verma(FamilyParams("gamma", 1, 2, 3), eta=1, theta=2)
    seeds = make_seeds(mod, 12, rng_seed=7)
    assert seeds == make_seeds(mod, 12, rng_seed=7)
    assert seeds != make_seeds(mod, 12, rng_seed=8)
    assert len(seeds) == 12
    for s in seeds:
        assert not s.is_zero()
        for idx, p in s.terms.items():  # inside the depth-8 window
            assert mod.hw.level(idx) <= 8
            assert p.deg_h() <= 8 and p.deg_hb() <= 8


def test_annihilator_kills_the_first_factor():
    g = BiPoly.parse("h^2*hb + h - 3")
    for params in (FamilyParams("gamma", 2, 1, -1),
                   FamilyParams("theta", 3, -2, 5),
                   FamilyParams("omega", 1, 3, beta="hb")):
        rep = annihilator_check(over_verma(params), g, 3)
        kills = [c for c in rep.checks if c.id.startswith("annihilator/kills-V")]
        assert len(kills) == 1 and kills[0].status == PASS, rep.render_text()


def test_annihilator_probes_the_second_factor():
    mod = over_verma(FamilyParams("theta", 1, 1, 0))
    rep = annihilator_check(mod, BiPoly.const(1), 1)
    probe = next(c for c in rep.checks if c.id.startswith("annihilator/tensor-probe[r"))
    assert probe.status == PASS  # genuinely nonzero on 1 (x) v


def test_annihilator_shift_family_probe_collapses_on_the_top_line():
    """For the shift family the probe at 1 (x) v computes to exactly zero;
    the probe one rung down is the honest nonzero witness."""
    mod = over_verma(FamilyParams("gamma", 1))
    rep = annihilator_check(mod, BiPoly.var_h(), 2)
    probe = next(c for c in rep.checks if c.id.startswith("annihilator/tensor-probe[r"))
    assert probe.status == FAIL
    assert "= 0" in probe.witness
    fv = next(c for c in rep.checks if "tensor-probe-at-fv" in c.id)
    assert fv.status == PASS


def test_annihilator_preconditions():
    mod = over_verma(FamilyParams("omega", 1, 0, beta="hb"))
    with pytest.raises(ValueError):
        annihilator_check(mod, BiPoly.const(1), 2)  # needs a != 0
    mod2 = over_verma(FamilyParams("gamma", 1))
    with pytest.raises(ValueError):
        annihilator_check(mod2, BiPoly.parse("h^2"), 2)  # needs r > deg_h


def test_whittaker_solutions_for_the_shift_family_are_the_constants():
    lam = Q(2)
    mod = TensorModule(FamilyParams("gamma", lam),
                       build_hw_module(HighestWeight(Q(0), Q(0))))
    sols = whittaker_vector_search(mod, 0, lam, 3)
    assert len(sols) == 1
    only = sols[0].terms
    assert list(only) == [0]
    assert only[0].deg_h() == 0 and only[0].deg_hb() == 0
    # the exceptional eigenvalue pair sits off the +-1 grid when lam = 2
    for mu1 in (-1, 0, 1):
        for mu2 in (-1, 0, 1):
            assert whittaker_vector_search(mod, mu1, mu2, 3) == []


def test_whittaker_vectors_over_the_infinite_tower():
    lam = Q(2)
    mod = over_verma(FamilyParams("gamma", lam))
    sols = whittaker_vector_search(mod, 0, lam, 2)
    assert len(sols) == 6  # one per lowering shape in the window
    for x in sols:
        assert mod.act("e", x).is_zero()
        assert mod.act("eb", x) == x.scale(lam)


def count_kernels(monkeypatch):
    """Record each kernel the Whittaker window reads off ``nullspace``."""
    calls = []

    def counting(columns):
        kernel = nullspace(columns)
        calls.append(len(kernel))
        return kernel

    monkeypatch.setattr(tensor, "nullspace", counting)
    return calls


def assert_whittaker(mod, mu1, mu2, sols):
    for x in sols:
        assert mod.act("e", x) == x.scale(Q(mu1))
        assert mod.act("eb", x) == x.scale(Q(mu2))


def distinct_leads(columns):
    """True when every column is nonzero and their smallest keys are
    pairwise distinct: the test ``WhittakerWindow.solve`` reads."""
    leads = [min(col) for col in columns if col]
    return len(leads) == len(set(leads)) == len(columns)


def test_whittaker_sweep_agrees_with_the_exact_kernel(monkeypatch):
    """On each grid point distinct leading keys imply a zero kernel of
    the same int columns, and ``solve`` reads that kernel exactly when
    the kernel is not zero: here no point's leads collide."""
    lam = Q(2)
    mods = [
        TensorModule(FamilyParams("gamma", lam),
                     build_hw_module(HighestWeight(Q(0), Q(0)))),
        over_verma(FamilyParams("gamma", lam)),
        over_verma(FamilyParams("gamma", 2, 1, -1), eta=1, theta=3),
        TensorModule(FamilyParams("theta", 1, 1),
                     build_hw_module(HighestWeight(Q(0), Q(2)))),
        over_verma(FamilyParams("theta", 2, 1, 1), eta=1, theta=3),
        TensorModule(FamilyParams("omega", 1, 2, beta="2 + hb"),
                     build_hw_module(HighestWeight(Q(0), Q(1)))),
        over_verma(FamilyParams("omega", 1, 0, beta="hb")),
    ]
    # the +-1 grid, plus the point (0, lam) where the three gamma
    # modules carry Whittaker vectors: 1, 6 and 6 in the window
    grid = [(m1, m2) for m1 in (-1, 0, 1) for m2 in (-1, 0, 1)] + [(0, lam)]
    calls = count_kernels(monkeypatch)
    found = 0
    for mod in mods:
        window = WhittakerWindow(mod, 2)
        for mu1, mu2 in grid:
            empty = nullspace(window._shifted(mu1, mu2)) == []
            assert distinct_leads(list(window._shifted(mu1, mu2))) == empty, \
                (mod.label(), mu1, mu2)
            calls.clear()
            sols = window.solve(mu1, mu2)
            assert calls == ([] if empty else [len(sols)])
            assert whittaker_vector_search(mod, mu1, mu2, 2) == sols
            assert_whittaker(mod, mu1, mu2, sols)
            found += len(sols)
    assert found == 1 + 6 + 6


def test_whittaker_leads_that_collide_fall_back_to_the_kernel(monkeypatch):
    """gamma lam = 1 over the Verma module eta = 1, theta = -1 at depth 2
    and (1, 1): two columns share a leading key, yet the columns are
    independent.  ``solve`` reads one kernel, which is empty."""
    mod = over_verma(FamilyParams("gamma", 1), eta=1, theta=-1)
    window = WhittakerWindow(mod, 2)
    columns = list(window._shifted(1, 1))
    assert all(columns) and not distinct_leads(columns)
    assert nullspace(columns) == []
    calls = count_kernels(monkeypatch)
    assert window.solve(1, 1) == []
    assert calls == [0]


def test_whittaker_sweep_decides_where_a_prime_would_not(monkeypatch):
    """Points a rank certificate mod p = 2^61 - 1 could not decide:
    mu2 = lam + p is the singular point (0, lam) mod p, and mu1 = 1/p or
    a = 1/p has no image mod p.  The leads and the kernel work over Z, so
    each of these points is proved independent by its leads and no kernel
    is read; (0, lam) itself still FAILs with 1 (x) v."""
    p = 2**61 - 1
    # an entry equal to p: zero mod p, independent over Q
    assert nullspace([{0: p}, {0: 1, 1: p}]) == []
    assert len(nullspace([{0: p, 1: 1}, {0: 2 * p, 1: 2}])) == 1

    calls = count_kernels(monkeypatch)
    lam = Q(2)
    mod = TensorModule(FamilyParams("gamma", lam),
                       build_hw_module(HighestWeight(Q(0), Q(0))))
    window = WhittakerWindow(mod, 2)
    for mu1, mu2 in ((0, lam + p), (Q(1, p), lam)):
        assert window.solve(mu1, mu2) == []
        assert whittaker_vector_search(mod, mu1, mu2, 2) == []
    theta = TensorModule(FamilyParams("theta", 2, Q(1, p), 1),
                         build_hw_module(HighestWeight(Q(0), Q(1))))
    theta_window = WhittakerWindow(theta, 2)
    assert any(den % p == 0 for den, _ in theta_window.columns)
    for mu2 in (-1, 0, 1):
        assert distinct_leads(list(theta_window._shifted(0, mu2)))
        assert theta_window.solve(0, mu2) == []
    assert calls == []

    rep = whittaker_report(mod, [(0, lam + p), (0, lam)], 2)
    assert [c.status for c in rep.checks] == [PASS, FAIL]
    assert calls == [1]


def test_whittaker_window_with_denominators_in_its_columns():
    """lam = 2/3 puts a denominator 3 into every eb column, and mu1 = 1/2,
    mu2 = -2/3 a factor d = 6 into every swept column: the columns stay
    ints, and the kernel is normalized like the others."""
    lam = Q(2, 3)
    mod = TensorModule(FamilyParams("gamma", lam),
                       build_hw_module(HighestWeight(Q(0), Q(0))))
    window = WhittakerWindow(mod, 2)
    assert all(den % 3 == 0 for den, _ in window.columns)
    for mu1, mu2 in ((0, lam), (0, 1), (1, lam), (Q(1, 2), Q(-2, 3))):
        columns = list(window._shifted(mu1, mu2))
        assert all(type(n) is int for col in columns for n in col.values())
        sols = window.solve(mu1, mu2)
        assert (nullspace(columns) == []) == (sols == []), (mu1, mu2)
        assert distinct_leads(columns) == (sols == []), (mu1, mu2)
        assert_whittaker(mod, mu1, mu2, sols)
    assert window.solve(0, lam) == [mod.one_v()]


def test_whittaker_kernel_over_columns_with_different_denominators():
    """eta = 1/2 and theta = 1/3 give the columns denominators 1, 2, 3
    and 6: each kernel vector is scaled back to the unscaled columns,
    solves both equations exactly and has a 1 at its top label."""
    lam = Q(2)
    mod = over_verma(FamilyParams("gamma", lam), eta=Q(1, 2), theta=Q(1, 3))
    window = WhittakerWindow(mod, 2)
    assert {den for den, _ in window.columns} == {1, 2, 3, 6}
    sols = window.solve(0, lam)
    assert len(sols) == 6
    assert_whittaker(mod, 0, lam, sols)
    for x in sols:
        top = mod.unpack(min(mod.flat(x)))
        assert x.flatten()[top] == 1


def test_public_entries_never_consume_their_inputs():
    """``Echelon`` eliminates the vector it is handed in place, so every
    public entry must clear or copy its caller's data before handing it
    over: all-int columns, a closure seed, a Whittaker window reused
    over a grid and the shifted columns of one grid point all come back
    unchanged."""
    columns = [{0: 2, 1: 4}, {0: 1, 2: 3}, {0: 3, 1: 4, 2: 3}, {1: 5}]
    rhs = {0: 1, 1: 2, 2: 3}
    before = copy.deepcopy((columns, rhs))
    assert len(nullspace(columns)) == 1
    assert solve_unique([columns[0], columns[1], columns[3]], rhs) is not None
    assert (columns, rhs) == before

    mod = over_verma(FamilyParams("gamma", 1), eta=1, theta=0)
    seed = mod.pure(BiPoly.monomial(Q(2, 3), 1, 0)) + TensorElement(
        {(1, 0): BiPoly.monomial(3, 0, 1)})
    terms = {idx: dict(p.terms) for idx, p in seed.terms.items()}
    assert closure_search(mod, seed, 3)[0]
    assert {idx: p.terms for idx, p in seed.terms.items()} == terms

    lam = Q(2)
    mod = TensorModule(FamilyParams("gamma", lam),
                       build_hw_module(HighestWeight(Q(0), Q(0))))
    window = WhittakerWindow(mod, 2)
    stacked = copy.deepcopy(window.columns)
    grid = [(0, lam), (1, 0), (0, lam), (1, lam)]
    first = [window.solve(mu1, mu2) for mu1, mu2 in grid]
    assert window.columns == stacked
    assert first[0] == first[2] == [mod.one_v()]
    assert [window.solve(mu1, mu2) for mu1, mu2 in grid] == first
    columns = list(window._shifted(0, lam))
    swept = copy.deepcopy(columns)
    assert len(nullspace(columns)) == 1
    assert columns == swept


def test_whittaker_grid_report_all_clear():
    mod = over_verma(FamilyParams("theta", 2, 1, 1), eta=1, theta=3)
    grid = [(m1, m2) for m1 in (-1, 0, 1) for m2 in (-1, 0, 1)]
    rep = whittaker_report(mod, grid, 4)
    assert rep.ok and len(rep.checks) == 9


def test_parameters_are_recovered_exactly():
    mods = [
        over_verma(FamilyParams("gamma", 2, 1, -1), eta=1, theta=3),
        over_verma(FamilyParams("theta", 3, -2, 5), eta=2, theta=0),
        TensorModule(FamilyParams("omega", 1, 3, beta="hb^2 + 2"),
                     build_hw_module(HighestWeight(Q(0), Q(1)))),
    ]
    for mod in mods:
        rec = recover_parameters(mod)
        assert rec.family == mod.params.family
        assert rec.lam == mod.params.lam
        assert rec.a == mod.params.a
        assert rec.eta == mod.hw.weight.eta
        assert rec.theta == mod.hw.weight.theta
        if rec.family == "omega":
            assert rec.beta == mod.params.beta
        else:
            assert rec.b == mod.params.b
        assert recover_report(mod).ok


small_rationals = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_random_parameters_are_recovered_exactly(data):
    """gamma/theta (lam != 0, a, b) and omega (lam != 0, a, beta of
    degree <= 2), over a Verma factor (eta != 0) or L(0, theta): the
    probe actions read back exactly the parameters they were built from."""
    family = data.draw(st.sampled_from(["gamma", "theta", "omega"]))
    lam = data.draw(small_rationals.filter(bool))
    a = data.draw(small_rationals)
    if family == "omega":
        coeffs = data.draw(st.lists(small_rationals, max_size=3))
        beta = UniPoly({j: c for j, c in enumerate(coeffs) if c})
        params, b = FamilyParams(family, lam, a, beta=beta), None
    else:
        b, beta = data.draw(small_rationals), None
        params = FamilyParams(family, lam, a, b)
    if data.draw(st.booleans()):
        weight = HighestWeight(data.draw(small_rationals.filter(bool)),
                               data.draw(small_rationals))
        hw = build_verma_module(weight)
    else:
        weight = HighestWeight(Q(0), Q(data.draw(st.integers(0, 3))))
        hw = build_hw_module(weight)
    mod = TensorModule(params, hw)
    assert recover_parameters(mod) == RecoveredParams(
        family, lam, a, b, beta, weight.eta, weight.theta)
    assert recover_report(mod).ok


def test_distinct_parameters_recover_distinctly():
    recs = set()
    for b in (0, 1, 2):
        mod = over_verma(FamilyParams("gamma", 2, 1, b))
        recs.add(recover_parameters(mod).as_tuple())
    assert len(recs) == 3


def test_element_text_and_flatten_round_trip():
    mod = over_verma(FamilyParams("gamma", 1))
    x = TensorElement({(0, 0): BiPoly.parse("h + 1"), (1, 1): BiPoly.parse("hb")})
    assert TensorElement.from_flat(x.flatten()) == x
    assert "(x)" in x.text()
    assert mod.zero().text() == "0"
