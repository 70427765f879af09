"""Tensor modules V (x) L: the Leibniz action and the five engines on top.

Every engine that claims membership in a submodule is replayed through
the action itself, so these tests double as soundness proofs for the
witnesses the engines hand back.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from takiff import (FAIL, INCONCLUSIVE, PASS, BiPoly, FamilyParams,
                    HighestWeight, Q, TensorElement, TensorModule, UeaElement,
                    UniPoly, annihilator_check, bracket, build_hw_module,
                    build_verma_module, certify_irreducible,
                    check_invariant_subspace, closure_search, make_seeds,
                    recover_parameters, recover_report, vandermonde_reduce,
                    whittaker_report, whittaker_vector_search)
from takiff.families import family_act
from takiff.linalg import RANK_PRIME, Echelon, independent_mod_p, mod_p
from takiff.tensor import WhittakerWindow

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


def test_columns_belong_to_their_module():
    hw = ORACLE_FACTORS[0]
    one, two = (TensorModule(FamilyParams("gamma", lam), hw) for lam in (1, 2))
    key = ((0, 0), 1, 0)  # h (x) v
    for mod in (one, two):
        mod.act("eb", mod.pure("h"))
    # eb = lam * s sends h to lam * (h - 2)
    keys = [((0, 0), 0, 0), ((0, 0), 1, 0)]
    assert one.column("eb", key) == (1, keys, [-2, 1])
    assert two.column("eb", key) == (1, keys, [-4, 2])
    # a new module with the same parameters compiles its own columns
    again = TensorModule(FamilyParams("gamma", 1), hw)
    assert again.column("eb", key) == one.column("eb", key)
    assert again.column("eb", key) is not one.column("eb", key)


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


def test_closure_tags_replay_through_the_action():
    mod = over_verma(FamilyParams("gamma", 1), eta=1, theta=0)
    seed = mod.pure(BiPoly.var_h())
    found, span, tags = closure_search(mod, seed, 4, track_tags=True)
    assert found
    for i, row in enumerate(span.rows):
        assert mod.act_uea(tags[i], seed) == TensorElement.from_flat(row)
    residual, combo = span.reduce(mod.one_v().flatten())
    assert not residual
    witness = UeaElement.zero()
    for i, c in combo.items():
        witness = witness + tags[i].scale(c)
    assert mod.act_uea(witness, seed) == mod.one_v()


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


def test_degenerate_point_is_never_certified():
    mod = over_verma(FamilyParams("omega", 1, 0, beta=UniPoly.zero()),
                     eta=1, theta=1)
    seed = mod.pure("hb")
    found, span, _ = closure_search(mod, seed, 4)
    assert not found
    # the whole closure stays inside hb*Q[h,hb] (x) L
    for row in span.rows:
        assert all(key[2] >= 1 for key in row)
    rep = certify_irreducible(mod, [seed], 4)
    assert all(c.status == INCONCLUSIVE for c in rep.checks)
    inv = check_invariant_subspace(mod, 5)
    assert inv.ok and len(inv.checks) == 6
    with pytest.raises(ValueError):
        check_invariant_subspace(over_verma(FamilyParams("gamma", 1)), 3)


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
        assert mod.in_window(s, 8)


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


def test_whittaker_certificate_agrees_with_the_exact_solve():
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
    found = 0
    for mod in mods:
        window = WhittakerWindow(mod, 2)
        for mu1, mu2 in grid:
            exact = window.exact_solutions(mu1, mu2)
            assert window.certify_empty(mu1, mu2) == (exact == []), \
                (mod.label(), mu1, mu2)
            assert window.solve(mu1, mu2) == exact
            assert whittaker_vector_search(mod, mu1, mu2, 2) == exact
            found += len(exact)
    assert found == 1 + 6 + 6


def test_whittaker_certificate_declines_and_the_exact_path_decides():
    p = RANK_PRIME
    # an entry equal to p: independent over Q, zero mod p
    assert mod_p(Q(p)) == 0
    assert not independent_mod_p([{0: 1}, {}])
    assert Echelon().insert({0: Q(p)})[0] == 0
    assert mod_p(Q(1, p)) is None and mod_p(Q(3, 2 * p + 2)) is not None

    lam = Q(2)
    mod = TensorModule(FamilyParams("gamma", lam),
                       build_hw_module(HighestWeight(Q(0), Q(0))))
    window = WhittakerWindow(mod, 2)
    assert not window.certify_empty(0, lam)
    # mu2 = lam + p reduces to the singular point (0, lam) mod p, and
    # mu1 = 1/p has a denominator divisible by p: the certificate
    # declines both, and the exact solve finds no solution
    for mu1, mu2 in ((0, lam + p), (Q(1, p), lam)):
        assert not window.certify_empty(mu1, mu2)
        assert window.exact_solutions(mu1, mu2) == []
        assert whittaker_vector_search(mod, mu1, mu2, 2) == []
    rep = whittaker_report(mod, [(0, lam + p), (0, lam)], 2)
    assert [c.status for c in rep.checks] == [PASS, FAIL]

    # a = 1/p puts p into denominators of the images themselves
    mod = TensorModule(FamilyParams("theta", 2, Q(1, p), 1),
                       build_hw_module(HighestWeight(Q(0), Q(1))))
    window = WhittakerWindow(mod, 2)
    for mu2 in (-1, 0, 1):
        assert not window.certify_empty(0, mu2)
        assert window.exact_solutions(0, mu2) == []


def test_whittaker_window_with_denominators_in_its_columns():
    """lam = 2/3 puts a denominator 3 into every eb column: the residues
    divide by it and the exact kernel is normalized like the others."""
    lam = Q(2, 3)
    mod = TensorModule(FamilyParams("gamma", lam),
                       build_hw_module(HighestWeight(Q(0), Q(0))))
    window = WhittakerWindow(mod, 2)
    assert all(den % 3 == 0 for den, _ in window.columns)
    for mu1, mu2 in ((0, lam), (0, 1), (1, lam), (Q(1, 2), Q(-2, 3))):
        exact = window.exact_solutions(mu1, mu2)
        assert window.certify_empty(mu1, mu2) == (exact == []), (mu1, mu2)
    assert window.solve(0, lam) == [mod.one_v()]


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
