"""Concrete actions of all six generators on Q[h,hb], one per family."""

import random

import pytest

from takiff import (BiPoly, FamilyParams, GENERATORS, Q, SkewOperator, UniPoly,
                    check_family_axioms, check_omega_constraint, eq1_alpha,
                    families, family_act, family_to_operator, solve_omega_alpha,
                    FAIL)


def random_params(rng, family):
    lam = Q(rng.randrange(1, 7)) * rng.choice([-1, 1])
    a = Q(rng.randrange(-5, 6))
    if family == "omega":
        beta = UniPoly.zero()
        for _ in range(rng.randrange(0, 4)):
            beta = beta + UniPoly.monomial(Q(rng.randrange(-4, 5)), rng.randrange(4))
        return FamilyParams(family, lam, a, beta=beta)
    return FamilyParams(family, lam, a, Q(rng.randrange(-5, 6)))


def random_poly(rng, deg=3):
    p = BiPoly.zero()
    for _ in range(rng.randrange(1, 5)):
        p = p + BiPoly.monomial(Q(rng.randrange(-5, 6)),
                                rng.randrange(deg + 1), rng.randrange(deg + 1))
    return p


def test_action_routes_agree():
    """The direct action and the operator image compute the same thing."""
    rng = random.Random(41)
    for family in ("gamma", "theta", "omega"):
        for _ in range(8):
            params = random_params(rng, family)
            for gen in GENERATORS:
                op = family_to_operator(gen, params)
                for _ in range(3):
                    p = random_poly(rng)
                    assert family_act(gen, params, p) == op.apply(p)


def test_axioms_hold_on_random_parameters():
    rng = random.Random(42)
    for family in ("gamma", "theta", "omega"):
        for _ in range(5):
            params = random_params(rng, family)
            rep = check_family_axioms(params)
            assert rep.ok, rep.render_text()
            assert len(rep.checks) == 15  # one per generator pair


def test_cartan_part_is_multiplication():
    rng = random.Random(43)
    for family in ("gamma", "theta", "omega"):
        params = random_params(rng, family)
        for _ in range(4):
            p = random_poly(rng)
            assert family_act("h", params, p) == BiPoly.var_h() * p
            assert family_act("hb", params, p) == BiPoly.var_hb() * p


def test_shift_generators():
    lam = Q(3)
    p = BiPoly.parse("h^2*hb - h")
    gam = FamilyParams("gamma", lam, 1, -2)
    assert family_act("eb", gam, p) == BiPoly.const(lam) * p.shift_h(-2)
    assert family_act("e", gam, BiPoly.const(5)).is_zero()
    th = FamilyParams("theta", lam, 1, -2)
    assert family_act("fb", th, p) == BiPoly.const(lam) * p.shift_h(2)
    assert family_act("f", th, BiPoly.const(5)).is_zero()


def test_action_is_linear():
    rng = random.Random(44)
    params = random_params(rng, "omega")
    for gen in GENERATORS:
        p, q = random_poly(rng), random_poly(rng)
        assert family_act(gen, params, p + q) == (
            family_act(gen, params, p) + family_act(gen, params, q))


def test_alpha_solver_matches_the_matrix_form():
    rng = random.Random(45)
    for _ in range(12):
        lam = Q(rng.randrange(1, 6))
        a = Q(rng.randrange(-4, 5))
        beta = UniPoly.zero()
        for _ in range(rng.randrange(1, 5)):
            beta = beta + UniPoly.monomial(Q(rng.randrange(-4, 5)), rng.randrange(6))
        assert solve_omega_alpha(lam, a, beta) == eq1_alpha(lam, a, beta)
    assert solve_omega_alpha(Q(2), Q(1), UniPoly.zero()) == UniPoly.zero()


def test_perturbed_alpha_breaks_the_bracket():
    lam, a = Q(1), Q(2)
    beta = UniPoly.parse("hb^2 - 1")
    alpha = solve_omega_alpha(lam, a, beta)
    good = FamilyParams("omega", lam, a, beta=beta, alpha=alpha)
    assert check_family_axioms(good).ok
    bad = FamilyParams("omega", lam, a, beta=beta,
                       alpha=alpha + UniPoly.monomial(1, 1))
    rep = check_family_axioms(bad)
    assert not rep.ok
    failing = [c.id for c in rep.checks if c.status == FAIL]
    assert any(i.startswith("bracket[e,f]") for i in failing)
    assert failures(rep) == [("bracket[e,f]/omega(lam=1,a=2,beta=hb^2 + -1)",
                              "residual = 2*hb^1 + -2")]


def failures(rep):
    return [(c.id, c.witness) for c in rep.checks if c.status == FAIL]


def test_residual_texts_of_broken_brackets(monkeypatch):
    """The residual witnesses: the commutator subtracts the bracket side
    inside its integer merge and must print what the rational residual
    lhs - rhs prints."""
    lam, a = Q(3, 2), Q(-1)
    beta = UniPoly.parse("2*hb + 1/3")
    alpha = solve_omega_alpha(lam, a, beta) + UniPoly.parse("1/2*hb^2 - 3")
    rep = check_family_axioms(FamilyParams("omega", lam, a, beta=beta, alpha=alpha))
    assert failures(rep) == [("bracket[e,f]/omega(lam=3/2,a=-1,beta=2*hb + 1/3)",
                              "residual = 1*hb^2 + 2/3*hb^1 + -2")]
    route = families.family_to_operator

    def perturbed(gen, params):
        op = route(gen, params)
        return op + SkewOperator.word(Q(1, 2), j=1, m=1) if gen == "eb" else op

    monkeypatch.setattr(families, "family_to_operator", perturbed)
    rep = check_family_axioms(FamilyParams("gamma", Q(2, 3), 1, -1))
    label = "gamma(lam=2/3,a=1,b=-1)"
    assert failures(rep) == [(f"bracket[e,eb]/{label}", "residual = -2/3*s^2"),
                             (f"bracket[e,hb]/{label}", "residual = 1*hb^1*s^1"),
                             (f"bracket[f,eb]/{label}", "residual = -9/8*hb^2 + -3/8")]


def test_constraint_report_shape():
    rep = check_omega_constraint(2, 1, UniPoly.parse("hb + 1"))
    assert rep.ok
    assert [c.id for c in rep.checks] == [
        "alpha/bracket-vs-matrix", "alpha/axioms-with-solved-alpha"]


def test_parameter_validation():
    with pytest.raises(ValueError):
        FamilyParams("gamma", 0)
    with pytest.raises(ValueError):
        FamilyParams("delta", 1)
    with pytest.raises(ValueError):
        FamilyParams("omega", 1, beta=3)
    p = FamilyParams("omega", 2, 1, beta="hb^2 + 1")
    assert p.beta == UniPoly.parse("hb^2 + 1")
    assert p.alpha == solve_omega_alpha(Q(2), Q(1), p.beta)


def test_labels_and_config_round_out():
    g = FamilyParams("gamma", 2, 1, -1)
    assert g.label() == "gamma(lam=2,a=1,b=-1)"
    o = FamilyParams("omega", 1, 3, beta="hb")
    assert "beta=hb" in o.label()
    cfg = o.config_dict()
    assert cfg["family"] == "omega" and "alpha" in cfg
