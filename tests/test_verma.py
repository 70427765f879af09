"""Highest-weight modules: the infinite tower, its finite quotients, and
the singular-vector scan that decides between them."""

import random

import pytest

from takiff import (HighestWeight, Q, VermaElement, build_hw_module,
                    build_verma_module, check_singular_levels,
                    singular_vectors, verma_reducible_predicate)
from takiff.verma import annihilation_index, verma_act


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


def test_annihilation_index_terminates_on_raising():
    hw = HighestWeight(Q(1), Q(2))
    x = VermaElement.basis(2, 1)
    n = annihilation_index("eb", hw, x)
    assert n >= 1
    cur = x
    for _ in range(n):
        cur = verma_act("eb", hw, cur)
    assert cur.is_zero()
    with pytest.raises(ValueError):
        annihilation_index("f", hw, x, bound=5)


def test_level_scan_report():
    rep = check_singular_levels(HighestWeight(Q(0), Q(0)), 3)
    assert rep.ok
    assert rep.checks[-1].id == "singular/predicate-agrees-with-scan"


def test_certificates_record_the_scan():
    m = build_verma_module(HighestWeight(Q(0), Q(0)), scan_depth=2)
    assert "singular" in m.certificate
    m2 = build_hw_module(HighestWeight(Q(2), Q(1)))
    assert "level 6" in m2.certificate
