"""End-to-end acceptance gate.

One test per headline capability, run at the instantiation sizes the
package promises to handle, with wall-clock budgets asserted next to
the mathematics.  Run with -v to get one pass/fail line per criterion.

Criterion 6 pins the top-line probe of the shift family at its proven
value, zero.  On the tensor product eb acts as eb (x) 1 + 1 (x) eb; the
two summands commute and 1 (x) eb kills the highest-weight vector v, so
eb^i (g (x) v) = (eb^i g) (x) v and w^(r).(g (x) v) = (w^(r).g) (x) v,
which is zero by part (i) whenever r > deg_h g.  The probe based at
g (x) f v, and the theta and omega top-line probes, are nonzero.
"""

import json
import random
import time

from takiff import (FAIL, INCONCLUSIVE, PASS, BiPoly, BorelSpec, FamilyParams,
                    HighestWeight, JobConfig, Q, TensorElement, TensorModule,
                    UniPoly, annihilator_check, borel_reducibility_check,
                    build_hw_module, build_verma_module, certify_irreducible,
                    check_borel_axioms, check_family_axioms,
                    check_invariant_subspace, check_phi, closure_search,
                    eq1_alpha, make_seeds, recover_parameters, recover_report,
                    run_suite, singular_vectors, solve_omega_alpha,
                    vandermonde_reduce, verma_reducible_predicate,
                    whittaker_report)
from takiff.algebra import annihilator_element
from takiff.tensor import uea_to_family_operator
from takiff.verma import verma_act


def _random_params(rng, family):
    lam = Q(rng.randrange(1, 7)) * rng.choice([-1, 1])
    a = Q(rng.randrange(-5, 6))
    if family == "omega":
        beta = UniPoly.zero()
        for _ in range(rng.randrange(0, 4)):
            beta = beta + UniPoly.monomial(Q(rng.randrange(-4, 5)),
                                           rng.randrange(4))
        return FamilyParams(family, lam, a, beta=beta)
    return FamilyParams(family, lam, a, Q(rng.randrange(-5, 6)))


def _random_tensor(mod, rng, deg=3, level=2):
    idxs = mod.hw.basis_through_level(level)
    x = TensorElement({})
    while x.is_zero():
        for _ in range(rng.randrange(1, 4)):
            idx = idxs[rng.randrange(len(idxs))]
            p = BiPoly.monomial(Q(rng.randrange(-4, 5)),
                                rng.randrange(deg + 1), rng.randrange(deg + 1))
            x = x + TensorElement({idx: p})
    return x


def test_criterion_01_module_axioms_across_parameter_grids():
    """All fifteen bracket identities hold for 20 random tuples per family."""
    start = time.time()
    rng = random.Random(2025)
    for family in ("gamma", "theta", "omega"):
        for _ in range(20):
            params = _random_params(rng, family)
            rep = check_family_axioms(params)
            assert rep.ok, f"{params.label()}\n{rep.render_text()}"
            assert len(rep.checks) == 15
    assert time.time() - start < 5.0


def test_criterion_02_alpha_beta_constraint_solved_and_sharp():
    """The solved alpha matches the triangular matrix form on 50 random
    inputs, and any perturbation of it breaks the [e,f] = h bracket."""
    start = time.time()
    rng = random.Random(2026)
    for _ in range(50):
        lam = Q(rng.randrange(1, 8)) * rng.choice([-1, 1])
        a = Q(rng.randrange(-6, 7))
        beta = UniPoly.zero()
        for _ in range(rng.randrange(1, 6)):
            beta = beta + UniPoly.monomial(Q(rng.randrange(-5, 6)),
                                           rng.randrange(6))
        alpha = solve_omega_alpha(lam, a, beta)
        assert alpha == eq1_alpha(lam, a, beta)
        good = FamilyParams("omega", lam, a, beta=beta, alpha=alpha)
        assert check_family_axioms(good).ok
        bad = FamilyParams("omega", lam, a, beta=beta,
                           alpha=alpha + UniPoly.monomial(1, rng.randrange(3)))
        broken = check_family_axioms(bad)
        fails = [c.id for c in broken.checks if c.status == FAIL]
        assert any(i.startswith("bracket[e,f]") for i in fails)
    assert time.time() - start < 5.0


def test_criterion_03_pump_reduction_extracts_h_free_members():
    """100 random elements reduce to nonzero h-free submodule members,
    each certified by replaying the returned combination."""
    start = time.time()
    rng = random.Random(2027)
    mods = [
        TensorModule(FamilyParams("gamma", 2, 1, -1),
                     build_verma_module(HighestWeight(Q(1), Q(2)))),
        TensorModule(FamilyParams("gamma", 3, 0, 1),
                     build_hw_module(HighestWeight(Q(0), Q(2)))),
    ]
    for n in range(100):
        mod = mods[n % 2]
        x = _random_tensor(mod, rng, deg=3)
        red = vandermonde_reduce(mod, x)
        assert not red.element.is_zero()
        assert red.element.h_degree() == 0
        assert mod.act_uea(red.combo, x) == red.element
    assert time.time() - start < 10.0


def test_criterion_04_irreducibility_certificates_at_scale():
    """Ten seeds per module over fifteen family/weight combinations all
    reach 1 (x) v; the known reducible point is never certified and its
    invariant subspace is verified exactly."""
    start = time.time()
    hws = [build_hw_module(HighestWeight(Q(1), Q(3)))] + [
        build_hw_module(HighestWeight(Q(0), Q(t))) for t in range(4)]
    fams = [FamilyParams("gamma", 2, 1, -1),
            FamilyParams("theta", 3, -2, 5),
            FamilyParams("omega", 1, 3, beta="hb")]
    for params in fams:
        for hw in hws:
            mod = TensorModule(params, hw)
            rep = certify_irreducible(mod, make_seeds(mod, 10, rng_seed=42), 8)
            assert rep.ok and all(c.status == PASS for c in rep.checks), \
                rep.render_text()
    red = TensorModule(FamilyParams("omega", 1, 0, beta=UniPoly.zero()),
                       build_hw_module(HighestWeight(Q(1), Q(1))))
    assert check_invariant_subspace(red, 6).ok
    for seed in (red.pure("hb"), red.pure("h*hb"),
                 TensorElement({(0, 1): BiPoly.parse("hb^2")})):
        found, span, _ = closure_search(red, seed, 4)
        assert not found
        for row in span.rows:
            assert all(red.unpack(key)[2] >= 1 for key in row)
    assert time.time() - start < 60.0


def test_criterion_05_parameters_recovered_exactly_and_distinctly():
    """Probe actions on 1 (x) v read back every construction parameter,
    and distinct inputs always land on distinct recoveries."""
    start = time.time()
    rng = random.Random(2029)
    inputs, outputs = set(), set()
    for family in ("gamma", "theta", "omega"):
        for _ in range(30):
            params = _random_params(rng, family)
            eta = Q(rng.randrange(1, 5))
            theta = Q(rng.randrange(-3, 4))
            mod = TensorModule(params,
                               build_verma_module(HighestWeight(eta, theta)))
            rec = recover_parameters(mod)
            assert rec.family == params.family
            assert rec.lam == params.lam and rec.a == params.a
            assert rec.eta == eta and rec.theta == theta
            if family == "omega":
                assert rec.beta == params.beta
            else:
                assert rec.b == params.b
            assert recover_report(mod).ok
            inputs.add((params.label(), str(eta), str(theta)))
            outputs.add(rec.as_tuple())
    assert len(outputs) == len(inputs)
    assert time.time() - start < 5.0


def test_criterion_06_binomial_annihilators():
    """The binomial operators kill the first factor for every family and
    reach the second factor exactly where the algebra says they can.

    The theta and omega probes at g (x) v are nonzero.  For the shift
    family the probe at g (x) v is exactly zero: eb acts on the tensor
    product as eb (x) 1 + 1 (x) eb, the two summands commute and
    1 (x) eb kills v, so eb^i (g (x) v) = (eb^i g) (x) v and
    w^(r).(g (x) v) = (w^(r).g) (x) v, which part (i) makes zero.  The
    final assertion pins that value and replays it through the
    independent operator route; the probe based one rung down, at
    g (x) f v, is the nonzero witness that the operator reaches the
    second factor."""
    start = time.time()
    rng = random.Random(2030)
    fams = {
        "gamma": [FamilyParams("gamma", Q(rng.randrange(1, 7)),
                               Q(rng.randrange(-4, 5)), Q(rng.randrange(-4, 5)))
                  for _ in range(10)],
        "theta": [FamilyParams("theta", Q(rng.randrange(1, 7)),
                               Q(rng.randrange(-4, 5)), Q(rng.randrange(-4, 5)))
                  for _ in range(10)],
        "omega": [FamilyParams("omega", Q(rng.randrange(1, 7)),
                               Q(rng.randrange(1, 6)),
                               beta=UniPoly.monomial(Q(rng.randrange(-3, 4)),
                                                     rng.randrange(3)))
                  for _ in range(10)],
    }
    # (i) w^(r) annihilates the first factor whenever r > deg_h(g)
    for family, tuples in fams.items():
        for params in tuples:
            r = rng.randrange(1, 7)
            g = BiPoly.monomial(1, rng.randrange(r), rng.randrange(3))
            w = annihilator_element(family, r, params.lam, params.a)
            assert uea_to_family_operator(w, params).apply(g).is_zero(), \
                (params.label(), r, g.text())

    # (ii) the probe at the top line is nonzero for the two families
    # whose barred raising genuinely mixes the factors
    theta_mod = TensorModule(FamilyParams("theta", 2, 1, 1),
                             build_verma_module(HighestWeight(Q(1), Q(0))))
    rep = annihilator_check(theta_mod, BiPoly.const(1), 1)
    probe = next(c for c in rep.checks
                 if c.id.startswith("annihilator/tensor-probe[r"))
    assert probe.status == PASS, probe.witness

    omega_mod = TensorModule(FamilyParams("omega", 1, 3, beta="hb"),
                             build_verma_module(HighestWeight(Q(1), Q(0))))
    rep = annihilator_check(omega_mod, BiPoly.var_h(), 2)
    assert next(c for c in rep.checks
                if c.id.startswith("annihilator/kills-V")).status == PASS
    probe = next(c for c in rep.checks
                 if c.id.startswith("annihilator/tensor-probe[r"))
    assert probe.status == PASS, probe.witness

    gamma_mod = TensorModule(FamilyParams("gamma", 2, 1, -1),
                             build_verma_module(HighestWeight(Q(1), Q(0))))
    rep = annihilator_check(gamma_mod, BiPoly.var_h(), 2)
    fv = next(c for c in rep.checks if "tensor-probe-at-fv" in c.id)
    assert fv.status == PASS, fv.witness
    probe = next(c for c in rep.checks
                 if c.id.startswith("annihilator/tensor-probe[r"))
    assert time.time() - start < 10.0
    # coproduct: w^(2).(h (x) v) = (w^(2).h) (x) v, and w^(2).h = 0 by (i)
    assert probe.status == FAIL, probe.witness
    assert probe.witness == "w^(2).(g (x) v) = 0"
    params = gamma_mod.params
    g = BiPoly.var_h()
    w = annihilator_element("gamma", 2, params.lam, params.a)
    value = gamma_mod.act_uea(w, gamma_mod.pure(g))
    assert value.is_zero(), value.text()
    assert value == gamma_mod.pure(uea_to_family_operator(w, params).apply(g))


def test_criterion_07_no_whittaker_vectors_on_the_grid():
    """Exact window solves find no simultaneous eigenvectors anywhere on
    the 3x3 eigenvalue grid for fifteen representative modules."""
    start = time.time()
    grid = [(m1, m2) for m1 in (-1, 0, 1) for m2 in (-1, 0, 1)]
    combos = [
        ("gamma", dict(lam=2, a=1, b=-1), (1, 3)),
        ("gamma", dict(lam=2), (0, 0)),
        ("gamma", dict(lam=3, a=1), (0, 1)),
        ("gamma", dict(lam=2, a=-1, b=2), (0, 2)),
        ("gamma", dict(lam=3, a=2, b=1), (0, 3)),
        ("theta", dict(lam=3, a=-2, b=5), (1, 3)),
        ("theta", dict(lam=1, a=1), (0, 0)),
        ("theta", dict(lam=2, a=1, b=1), (0, 1)),
        ("theta", dict(lam=1, a=-1, b=2), (0, 2)),
        ("theta", dict(lam=2, a=3, b=-1), (0, 3)),
        ("omega", dict(lam=1, a=3, beta="hb"), (1, 3)),
        ("omega", dict(lam=1, a=2, beta="2 + hb"), (0, 0)),
        ("omega", dict(lam=2, a=1, beta="hb^2"), (0, 1)),
        ("omega", dict(lam=1, a=-1, beta="1"), (0, 2)),
        ("omega", dict(lam=2, beta="0"), (0, 3)),
    ]
    for family, kw, (eta, theta) in combos:
        params = FamilyParams(family, **kw)
        mod = TensorModule(params,
                           build_hw_module(HighestWeight(Q(eta), Q(theta))))
        rep = whittaker_report(mod, grid, 6)
        assert rep.ok, rep.render_text()
        assert len(rep.checks) == 9
        assert all(c.status == PASS for c in rep.checks)
    assert time.time() - start < 30.0


def test_criterion_08_singular_scan_matches_the_predicate():
    """Brute-force singular vectors through level six agree with the
    closed-form reducibility predicate across a 6x6 weight grid."""
    start = time.time()
    for eta in range(-2, 4):
        for theta in range(-2, 4):
            hw = HighestWeight(Q(eta), Q(theta))
            found = []
            for level in range(1, 7):
                found.extend(singular_vectors(hw, level))
            assert bool(found) == verma_reducible_predicate(hw), (eta, theta)
            for v in found:
                assert verma_act("e", hw, v).is_zero()
                assert verma_act("eb", hw, v).is_zero()
    texts = sorted(v.text() for v in singular_vectors(HighestWeight(Q(0), Q(0)), 1))
    assert texts == ["f v", "fb v"]
    assert time.time() - start < 10.0


def test_criterion_09_triangular_lift_and_rank_one_structure():
    """The lift from the induced picture balances the rank-one action,
    commutes with every replayable generator, and has a unitriangular
    window matrix; the rank-one modules split simple/non-simple as the
    subalgebra shape dictates."""
    start = time.time()
    gammas = [(2, 0, 0, (1, 1)), (3, 1, -1, (1, 3)), (1, -2, 3, (2, 1)),
              (2, 5, 2, (1, 0)), (3, 2, 7, (3, 2))]
    for lam, a, b, (eta, theta) in gammas:
        mod = TensorModule(FamilyParams("gamma", lam, a, b),
                           build_verma_module(HighestWeight(Q(eta), Q(theta))))
        rep = check_phi(mod, 5)
        assert rep.ok, rep.render_text()
        assert not any(c.status == INCONCLUSIVE for c in rep.checks)
    for params, (eta, theta) in ((FamilyParams("theta", 1, 1, 0), (1, 2)),
                                 (FamilyParams("omega", 1, 3, beta="hb"), (1, 3))):
        mod = TensorModule(params,
                           build_verma_module(HighestWeight(Q(eta), Q(theta))))
        rep = check_phi(mod, 5)
        assert rep.ok, rep.render_text()
        tri = next(c for c in rep.checks if c.id.startswith("phi-unitriangular"))
        assert tri.status == PASS
        assert any(c.status == INCONCLUSIVE for c in rep.checks)
    assert borel_reducibility_check(BorelSpec("gamma", 2, eta=1), 6).ok
    for spec in (BorelSpec("theta", 1, 1), BorelSpec("omega", 2, 1)):
        rep = borel_reducibility_check(spec, 6)
        assert rep.ok
        assert any("ideal-invariant" in c.id for c in rep.checks)
    for spec in (BorelSpec("gamma", 2, eta=1), BorelSpec("theta", 1, 3),
                 BorelSpec("omega", 1, -2, eta=1)):
        assert check_borel_axioms(spec).ok
    assert time.time() - start < 30.0


def test_criterion_10_reports_are_deterministic():
    """Re-running every suite with the same configuration produces
    byte-identical JSON payloads."""
    start = time.time()
    configs = [
        JobConfig(suite="axioms", family="omega", lam="2", a="1",
                  beta="hb^2 + 1"),
        JobConfig(suite="omega-constraint", lam="3", a="-1", beta="hb^3 - 2"),
        JobConfig(suite="irreducible", family="gamma", lam="2", a="1", b="-1",
                  eta="1", theta="0", depth=5, seeds=5, rng=42),
        JobConfig(suite="recover", family="theta", lam="3", a="-2", b="5",
                  eta="1", theta="2"),
        JobConfig(suite="singular", eta="0", theta="2", max_level=4),
        JobConfig(suite="whittaker", family="theta", lam="2", a="1", b="1",
                  eta="0", theta="2", depth=4, mu1="-1,0,1", mu2="-1,0,1"),
        JobConfig(suite="lemma51", family="theta", lam="2", a="1", b="1",
                  eta="1", theta="0", g="1", r=1),
        JobConfig(suite="induced", family="gamma", lam="1", eta="1",
                  theta="0", depth=3),
    ]
    for cfg in configs:
        first = json.dumps(run_suite(cfg).to_dict(), indent=2, sort_keys=True)
        second = json.dumps(run_suite(cfg).to_dict(), indent=2, sort_keys=True)
        assert first == second, cfg.suite
    assert time.time() - start < 30.0
