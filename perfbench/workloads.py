"""Workload catalogues, seeded job streams and the job runner.

Every workload draws its reports from a finite catalogue: the cross
product of small parameter grids, thinned by a fixed catalogue seed.
The catalogue never depends on the run seed, so the expectation files
under ``expected/`` cover every report any seed can produce.  The run
seed draws a fixed share of each cell of each stratum (see
``catalogue``) and shuffles the draws into the run's job list.

A job is a plain JSON-able dict.  ``suite == "pump"`` marks a library
``vandermonde_reduce`` call; every other job is the keyword set of a
``takiff.JobConfig`` and runs through ``takiff.run_suite``, the path the
CLI takes.  Nothing here imports takiff: the runner receives the
module, so the cold set-up probe can time ``import takiff`` itself.
"""

import hashlib
import itertools
import json
import random

WORKLOADS = ("closure", "whittaker", "induced", "suites")
DEFAULT_SEED = 1
# Fixed forever: changing it changes every catalogue and invalidates
# the expectation files.
CATALOGUE_SEED = 2602

LAMS = ("1", "2", "3", "-1", "-2", "1/2")
AS = ("-2", "-1", "0", "1", "2", "3")
BS = ("-2", "-1", "0", "1", "5")
OMEGA_LAMS = ("1", "2", "-1", "1/2")
OMEGA_AS = ("-1", "1", "2", "3")
BETAS = ("0", "1", "hb", "2 + hb", "hb^2")
FINDIM = tuple(("0", str(t)) for t in range(4))
VERMA = tuple((e, t) for e in ("1", "2", "-1", "1/2") for t in ("0", "1", "3", "-1"))

_ANCHOR_MODULE = {"family": "gamma", "lam": "2", "a": "1", "b": "-1",
                  "eta": "1", "theta": "3"}
# The first report of every stream, fixed across seeds so that set-up
# time compares like with like.  Each has a Verma factor, so set-up
# includes the singular-vector certificate scan.
ANCHORS = {
    "closure": dict(_ANCHOR_MODULE, suite="irreducible", depth=2, seeds=3),
    "whittaker": dict(_ANCHOR_MODULE, suite="whittaker", depth=2,
                      mu1="0", mu2="-1,1"),
    "induced": dict(_ANCHOR_MODULE, suite="induced", depth=1),
    "suites": dict(_ANCHOR_MODULE, suite="lemma51", theta="0", g="h", r=2),
}


def _families(omega_as=OMEGA_AS):
    """Every family parameter set of the grids, as JobConfig keywords."""
    out = []
    for fam in ("gamma", "theta"):
        for lam, a, b in itertools.product(LAMS, AS, BS):
            out.append({"family": fam, "lam": lam, "a": a, "b": b})
    for lam, a, beta in itertools.product(OMEGA_LAMS, omega_as, BETAS):
        out.append({"family": "omega", "lam": lam, "a": a, "beta": beta})
    return out


def _sample(rng, items, count):
    items = list(items)
    return items if count >= len(items) else rng.sample(items, count)


def _modules(rng, count, factors, families=None):
    """count (family parameters, second factor) pairs, spread evenly
    over the three families and over the given second factors."""
    families = families or _families()
    by_family = {}
    for params in families:
        by_family.setdefault(params["family"], []).append(params)
    out = []
    for n in range(count):
        fam = sorted(by_family)[n % len(by_family)]
        eta, theta = factors[(n // len(by_family)) % len(factors)]
        params = rng.choice(by_family[fam])
        out.append({**params, "eta": eta, "theta": theta})
    return out


def _closure(rng):
    hit_f = [dict(m, suite="irreducible", depth=5, seeds=3)
             for m in _modules(rng, 96, FINDIM)]
    hit_v = [dict(m, suite="irreducible", depth=2, seeds=3)
             for m in _modules(rng, 16, VERMA)]
    reducible = [{"family": "omega", "lam": lam, "a": "0", "beta": beta}
                 for lam, beta in itertools.product(OMEGA_LAMS, BETAS)]
    miss = [dict(m, suite="irreducible", depth=3, seeds=3)
            for m in _modules(rng, 12, FINDIM[1:3], reducible)]
    return {"hit-L": (hit_f, 3 / 8), "hit-verma": (hit_v, 1), "miss": (miss, 1)}


def _grid(rng, n1, n2):
    """An n1 x n2 grid of (mu1, mu2) values."""
    values = ("-1", "0", "1", "2")
    mu1, mu2 = sorted(rng.sample(values, n1)), sorted(rng.sample(values, n2))
    return {"mu1": ",".join(mu1), "mu2": ",".join(mu2)}


def _whittaker(rng):
    def grid():
        return _grid(rng, *rng.choice([(1, 2), (2, 1)]))

    findim = [dict(m, suite="whittaker", depth=3, **grid())
              for m in _modules(rng, 48, FINDIM)]
    verma = [dict(m, suite="whittaker", depth=2, **grid())
             for m in _modules(rng, 12, VERMA)]
    # Both run in full: the Whittaker costs spread inside a cell enough
    # that drawing half of each cell moved the median by a tenth.
    return {"findim": (findim, 1), "verma": (verma, 1)}


def _induced(rng):
    fams = _families(("0",) + OMEGA_AS)
    strata = {}
    for family in ("gamma", "theta", "omega"):
        own = [p for p in fams if p["family"] == family]
        strata[family] = ([dict(m, suite="induced", depth=1)
                           for m in _modules(rng, 32, VERMA, own)], 1 / 2)
    return strata


def _pump_element(rng, factor):
    """One to three distinct monomials times basis vectors, each with a
    positive h-power (criterion 03's shape)."""
    eta, theta = factor
    idxs = ([[i, lvl - i] for lvl in range(3) for i in range(lvl + 1)]
            if eta != "0" else list(range(min(int(theta), 2) + 1)))
    monos = [[idx, i, j] for idx in idxs for i in (1, 2, 3) for j in range(4)]
    return [m + [rng.choice([-3, -2, -1, 1, 2, 3])]
            for m in rng.sample(monos, rng.randrange(1, 4))]


def _suites(rng):
    fams = _families()
    strata = {}
    strata["axioms"] = [dict(params, suite="axioms")
                        for params in _sample(rng, fams, 48)]
    strata["omega-constraint"] = [
        {"suite": "omega-constraint", "lam": lam, "a": a, "beta": beta}
        for lam, a, beta in _sample(rng, list(itertools.product(
            OMEGA_LAMS, AS, BETAS + ("hb^3 - 2",))), 24)]
    strata["recover"] = [dict(m, suite="recover")
                         for m in _modules(rng, 48, FINDIM + VERMA)]
    strata["singular"] = [{"suite": "singular", "eta": eta, "theta": theta,
                           "max_level": rng.choice([3, 4])}
                          for eta, theta in _sample(rng, VERMA + FINDIM, 20)]
    nonzero_a = [p for p in fams if p["family"] != "omega" or p["a"] != "0"]
    strata["lemma51"] = []
    for m in _modules(rng, 48, FINDIM + VERMA, nonzero_a):
        g, r = rng.choice([("1", 1), ("h", 2), ("hb", 1), ("h*hb", 2)])
        strata["lemma51"].append(dict(m, suite="lemma51", g=g, r=r))
    strata["irreducible"] = [dict(m, suite="irreducible", depth=3, seeds=3)
                             for m in _modules(rng, 24, FINDIM[1:], nonzero_a)]
    strata["whittaker"] = [dict(m, suite="whittaker", depth=2, mu1="0",
                                mu2=rng.choice(["-1,1", "0,2"]))
                           for m in _modules(rng, 24, FINDIM[1:3])]
    gammas = [p for p in fams if p["family"] == "gamma"]
    strata["pump"] = []
    for m in _modules(rng, 48, FINDIM[1:] + VERMA[:4], gammas):
        factor = (m["eta"], m["theta"])
        strata["pump"].append(
            dict(m, suite="pump", element=_pump_element(rng, factor)))
    # The cheap suites are drawn from; the ones whose costs spread widely
    # (and hold the tail) run in full.
    wide = ("irreducible", "whittaker", "pump")
    return {name: (jobs, 1 if name in wide else 2 / 3)
            for name, jobs in strata.items()}


_CATALOGUES = {"closure": _closure, "whittaker": _whittaker,
             "induced": _induced, "suites": _suites}


def catalogue(workload):
    """{stratum: (distinct jobs, share)}: the workload's whole input
    space, and the share of each of the stratum's cells one run draws.

    A cell holds the jobs of one suite, family and second factor
    (L(0, theta) by theta, Verma factors together), whose costs are
    close.  Drawing a fixed share of every cell keeps the run's cost
    profile, and so its median and tail, the same from seed to seed.
    A stratum whose costs spread widely within a cell (closure's Verma
    hits and misses, the Verma Whittaker grids, the heavier suites)
    runs in full every time, so it adds no seed-to-seed variation.
    """
    strata = _CATALOGUES[workload](random.Random(f"{CATALOGUE_SEED}/{workload}"))
    return {name: (list({job_key(j): j for j in jobs}.values()), share)
            for name, (jobs, share) in strata.items()}


def cell(job):
    """The cost class of a job: suite, family and second factor."""
    eta, theta = job.get("eta", "0"), job.get("theta", "-")
    return (job["suite"], job.get("family", "-"),
            "verma" if eta != "0" else f"L{theta}")


def job_list(workload, seed):
    """The run's jobs: the anchor, then a seeded draw of each cell's
    share (at least one job), shuffled together."""
    rng = random.Random(f"{seed}/{workload}")
    jobs = []
    for _, (entries, share) in sorted(catalogue(workload).items()):
        cells = {}
        for job in entries:
            cells.setdefault(cell(job), []).append(job)
        for _, members in sorted(cells.items()):
            jobs += rng.sample(members, max(1, round(share * len(members))))
    rng.shuffle(jobs)
    return [ANCHORS[workload]] + jobs


def job_key(job):
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def digest(payload):
    return hashlib.sha256(payload.encode()).hexdigest()


def run_job(takiff, job):
    """Run one report; returns (canonical JSON text, [(id, status)])."""
    if job["suite"] == "pump":
        report = _pump(takiff, job)
    else:
        report = takiff.run_suite(takiff.JobConfig(**job))
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    return payload, [(c.id, c.status) for c in report.checks]


def _pump(takiff, job):
    """vandermonde_reduce plus the replay act_uea(combo, x) == element."""
    Q = takiff.Q
    params = takiff.FamilyParams("gamma", Q(job["lam"]), a=Q(job["a"]),
                                 b=Q(job["b"]))
    hw = takiff.build_hw_module(takiff.HighestWeight(Q(job["eta"]),
                                                     Q(job["theta"])))
    mod = takiff.TensorModule(params, hw)
    x = mod.zero()
    for idx, i, j, c in job["element"]:
        idx = tuple(idx) if isinstance(idx, list) else idx
        x = x + takiff.TensorElement({idx: takiff.BiPoly.monomial(c, i, j)})
    red = takiff.vandermonde_reduce(mod, x)
    report = takiff.Report(suite="pump", config={"module": mod.label(),
                                                 "element": x.text()})
    replayed = mod.act_uea(red.combo, x) == red.element
    report.add(f"pump/replay/{mod.label()}",
               takiff.PASS if replayed else takiff.FAIL,
               f"combo {red.combo.text()} gives {red.element.text()}")
    h_free = red.element.h_degree() == 0
    report.add(f"pump/h-free/{mod.label()}",
               takiff.PASS if h_free else takiff.FAIL,
               f"h-degree {red.element.h_degree()}")
    return report
