"""Command-line driver: verification suites, an action calculator, the
singular-vector scan, and the induced-realization checks.

Reports are emitted as versioned JSON (schema 1) on stdout or to
--out.  The payload depends only on the configuration (including the
rng seed), so identical invocations produce byte-identical files;
wall-clock timing goes to stderr only.  Exit status is 0 exactly when
no check FAILed or ERRORed, 2 for usage errors.

A size flag outside its range (``_SIZES``) is one ERROR record before
any work.  JobConfig is a plain class whose FIELDS are the flags a
suite reads, and it holds the one copy of each default: an untyped
flag stays out of the namespace (SUPPRESS), so ``singular`` and
``induced verify`` run as ``verify singular`` and ``verify induced``.
A negative fraction or list is typed as ``--lambda=-1/2``, else
argparse reads it as an option.  ``argparse`` is imported only by
``build_parser``, so a library ``import takiff`` pays for neither
dataclasses nor argparse.
"""

import json
import sys
import time

from .scalars import parse_scalar
from .poly import BiPoly, UniPoly, PolyParseError
from .algebra import GENERATORS
from .families import (FamilyParams, family_act, check_family_axioms,
                       check_omega_constraint)
from .verma import HighestWeight, build_hw_module, check_singular_levels
from .tensor import (KEY_FIELD, TensorModule, make_seeds,
                     certify_irreducible, check_invariant_subspace,
                     annihilator_check, whittaker_report, recover_report)
from .report import Report, ERROR

SUITES = ("axioms", "irreducible", "lemma51", "recover", "singular",
          "induced", "whittaker", "omega-constraint")


class JobConfig:
    """Everything a suite run depends on; scalars stay as text so the
    config echo in the report is exactly what was typed."""

    FIELDS = ("suite", "family", "lam", "a", "b", "beta", "eta", "theta",
              "depth", "seeds", "rng", "mu1", "mu2", "g", "r", "max_level",
              "out")

    def __init__(self, suite, family="gamma", lam="1", a="0", b="0",
                 beta="0", eta="0", theta="0", depth=6, seeds=10, rng=42,
                 mu1="-1,0,1", mu2="-1,0,1", g="h", r=2, max_level=6,
                 out=None):
        self.suite, self.family, self.lam, self.a, self.b = (
            suite, family, lam, a, b)
        self.beta, self.eta, self.theta = beta, eta, theta
        self.depth, self.seeds, self.rng = depth, seeds, rng
        self.mu1, self.mu2, self.g, self.r = mu1, mu2, g, r
        self.max_level, self.out = max_level, out


def _params(config):
    lam, a = parse_scalar(config.lam), parse_scalar(config.a)
    if config.family == "omega":
        return FamilyParams("omega", lam, a=a, beta=UniPoly.parse(config.beta))
    return FamilyParams(config.family, lam, a=a, b=parse_scalar(config.b))


def _weight(config):
    return HighestWeight(parse_scalar(config.eta), parse_scalar(config.theta))


def _module(config):
    return TensorModule(_params(config), build_hw_module(_weight(config)))


def _scalar_list(text):
    """The distinct scalars of a comma list, each at its first place."""
    return list(dict.fromkeys(
        parse_scalar(part) for part in text.split(",") if part.strip()))


def _depth_reach(config):
    """(r, step): the run at depth d has fields up to r * d, and one
    generator raises a field by up to step: 2 on gamma and theta (the
    hb^2 words of fb and eb), max(1, deg beta) on omega (f, and e through
    alpha, of beta's degree).  A closure or Whittaker window has r = 1.
    The induced suite reads phi of f^j fb^k h^q (x) hb^i, j + k, q, i <=
    d: level j + k, h-degree q + j at most, and each lowering letter adds
    to the hb-degree 2 on gamma (fb), 0 on theta and step on omega (f,
    fb); r is 1 plus that."""
    step = 2
    if config.family == "omega":
        step = max(1, UniPoly.parse(config.beta).deg() or 0)
    if config.suite != "induced":
        return 1, step
    return 1 + {"gamma": 2, "theta": 0}.get(config.family, step), step


# The low end of each size field, and the suites that read it.  Below
# it a suite would run on an empty window, seed list or scan and report
# a vacuous verdict.  Past the high end of depth, read off _depth_reach,
# a field of the run would pass KEY_FIELD, so it could not be packed.
_SIZES = (("depth", 0, ("irreducible", "induced", "whittaker")),
          ("seeds", 1, ("irreducible",)),
          ("r", 1, ("lemma51",)),
          ("max_level", 1, ("singular",)))


def _check_sizes(config):
    for name, low, suites in _SIZES:
        value = getattr(config, name)
        if config.suite not in suites:
            continue
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        if name == "depth":
            r, step = _depth_reach(config)
            if value > (high := (KEY_FIELD - step) // r):
                raise ValueError(f"{name} must be <= {high}, got {value}")


def _run_irreducible(config):
    mod = _module(config)
    seeds = make_seeds(mod, config.seeds, config.rng)
    report = certify_irreducible(mod, seeds, config.depth)
    report.config["rng"] = config.rng
    if mod.params.family == "omega" and mod.params.a == 0:
        report.extend(check_invariant_subspace(mod, config.depth))
    return report


def _run_induced(config):
    # imported here, so that no other suite loads takiff.induced
    from .induced import (borel_spec_for, check_borel_axioms,
                          borel_reducibility_check, check_phi)

    mod = _module(config)
    spec = borel_spec_for(mod)
    report = check_borel_axioms(spec)
    report.extend(borel_reducibility_check(spec, config.depth))
    phi = check_phi(mod, config.depth)
    report.extend(phi)
    report.suite = "induced"
    report.config = phi.config
    return report


def run_suite(config):
    """Execute one named suite; invalid parameters come back as a
    single ERROR record rather than a traceback."""
    try:
        _check_sizes(config)
        if config.suite == "axioms":
            return check_family_axioms(_params(config))
        if config.suite == "omega-constraint":
            return check_omega_constraint(parse_scalar(config.lam),
                                          parse_scalar(config.a),
                                          UniPoly.parse(config.beta))
        if config.suite == "irreducible":
            return _run_irreducible(config)
        if config.suite == "lemma51":
            return annihilator_check(_module(config),
                                     BiPoly.parse(config.g), config.r)
        if config.suite == "recover":
            return recover_report(_module(config))
        if config.suite == "singular":
            return check_singular_levels(_weight(config), config.max_level)
        if config.suite == "induced":
            return _run_induced(config)
        if config.suite == "whittaker":
            grid = [(m1, m2) for m1 in _scalar_list(config.mu1)
                    for m2 in _scalar_list(config.mu2)]
            if not grid:
                raise ValueError("the mu1 x mu2 grid is empty")
            return whittaker_report(_module(config), grid, config.depth)
    except (ValueError, PolyParseError, ZeroDivisionError) as exc:
        report = Report(suite=config.suite, config={"argv_error": str(exc)})
        report.add(f"{config.suite}/setup", ERROR, str(exc))
        return report
    report = Report(suite=config.suite)
    report.add(f"{config.suite}/setup", ERROR,
               f"unknown suite {config.suite!r}")
    return report


def act_eval(params, expr, target):
    """Apply a '*'-separated generator word; leftmost letter acts last."""
    word = []
    start = 0  # where the piece begins, just after its '*'
    for piece in expr.split("*"):
        name = piece.strip()
        if name not in GENERATORS:
            at = start + (piece.index(name) if name else 0)
            raise PolyParseError(f"parse error at symbol {name!r}", at)
        start += len(piece) + 1
        word.append(name)
    out = target
    for gen in reversed(word):
        out = family_act(gen, params, out)
    return out


def _emit(report, out_path, started):
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    counts = report.counts()
    summary = ", ".join(f"{counts[s]} {s}" for s in sorted(counts) if counts[s])
    print(f"suite {report.suite}: {summary} in {time.time() - started:.2f}s",
          file=sys.stderr)
    return 0 if report.ok else 1


def _add_family_flags(parser):
    parser.add_argument("--family", choices=("gamma", "theta", "omega"))
    parser.add_argument("--lambda", dest="lam",
                        metavar="Q", help="nonzero scalar lambda")
    parser.add_argument("--a", metavar="Q")
    parser.add_argument("--b", metavar="Q", help="gamma/theta scalar b")
    parser.add_argument("--beta", metavar="POLY",
                        help="omega polynomial beta(hb)")


def _add_suite_flags(parser):
    _add_family_flags(parser)
    parser.add_argument("--eta", metavar="Q")
    parser.add_argument("--theta", metavar="Q")
    parser.add_argument("--depth", type=int)
    parser.add_argument("--seeds", type=int)
    parser.add_argument("--rng", type=int)
    parser.add_argument("--mu1", metavar="LIST",
                        help="comma-separated mu1 grid values")
    parser.add_argument("--mu2", metavar="LIST",
                        help="comma-separated mu2 grid values")
    parser.add_argument("--g", metavar="POLY",
                        help="polynomial probe for the annihilator suite")
    parser.add_argument("--r", type=int,
                        help="binomial order for the annihilator suite")
    parser.add_argument("--max-level", dest="max_level", type=int)
    parser.add_argument("--out", help="report file path")


def build_parser():
    import argparse  # here, so that import takiff does not load it

    ap = argparse.ArgumentParser(
        prog="takiff",
        description="exact verification suites for the polynomial modules",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    untyped = argparse.SUPPRESS

    pv = sub.add_parser("verify", help="run a verification suite",
                        argument_default=untyped)
    pv.add_argument("suite", choices=SUITES)
    _add_suite_flags(pv)

    pa = sub.add_parser("act", help="apply a generator word to a polynomial",
                        argument_default=untyped)
    _add_family_flags(pa)
    pa.add_argument("--expr", required=True,
                    help="word in e,f,h,eb,fb,hb joined by '*'")
    pa.add_argument("--target", default="1", metavar="POLY")

    ps = sub.add_parser("singular",
                        help="scan a Verma module for singular vectors",
                        argument_default=untyped)
    ps.add_argument("--eta", metavar="Q")
    ps.add_argument("--theta", metavar="Q")
    ps.add_argument("--max-level", dest="max_level", type=int)
    ps.add_argument("--out")

    pi = sub.add_parser("induced", help="induced-realization checks")
    pisub = pi.add_subparsers(dest="action", required=True)
    _add_suite_flags(pisub.add_parser("verify", argument_default=untyped))

    return ap


def main(argv=None):
    flags = vars(build_parser().parse_args(argv))
    started = time.time()
    command = flags.pop("command")
    flags.pop("action", None)

    if command == "act":
        expr, target = flags.pop("expr"), flags.pop("target")
        try:
            result = act_eval(_params(JobConfig("act", **flags)), expr,
                              BiPoly.parse(target))
        except (ValueError, PolyParseError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.text())
        return 0

    config = JobConfig(flags.pop("suite", command), **flags)
    return _emit(run_suite(config), config.out, started)


if __name__ == "__main__":
    sys.exit(main())
