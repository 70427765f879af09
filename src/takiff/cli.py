"""Command-line driver: verification suites, an action calculator, the
singular-vector scan, and the induced-realization checks.

Reports are emitted as versioned JSON (schema 1) on stdout or to
--out.  The payload depends only on the configuration (including the
rng seed), so identical invocations produce byte-identical files;
wall-clock timing goes to stderr only.  Exit status is 0 exactly when
no check FAILed or ERRORed, 2 for usage errors.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .scalars import Q
from .poly import BiPoly, UniPoly, PolyParseError
from .algebra import GENERATORS
from .families import (FamilyParams, family_act, check_family_axioms,
                       check_omega_constraint)
from .verma import HighestWeight, build_hw_module, check_singular_levels
from .tensor import (TensorModule, make_seeds, certify_irreducible,
                     check_invariant_subspace, annihilator_check,
                     whittaker_report, recover_report)
from .induced import (borel_spec_for, check_borel_axioms,
                      borel_reducibility_check, check_phi)
from .report import Report, ERROR

SUITES = ("axioms", "irreducible", "lemma51", "recover", "singular",
          "induced", "whittaker", "omega-constraint")


@dataclass
class JobConfig:
    """Everything a suite run depends on; scalars stay as text so the
    config echo in the report is exactly what was typed."""

    suite: str
    family: str = "gamma"
    lam: str = "1"
    a: str = "0"
    b: str = "0"
    beta: str = "0"
    eta: str = "0"
    theta: str = "0"
    depth: int = 6
    seeds: int = 10
    rng: int = 42
    mu1: str = "-1,0,1"
    mu2: str = "-1,0,1"
    g: str = "h"
    r: int = 2
    max_level: int = 6
    out: str = None


def _params(config):
    if config.family == "omega":
        return FamilyParams("omega", Q(config.lam), a=Q(config.a),
                            beta=UniPoly.parse(config.beta))
    return FamilyParams(config.family, Q(config.lam), a=Q(config.a),
                        b=Q(config.b))


def _module(config):
    hw = HighestWeight(Q(config.eta), Q(config.theta))
    return TensorModule(_params(config), build_hw_module(hw))


def _scalar_list(text):
    return [Q(part.strip()) for part in text.split(",") if part.strip()]


# The smallest meaningful value of each size field, and the suites that
# read it: below it a suite would run on an empty window, seed list or
# scan and report a vacuous verdict.
_MINIMUMS = (("depth", 0, ("irreducible", "induced", "whittaker")),
             ("seeds", 1, ("irreducible",)),
             ("r", 1, ("lemma51",)),
             ("max_level", 1, ("singular",)))


def _check_sizes(config):
    for name, low, suites in _MINIMUMS:
        value = getattr(config, name)
        if config.suite in suites and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def _run_irreducible(config):
    mod = _module(config)
    seeds = make_seeds(mod, config.seeds, config.rng)
    report = certify_irreducible(mod, seeds, config.depth)
    report.config["rng"] = config.rng
    if mod.params.family == "omega" and mod.params.a == 0:
        report.extend(check_invariant_subspace(mod, config.depth))
    return report


def _run_induced(config):
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
            return check_omega_constraint(Q(config.lam), Q(config.a),
                                          UniPoly.parse(config.beta))
        if config.suite == "irreducible":
            return _run_irreducible(config)
        if config.suite == "lemma51":
            return annihilator_check(_module(config),
                                     BiPoly.parse(config.g), config.r)
        if config.suite == "recover":
            return recover_report(_module(config))
        if config.suite == "singular":
            hw = HighestWeight(Q(config.eta), Q(config.theta))
            return check_singular_levels(hw, config.max_level)
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
    pos = 0
    for piece in expr.split("*"):
        name = piece.strip()
        if name not in GENERATORS:
            at = expr.index(piece, pos)
            raise PolyParseError(f"parse error at symbol {name!r}", at)
        pos = expr.index(piece, pos) + len(piece)
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
    parser.add_argument("--family", choices=("gamma", "theta", "omega"),
                        default="gamma")
    parser.add_argument("--lambda", dest="lam", default="1",
                        metavar="Q", help="nonzero scalar lambda")
    parser.add_argument("--a", default="0", metavar="Q")
    parser.add_argument("--b", default="0", metavar="Q",
                        help="gamma/theta scalar b")
    parser.add_argument("--beta", default="0", metavar="POLY",
                        help="omega polynomial beta(hb)")


def _add_suite_flags(parser):
    _add_family_flags(parser)
    parser.add_argument("--eta", default="0", metavar="Q")
    parser.add_argument("--theta", default="0", metavar="Q")
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--rng", type=int, default=42)
    parser.add_argument("--mu1", default="-1,0,1", metavar="LIST",
                        help="comma-separated mu1 grid values")
    parser.add_argument("--mu2", default="-1,0,1", metavar="LIST",
                        help="comma-separated mu2 grid values")
    parser.add_argument("--g", default="h", metavar="POLY",
                        help="polynomial probe for the annihilator suite")
    parser.add_argument("--r", type=int, default=2,
                        help="binomial order for the annihilator suite")
    parser.add_argument("--max-level", dest="max_level", type=int, default=6)
    parser.add_argument("--out", default=None, help="report file path")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="takiff",
        description="exact verification suites for the polynomial modules",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    _add_suite_flags(pv)

    pa = sub.add_parser("act", help="apply a generator word to a polynomial")
    _add_family_flags(pa)
    pa.add_argument("--expr", required=True,
                    help="word in e,f,h,eb,fb,hb joined by '*'")
    pa.add_argument("--target", default="1", metavar="POLY")

    ps = sub.add_parser("singular",
                        help="scan a Verma module for singular vectors")
    ps.add_argument("--eta", default="0", metavar="Q")
    ps.add_argument("--theta", default="0", metavar="Q")
    ps.add_argument("--max-level", dest="max_level", type=int, default=6)
    ps.add_argument("--out", default=None)

    pi = sub.add_parser("induced", help="induced-realization checks")
    pisub = pi.add_subparsers(dest="action", required=True)
    piv = pisub.add_parser("verify")
    _add_suite_flags(piv)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.time()

    if args.command == "act":
        try:
            params = FamilyParams(
                args.family, Q(args.lam), a=Q(args.a), b=Q(args.b),
                beta=UniPoly.parse(args.beta),
            ) if args.family == "omega" else FamilyParams(
                args.family, Q(args.lam), a=Q(args.a), b=Q(args.b))
            result = act_eval(params, args.expr, BiPoly.parse(args.target))
        except (ValueError, PolyParseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.text())
        return 0

    if args.command == "singular":
        config = JobConfig(suite="singular", eta=args.eta, theta=args.theta,
                           max_level=args.max_level, out=args.out)
    elif args.command == "induced":
        config = JobConfig(suite="induced", **_suite_kwargs(args))
    else:
        config = JobConfig(suite=args.suite, **_suite_kwargs(args))
    return _emit(run_suite(config), config.out, started)


def _suite_kwargs(args):
    return {
        "family": args.family, "lam": args.lam, "a": args.a, "b": args.b,
        "beta": args.beta, "eta": args.eta, "theta": args.theta,
        "depth": args.depth, "seeds": args.seeds, "rng": args.rng,
        "mu1": args.mu1, "mu2": args.mu2, "g": args.g, "r": args.r,
        "max_level": args.max_level, "out": args.out,
    }


if __name__ == "__main__":
    sys.exit(main())
