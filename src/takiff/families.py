"""The three families of polynomial modules on Q[h, hb].

Each family makes Q[h, hb] a module over the Takiff algebra; h and hb
always act by multiplication, and the remaining four generators act by
a combination of the shift s: h -> h-2, the derivative db = d/dhb, and
polynomial multipliers, so every action lives in the skew operator
algebra.  The families are

  gamma(lam, a, b)   raising side acts simply: eb = lam*s, e = -2*lam*db*s
  theta(lam, a, b)   mirror image, lowering side simple: fb = lam*s^-1
  omega(lam, a, beta) both sides degree-one in hb; the polynomial
                      coefficient alpha of e is not free but pinned to
                      beta by the bracket [e,f] = h

Two independent implementations of the action are maintained: a direct
one on polynomials (family_act) and the packaged operator form
(family_to_operator); the test suite holds them equal.  Axioms are
checked at the operator level, where they are identities of normal
forms, not spot checks.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .scalars import Q, format_scalar
from .poly import BiPoly, UniPoly
from .skew import SkewOperator
from .algebra import GENERATORS, bracket
from .linalg import solve_unique
from .report import Report, PASS, FAIL

FAMILIES = ("gamma", "theta", "omega")


def solve_omega_alpha(lam, a, beta):
    """The unique alpha making [e,f] = h hold in the omega family.

    Treats alpha's coefficients as unknowns, forms the operator
    [E(alpha), F] - H in the skew algebra, and solves the linear system
    "all normal-form coefficients vanish" by exact elimination.  No
    closed form is assumed; the closed form is what the tests compare
    this against.
    """
    lam = Q(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    a = Q(a)
    if beta.is_zero():
        return UniPoly.zero()
    m = beta.deg()
    f_op = _omega_f(lam, a, beta)
    h_op = SkewOperator.word(1, i=1)
    base = _omega_e(lam, a, UniPoly.zero()).commutator(f_op) - h_op
    # alpha enters e as +alpha(hb)*s; one basis operator per coefficient.
    columns = [
        SkewOperator.word(1, j=i, m=1).commutator(f_op) for i in range(m + 1)
    ]
    keys = sorted(set(base.terms) | {k for col in columns for k in col.terms})
    rows = [
        [col.terms.get(key, Q(0)) for col in columns] + [-base.terms.get(key, Q(0))]
        for key in keys
    ]
    sol = solve_unique(rows, m + 1)
    if sol is None:
        raise ValueError("bracket constraint for alpha is not uniquely solvable")
    return UniPoly({i: c for i, c in enumerate(sol)})


def eq1_alpha(lam, b, beta):
    """alpha from the literal upper-triangular constraint matrix:
    p = lam^2 * A q with A having unit diagonal and rows (..., 1, 2b, 2b^2, ...)."""
    lam = Q(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    b = Q(b)
    if beta.is_zero():
        return UniPoly.zero()
    m = beta.deg()
    q = [beta.coefficient(i) for i in range(m + 1)]
    p = {}
    for i in range(m + 1):
        total = q[i]
        for j in range(i + 1, m + 1):
            total += 2 * b ** (j - i) * q[j]
        p[i] = lam * lam * total
    return UniPoly(p)


@dataclass(frozen=True)
class FamilyParams:
    """Validated parameter pack for one family module.

    gamma/theta take rationals (lam, a, b); omega takes (lam, a) and a
    polynomial beta, with alpha computed from the bracket constraint
    unless explicitly overridden (the override exists so that broken
    pairs can be fed to the axiom checker on purpose).
    """

    family: str
    lam: "Q"
    a: "Q" = 0
    b: "Q" = 0
    beta: UniPoly = field(default_factory=UniPoly.zero)
    alpha: UniPoly = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "lam", Q(self.lam))
        if self.lam == 0:
            raise ValueError("lambda must be nonzero")
        object.__setattr__(self, "a", Q(self.a))
        object.__setattr__(self, "b", Q(self.b))
        beta = self.beta
        if isinstance(beta, str):
            beta = UniPoly.parse(beta)
        if not isinstance(beta, UniPoly):
            raise ValueError("beta must be a UniPoly")
        object.__setattr__(self, "beta", beta)
        alpha = self.alpha
        if self.family == "omega":
            if isinstance(alpha, str):
                alpha = UniPoly.parse(alpha)
            elif alpha is None:
                alpha = solve_omega_alpha(self.lam, self.a, beta)
            if not isinstance(alpha, UniPoly):
                raise ValueError("alpha must be a UniPoly")
        else:
            alpha = UniPoly.zero()
        object.__setattr__(self, "alpha", alpha)

    def config_dict(self):
        out = {"family": self.family, "lambda": format_scalar(self.lam)}
        if self.family == "omega":
            out["a"] = format_scalar(self.a)
            out["beta"] = self.beta.text()
            out["alpha"] = self.alpha.text()
        else:
            out["a"] = format_scalar(self.a)
            out["b"] = format_scalar(self.b)
        return out

    def label(self):
        if self.family == "omega":
            return (f"omega(lam={format_scalar(self.lam)},a={format_scalar(self.a)},"
                    f"beta={self.beta.text()})")
        return (f"{self.family}(lam={format_scalar(self.lam)},"
                f"a={format_scalar(self.a)},b={format_scalar(self.b)})")


def _omega_e(lam, a, alpha):
    # ((lam/2) h + alpha(hb)) s  -  lam (hb + a) db s
    op = SkewOperator.word(lam / 2, i=1, m=1)
    for i, c in alpha.terms.items():
        op = op + SkewOperator.word(c, j=i, m=1)
    op = op - SkewOperator.word(lam, j=1, k=1, m=1)
    op = op - SkewOperator.word(lam * a, k=1, m=1)
    return op


def _omega_f(lam, a, beta):
    # (-(1/(2 lam)) h + beta(hb)) s^-1  -  (1/lam)(hb - a) db s^-1
    op = SkewOperator.word(Q(-1) / (2 * lam), i=1, m=-1)
    for i, c in beta.terms.items():
        op = op + SkewOperator.word(c, j=i, m=-1)
    op = op - SkewOperator.word(Q(1) / lam, j=1, k=1, m=-1)
    op = op + SkewOperator.word(a / lam, k=1, m=-1)
    return op


def family_to_operator(gen, params):
    """The generator's action as a closed skew operator."""
    lam, a, b = params.lam, params.a, params.b
    if gen == "h":
        return SkewOperator.word(1, i=1)
    if gen == "hb":
        return SkewOperator.word(1, j=1)
    fam = params.family
    if fam == "gamma":
        if gen == "e":
            return SkewOperator.word(-2 * lam, k=1, m=1)
        if gen == "eb":
            return SkewOperator.word(lam, m=1)
        if gen == "fb":
            c = Q(-1) / (4 * lam)
            return SkewOperator.word(c, j=2, m=-1) + SkewOperator.word(c * a, m=-1)
        if gen == "f":
            c = Q(-1) / (2 * lam)
            return (SkewOperator.word(c, i=1, j=1, m=-1)
                    + SkewOperator.word(2 * c, j=1, m=-1)
                    + SkewOperator.word(c * b, m=-1)
                    + SkewOperator.word(c, j=2, k=1, m=-1)
                    + SkewOperator.word(c * a, k=1, m=-1))
    elif fam == "theta":
        if gen == "f":
            return SkewOperator.word(2 * lam, k=1, m=-1)
        if gen == "fb":
            return SkewOperator.word(lam, m=-1)
        if gen == "eb":
            c = Q(-1) / (4 * lam)
            return SkewOperator.word(c, j=2, m=1) + SkewOperator.word(c * a, m=1)
        if gen == "e":
            c = Q(-1) / (2 * lam)
            return (SkewOperator.word(c, i=1, j=1, m=1)
                    + SkewOperator.word(-2 * c, j=1, m=1)
                    + SkewOperator.word(c * b, m=1)
                    + SkewOperator.word(-c, j=2, k=1, m=1)
                    + SkewOperator.word(-c * a, k=1, m=1))
    elif fam == "omega":
        if gen == "e":
            return _omega_e(lam, a, params.alpha)
        if gen == "f":
            return _omega_f(lam, a, params.beta)
        if gen == "eb":
            return (SkewOperator.word(lam / 2, j=1, m=1)
                    + SkewOperator.word(lam * a / 2, m=1))
        if gen == "fb":
            c = Q(-1) / (2 * lam)
            return SkewOperator.word(c, j=1, m=-1) + SkewOperator.word(-c * a, m=-1)
    raise KeyError(f"unknown generator {gen!r}")


def family_act(gen, params, p):
    """Direct polynomial route for the same action (no operator algebra).

    Kept deliberately separate from family_to_operator so that each is
    an oracle for the other.
    """
    lam, a, b = params.lam, params.a, params.b
    if gen == "h":
        return BiPoly.var_h() * p
    if gen == "hb":
        return BiPoly.var_hb() * p
    fam = params.family
    hb = BiPoly.var_hb()
    if fam == "gamma":
        if gen == "e":
            return (-2 * lam) * p.shift_h(-2).dbar()
        if gen == "eb":
            return lam * p.shift_h(-2)
        if gen == "fb":
            q = p.shift_h(2)
            return (Q(-1) / (4 * lam)) * ((hb * hb + BiPoly.const(a)) * q)
        if gen == "f":
            q = p.shift_h(2)
            weight = (BiPoly.var_h() + BiPoly.const(2)) * hb + BiPoly.const(b)
            c = Q(-1) / (2 * lam)
            return c * (weight * q) + c * ((hb * hb + BiPoly.const(a)) * q.dbar())
    elif fam == "theta":
        if gen == "f":
            return (2 * lam) * p.shift_h(2).dbar()
        if gen == "fb":
            return lam * p.shift_h(2)
        if gen == "eb":
            q = p.shift_h(-2)
            return (Q(-1) / (4 * lam)) * ((hb * hb + BiPoly.const(a)) * q)
        if gen == "e":
            q = p.shift_h(-2)
            weight = (BiPoly.var_h() - BiPoly.const(2)) * hb + BiPoly.const(b)
            c = Q(1) / (2 * lam)
            return (-c) * (weight * q) + c * ((hb * hb + BiPoly.const(a)) * q.dbar())
    elif fam == "omega":
        if gen == "e":
            q = p.shift_h(-2)
            head = (lam / 2) * BiPoly.var_h() + params.alpha.to_bipoly()
            return head * q - lam * ((hb + BiPoly.const(a)) * q.dbar())
        if gen == "f":
            q = p.shift_h(2)
            head = (Q(-1) / (2 * lam)) * BiPoly.var_h() + params.beta.to_bipoly()
            return head * q - (Q(1) / lam) * ((hb - BiPoly.const(a)) * q.dbar())
        if gen == "eb":
            return (lam / 2) * ((hb + BiPoly.const(a)) * p.shift_h(-2))
        if gen == "fb":
            return (Q(-1) / (2 * lam)) * ((hb - BiPoly.const(a)) * p.shift_h(2))
    raise KeyError(f"unknown generator {gen!r}")


def check_family_axioms(params):
    """Verify all fifteen bracket identities as skew-operator identities.

    Exact: [X, Y] and the image of [x, y] are both normal forms, so a
    pass here is an identity of operators on all of Q[h, hb], not a
    sample.  Failures carry the residual operator as witness.
    """
    report = Report(suite="axioms", config=params.config_dict())
    ops = {g: family_to_operator(g, params) for g in GENERATORS}
    order = ("e", "f", "h", "eb", "fb", "hb")
    for x, y in combinations(order, 2):
        lhs = ops[x].commutator(ops[y])
        rhs = SkewOperator.zero()
        for z, c in bracket(x, y).items():
            rhs = rhs + ops[z].scale(c)
        residual = lhs - rhs
        check_id = f"bracket[{x},{y}]/{params.label()}"
        if residual:
            report.add(check_id, FAIL, f"residual = {residual.text()}")
        else:
            report.add(check_id, PASS)
    return report


def check_omega_constraint(lam, a, beta):
    """Both derivations of alpha, plus agreement, in one report."""
    lam, a = Q(lam), Q(a)
    report = Report(
        suite="omega-constraint",
        config={"lambda": format_scalar(lam), "a": format_scalar(a),
                "beta": beta.text()},
    )
    alpha_solved = solve_omega_alpha(lam, a, beta)
    alpha_matrix = eq1_alpha(lam, a, beta)
    agree = alpha_solved == alpha_matrix
    report.add(
        "alpha/bracket-vs-matrix",
        PASS if agree else FAIL,
        f"solved alpha = {alpha_solved.text()}"
        + ("" if agree else f", matrix alpha = {alpha_matrix.text()}"),
    )
    params = FamilyParams("omega", lam, a=a, beta=beta, alpha=alpha_solved)
    axioms = check_family_axioms(params)
    report.add(
        "alpha/axioms-with-solved-alpha",
        PASS if axioms.ok else FAIL,
        f"alpha = {alpha_solved.text()}",
    )
    return report
