"""Exact symbolic engine for polynomial modules over the Takiff algebra of sl2."""

__version__ = "0.1.0"

from .scalars import Q, format_scalar
from .poly import BiPoly, UniPoly, PolyParseError
from .skew import SkewOperator
from .algebra import GENERATORS, bracket, UeaElement, uea_normalize
from .linalg import Echelon, nullspace
from .families import (
    FamilyParams,
    family_act,
    family_to_operator,
    solve_omega_alpha,
    eq1_alpha,
    check_family_axioms,
    check_omega_constraint,
)
from .verma import (
    HighestWeight,
    VermaElement,
    HwModule,
    verma_act,
    singular_vectors,
    verma_reducible_predicate,
    build_hw_module,
    build_verma_module,
    check_singular_levels,
)
from .tensor import (
    TensorModule,
    TensorElement,
    vandermonde_reduce,
    make_seeds,
    closure_search,
    certify_irreducible,
    check_invariant_subspace,
    annihilator_check,
    whittaker_vector_search,
    whittaker_report,
    recover_parameters,
    recover_report,
)
from .report import Report, PASS, FAIL, ERROR, INCONCLUSIVE
from .cli import JobConfig, run_suite, act_eval

# takiff.induced is loaded on first use: only the induced suite reads
# it, and a process without cached bytecode compiles every module it
# imports.
_INDUCED = frozenset((
    "BorelSpec", "borel_act", "borel_to_operator", "check_borel_axioms",
    "borel_reducibility_check", "IndElement", "ind_act", "ind_window_basis",
    "phi_map", "check_phi", "induced_reducibility_predicate"))


def __getattr__(name):
    """The names of takiff.induced, resolved on first use (PEP 562)."""
    if name in _INDUCED:
        from . import induced
        return getattr(induced, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
