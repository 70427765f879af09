"""A catalogue of hand-written source mutants, and a sequential runner.

Each entry plants one small fault in ``src/takiff``: the module, the
exact text it replaces (its anchor, found exactly once in the package),
the replacement, and the tests expected to fail on it.  Mutation
testing in the sense of DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 11(4) (1978): a mutant that no named
test kills marks a fault the suite cannot see.

    python tests/mutants.py [NAME ...]

copies the checkout to a temporary directory once, then, one mutant
at a time, writes the mutated module, runs the named tests there with
pytest and restores the module.  A mutant is killed when its tests
fail; the survivors are printed at the end, and the exit status is 1
if there are any.  With no NAME every mutant runs.  The run takes
minutes, so it is not part of the test suite: ``tests/test_mutants.py``
checks only that every anchor and every named test still resolves.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "takiff"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str      # file name under src/takiff
    old: str         # the anchor
    new: str
    tests: tuple     # pytest node ids, relative to the repository root


MUTANTS = (
    # the integer merge in TensorModule.image
    Mutant("image-merge-keeps-a-cancelled-zero", "tensor.py",
           "out.pop(k, None)", "out[k] = v",
           ("tests/test_tensor.py::test_image_drops_a_key_whose_terms_cancel",)),
    Mutant("image-int-input-ignores-column-den", "tensor.py",
           "n, dw, ds = c, wden, sden", "n, dw, ds = c, 1, 1",
           ("tests/test_tensor.py::test_image_of_int_and_rational_inputs_agree",)),
    Mutant("image-den-is-the-largest-not-the-lcm", "tensor.py",
           "den = lcm(den, dw, ds)", "den = max(den, dw, ds)",
           ("tests/test_tensor.py::test_image_of_int_and_rational_inputs_agree",)),
    Mutant("image-rational-family-den-drops-the-words-den", "tensor.py",
           "dw, ds = wden * d, sden * d", "dw, ds = d, sden * d",
           ("tests/test_tensor.py::test_image_of_int_and_rational_inputs_agree",)),
    # the process-wide word memo behind InducedAction
    Mutant("word-memo-key-without-q", "algebra.py",
           "key = (gen, j, k, q)", "key = (gen, j, k)",
           ("tests/test_induced.py::test_shared_words_are_the_naive_rewrite",)),
    # check_phi's comparisons
    Mutant("same-without-cross-multiplication", "induced.py",
           "all(d2 * n == d1 * b[k]", "all(n == b[k]",
           ("tests/test_induced.py::test_lift_is_a_module_map_with_unitriangular_matrix",)),
    Mutant("phi-lead-accepts-any-nonzero-coefficient", "induced.py",
           "if c != den:", "if not c:",
           ("tests/test_induced.py::test_corrupt_column_fails_with_the_rational_witnesses",)),
    # the (den, ints) helpers
    Mutant("lowest-terms-keeps-a-negative-den", "sparse.py",
           "if den < 0:\n        g = -g", "if den < 0:\n        g = g",
           ("tests/test_sparse.py::test_lowest_terms_is_the_same_vector_in_lowest_terms",)),
    Mutant("combine-drops-the-part-den", "sparse.py",
           "int(c.denominator) * den, ints)", "int(c.denominator), ints)",
           ("tests/test_sparse.py::test_combine_sums_the_scaled_vectors",)),
    # packed keys, Echelon and the closure
    Mutant("pack-without-the-complement", "tensor.py",
           "out << KEY_BITS | KEY_FIELD - f", "out << KEY_BITS | f",
           ("tests/test_tensor.py::test_packed_keys_round_trip_in_the_pivot_order",)),
    Mutant("echelon-skips-the-residual-rescale", "linalg.py",
           "residual[k2] *= a", "residual[k2] *= 1",
           ("tests/test_linalg.py::test_echelon_is_fraction_free_and_exact",)),
    Mutant("echelon-stores-a-negative-pivot", "linalg.py",
           "if residual[pivot] < 0:", "if residual[pivot] > 0:",
           ("tests/test_linalg.py::test_echelon_is_fraction_free_and_exact",)),
    Mutant("closure-target-adds-the-row", "tensor.py",
           "((k2, -b * v2) for k2, v2 in row.items())",
           "((k2, b * v2) for k2, v2 in row.items())",
           ("tests/test_tensor.py::test_certification_examples",)),
    Mutant("echelon-pivots-on-the-largest-key", "linalg.py",
           "pivot = min(residual)", "pivot = max(residual)",
           ("tests/test_linalg.py::test_echelon_is_fraction_free_and_exact",)),
    # the closure's rung schedule
    Mutant("closure-clips-to-the-shallowest-level", "tensor.py",
           "basis_through_level(s)[-1]", "basis_through_level(s)[0]",
           ("tests/test_tensor.py::test_closure_runs_each_distinct_window_once",)),
    Mutant("closure-dedup-drops-the-degree-cap", "tensor.py",
           "dict.fromkeys(\n"
           "            (mod.hw.level(mod.hw.basis_through_level(s)[-1]), d)\n"
           "            for s, d in rungs):",
           "{\n"
           "            mod.hw.level(mod.hw.basis_through_level(s)[-1]): d\n"
           "            for s, d in rungs}.items():",
           ("tests/test_tensor.py::test_closure_runs_each_distinct_window_once",)),
    # the family and Leibniz tables behind the action
    Mutant("compile-drops-the-leibniz-term", "tensor.py",
           "[self.pack((idx2, 0, 0)) for idx2 in snums]", "[]",
           ("tests/test_tensor.py::test_compiled_action_matches_the_leibniz_oracle",)),
    Mutant("family-entry-keyed-by-head", "tensor.py",
           "family.get(low) or self._family_entry(gen, key, low)",
           "family.get(head) or self._family_entry(gen, key, head)",
           ("tests/test_tensor.py::test_compiled_action_matches_the_leibniz_oracle",)),
    Mutant("leibniz-key-adds-low", "tensor.py",
           "parts.append((n, ds, -low, heads, snums))",
           "parts.append((n, ds, low, heads, snums))",
           ("tests/test_tensor.py::test_compiled_action_matches_the_leibniz_oracle",)),
    # the mod-p certificates: Whittaker window and singular scan
    Mutant("independent-mod-p-accepts-a-dependent-vector", "linalg.py",
           "if pivot is None:\n            return False",
           "if pivot is None:\n            return True",
           ("tests/test_tensor.py::test_whittaker_certificate_agrees_with_the_exact_solve",
            "tests/test_tensor.py::test_whittaker_certificate_declines_and_the_exact_path_decides")),
    Mutant("whittaker-diagonal-pair-swapped", "tensor.py",
           "[(e_row | b, b) for b in self.basis]",
           "[(b, e_row | b) for b in self.basis]",
           ("tests/test_tensor.py::test_whittaker_certificate_agrees_with_the_exact_solve",)),
    Mutant("singular-scan-swaps-theta-and-eta", "verma.py",
           "c.numerator * theta**qq * eta**ii", "c.numerator * eta**qq * theta**ii",
           ("tests/test_verma.py::test_the_certificate_reads_the_level_matrix_mod_p",)),
    # check_phi's triangularity walk
    Mutant("triangularity-accepts-a-higher-coordinate", "induced.py",
           "not tensor_order_key(fk) < t\n               for fk in map(unpack, flat)",
           "False\n               for fk in map(unpack, flat)",
           ("tests/test_induced.py::test_non_lower_coordinate_is_named_in_the_rational_order",)),
)


def mutated(m, text):
    """The module text with the mutant applied; ValueError unless the
    anchor occurs exactly once."""
    if text.count(m.old) != 1:
        raise ValueError(f"{m.name}: anchor found {text.count(m.old)} "
                         f"times in {m.module}")
    return text.replace(m.old, m.new)


def run(mutants):
    """Run each mutant's tests on a mutated copy; return the survivors."""
    survivors = []
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                    ".hypothesis", "out")
    with tempfile.TemporaryDirectory(prefix="takiff-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        # no bytecode cache: a restored module must never load a stale one
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        for m in mutants:
            path = copy / "src" / "takiff" / m.module
            text = path.read_text()
            path.write_text(mutated(m, text))
            try:
                code = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x",
                     "-p", "no:cacheprovider", *m.tests],
                    cwd=copy, env=env, capture_output=True).returncode
            finally:
                path.write_text(text)
            # pytest exits 1 when a test failed; 0 means every test passed,
            # and anything else (no test collected, usage error) kills nothing
            status = {0: "SURVIVED", 1: "killed"}.get(code, f"error {code}")
            print(f"{m.name}: {status}", flush=True)
            if code != 1:
                survivors.append(m.name)
    return survivors


def main(names):
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}")
    survivors = run([by_name[n] for n in names] if names else MUTANTS)
    print(f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
