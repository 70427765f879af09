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
           "out.pop(k, None)\n        return den, out",
           "out[k] = v\n        return den, out",
           ("tests/test_tensor.py::test_image_drops_a_key_whose_terms_cancel",)),
    Mutant("image-int-input-ignores-column-den", "tensor.py",
           "parts.append((n, wden, head, deltas, fnums))",
           "parts.append((n, 1, head, deltas, fnums))",
           ("tests/test_tensor.py::test_image_of_int_and_rational_inputs_agree",)),
    Mutant("image-den-is-the-largest-not-the-lcm", "tensor.py",
           "den = lcm(den, sden)", "den = max(den, sden)",
           ("tests/test_tensor.py::test_image_of_int_and_rational_inputs_agree",)),
    # the merge's den leaves out the words' den, which every label's
    # family part is scaled over
    Mutant("image-rational-family-den-drops-the-words-den", "tensor.py",
           "den = wden if ints else 1", "den = 1",
           ("tests/test_tensor.py::test_image_of_int_and_rational_inputs_agree",)),
    Mutant("image-den-fold-skips-a-leibniz-den", "tensor.py",
           "if den % sden:", "if not den % sden:",
           ("tests/test_tensor.py::test_image_of_int_and_rational_inputs_agree",)),
    # the rational edges: act, the closure seed's step, nullspace
    Mutant("act-drops-the-input-den", "tensor.py",
           "self.image_reduced(gen, den, ints)", "self.image_reduced(gen, 1, ints)",
           ("tests/test_tensor.py::test_image_of_int_and_rational_inputs_agree",)),
    Mutant("closure-seed-tag-ignores-the-seed-den", "tensor.py",
           "steps = [(None, None, den, {}, content)]",
           "steps = [(None, None, 1, {}, content)]",
           ("tests/test_tensor.py::test_closure_steps_replay_through_the_leibniz_oracle",)),
    Mutant("tagged-echelon-drops-the-column-den", "linalg.py",
           "mult *= cden", "mult *= 1",
           ("tests/test_linalg.py::test_nullspace_folds_each_column_den",)),
    # the closure's int provenance: each stored row's step
    Mutant("closure-step-drops-the-image-den", "tensor.py",
           "steps.append((ridx, gen, den * mult, combo, content))",
           "steps.append((ridx, gen, mult, combo, content))",
           ("tests/test_tensor.py::test_closure_steps_replay_through_the_leibniz_oracle",)),
    Mutant("closure-step-stores-an-empty-combo", "tensor.py",
           "steps.append((ridx, gen, den * mult, combo, content))",
           "steps.append((ridx, gen, den * mult, {}, content))",
           ("tests/test_tensor.py::test_closure_steps_replay_through_the_leibniz_oracle",)),
    # the eb pump's closed-form Vandermonde inverse
    Mutant("lagrange-denominator-sign-flipped", "tensor.py",
           "den *= mr - ms", "den *= ms - mr",
           ("tests/test_linalg.py::test_vandermonde_inverse_inverts",)),
    # the process-wide word memo behind the Verma and induced actions
    Mutant("word-fold-drops-q", "algebra.py",
           "mono_letters((j, k, q, 0, 0, 0))", "mono_letters((j, k, 0, 0, 0, 0))",
           ("tests/test_induced.py::test_shared_words_are_the_naive_rewrite",)),
    # the straightening memo: a reader that edits a memo value in place
    # (the sum would alias the memo's own dict for a one-term unit
    # product, and the bracket terms are then added into it), and a
    # memo keyed without its generator
    Mutant("straighten-edits-a-memo-value-in-place", "algebra.py",
           "result = _dict_times_gen(_mono_times_gen(rest, g), y)",
           "result = (_mono_times_gen(next(iter(inner)), y)\n"
           "                  if len(inner := _mono_times_gen(rest, g)) == 1\n"
           "                  and 1 in inner.values()\n"
           "                  else _dict_times_gen(inner, y))",
           ("tests/test_digests.py::test_reports_do_not_depend_on_the_memos_history",)),
    Mutant("straighten-memo-keyed-without-the-generator", "algebra.py",
           "key = (mono, g)", "key = mono",
           ("tests/test_digests.py::test_reports_do_not_depend_on_the_memos_history",)),
    # the per-instance tail memo inside InducedAction.image
    Mutant("induced-tail-memo-drops-i", "induced.py",
           "t = m2, p2, i2, i", "t = m2, p2, i2",
           ("tests/test_induced.py::test_tail_memo_is_exact_in_any_order",)),
    # the int letters: the route agreement, the compile guard, the
    # ERROR record check_phi writes for a refused word, and borel_act's c0
    Mutant("route-agreement-drops-the-letter-den", "induced.py",
           "(den, via_op))", "(1, via_op))",
           ("tests/test_induced.py::test_rank_one_routes_agree_and_axioms_hold",)),
    Mutant("letter-compile-admits-an-h-word", "induced.py",
           "if word[0] or word[3]:", "if word[3]:",
           ("tests/test_induced.py::test_corrupt_borel_operator_fails_the_route_agreement",)),
    Mutant("borel-act-drops-the-constant-term", "induced.py",
           "factor = UniPoly.var_hb() + UniPoly.const(spec.a)",
           "factor = UniPoly.var_hb()",
           ("tests/test_induced.py::test_rank_one_action_worked_examples",)),
    Mutant("phi-letter-error-escapes-check-phi", "induced.py",
           "    except ValueError as exc:   # a word borel_letter refuses",
           "    except ZeroDivisionError as exc:",
           ("tests/test_induced.py::test_a_word_outside_the_letters_is_one_error_record",)),
    # the Borel proper-submodule record rests on the invariance checks
    Mutant("proper-submodule-pass-is-unconditional", "induced.py",
           'failed and "rests on the failed " + ", ".join(failed),',
           "None,",
           ("tests/test_induced.py::test_rank_one_reducibility_names_each_failure",)),
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
    Mutant("lowest-terms-early-exit-skips-the-sign", "sparse.py",
           "if g == 1:\n        return den, ints",
           "if abs(g) == 1:\n        return den, ints",
           ("tests/test_sparse.py::test_lowest_terms_is_the_same_vector_in_lowest_terms",)),
    Mutant("combine-drops-the-part-den", "sparse.py",
           "c.denominator * d)", "c.denominator)",
           ("tests/test_sparse.py::test_combine_sums_the_scaled_vectors",)),
    Mutant("combine-int-path-drops-the-part-den", "sparse.py",
           "(c, d) if type(c) is int", "(c, 1) if type(c) is int",
           ("tests/test_sparse.py::test_combine_sums_the_scaled_vectors",)),
    # packed keys, Echelon and the closure
    Mutant("pack-without-the-complement", "tensor.py",
           "out << KEY_BITS | KEY_FIELD - f", "out << KEY_BITS | f",
           ("tests/test_tensor.py::test_packed_keys_round_trip_in_the_pivot_order",)),
    Mutant("echelon-skips-the-residual-rescale", "linalg.py",
           "residual[k2] *= a\n                for i in combo:",
           "residual[k2] *= 1\n                for i in combo:",
           ("tests/test_linalg.py::test_echelon_is_fraction_free_and_exact",)),
    Mutant("combo-skips-the-rescale", "linalg.py",
           "combo[i] *= a", "combo[i] *= 1",
           ("tests/test_linalg.py::test_echelon_is_fraction_free_and_exact",)),
    # unit rows: stripped at multiplier 1 before the heap sweep
    Mutant("unit-map-admits-a-two-key-row", "linalg.py",
           "if len(residual) == 1:", "if len(residual) <= 2:",
           ("tests/test_linalg.py::test_insert_matches_the_reference_heap_sweep",)),
    Mutant("combo-keeps-a-cancelled-zero", "linalg.py",
           "else:\n                del combo[ri]",
           "else:\n                combo[ri] = s",
           ("tests/test_linalg.py::test_a_unit_key_brought_back_and_cancelled_leaves_no_zero",)),
    Mutant("unit-strip-flips-the-sign", "linalg.py",
           "combo[ri] = residual.pop(k)", "combo[ri] = -residual.pop(k)",
           ("tests/test_linalg.py::test_echelon_is_fraction_free_and_exact",)),
    Mutant("echelon-stores-a-negative-pivot", "linalg.py",
           "if residual[pivot] < 0:", "if residual[pivot] > 0:",
           ("tests/test_linalg.py::test_echelon_is_fraction_free_and_exact",)),
    # the closure's found test, read off the pivot of the row just stored
    Mutant("closure-found-compares-the-seed-pivot", "tensor.py",
           "if pivots[new] == target:",
           "if pivots[new] == pivots[0]:",
           ("tests/test_tensor.py::test_closure_finds_the_target_when_its_key_becomes_a_pivot",
            "tests/test_tensor.py::test_degenerate_point_is_never_certified")),
    # a residual of content 1 is stored as passed, any other divided
    Mutant("insert-stores-a-residual-of-content-above-1", "linalg.py",
           "if content != 1:", "if content == -1:",
           ("tests/test_linalg.py::test_echelon_is_fraction_free_and_exact",)),
    Mutant("echelon-pivots-on-the-largest-key", "linalg.py",
           "pivot = min(residual)", "pivot = max(residual)",
           ("tests/test_linalg.py::test_echelon_is_fraction_free_and_exact",)),
    # the closure's rung schedule and its clipped level cap
    Mutant("closure-clips-to-the-shallowest-level", "verma.py",
           "min(cap, self.theta_int())", "min(cap, 0)",
           ("tests/test_verma.py::test_the_deepest_level_is_that_of_the_last_basis_vector",
            "tests/test_tensor.py::test_closure_runs_each_distinct_window_once")),
    Mutant("deepest-level-clips-a-verma-factor", "verma.py",
           "return cap if self.kind", "return min(cap, 2) if self.kind",
           ("tests/test_verma.py::test_the_deepest_level_is_that_of_the_last_basis_vector",
            "tests/test_tensor.py::test_closure_runs_each_distinct_window_once")),
    Mutant("closure-dedup-drops-the-degree-cap", "tensor.py",
           "dict.fromkeys(\n"
           "            (mod.hw.deepest_level(s), d) for s, d in rungs):",
           "{\n"
           "            mod.hw.deepest_level(s): d for s, d in rungs}.items():",
           ("tests/test_tensor.py::test_closure_runs_each_distinct_window_once",)),
    # the family and Leibniz tables behind the action
    Mutant("compile-drops-the-leibniz-term", "tensor.py",
           "[self.pack((idx2, 0, 0)) for idx2 in snums]", "[]",
           ("tests/test_tensor.py::test_compiled_action_matches_the_leibniz_oracle",)),
    Mutant("family-entry-keyed-by-head", "tensor.py",
           "fnums = family.get(low) or self._family_entry(gen, key, low)",
           "fnums = family.get(head) or self._family_entry(gen, key, head)",
           ("tests/test_tensor.py::test_compiled_action_matches_the_leibniz_oracle",)),
    Mutant("leibniz-key-adds-low", "tensor.py",
           "parts.append((n, sden, -low, heads, snums))",
           "parts.append((n, sden, low, heads, snums))",
           ("tests/test_tensor.py::test_compiled_action_matches_the_leibniz_oracle",)),
    # the invariant-subspace check, once per window monomial h^i hb^(j+1)
    Mutant("invariance-check-reads-hb-to-the-j", "tensor.py",
           "for j in range(1, depth + 1):", "for j in range(depth):",
           ("tests/test_tensor.py::test_invariant_subspace_agrees_with_the_per_label_scan",)),
    Mutant("invariance-check-covers-i-0-only", "tensor.py",
           "    for i in range(depth):\n        for j in range(1, depth + 1):",
           "    for i in range(1):\n        for j in range(1, depth + 1):",
           ("tests/test_tensor.py::test_invariant_subspace_names_the_first_label_that_leaves_it",)),
    # the Whittaker window's int columns and its leading-key test
    Mutant("whittaker-leads-are-the-largest-keys", "tensor.py",
           "{min(col) for col in columns if col}",
           "{max(col) for col in columns if col}",
           ("tests/test_tensor.py::test_whittaker_sweep_agrees_with_the_exact_kernel",
            "tests/test_tensor.py::test_whittaker_sweep_decides_where_a_prime_would_not")),
    Mutant("whittaker-leads-count-a-zero-column", "tensor.py",
           "{min(col) for col in columns if col}",
           "{min(col, default=None) for col in columns}",
           ("tests/test_tensor.py::test_whittaker_sweep_agrees_with_the_exact_kernel",)),
    Mutant("whittaker-always-reads-the-kernel", "tensor.py",
           "if len({min(col) for col in columns if col}) == len(columns):",
           "if False:",
           ("tests/test_tensor.py::test_whittaker_sweep_agrees_with_the_exact_kernel",
            "tests/test_tensor.py::test_whittaker_sweep_decides_where_a_prime_would_not")),
    Mutant("whittaker-diagonal-pair-swapped", "tensor.py",
           "((e_row | key, -n1 * den), (key, -n2 * den))",
           "((key, -n1 * den), (e_row | key, -n2 * den))",
           ("tests/test_tensor.py::test_whittaker_sweep_agrees_with_the_exact_kernel",)),
    Mutant("whittaker-columns-drop-the-mu-den", "tensor.py",
           "d = lcm(mu1.denominator, mu2.denominator)", "d = 1",
           ("tests/test_tensor.py::test_whittaker_window_with_denominators_in_its_columns",)),
    # the exact singular scan behind its memo
    Mutant("singular-scan-drops-the-eb-block", "verma.py",
           'Q(n, den) for gen in ("e", "eb")', 'Q(n, den) for gen in ("e",)',
           ("tests/test_verma.py::test_interleaved_scans_match_the_reference_kernel",)),
    # the int reader of the shared word memo, the family entries built
    # from the words and walked up in h, and the finite quotient's check
    Mutant("verma-power-table-reads-theta-to-q-plus-1", "verma.py",
           "c * tn[q] * td[top - q]", "c * tn[q + 1] * td[top - q]",
           ("tests/test_verma.py::test_act_ints_is_the_rational_action_cleared",)),
    Mutant("act-ints-keeps-an-e-word", "verma.py",
           "            if not (p or mb):", "            if not mb:",
           ("tests/test_verma.py::test_act_ints_is_the_rational_action_cleared",)),
    Mutant("family-entry-at-i0-drops-perm", "tensor.py",
           "- wj - j + k, n * perm(j, k))", "- wj - j + k, n)",
           ("tests/test_tensor.py::test_family_entries_walk_up_one_shift_and_match_family_act",
            "tests/test_tensor.py::test_compiled_action_matches_the_leibniz_oracle")),
    Mutant("family-entry-walks-up-by-h-plus-2m", "tensor.py",
           "[-two_m * c for c in nums]", "[two_m * c for c in nums]",
           ("tests/test_tensor.py::test_family_entries_walk_up_one_shift_and_match_family_act",
            "tests/test_tensor.py::test_compiled_action_matches_the_leibniz_oracle")),
    Mutant("findim-check-drops-the-bracket-side", "verma.py",
           "for z, cz in bracket_xy:", "for z, cz in ():",
           ("tests/test_verma.py::test_findim_check_reads_the_weight_chain",)),
    # check_phi's triangularity walk
    Mutant("triangularity-accepts-a-higher-coordinate", "induced.py",
           "if max(map(order, flat)) > t:", "if False:",
           ("tests/test_induced.py::test_non_lower_coordinate_is_named_in_the_rational_order",)),
    # the proof's order read off a packed key, with f and fb swapped
    Mutant("packed-order-swaps-f-and-fb", "tensor.py",
           "(m - (key >> 2 * b & m)) << 3 * b\n                | (m - (key >> 3 * b & m)) << 2 * b",
           "(m - (key >> 3 * b & m)) << 3 * b\n                | (m - (key >> 2 * b & m)) << 2 * b",
           ("tests/test_induced.py::test_packed_order_agrees_on_the_phi_coordinates",
            "tests/test_induced.py::test_packed_order_agrees_on_random_verma_keys")),
    # the record classes' hand-written validation and freezing
    Mutant("check-record-accepts-any-status", "report.py",
           "if status not in _STATUSES:", "if False:",
           ("tests/test_records.py::test_an_unknown_status_is_refused",)),
    Mutant("family-params-accept-lambda-zero", "families.py",
           "if family not in FAMILIES:\n"
           "            raise ValueError(f\"unknown family {family!r}\")\n"
           "        lam = Q(lam)\n"
           "        if lam == 0:",
           "if family not in FAMILIES:\n"
           "            raise ValueError(f\"unknown family {family!r}\")\n"
           "        lam = Q(lam)\n"
           "        if False:",
           ("tests/test_records.py::test_family_params_validation_messages",)),
    Mutant("frozen-record-allows-assignment", "report.py",
           "raise AttributeError(f\"cannot assign to field {name!r}\")",
           "object.__setattr__(self, name, value)",
           ("tests/test_records.py::test_frozen_records_refuse_assignment",)),
    # what import takiff loads, and the CLI's size bounds
    Mutant("cli-imports-argparse-at-load", "cli.py",
           "import json\nimport sys\n", "import argparse\nimport json\nimport sys\n",
           ("tests/test_imports.py::test_import_takiff_loads_no_heavy_module",)),
    Mutant("cli-imports-induced-at-load", "cli.py",
           "from .report import Report, ERROR\n",
           "from .report import Report, ERROR\nfrom . import induced\n",
           ("tests/test_imports.py::test_a_closure_run_loads_no_induced_module",)),
    Mutant("depth-bound-one-past-the-margin", "cli.py",
           "step = 2", "step = 1",
           ("tests/test_cli.py::test_a_depth_past_the_packing_bound_is_one_error_record",)),
    Mutant("induced-depth-bound-off-by-one", "cli.py",
           "(KEY_FIELD - step) // r", "(KEY_FIELD - step) // r + 1",
           ("tests/test_cli.py::test_a_depth_past_the_family_bound_is_one_error_record",)),
    # parameter packs hash through LinComb
    Mutant("lincomb-hash-from-id", "sparse.py",
           "return hash(frozenset(self.terms.items()))", "return id(self)",
           ("tests/test_records.py::test_equal_parameter_packs_hash_equal",)),
    # the scalar grammar read as a prefix: "1.5" would parse as 1
    Mutant("scalar-grammar-reads-a-prefix", "scalars.py",
           "_LITERAL.fullmatch(text)", "_LITERAL.match(text)",
           ("tests/test_scalars.py::test_parse_scalar_takes_only_p_or_p_over_q",
            "tests/test_cli.py::test_a_zero_denominator_in_a_suite_names_the_literal")),
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
