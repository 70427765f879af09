"""The mutant catalogue cannot rot: every anchor occurs exactly once in
src/takiff, in the module it names, and every test it names exists.
Running the mutants is left to ``python tests/mutants.py``."""

import re

import pytest

from mutants import MUTANTS, ROOT, SRC, mutated


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_anchor_occurs_once_in_the_package(mutant):
    counts = {p.name: p.read_text().count(mutant.old)
              for p in SRC.glob("*.py")}
    assert counts.get(mutant.module) == 1, counts
    assert sum(counts.values()) == 1, counts
    text = (SRC / mutant.module).read_text()
    assert mutated(mutant, text) != text


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        source = (ROOT / path).read_text()
        test = re.sub(r"\[.*\]$", "", name)
        assert re.search(rf"^def {test}\(", source, re.M), node
