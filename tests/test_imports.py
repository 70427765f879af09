"""No module of the package imports a name it never uses, and
``import takiff`` loads no heavy standard-library module.

Each module under src/takiff is parsed, and every name an import binds
must be read somewhere in that module.  The package ``__init__`` binds
its imports to re-export them as the public API, so it is left out.
ALLOWED lists the names a module keeps bound for readers elsewhere.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "takiff"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# perfbench/selfcheck.py looks family_act up as takiff.tensor.family_act
ALLOWED = {("tensor", "family_act")}


def imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def unused_imports(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported_names(tree) - used)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = [n for n in unused_imports(parse(path))
              if (path.stem, n) not in ALLOWED]
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_the_allowed_names_are_still_bound_and_unused():
    for stem, name in ALLOWED:
        assert name in unused_imports(parse(SRC / f"{stem}.py")), (stem, name)


def test_the_walk_sees_unused_and_used_names():
    tree = ast.parse("import os.path\nfrom math import gcd, lcm as l\n"
                     "from .x import y\nl(os.sep, 2)\n")
    assert unused_imports(tree) == ["gcd", "y"]


# Modules every takiff process would pay for at start-up: dataclasses
# brings inspect (and ast, dis, tokenize) with it, and argparse is read
# by the command line only.
HEAVY = ("dataclasses", "inspect", "argparse", "typing")


def test_import_takiff_loads_no_heavy_module():
    """In an isolated interpreter (no site, no environment), importing
    the package leaves each HEAVY module out of sys.modules.  -B: -I
    drops PYTHONDONTWRITEBYTECODE, and the run writes no bytecode."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import takiff; "
            "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code,
                           str(SRC.parent), *HEAVY],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_a_closure_run_loads_no_induced_module():
    """takiff.induced is loaded on first use: a closure run_suite leaves
    it out of sys.modules, and the package still resolves its names."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import takiff; "
            "takiff.run_suite(takiff.JobConfig('irreducible', depth=1, "
            "seeds=1)); print('takiff.induced' in sys.modules); "
            "from takiff import check_phi; "
            "print(check_phi is sys.modules['takiff.induced'].check_phi)")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code,
                           str(SRC.parent)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
