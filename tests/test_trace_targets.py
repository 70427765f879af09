"""Every span target of the benchmark tracer must exist in the program.

perfbench/tracer.py wraps named functions and methods (methods are looked
up in their own class's __dict__, so an inherited method is not found).
A target the program no longer has is only recorded in ``missing`` and its
per-layer metrics silently read zero; this test makes that a failure.
"""

import importlib.util
from pathlib import Path

import takiff
from takiff import BiPoly

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        BiPoly.var_h() + BiPoly.var_hb()
        assert tracer.totals()["poly.add"][0] == 1
    finally:
        tracer.disable()
    assert takiff.BiPoly.__dict__["__add__"] is takiff.sparse.LinComb.__add__
