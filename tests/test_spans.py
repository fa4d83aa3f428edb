"""The benchmark's tracer finds every function it wraps.

`bench/spans.py` wraps parcut's functions by (module, name), so a
function moved to another module breaks the traced benchmark run while
every other test passes.  The file is loaded by path, as `bench/run.py`
imports it, and is not changed.
"""

import importlib.util
from pathlib import Path

import parcut
from parcut.geometry import regular_polygon

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped(spans):
    """{(module, name): the function parcut has there now}."""
    return {
        (mod, name): getattr(getattr(parcut, mod), name)
        for places in spans.WRAPPED.values()
        for mod, name in places
    }


def test_every_wrapped_name_resolves():
    spans = _load_spans()
    for span, places in spans.WRAPPED.items():
        for mod, name in places:
            module = getattr(parcut, mod, None)
            assert module is not None, f"{span}: parcut has no module {mod}"
            assert callable(getattr(module, name, None)), f"{span}: parcut.{mod}.{name} is missing"


def test_tracer_installs_records_and_restores():
    spans = _load_spans()
    before = _wrapped(spans)
    tracer = spans.Tracer(parcut)
    with tracer.installed():
        for key, fn in _wrapped(spans).items():
            assert fn is not before[key], f"parcut.{key[0]}.{key[1]} was not wrapped"
        first = len(tracer.spans)
        solution, _, _ = tracer.call("solve", parcut.solve, regular_polygon(8), 3)
        report, _, _ = tracer.call("verify", parcut.verify_solution, regular_polygon(8), 3,
                                   solution.rho, solution.direction, solution.cuts)
        metrics = tracer.pass_metrics(first, 1)
    assert _wrapped(spans) == before
    assert solution.verification.ok and report.ok
    names = {span[0] for span in tracer.spans}
    assert {"solve", "verify", "geometry.diameter", "solver.place_cuts",
            "solver.verify_solution"} <= names
    assert metrics["solver.vertex_inspections"] > 0
    assert metrics["solver.verify_solution_ms"] > 0
    assert metrics["lp.small_lp_calls"] > 0
