"""The benchmark tracer patches library functions by name; a renamed or
deleted function would silently drop its layer from the traced runs."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_has_a_target_that_resolves():
    tracer = _load_tracer()
    unresolved = [layer for layer, targets in tracer.LAYER_TARGETS.items()
                  if all(tracer._resolve(t) is None for t in targets)]
    assert tracer.LAYER_TARGETS and unresolved == []


def test_every_integrator_target_resolves():
    # a refactor of the step path must not drop one of the integrator's
    # layers while another target of the same layer still resolves
    tracer = _load_tracer()
    targets = [t for ts in tracer.LAYER_TARGETS.values() for t in ts
               if t.startswith("hbvm.integrator:")]
    assert targets
    assert [t for t in targets if tracer._resolve(t) is None] == []
