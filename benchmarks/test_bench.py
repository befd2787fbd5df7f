"""Checks on the benchmark itself: counts repeat, gates pass on a second
seed, and the metrics match BENCHMARK.json.

    python3 -m pytest benchmarks/test_bench.py
"""

import functools
import json

import numpy as np
import pytest

import run
from tracer import Tracer

workloads = run.load_workloads()


def traced_counts(wl):
    with Tracer() as tracer:
        unit = wl.run_unit(tracer)
    assert unit.failed == 0, unit.errors
    assert tracer.absent == []
    summary = tracer.summary()
    return run.counts(summary, [unit]), run.layer_metrics(summary, [unit], [unit])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_and_second_seed_passes(name, tmp_path):
    wl = workloads.make(name, 7, tmp_path)
    wl.run_unit()  # warm, so that a pass never sees first-call effects
    first, metrics = traced_counts(wl)
    second, _ = traced_counts(wl)
    assert first == second
    assert first["ops"] > 0

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
    assert {m["name"] for m in declared["end_to_end"]} == set(run.END_TO_END_UNITS)

    other = workloads.make(name, 8, tmp_path).run_unit()
    assert other.failed == 0, other.errors


def test_tracer_restores_every_binding():
    import hbvm
    from hbvm import cli, integrator

    def bindings():
        return (hbvm.integrate, integrator.integrate, cli.integrate,
                integrator.lu_factor, cli.main)

    before = bindings()
    tracer = Tracer()
    for _ in range(2):  # a tracer is installed once per traced unit
        with tracer:
            assert integrator.integrate is not before[1]
            assert cli.integrate is integrator.integrate
            integrator.lu_factor(np.eye(3))
        assert bindings() == before
    assert tracer.summary()["layers"]["integrator.lu_factor"]["calls"] == 2
    assert tracer.absent == []


def test_reset_caches_clears_wrapped_caches(monkeypatch):
    from hbvm import legendre

    calls = []
    cached = functools.lru_cache(maxsize=None)(lambda n: calls.append(n))
    monkeypatch.setattr(legendre, "bench_cached", functools.wraps(cached)(
        lambda n: cached(n)), raising=False)
    legendre.bench_cached(1)
    legendre.bench_cached(1)
    workloads.reset_caches()
    legendre.bench_cached(1)
    assert calls == [1, 1]


def test_missing_target_is_an_absent_layer(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setitem(tracer_module.LAYER_TARGETS, "integrator.step",
                        ("hbvm.integrator:no_such_step",))
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["hbvm.integrator:no_such_step"]
    assert tracer.absent_layers() == ["integrator.step"]
    assert tracer.summary()["layers"]["integrator.step"] == {"calls": 0, "self_s": 0.0}


def test_throughput_scales_each_unit_by_the_references_around_it():
    class Workload:
        reference = "blas"

    units = [workloads.UnitResult(ops=100, failed=0, wall_s=1.0)] * 3
    nominal = run.REFERENCE_NOMINAL_S["blas"]
    refs = [nominal * f for f in (1.0, 3.0, 1.0, 1.0)]
    assert run.throughput(Workload, units, refs) == pytest.approx(200.0)
    assert run.reference_job("blas") > 0
