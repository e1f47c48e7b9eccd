"""The tracer's self-time arithmetic and its install/restore of vemrcp attributes."""

import pytest

from spans import ENTRY_SPANS, PER_LAYER, Tracer
from workloads import make_workload


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    t = Tracer(clock=clock)
    with t.span("outer"):            # 0 .. 10
        clock.now = 2.0
        with t.span("child"):        # 2 .. 5
            clock.now = 3.0
            with t.span("leaf"):     # 3 .. 4
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 6.0
        with t.span("child"):        # 6 .. 8
            clock.now = 8.0
        clock.now = 10.0
    assert t.self_s["outer"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert t.self_s["child"] == pytest.approx((3.0 - 1.0) + 2.0)
    assert t.self_s["leaf"] == pytest.approx(1.0)
    assert t.calls == {"outer": 1, "child": 2, "leaf": 1}
    assert sum(t.self_s.values()) == pytest.approx(10.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = Tracer(clock=clock)
    with t.span("outer"):
        with pytest.raises(ValueError):
            with t.span("inner"):
                clock.now = 1.0
                raise ValueError
        clock.now = 3.0
    assert t.self_s == {"outer": pytest.approx(2.0), "inner": pytest.approx(1.0)}


def test_traced_wrapper_counts_and_names_by_arguments():
    clock = FakeClock()
    t = Tracer(clock=clock)
    seen = []

    def work(kind):
        clock.now += 1.0
        return kind * 2

    wrapped = t.traced(lambda args, kwargs: f"work.{args[0]}", work,
                       after=lambda result, args, kwargs, state: seen.append(result))
    assert wrapped("a") == "aa" and wrapped("b") == "bb" and wrapped("a") == "aa"
    assert t.calls == {"work.a": 2, "work.b": 1}
    assert t.self_s["work.a"] == pytest.approx(2.0)
    assert seen == ["aa", "bb", "aa"]
    assert wrapped.__wrapped__ is work


def _snapshot():
    from vemrcp import cases, cli, generators, mesh, quadrature, recovery, study, vem

    modules = (cases, cli, generators, mesh, quadrature, recovery, study, vem)
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_install_restores_every_module_attribute(tmp_path):
    before = _snapshot()
    tracer = Tracer()
    workload = make_workload("cli-small", seed=0, size="tiny")
    with tracer.installed():
        changed = {k for k, v in _snapshot().items() if before[k] is not v}
        workload.run_pass(tmp_path)
    after = _snapshot()
    assert ("vemrcp.study", "generate_mesh") in changed
    assert ("vemrcp.recovery", "cell_quadrature") in changed
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["generators.generate_mesh"] == len(workload.families)


def test_install_restores_after_an_error():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)


def test_layer_metrics_cover_every_named_metric(tmp_path):
    tracer = Tracer()
    workload = make_workload("study-recover", seed=0, size="tiny")
    with tracer.installed():
        import time

        start = time.perf_counter()
        workload.run_pass(tmp_path)
        elapsed = time.perf_counter() - start
    metrics = tracer.layer_metrics(elapsed)
    names = [name for name, _ in PER_LAYER]
    assert set(names) - set(metrics) == {"trace.overhead_s"}
    assert 0.9 < metrics["trace.coverage"] <= 1.0
    assert metrics["recovery.recover_field.rcp1.self_s"] > 0.0
    assert 0.0 < metrics["quadrature.cell_quadrature.hit_ratio"] < 1.0
    assert not set(ENTRY_SPANS) & set(names)
