import json

import pytest

from tracevm import (VM, AblationMode, BenchmarkError, MethodRef, TargetSet, TraceAction,
                     TraceEngine, load_program, parse_program, run_ablation, run_modes)
from tracevm import bench as bench_module
from tracevm.bench import AblationMetrics, AblationReport, _measure_batches, bring_up

FAST = dict(latency_calls=3_000, warmup_calls=300, startup_reps=3, traffic_calls=400)


@pytest.fixture(scope="module")
def report(small_workload):
    return run_modes(small_workload, **FAST)


def test_all_modes_present(report):
    for mode in AblationMode:
        assert report.has_mode(mode)
    with pytest.raises(BenchmarkError):
        AblationReport([]).by_mode(AblationMode.FULL)


def test_baseline_touches_nothing(report):
    baseline = report.by_mode(AblationMode.BASELINE)
    assert baseline.startup_entry_points_modified == 0
    assert baseline.cpu_proxy_events == 0
    assert baseline.trace_events_emitted == 0


def test_full_touches_only_targets(report, small_workload):
    full = report.by_mode(AblationMode.FULL)
    assert full.startup_entry_points_modified == len(small_workload.target_entries)
    assert full.trace_events_emitted > 0


def test_global_touches_every_method(report, small_workload):
    n_methods = len(small_workload.program.methods)
    assert report.by_mode(AblationMode.GLOBAL).startup_entry_points_modified == n_methods


def test_cpu_proxy_ordering(report):
    baseline = report.by_mode(AblationMode.BASELINE).cpu_proxy_events
    full = report.by_mode(AblationMode.FULL).cpu_proxy_events
    globl = report.by_mode(AblationMode.GLOBAL).cpu_proxy_events
    assert baseline == 0
    assert 0 < full < globl


def test_trace_event_volume_is_mode_invariant(report):
    # same traffic, same targets: every traced mode emits the same events
    volumes = {report.by_mode(m).trace_events_emitted
               for m in (AblationMode.FULL, AblationMode.GLOBAL,
                         AblationMode.INTERPRETER)}
    assert len(volumes) == 1


def test_interpreter_stub_slower_than_quick(report):
    interp = report.by_mode(AblationMode.INTERPRETER).per_call_traced_ns
    quick = report.by_mode(AblationMode.FULL).per_call_traced_ns
    assert interp > quick


def test_teardown_leaves_registry_pristine(small_workload):
    # run_ablation raises if teardown leaves any method modified; reaching
    # the return value at all is the assertion
    metrics = run_ablation(AblationMode.FULL, small_workload, **FAST)
    assert metrics.startup_times_ns and len(metrics.startup_times_ns) == 3


def test_report_json_shape(report):
    doc = json.loads(report.to_json())
    assert {m["mode"] for m in doc["modes"]} == {m.value for m in AblationMode}
    assert "startup_global_over_full" in doc["ratios"]
    assert doc["ratios"]["startup_global_over_full"] > 0


def test_report_text_renders_all_modes(report):
    text = report.render_text()
    for mode in AblationMode:
        assert mode.value in text
    assert "startup_ms" in text


def test_report_rejects_mixed_fingerprints(report):
    a = report.by_mode(AblationMode.FULL)
    fields = a.to_dict()
    clone = AblationMetrics(
        mode=AblationMode.BASELINE, fingerprint="deadbeef",
        targets=a.targets, startup_time_ns=1, startup_times_ns=(1,),
        startup_entry_points_modified=0, per_call_traced_ns=1,
        per_call_untraced_ns=1, cpu_proxy_events=0, traffic_calls=0,
        trace_events_emitted=0, latency_calls=0)
    assert fields["mode"] == "full"
    with pytest.raises(BenchmarkError):
        AblationReport([a, clone])
    with pytest.raises(BenchmarkError):
        AblationReport([a, a])


def test_run_ablation_validates_params(small_workload):
    for params in ({"startup_reps": 0}, {"latency_calls": 0}, {"latency_calls": -3}):
        with pytest.raises(BenchmarkError):
            run_ablation(AblationMode.FULL, small_workload, **params)


def test_run_modes_rejects_a_repeated_mode_before_building_a_vm(small_workload, monkeypatch):
    built = []
    monkeypatch.setattr(bench_module, "VM", lambda *args, **kwargs: built.append(args))
    modes = [AblationMode.FULL, AblationMode.BASELINE, AblationMode.FULL]
    with pytest.raises(BenchmarkError, match="duplicate mode in"):
        run_modes(small_workload, modes, **FAST)
    assert built == []


def test_ratio_handles_zero_denominator(report):
    baseline = report.by_mode(AblationMode.BASELINE)
    assert baseline.cpu_proxy_events == 0
    value = report.ratio("cpu_proxy_events", AblationMode.FULL, AblationMode.BASELINE)
    assert value == float("inf")


def test_measure_calls_alternates_sides():
    calls, drains = [], []

    class RecordingVM:
        def invoke(self, thread, ref, args):
            calls.append(ref)

    class CountingSink:
        def drain(self):
            drains.append(len(calls))

    vm, sink = RecordingVM(), CountingSink()
    traced, untraced = [], []
    _measure_batches([(vm, None, "T", (), traced, sink), (vm, None, "U", (), untraced, sink)],
                     10, batch=3)
    assert len(traced) == len(untraced) == 10
    # batches of 3, 3, 3 and 1 per side; the side that goes first flips
    # every pair, so neither side always runs first or last
    assert "".join(calls) == "TTTUUU" "UUUTTT" "TTTUUU" "UT"
    assert drains == [3, 6, 9, 12, 15, 18, 19, 20]
    # two modes' probes: the order of all four sides flips every round
    calls.clear()
    samples = [[] for _ in range(4)]
    _measure_batches([(vm, None, ref, (), got, sink) for ref, got in zip("ABCD", samples)],
                     4, batch=3)
    assert "".join(calls) == "AAABBBCCCDDD" "DCBA"
    assert [len(got) for got in samples] == [4, 4, 4, 4]


@pytest.mark.parametrize("mode", [AblationMode.FULL, AblationMode.INTERPRETER,
                                  AblationMode.GLOBAL])
def test_every_traced_mode_traces_a_pending_target_once_its_class_loads(mode):
    vm = VM(load_program("class a.A\n  method f(int)\n    loadarg 0\n    ret"))
    engine = TraceEngine(vm)
    timed = (TraceAction.TIME_METHOD,)
    pending = [(MethodRef.parse("b.B.g(int)"), timed)]
    bring_up(engine, mode, TargetSet([(MethodRef.parse("a.A.f(int)"), timed)]), pending)
    vm.registry.load(parse_program("class b.B\n  method g(int)\n    loadarg 0\n    ret"))
    thread = vm.new_thread()
    for key in ("a.A.f(int)", "b.B.g(int)"):
        vm.invoke(thread, key, (1,))
    events = engine.drain().events
    assert [(e.method_ref.key, e.action) for e in events] == [
        ("a.A.f(int)", TraceAction.TIME_METHOD), ("b.B.g(int)", TraceAction.TIME_METHOD)]
