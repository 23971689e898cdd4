"""Tests of the benchmark itself: its reference evaluator, its checks and its
accounting. Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import fleet_canary  # noqa: E402
import hot_session  # noqa: E402
import session_churn  # noqa: E402
from common import Recorder, wire_config  # noqa: E402
from layers import METRICS, SLOWDOWN  # noqa: E402
from machine import Block, Pairer, Stopwatch  # noqa: E402
from refeval import RefEval, normalise_event, wrap64  # noqa: E402

import tracevm as tv  # noqa: E402

SMALL = {"n_classes": 12, "methods_per_class": 10, "target_count": 4}


@pytest.fixture
def small_programs(monkeypatch):
    for module in (hot_session, session_churn, fleet_canary):
        monkeypatch.setattr(module, "PROGRAM", SMALL)
    # The hit bands fit the full-size program; any reached method will do here.
    monkeypatch.setattr(hot_session, "COMPILED_HITS", (1, 10**6))
    monkeypatch.setattr(hot_session, "INTERPRETED_HITS", (1, 10**6))
    monkeypatch.setattr(fleet_canary, "LIST_ENTRIES", (1, 10**6))
    monkeypatch.setattr(fleet_canary, "TARGET_HITS", (1, 10**6))


def _setup(kind, seed=3):
    rec = Recorder(kind.known_faults)
    workload = kind(seed, rec)
    workload.setup(Stopwatch())
    return workload, rec


def test_wrap64_matches_the_vm():
    assert wrap64(2**63) == -(2**63)
    assert wrap64(-(2**63) - 1) == 2**63 - 1
    for value in (0, 1, -1, 2**64 + 5, -(2**70) + 3):
        assert wrap64(value) == tv.wrap_i64(value)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reference_evaluator_agrees_with_both_tiers(seed):
    program, refs = tv.gen_random_program(seed, n_methods=6)
    ref = RefEval(program)
    vm = tv.VM(program.instantiate())
    rng = random.Random(seed)
    for method in refs:
        for _ in range(5):
            args = tv.sample_args(rng, method.arity)
            assert ref.run(method.key, args) == vm.invoke(vm.new_thread(), method, args)
    for method in refs:
        vm.jit_compile(method)
    for method in refs:
        args = tv.sample_args(rng, method.arity)
        assert ref.run(method.key, args) == vm.invoke(vm.new_thread(), method, args)


def test_reference_events_match_a_traced_run():
    work = tv.gen_workload(seed=5, **SMALL)
    ref = RefEval(work.program)
    calls = work.traffic(40)
    vm = tv.VM(work.program.instantiate())
    for key in work.hot_keys:
        vm.jit_compile(key)
    keys = sorted(work.program.method_keys())[:20]
    targets = {k: {1 + i % 3} for i, k in enumerate(keys)}
    targets[keys[0]] = {1, 2, 3}
    config = tv.parse_config(wire_config("t", targets))
    engine = tv.TraceEngine(vm)
    target_set, _, pending = tv.resolve_targets(config, vm.registry)
    engine.apply(target_set, pending=pending)
    thread = vm.new_thread()
    expected: list = []
    for key, args in calls:
        assert vm.invoke(thread, key, args) == ref.run(key, args, targets, expected)
    drained = engine.drain()
    assert expected, "the traffic should reach some targets"
    assert [normalise_event(e) for e in drained.events] == expected


def test_results_check_counts_a_wrong_result():
    assert checks.results_match([1, 2, 3], [1, 2, 3]) == 0
    assert checks.results_match([1, 2, 3], [1, 5, 3]) == 1
    assert checks.results_match([1, 2, 3], [1, 2]) == 3


def test_events_check_finds_a_missing_event():
    ref = tv.MethodRef("a.B", "m", ("int",))
    events = [tv.TraceEvent(0, 1, ref, tv.TraceAction.TIME_METHOD, {"duration_ns": 5}),
              tv.TraceEvent(1, 2, ref, tv.TraceAction.CAPTURE_ARGS,
                            {"args": [1], "return": 2})]
    expected = [("time", ref.key), ("args", ref.key, (1,), 2)]
    assert checks.events_match(expected, events) == []
    assert checks.events_match(expected, events[:1])
    assert checks.events_match(expected, events[1:])
    bad = [tv.TraceEvent(0, 1, ref, tv.TraceAction.TIME_METHOD, {"duration_ns": 0}),
           events[1]]
    assert checks.events_match(expected, bad)


def test_restore_check_finds_an_entry_point_on_the_wrong_tier():
    work = tv.gen_workload(seed=5, **SMALL)
    vm = tv.VM(work.program.instantiate())
    for key in work.hot_keys:
        vm.jit_compile(key)
    assert checks.restored(vm) == []
    record = vm.registry.get(work.hot_keys[0])
    record.entry_point = tv.EntryPoint.INTERPRETER_BRIDGE
    assert checks.restored(vm)
    record.entry_point = tv.EntryPoint.COMPILED_DIRECT
    record.original_entry_point = tv.EntryPoint.COMPILED_DIRECT
    assert checks.restored(vm)


def test_gate_rule_matches_the_config_gate():
    config = tv.parse_config(wire_config("cfg-x", {"a.B.m()": {3}}, 0.25))
    for i in range(200):
        device = f"device-{i:06d}"
        assert checks.gate_admits(device, "cfg-x", 0.25) == tv.session_gate(device, config)


def test_hot_session_round_is_correct(small_programs):
    workload, rec = _setup(hot_session.HotSession)
    for i in range(3):
        workload.round(i, Pairer())
    workload.finish(Pairer())
    assert rec.correct, rec.unexpected
    assert rec.failed == 0


def test_hot_session_catches_a_wrong_result(small_programs, monkeypatch):
    workload, rec = _setup(hot_session.HotSession)
    key = workload.traffic[0][0][0]
    record = workload.vm.registry.get(key)
    original = record.lowered_code or (lambda vm, th, args: 0)
    monkeypatch.setattr(record, "entry_point", tv.EntryPoint.COMPILED_DIRECT)
    monkeypatch.setattr(record, "lowered_code",
                        lambda vm, th, args: wrap64(original(vm, th, args) + 1))
    workload.round(0, Pairer())
    assert not rec.correct
    assert rec.failed_by_step["traffic_results"] >= 1


def test_hot_session_catches_a_missing_event(small_programs, monkeypatch):
    workload, rec = _setup(hot_session.HotSession)
    append = tv.EventSink.append
    dropped = []

    def lossy(self, event):
        if not dropped:
            dropped.append(event)
            return True
        return append(self, event)

    monkeypatch.setattr(tv.EventSink, "append", lossy)
    workload.round(0, Pairer())
    assert not rec.correct
    assert rec.failed_by_step["events"] == 1


def test_churn_fails_only_the_two_named_faults(small_programs):
    workload, rec = _setup(session_churn.SessionChurn)
    for i in range(4):
        workload.round(i, Pairer())
    assert rec.correct, rec.unexpected
    assert dict(rec.failed_by_step) == {"compile_while_traced": 4, "late_second_action": 4}
    assert rec.failed * 6 == rec.attempted


def test_churn_compares_global_and_targeted_activation(small_programs):
    workload, rec = _setup(session_churn.SessionChurn)
    workload.compare_activation()
    assert rec.correct, rec.unexpected
    assert rec.attempted == 0
    assert len(workload.activation["global"]) == session_churn.ACTIVATION_REPS


def test_churn_catches_an_entry_point_left_on_the_wrong_tier(small_programs, monkeypatch):
    workload, rec = _setup(session_churn.SessionChurn)
    restore = tv.Instrumentation.restore_entry_point_for_method
    skipped = []

    def forgetful(self, record):
        # Leave one loaded target on its stub; the late target is already
        # counted by the known compile-while-traced fault.
        if not skipped and not record.method_ref.class_name.startswith("app.Late"):
            skipped.append(record)
            return False
        return restore(self, record)

    monkeypatch.setattr(tv.Instrumentation, "restore_entry_point_for_method", forgetful)
    workload.round(0, Pairer())
    assert not rec.correct
    assert rec.failed_by_step["rollback_restore"] == 1


def test_fleet_rounds_promote_and_roll_back(small_programs):
    workload, rec = _setup(fleet_canary.FleetCanary)
    for i in range(4):
        workload.round(i, Pairer())
    assert rec.correct, rec.unexpected
    # Per round: one check per session, the lifecycle and every probe block.
    assert rec.attempted == 4 * (fleet_canary.SESSIONS + 1 + 2 * fleet_canary.PROBE_PAIRS)


@pytest.mark.parametrize("kind", [hot_session.HotSession, session_churn.SessionChurn,
                                  fleet_canary.FleetCanary])
def test_every_workload_gives_every_end_to_end_metric(small_programs, kind):
    workload, rec = _setup(kind)
    pair = Pairer()
    rounds = [workload.round(i, pair) for i in range(workload.pass_len)]
    pair.close()
    assert rec.correct, rec.unexpected
    figures = workload.figures(rounds, Block.raw)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for m in bench["end_to_end"]:
        if m["name"] not in ("setup_s", "peak_rss_mb"):
            assert figures[m["name"]] > 0, m["name"]


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    known = {**{n: (u, b) for n, (u, b, _) in METRICS.items()}, SLOWDOWN: ("x", "lower")}
    for m in bench["per_layer"]:
        assert known[m["name"]] == (m["unit"], m["better"]), m["name"]
    assert [w["name"] for w in bench["workloads"]] == [
        "hot_session", "session_churn", "fleet_canary"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
