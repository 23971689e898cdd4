import hashlib
import inspect

import pytest

from tracevm import VM, WorkloadError, gen_random_program, gen_workload
from tracevm.core import Opcode
from tracevm.workload import PROBE_TRACED, PROBE_UNTRACED, sample_args

import random


def test_same_seed_same_program():
    a = gen_workload(n_classes=6, methods_per_class=4, target_count=3, seed=42)
    b = gen_workload(n_classes=6, methods_per_class=4, target_count=3, seed=42)
    assert a.source == b.source
    assert a.fingerprint == b.fingerprint
    assert a.hot_keys == b.hot_keys
    assert [r.key for r, _ in a.target_entries] == [r.key for r, _ in b.target_entries]
    c = gen_workload(n_classes=6, methods_per_class=4, target_count=3, seed=43)
    assert c.source != a.source


def test_workload_shape(small_workload):
    w = small_workload
    registry = w.program.instantiate()
    # 12 classes x 10 methods plus the two probes
    assert len(registry) == 122
    assert PROBE_TRACED.key in registry
    assert PROBE_UNTRACED.key in registry
    assert len(w.target_entries) == 4
    target_keys = {r.key for r, _ in w.target_entries}
    assert PROBE_TRACED.key in target_keys
    assert w.interp_traced.key in target_keys
    assert w.interp_traced.key not in w.hot_keys


def test_probe_bodies_are_straight_line_twins(small_workload):
    registry = small_workload.program.instantiate()
    flow = {Opcode.JUMP, Opcode.JUMP_IF_ZERO, Opcode.CALL}
    traced = registry.lookup(PROBE_TRACED.key)
    plain = registry.lookup(PROBE_UNTRACED.key)
    for rec in (traced, plain):
        assert not any(ins.op in flow for ins in rec.bytecode)
    # identical work, so a latency delta is attributable to the stub alone
    assert [tuple(i) for i in traced.bytecode] == [tuple(i) for i in plain.bytecode]


def test_traffic_is_deterministic_and_runnable(small_workload):
    w = small_workload
    calls = w.traffic(200)
    assert calls == w.traffic(200)
    assert len(calls) == 200
    root_set = set(w.root_keys)
    assert {k for k, _ in calls} <= root_set
    vm = VM(w.program.instantiate())
    thread = vm.new_thread()
    for key, args in calls[:50]:
        vm.invoke(thread, key, args)


def test_traffic_hot_bias(small_workload):
    w = small_workload
    hot = set(w.hot_root_keys)
    if not hot or hot == set(w.root_keys):
        pytest.skip("seed produced no cold roots to compare against")
    calls = w.traffic(2_000)
    hot_share = sum(1 for k, _ in calls if k in hot) / len(calls)
    assert hot_share > 0.6


def test_build_config_matches_targets(small_workload):
    config = small_workload.build_config()
    assert config.approved is True
    assert config.rollout_fraction == 1.0
    keys = {e.method_ref().key for e in config.entries}
    assert keys == {r.key for r, _ in small_workload.target_entries}


def test_workload_param_validation():
    with pytest.raises(WorkloadError):
        gen_workload(n_classes=1)
    with pytest.raises(WorkloadError):
        gen_workload(methods_per_class=0)
    with pytest.raises(WorkloadError):
        gen_workload(n_classes=2, methods_per_class=2, target_count=3)
    with pytest.raises(WorkloadError):
        gen_workload(target_count=1)


def test_random_programs_parse_and_terminate():
    for seed in range(20):
        program, refs = gen_random_program(seed)
        vm = VM(program.instantiate())
        thread = vm.new_thread()
        rng = random.Random(seed)
        for ref in refs:
            value = vm.invoke(thread, ref, sample_args(rng, ref.arity))
            assert isinstance(value, int)
            assert -(2**63) <= value <= 2**63 - 1


def test_random_program_call_graph_is_acyclic():
    for seed in range(10):
        program, refs = gen_random_program(seed, n_methods=5)
        index = {ref.key: i for i, ref in enumerate(refs)}
        registry = program.instantiate()
        for ref in refs:
            rec = registry.lookup(ref)
            for ins in rec.bytecode:
                if ins.op is Opcode.CALL:
                    assert index[ins.arg.key] > index[ref.key]


def test_sample_args_exercises_extremes():
    rng = random.Random(7)
    values = [v for _ in range(400) for v in sample_args(rng, 2)]
    assert any(abs(v) > 2**60 for v in values)
    assert all(-(2**63) <= v <= 2**63 - 1 for v in values)


def test_generators_are_pinned_and_take_no_shape_knobs():
    # The benchmark's programs come from these generators and seeds, so their
    # output must not move; the body, probe and call sizes are constants.
    assert gen_workload(seed=1234).fingerprint == "2e52dbc6ca943c28"
    program, _refs = gen_random_program(7)
    text = repr([(m.ref.key, [(op, getattr(arg, "key", arg)) for op, arg in m.bytecode])
                 for m in program.methods])
    assert hashlib.blake2b(text.encode(), digest_size=8).hexdigest() == "6842ad477292f1a5"
    assert {"body_ops", "probe_ops", "call_chance"}.isdisjoint(
        inspect.signature(gen_workload).parameters)
    assert "max_body_ops" not in inspect.signature(gen_random_program).parameters
