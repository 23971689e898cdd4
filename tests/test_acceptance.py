"""Acceptance suite: eight release criteria, one printed verdict line each.

Verdict lines land in the "acceptance criteria" terminal summary section,
which pytest prints outside output capture. Each criterion pins its
tolerances inline; the suite is deterministic.
"""

import random
import re
import threading
import time
from contextlib import contextmanager

import pytest

from tracevm import (
    ConfigStatus,
    EntryPoint,
    FleetManager,
    PhaseError,
    TargetSet,
    TraceAction,
    TraceConfig,
    TraceEngine,
    VM,
    begin_canary,
    gen_random_program,
    load_program,
    redact_text,
    session_gate,
)
from tracevm.bench import AblationMode, run_modes
from tracevm.config import ConfigEntry
from tracevm.core import MethodRef
from tracevm.demo import run_ghost_bug

from diffutil import make_vectors, run_config


# one line per criterion, printed by the conftest terminal summary hook
VERDICTS: list[str] = []


@contextmanager
def verdict(name: str, detail_out: dict | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        VERDICTS.append(f"FAIL {name}")
        raise
    else:
        elapsed = time.perf_counter() - started
        extra = ""
        if detail_out:
            extra = " (" + ", ".join(f"{k}={v}" for k, v in detail_out.items()) + ")"
        VERDICTS.append(f"PASS {name} in {elapsed:.2f}s{extra}")


# -- criterion 1: surgical-injection exactness ---------------------------------

def test_criterion_1_surgical_injection_exactness(big_workload):
    detail = {}
    with verdict("criterion-1 surgical-injection exactness", detail):
        started = time.perf_counter()
        registry = big_workload.program.instantiate()
        assert len(registry) == 10_000
        targets = TargetSet(big_workload.target_entries)
        assert len(targets) == 5

        vm = VM(registry)
        engine = TraceEngine(vm)
        before = registry.snapshot_entry_points()
        engine.apply(targets)
        after = registry.snapshot_entry_points()
        modified = {key for key in after if after[key] is not before[key]}
        assert len(modified) == 5
        assert modified == targets.members
        engine.rollback()
        assert registry.snapshot_entry_points() == before

        report = vm.instrumentation.enable_method_tracing_native()
        assert report == 10_000
        walked = registry.snapshot_entry_points()
        assert sum(1 for key in walked if walked[key] is not before[key]) == 10_000
        vm.instrumentation.restore_all_entry_points()

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        detail.update(targeted_changes=5, global_changes=10_000,
                      budget=f"{elapsed:.2f}s<5s")


# -- criterion 2: ablation ordering -------------------------------------------

def test_criterion_2_ablation_ordering(big_workload):
    detail = {}
    with verdict("criterion-2 ablation ordering", detail):
        started = time.perf_counter()
        report = run_modes(
            big_workload,
            [AblationMode.FULL, AblationMode.GLOBAL, AblationMode.INTERPRETER],
            latency_calls=100_000, warmup_calls=2_000,
            startup_reps=5, traffic_calls=1_000)
        full = report.by_mode(AblationMode.FULL)
        globl = report.by_mode(AblationMode.GLOBAL)
        interp = report.by_mode(AblationMode.INTERPRETER)

        assert full.latency_calls >= 100_000
        assert full.startup_entry_points_modified == 5
        assert globl.startup_entry_points_modified == 10_000

        startup_ratio = globl.startup_time_ns / full.startup_time_ns
        assert startup_ratio >= 10.0

        stub_ratio = interp.per_call_traced_ns / full.per_call_traced_ns
        assert stub_ratio >= 2.0

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        detail.update(startup_ratio=f"{startup_ratio:.1f}x>=10x",
                      stub_ratio=f"{stub_ratio:.2f}x>=2x",
                      budget=f"{elapsed:.1f}s<60s")


# -- criterion 3: semantic neutrality ------------------------------------------

def test_criterion_3_semantic_neutrality():
    detail = {}
    with verdict("criterion-3 semantic neutrality", detail):
        n_programs = 1_000
        mismatches = 0
        inputs = 0
        for seed in range(n_programs):
            program, refs = gen_random_program(seed)
            vectors = make_vectors(program, refs, seed * 977 + 13, per_method=1)
            inputs += len(vectors)
            targets = refs[: max(1, len(refs) // 2)]
            idle = run_config(program, vectors, compiled=False)
            for setup in (
                run_config(program, vectors, compiled=True),
                run_config(program, vectors, compiled=False,
                           engine_mode="adaptive", targets=targets),
                run_config(program, vectors, compiled=True,
                           engine_mode="adaptive", targets=targets),
                run_config(program, vectors, compiled=True,
                           engine_mode="forced-interp", targets=targets),
            ):
                mismatches += sum(1 for a, b in zip(idle, setup) if a != b)
        assert inputs >= 1_000
        assert mismatches == 0
        detail.update(programs=n_programs, inputs=inputs, mismatches=0)


# -- criterion 4: ghost-bug scenario -------------------------------------------

def test_criterion_4_ghost_bug_stack():
    detail = {}
    with verdict("criterion-4 ghost-bug caller attribution", detail):
        started = time.perf_counter()
        stack, events, result = run_ghost_bug()
        expected = [
            "XTrace.intercept()",
            "androidx.window.WindowLayoutComponentImpl."
            "addWindowLayoutInfoListener(Context,Consumer)",
            "android.webkit.WebView.evaluateJavascript(String)",
            "com.bytedance.hybrid.spark.page.SparkFragment.onCreateView(Context)",
            "com.bytedance.hybrid.spark.page.SparkActivity.onStart()",
        ]
        assert stack == expected
        assert stack[0] == "XTrace.intercept()"
        assert any(frame.startswith("com.bytedance.") for frame in stack)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        detail.update(frames=len(stack), budget=f"{elapsed:.2f}s<1s")


# -- criterion 5: rollback completeness ----------------------------------------

def test_criterion_5_rollback_completeness(small_workload):
    detail = {}
    with verdict("criterion-5 rollback completeness", detail):
        started = time.perf_counter()
        n_sessions = 1_000
        manager = FleetManager(min_sessions=1_000)
        config = small_workload.build_config("cfg-accept-5", rollout_fraction=0.25)
        begin_canary(config)
        manager.register(config)
        sessions = manager.build_sessions(config.config_id, n_sessions,
                                          small_workload.program)
        admitted = sum(1 for s in sessions if s.admitted)
        assert admitted > 0

        metrics = manager.run_workload(config.config_id, small_workload.traffic(5),
                                       crash_rate=0.5)
        assert metrics.crashes > 0
        assert metrics.crash_rate > manager.thresholds.crash_rate_max
        status = manager.advance(config.config_id, metrics)
        assert status is ConfigStatus.ROLLED_BACK
        assert config.status is ConfigStatus.ROLLED_BACK

        pristine = small_workload.program.instantiate().snapshot_state()
        for session in sessions:
            assert session.vm.registry.snapshot_state() == pristine
            assert session.vm.instrumentation.listener_ids() == []

        manager.drain_events(config.config_id)
        emitted_before = sum(s.engine.sink.emitted_count for s in sessions)
        calls = small_workload.traffic(10)
        total_calls = 0
        for session in sessions:
            thread = session.vm.new_thread()
            for key, args in calls:
                session.vm.invoke(thread, key, args)
                total_calls += 1
        assert total_calls == 10_000
        assert manager.drain_events(config.config_id) == 0
        assert sum(s.engine.sink.emitted_count for s in sessions) == emitted_before

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        detail.update(sessions=n_sessions, admitted=admitted,
                      post_rollback_calls=total_calls, trace_events=0,
                      budget=f"{elapsed:.1f}s<30s")


# -- criterion 6: canary gate statistics ----------------------------------------

def test_criterion_6_canary_gate_statistics():
    detail = {}
    with verdict("criterion-6 canary gate statistics", detail):
        entry = ConfigEntry(TraceAction.TIME_METHOD, "a.A", "f", ("int",))
        config = TraceConfig("cfg-accept-6", (entry,), rollout_fraction=0.001,
                             approved=True)
        admitted = [i for i in range(1_000_000)
                    if session_gate(f"device-{i:07d}", config)]
        # 0.001 of 1e6 = 1,000 expected, +/-20% tolerance
        assert 800 <= len(admitted) <= 1_200

        rng = random.Random(20240819)
        sample = rng.sample(range(1_000_000), 5_000)
        admitted_set = set(admitted)
        for i in sample:
            assert session_gate(f"device-{i:07d}", config) == (i in admitted_set)

        fractions = [0.0005, 0.001, 0.01, 0.1, 1.0]
        ids = [f"device-{rng.randrange(10**9):09d}" for _ in range(5_000)]
        previous: set = set()
        for fraction in fractions:
            cfg = TraceConfig("cfg-accept-6", (entry,), rollout_fraction=fraction,
                              approved=True)
            current = {d for d in ids if session_gate(d, cfg)}
            assert previous <= current
            previous = current
        assert previous == set(ids)  # fraction 1.0 admits everyone

        detail.update(admitted=len(admitted), window="[800,1200]",
                      monotone_chain=len(fractions))


# -- criterion 7: redaction soundness -------------------------------------------

EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
DIGITS_RE = re.compile(r"\d{9,}")


def _adversarial_strings(rng: random.Random, count: int) -> list:
    words = ["order", "user", "x", "trace", "id:", "тест", "空", "...", "@@", "-"]
    out = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            if roll < 0.3:
                local = "".join(rng.choices("ab9._%+-", k=rng.randint(1, 10)))
                domain = "".join(rng.choices("cd8", k=rng.randint(1, 6)))
                tld = "".join(rng.choices("efg", k=rng.randint(2, 4)))
                parts.append(f"{local}@{domain}.{tld}")
            elif roll < 0.6:
                parts.append(str(rng.randrange(10 ** rng.randint(1, 18))))
            else:
                parts.append(rng.choice(words))
        out.append(rng.choice(["", " "]).join(parts))
    return out


def _string_values(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _string_values(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _string_values(v)


def test_criterion_7_redaction_soundness():
    detail = {}
    with verdict("criterion-7 redaction soundness and idempotence", detail):
        rng = random.Random(7771)
        strings = _adversarial_strings(rng, 3_000)
        for text in strings:
            once = redact_text(text)
            assert not EMAIL_RE.search(once)
            assert not DIGITS_RE.search(once)
            assert redact_text(once) == once

        # end to end: PII constants flow through capture into the sink redacted
        source = """
class pii.Gateway
  method submit(java.lang.String)
    loadarg 0
    ret
  method run()
    pushconst "ship to eve.adams+promo@shop-mail.co today"
    call pii.Gateway.submit(java.lang.String)
    pushconst "pan=4111111111111111 cvv=123"
    call pii.Gateway.submit(java.lang.String)
    add
    ret
"""
        vm = VM(load_program(source))
        engine = TraceEngine(vm)
        engine.apply(TargetSet([(MethodRef.parse("pii.Gateway.submit(java.lang.String)"),
                                 (TraceAction.CAPTURE_ARGS,))]))
        for _ in range(20):
            vm.invoke(vm.new_thread(), "pii.Gateway.run()", ())
        events = engine.drain().events
        assert len(events) == 40
        flagged = 0
        for event in events:
            for text in _string_values(event.payload):
                assert not EMAIL_RE.search(text)
                assert not DIGITS_RE.search(text)
                flagged += text.count("[REDACTED:")
        assert flagged >= 40  # the known PII really was tokenized, not dropped
        detail.update(strings=len(strings), events=len(events),
                      tokens=flagged)


# -- criterion 8: phase machine and concurrency ----------------------------------

def _fresh_engine():
    source = """
class c.C
  method f(int)
    loadarg 0
    pushconst 5
    mul
    ret
  method g(int)
    loadarg 0
    pushconst 1
    add
    ret
"""
    vm = VM(load_program(source))
    return vm, TraceEngine(vm)


def test_criterion_8_phase_machine_and_concurrency(small_workload):
    detail = {}
    with verdict("criterion-8 phase machine and concurrency", detail):
        # part 1: generated operation sequences never partially mutate
        target = TargetSet([(MethodRef.parse("c.C.f(int)"),
                             (TraceAction.TIME_METHOD,))])
        rng = random.Random(4242)
        op_names = ["suppress", "inject", "install", "activate", "rollback"]
        illegal_hits = 0
        for _ in range(200):
            vm, engine = _fresh_engine()
            ops = {
                "suppress": engine.suppress_global_tracing,
                "inject": lambda: engine.inject_targets(target),
                "install": engine.install_dispatcher,
                "activate": engine.activate,
                "rollback": engine.rollback,
            }
            # mirror of the legal machine: which op may run in which phase
            state = "idle"
            legal_next = {
                "idle": {"suppress", "rollback"},
                "suppressed": {"inject", "rollback"},
                "injected": {"install", "activate_after_install", "rollback"},
                "active": {"rollback"},
            }
            installed = False
            for name in rng.choices(op_names, k=rng.randint(2, 7)):
                marker = name
                if name == "activate":
                    marker = "activate_after_install" if installed else "activate_blocked"
                allowed = marker in legal_next[state] and marker != "activate_blocked"
                if allowed:
                    ops[name]()
                    if name == "suppress":
                        state = "suppressed"
                    elif name == "inject":
                        state = "injected"
                    elif name == "install":
                        installed = True
                    elif name == "activate":
                        state = "active"
                    elif name == "rollback":
                        state, installed = "idle", False
                else:
                    snapshot = vm.registry.snapshot_state()
                    listeners = vm.instrumentation.listener_ids()
                    phase = engine.phase
                    with pytest.raises(PhaseError):
                        ops[name]()
                    illegal_hits += 1
                    assert vm.registry.snapshot_state() == snapshot
                    assert vm.instrumentation.listener_ids() == listeners
                    assert engine.phase is phase
        assert illegal_hits > 100

        # part 2: 8-thread invoke stress while stubs churn
        vm = VM(small_workload.program.instantiate())
        probe = small_workload.latency_traced
        vm.jit_compile(probe)
        record = vm.registry.lookup(probe)
        expected_value = vm.invoke(vm.new_thread(), probe, (7,))
        engine = TraceEngine(vm)
        targets = TargetSet(small_workload.target_entries)

        valid_entries = {EntryPoint.COMPILED_DIRECT,
                         EntryPoint.INSTRUMENTATION_QUICK_STUB}
        wrong: list = []
        torn: list = []
        stop = threading.Event()
        barrier = threading.Barrier(9)

        def worker(index: int):
            thread = vm.new_thread(f"stress-{index}")
            barrier.wait()
            for _ in range(3_000):
                observed = record.entry_point
                if observed not in valid_entries:
                    torn.append(observed)
                value = vm.invoke(thread, probe, (7,))
                if value != expected_value:
                    wrong.append(value)
            stop.set()

        workers = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for w in workers:
            w.start()
        barrier.wait()
        cycles = 0
        while not stop.is_set():
            engine.apply(targets)
            engine.drain()
            engine.rollback()
            cycles += 1
        for w in workers:
            w.join()
        engine.rollback()

        assert wrong == []
        assert torn == []
        assert cycles > 0
        assert record.entry_point is EntryPoint.COMPILED_DIRECT
        detail.update(illegal_ops=illegal_hits, threads=8,
                      calls=8 * 3_000, churn_cycles=cycles,
                      wrong_results=0, torn_observations=0)
