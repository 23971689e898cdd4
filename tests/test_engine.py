import pytest

from tracevm import (
    ConfigEntry,
    EntryPoint,
    EventKind,
    EventSink,
    MethodRef,
    PhaseError,
    TargetSet,
    TraceAction,
    TraceEngine,
    TraceConfig,
    TracePhase,
    VM,
    load_program,
    parse_program,
    resolve_targets,
)
from tracevm.engine import INTERCEPT_REF, PROXY_LISTENER_ID

SRC = """
class app.Main
  method leaf(int)
    loadarg 0
    pushconst 3
    mul
    ret
  method mid(int)
    loadarg 0
    call app.Main.leaf(int)
    ret
  method top(int)
    loadarg 0
    call app.Main.mid(int)
    ret
  method other()
    pushconst 7
    ret
class app.Extra
  method noise(int)
    loadarg 0
    ret
"""

LATE_SRC = """
class late.Plugin
  method hook(int)
    loadarg 0
    pushconst 1
    add
    ret
"""


def make_engine(capacity=1024):
    vm = VM(load_program(SRC))
    return vm, TraceEngine(vm, EventSink(capacity=capacity))


def targets(*entries):
    return TargetSet([(MethodRef.parse(k), acts) for k, acts in entries])


# -- target set ----------------------------------------------------------------

def test_target_set_merges_duplicates_in_order():
    ref = MethodRef.parse("a.A.f()")
    ts = TargetSet([(ref, (TraceAction.TIME_METHOD,)),
                    (ref, (TraceAction.CAPTURE_ARGS, TraceAction.TIME_METHOD))])
    assert len(ts) == 1
    assert ts.actions_for("a.A.f()") == (TraceAction.TIME_METHOD, TraceAction.CAPTURE_ARGS)


def test_target_set_rejects_empty_actions():
    with pytest.raises(ValueError):
        TargetSet([(MethodRef.parse("a.A.f()"), ())])


def test_target_set_with_target_returns_new_object():
    base = targets(("a.A.f()", (TraceAction.CAPTURE_STACK,)))
    grown = base.with_target(MethodRef.parse("b.B.g()"), (TraceAction.TIME_METHOD,))
    assert "b.B.g()" not in base
    assert "b.B.g()" in grown
    assert len(base) == 1 and len(grown) == 2


# -- phase machine ---------------------------------------------------------------

def test_phase_order_is_enforced():
    _, engine = make_engine()
    ts = targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)))
    with pytest.raises(PhaseError):
        engine.inject_targets(ts)
    with pytest.raises(PhaseError):
        engine.install_dispatcher()
    with pytest.raises(PhaseError):
        engine.activate()
    engine.suppress_global_tracing()
    with pytest.raises(PhaseError):
        engine.suppress_global_tracing()
    with pytest.raises(PhaseError):
        engine.activate()
    engine.inject_targets(ts)
    with pytest.raises(PhaseError):
        engine.inject_targets(ts)
    with pytest.raises(PhaseError):
        engine.activate()  # dispatcher not built yet
    engine.install_dispatcher()
    engine.activate()
    with pytest.raises(PhaseError):
        engine.apply_global(ts)
    assert engine.phase is TracePhase.ACTIVE


def test_failed_op_leaves_phase_unchanged():
    vm, engine = make_engine()
    ts = targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)))
    before = vm.registry.snapshot_state()
    with pytest.raises(PhaseError):
        engine.activate()
    assert engine.phase is TracePhase.IDLE
    assert vm.registry.snapshot_state() == before
    assert vm.instrumentation.listener_ids() == []


# -- targeted bring-up -------------------------------------------------------------

def test_apply_changes_only_targets():
    vm, engine = make_engine()
    vm.jit_compile("app.Main.leaf(int)")
    before = vm.registry.snapshot_entry_points()
    report = engine.apply(targets(
        ("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)),
        ("app.Main.mid(int)", (TraceAction.CAPTURE_ARGS,)),
    ))
    after = vm.registry.snapshot_entry_points()
    changed = {k for k in after if after[k] != before[k]}
    assert changed == {"app.Main.leaf(int)", "app.Main.mid(int)"}
    assert report.entry_points_changed == 2
    assert report.mode == "targeted"
    # tier-matched stubs
    assert after["app.Main.leaf(int)"] is EntryPoint.INSTRUMENTATION_QUICK_STUB
    assert after["app.Main.mid(int)"] is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    assert vm.instrumentation.listener_ids() == [PROXY_LISTENER_ID]
    assert not vm.instrumentation.is_default_activation


def test_activation_step_changes_no_entry_points():
    vm, engine = make_engine()
    engine.suppress_global_tracing()
    engine.inject_targets(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    snapshot = vm.registry.snapshot_entry_points()
    engine.install_dispatcher()
    result = engine.activate()
    assert result is None
    assert vm.registry.snapshot_entry_points() == snapshot


def test_forced_interpreter_mode():
    vm, engine = make_engine()
    vm.jit_compile("app.Main.leaf(int)")
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))),
                 adaptive=False)
    rec = vm.registry.lookup("app.Main.leaf(int)")
    assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    # the traced call still runs, through the interpreter
    assert vm.invoke(vm.new_thread(), "app.Main.leaf(int)", (4,)) == 12


def test_filtering_is_exact():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    thread = vm.new_thread()
    for i in range(5):
        vm.invoke(thread, "app.Main.top(int)", (i,))
        vm.invoke(thread, "app.Main.other()", ())
        vm.invoke(thread, "app.Extra.noise(int)", (i,))
    events = engine.drain().events
    assert len(events) == 5
    assert {e.method_ref.key for e in events} == {"app.Main.leaf(int)"}
    # untargeted methods were dispatched but filtered
    assert engine.spurious_filtered > 0


def test_capture_stack_payload():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.CAPTURE_STACK,))))
    vm.invoke(vm.new_thread(), "app.Main.top(int)", (2,))
    events = engine.drain().events
    assert len(events) == 1
    assert events[0].payload["stack"] == [
        INTERCEPT_REF.key,
        "app.Main.leaf(int)",
        "app.Main.mid(int)",
        "app.Main.top(int)",
    ]


def test_capture_args_payload_with_interning():
    src = SRC + """
class app.Fmt
  method echo(java.lang.String)
    loadarg 0
    ret
  method run()
    pushconst "layout-probe"
    call app.Fmt.echo(java.lang.String)
    ret
"""
    vm = VM(load_program(src))
    engine = TraceEngine(vm, EventSink())
    engine.apply(targets(("app.Fmt.echo(java.lang.String)", (TraceAction.CAPTURE_ARGS,))))
    vm.invoke(vm.new_thread(), "app.Fmt.run()", ())
    events = engine.drain().events
    assert len(events) == 1
    assert events[0].payload == {"args": ["layout-probe"], "return": "layout-probe"}


def test_capture_args_redacts_pii():
    src = """
class pii.P
  method send(java.lang.String)
    loadarg 0
    ret
  method run()
    pushconst "contact user@host.com or 4111111111111111"
    call pii.P.send(java.lang.String)
    ret
"""
    vm = VM(load_program(src))
    engine = TraceEngine(vm, EventSink())
    engine.apply(targets(("pii.P.send(java.lang.String)", (TraceAction.CAPTURE_ARGS,))))
    vm.invoke(vm.new_thread(), "pii.P.run()", ())
    events = engine.drain().events
    assert events[0].payload["args"] == ["contact [REDACTED:email] or [REDACTED:digits]"]
    assert events[0].payload["return"] == "contact [REDACTED:email] or [REDACTED:digits]"


def test_time_method_nested_recursion_pairs_correctly(fib_source):
    vm = VM(load_program(fib_source))
    engine = TraceEngine(vm, EventSink())
    engine.apply(targets(("demo.Math.fib(int)", (TraceAction.TIME_METHOD,))))
    vm.invoke(vm.new_thread(), "demo.Math.fib(int)", (6,))
    events = engine.drain().events
    # fib(6) makes 25 calls in total, one timing event each
    assert len(events) == 25
    assert all(e.payload["duration_ns"] >= 0 for e in events)
    assert engine.unmatched_exits == 0


def test_combined_actions_on_one_target():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)",
                          (TraceAction.CAPTURE_STACK, TraceAction.CAPTURE_ARGS,
                           TraceAction.TIME_METHOD))))
    vm.invoke(vm.new_thread(), "app.Main.top(int)", (3,))
    events = engine.drain().events
    actions = sorted(int(e.action) for e in events)
    assert actions == [1, 2, 3]
    args_event = next(e for e in events if int(e.action) == 2)
    assert args_event.payload == {"args": [3], "return": 9}


def test_interceptor_reentrancy_guard():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.CAPTURE_STACK,))))
    thread = vm.new_thread()
    # calls made from inside the interceptor must not trace again
    calls = []
    original = engine._on_target_enter

    def spying(th, ref, acts, call_args):
        calls.append(True)
        vm.invoke(th, "app.Main.leaf(int)", (1,))
        original(th, ref, acts, call_args)

    engine._on_target_enter = spying
    vm.invoke(thread, "app.Main.leaf(int)", (2,))
    assert calls == [True]
    assert len(engine.drain().events) == 1
    assert thread.in_interceptor is False
    assert thread.frames == []


def test_frames_are_method_refs_with_intercept_ref_innermost():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    seen = []
    original = engine._on_target_enter

    def spying(th, ref, flags, call_args):
        seen.append(list(th.frames))
        original(th, ref, flags, call_args)

    engine._on_target_enter = spying
    vm.invoke(vm.new_thread(), "app.Main.mid(int)", (2,))
    [frames] = seen
    assert frames[-1] is INTERCEPT_REF
    assert frames[:-1] == [MethodRef.parse("app.Main.mid(int)"),
                           MethodRef.parse("app.Main.leaf(int)")]
    assert all(type(f) is MethodRef for f in frames)


def test_unmatched_exit_is_tolerated():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    thread = vm.new_thread()
    ref = MethodRef.parse("app.Main.leaf(int)")
    engine._on_event(thread, ref, EventKind.METHOD_EXITED, (), 1, False)
    assert engine.unmatched_exits == 1
    assert len(engine.drain().events) == 0


# -- rollback -----------------------------------------------------------------------

def test_rollback_restores_everything_exactly():
    vm, engine = make_engine()
    vm.jit_compile("app.Main.leaf(int)")
    pristine = vm.registry.snapshot_state()
    engine.apply(targets(
        ("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)),
        ("app.Main.mid(int)", (TraceAction.CAPTURE_ARGS,)),
    ))
    assert vm.registry.snapshot_state() != pristine
    summary = engine.rollback()
    assert summary == {"listener_removed": True, "entry_points_restored": 2,
                       "handler_restored": True}
    assert vm.registry.snapshot_state() == pristine
    assert vm.instrumentation.listener_ids() == []
    assert vm.instrumentation.is_default_activation
    assert engine.phase is TracePhase.IDLE
    # idempotent
    again = engine.rollback()
    assert again["entry_points_restored"] == 0
    assert vm.registry.snapshot_state() == pristine


def test_rollback_after_partial_bringup():
    vm, engine = make_engine()
    pristine = vm.registry.snapshot_state()
    engine.suppress_global_tracing()
    engine.inject_targets(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    summary = engine.rollback()
    assert summary["listener_removed"] is False
    assert summary["entry_points_restored"] == 1
    assert summary["handler_restored"] is True
    assert vm.registry.snapshot_state() == pristine


def test_rollback_notes_compile_while_traced(caplog):
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    # the method gets compiled while the interpreter stub is installed
    vm.jit_compile("app.Main.leaf(int)")
    rec = vm.registry.lookup("app.Main.leaf(int)")
    assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    with caplog.at_level("INFO", logger="tracevm.instrumentation"):
        engine.rollback()
    # rollback restores the entry point that fits the tier, not the saved
    # interpreter bridge that predates the compile
    assert rec.entry_point is EntryPoint.COMPILED_DIRECT
    assert rec.original_entry_point is None
    assert any("compiled while traced" in r.message for r in caplog.records)
    before = vm.compiled_calls
    assert vm.invoke(vm.new_thread(), "app.Main.leaf(int)", (2,)) == 6
    assert vm.compiled_calls == before + 1


def test_traced_calls_produce_no_events_after_rollback():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.CAPTURE_STACK,))))
    vm.invoke(vm.new_thread(), "app.Main.leaf(int)", (1,))
    engine.rollback()
    engine.drain()
    before = vm.instrumentation.events_dispatched
    for i in range(50):
        vm.invoke(vm.new_thread(), "app.Main.leaf(int)", (i,))
    assert len(engine.drain().events) == 0
    assert vm.instrumentation.events_dispatched == before


# -- deferred injection ------------------------------------------------------------

def test_target_in_unloaded_class_injects_on_load():
    vm, engine = make_engine()
    report = engine.apply(targets(
        ("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)),
        ("late.Plugin.hook(int)", (TraceAction.CAPTURE_ARGS,)),
    ))
    assert report.pending == 1
    assert any("late.Plugin.hook(int)" in w for w in report.warnings)
    vm.registry.load(parse_program(LATE_SRC))
    rec = vm.registry.lookup("late.Plugin.hook(int)")
    assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    assert engine.status()["pending"] == 0
    vm.invoke(vm.new_thread(), "late.Plugin.hook(int)", (4,))
    events = engine.drain().events
    assert len(events) == 1
    assert events[0].payload == {"args": [4], "return": 5}
    # rollback covers late arrivals too
    engine.rollback()
    assert rec.entry_point is EntryPoint.INTERPRETER_BRIDGE


def test_late_target_keeps_every_pending_action():
    vm, engine = make_engine()
    hook = MethodRef.parse("late.Plugin.hook(int)")
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))),
                 pending=[(hook, (TraceAction.TIME_METHOD,)),
                          (hook, (TraceAction.CAPTURE_ARGS,))])
    assert engine.status()["pending"] == 2
    vm.registry.load(parse_program(LATE_SRC))
    status = engine.status()
    assert status["pending"] == 0
    assert status["injected"] == 2  # leaf and hook, each once
    vm.invoke(vm.new_thread(), "late.Plugin.hook(int)", (4,))
    events = engine.drain().events
    assert [int(e.action) for e in events] == [3, 2]
    assert events[1].payload == {"args": [4], "return": 5}
    assert engine.rollback()["entry_points_restored"] == 2
    assert vm.registry.lookup(hook).entry_point is EntryPoint.INTERPRETER_BRIDGE


def test_pending_target_loaded_before_apply_is_injected():
    vm, engine = make_engine()
    config = TraceConfig("late", (ConfigEntry(TraceAction.CAPTURE_ARGS, "late.Plugin", "hook",
                                              ("int",)),), approved=True)
    target_set, _warnings, pending = resolve_targets(config, vm.registry)
    assert len(target_set) == 0 and len(pending) == 1
    vm.registry.load(parse_program(LATE_SRC))  # arrives before apply: no load event
    report = engine.apply(target_set, pending=pending)
    assert report.pending == 0
    status = engine.status()
    assert status["pending"] == 0 and status["injected"] == 1
    assert status["targets"] == ["late.Plugin.hook(int)"]
    rec = vm.registry.lookup("late.Plugin.hook(int)")
    assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    vm.invoke(vm.new_thread(), "late.Plugin.hook(int)", (4,))
    assert [e.payload for e in engine.drain().events] == [{"args": [4], "return": 5}]
    assert engine.rollback()["entry_points_restored"] == 1
    assert rec.entry_point is EntryPoint.INTERPRETER_BRIDGE


def test_load_hook_held_only_while_targeted_session_is_up():
    vm = VM(load_program(SRC))
    hooks = vm.registry._on_load
    idle = [TraceEngine(vm) for _ in range(100)]
    assert hooks == []
    glob = TraceEngine(vm)
    glob.apply_global(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    assert hooks == []
    glob.rollback()
    for engine in idle:
        engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
        assert len(hooks) == 1
        engine.rollback()
        assert hooks == []
    # A partial bring-up holds the hook too, and rollback still removes it.
    engine = idle[0]
    engine.suppress_global_tracing()
    assert len(hooks) == 1
    engine.rollback()
    assert hooks == []


def test_rollback_removes_the_hook_it_registered(monkeypatch):
    # The class attribute may be swapped (a span tracer wraps it) between
    # apply and rollback; rollback must remove the callable it registered.
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    original = TraceEngine._on_classes_loaded

    def wrapped(self, new_keys):
        original(self, new_keys)

    monkeypatch.setattr(TraceEngine, "_on_classes_loaded", wrapped)
    engine.rollback()
    assert vm.registry._on_load == []


def test_load_while_idle_changes_nothing():
    vm, engine = make_engine()
    vm.registry.load(parse_program(LATE_SRC))
    rec = vm.registry.lookup("late.Plugin.hook(int)")
    assert rec.entry_point is EntryPoint.INTERPRETER_BRIDGE
    assert engine.phase is TracePhase.IDLE


# -- global mode --------------------------------------------------------------------

def test_apply_global_degrades_whole_runtime():
    vm, engine = make_engine()
    vm.jit_compile("app.Main.leaf(int)")
    report = engine.apply_global(targets(("app.Main.leaf(int)",
                                          (TraceAction.TIME_METHOD,))))
    assert report.mode == "global"
    assert report.entry_points_changed == len(vm.registry)
    for rec in vm.registry.records():
        assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    # output still filtered to the target
    thread = vm.new_thread()
    vm.invoke(thread, "app.Main.top(int)", (1,))
    vm.invoke(thread, "app.Main.other()", ())
    events = engine.drain().events
    assert {e.method_ref.key for e in events} == {"app.Main.leaf(int)"}


def test_apply_global_rollback_restores_all():
    vm, engine = make_engine()
    vm.jit_compile("app.Main.leaf(int)")
    pristine = vm.registry.snapshot_state()
    engine.apply_global(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    summary = engine.rollback()
    assert summary["entry_points_restored"] == len(vm.registry)
    assert summary["handler_restored"] is False
    assert vm.registry.snapshot_state() == pristine


def test_status_reports_session_shape():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    vm.invoke(vm.new_thread(), "app.Main.leaf(int)", (1,))
    status = engine.status()
    assert status["phase"] == "active"
    assert status["mode"] == "targeted"
    assert status["targets"] == ["app.Main.leaf(int)"]
    assert status["listener_active"] is True
    assert status["events_buffered"] == 1
