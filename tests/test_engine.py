import ast
import inspect
import logging
import sys
import threading
from pathlib import Path

import pytest

from tracevm import (
    ConfigEntry,
    EntryPoint,
    EventKind,
    EventSink,
    ListenerRegistration,
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
from tracevm import engine as engine_module
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
    assert ts.table["a.A.f()"][1] == (TraceAction.TIME_METHOD, TraceAction.CAPTURE_ARGS)


def test_target_set_rejects_empty_actions():
    with pytest.raises(ValueError):
        TargetSet([(MethodRef.parse("a.A.f()"), ())])


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


def test_failed_apply_changes_nothing():
    vm, engine = make_engine()
    hook = MethodRef.parse("late.Plugin.hook(int)")
    ins = vm.instrumentation
    before = vm.registry.snapshot_state()
    with pytest.raises(ValueError, match="has no actions"):
        engine.apply(TargetSet(), pending=[(hook, ())])
    assert engine.phase is TracePhase.IDLE and engine.status()["mode"] is None
    assert ins.is_default_activation and ins.listener_ids() == []
    assert vm.registry._on_load == []
    assert vm.registry.snapshot_state() == before
    report = engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    assert (report.injected, engine.phase) == (1, TracePhase.ACTIVE)


@pytest.mark.parametrize("first_mode", ["targeted", "global"])
def test_second_session_on_one_vm_is_refused(first_mode):
    vm, first = make_engine()
    second = TraceEngine(vm, EventSink())
    ts = targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)))
    if first_mode == "targeted":
        first.apply(ts)
    else:
        first.apply_global(ts)
    ins = vm.instrumentation
    before = (vm.registry.snapshot_state(), ins.listener_ids(),
              list(vm.registry._on_load), ins.is_default_activation)
    with pytest.raises(PhaseError):
        second.apply(ts)
    with pytest.raises(PhaseError):
        second.apply_global(ts)
    assert (vm.registry.snapshot_state(), ins.listener_ids(),
            list(vm.registry._on_load), ins.is_default_activation) == before
    assert second.status()["phase"] == "idle" and second.status()["mode"] is None
    # the first session still traces, and its rollback brings the stock activation back
    vm.invoke(vm.new_thread(), "app.Main.top(int)", (1,))
    assert len(first.drain().events) == 1
    second.rollback()
    first.rollback()
    assert ins.is_default_activation and ins.listener_ids() == []
    assert vm.registry._on_load == []


def test_mode_is_targeted_through_a_phase_by_phase_bring_up():
    _, engine = make_engine()
    engine.suppress_global_tracing()
    engine.inject_targets(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    engine.install_dispatcher()
    engine.activate()
    assert engine.status()["phase"] == "active"
    assert engine.status()["mode"] == "targeted"
    engine.rollback()
    assert engine.status()["mode"] is None


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


def test_interceptor_reentrancy_guard(monkeypatch):
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.CAPTURE_ARGS,))))
    thread = vm.new_thread()
    to_payload = vm.registry.value_to_payload
    nested = []

    def reentrant(value):
        # a call made from inside the proxy must not trace again
        nested.append(vm.invoke(thread, "app.Main.leaf(int)", (5,)))
        return to_payload(value)

    monkeypatch.setattr(vm.registry, "value_to_payload", reentrant)
    assert vm.invoke(thread, "app.Main.leaf(int)", (2,)) == 6
    # one nested call for the argument at entry, one for the return value at exit
    assert nested == [15, 15]
    assert [e.payload for e in engine.drain().events] == [{"args": [2], "return": 6}]
    # the nested calls were dispatched, and the guard dropped them before the filter
    assert vm.instrumentation.events_dispatched == 6
    assert engine.spurious_filtered == 0
    assert thread.in_interceptor is False
    assert thread.frames == [] and thread.trace_pending == []


@pytest.mark.parametrize("failing", [2, 6], ids=["args_capture", "return_capture"])
def test_failure_log_runs_under_the_reentrancy_guard(failing, monkeypatch):
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)",
                          (TraceAction.CAPTURE_ARGS, TraceAction.TIME_METHOD))))
    thread = vm.new_thread()
    nested = []

    class Reentrant(logging.Handler):
        def emit(self, record):
            # a handler that calls the traced method while the failure is logged
            nested.append(vm.invoke(thread, "app.Main.leaf(int)", (5,)))

    to_payload = vm.registry.value_to_payload

    def broken(value):
        # fails on the outer call's argument 2 or its return value 6
        if value == failing:
            raise RuntimeError("payload bug")
        return to_payload(value)

    monkeypatch.setattr(vm.registry, "value_to_payload", broken)
    handler = Reentrant()
    logger = logging.getLogger("tracevm.engine")
    logger.addHandler(handler)
    try:
        assert vm.invoke(thread, "app.Main.leaf(int)", (2,)) == 6
    finally:
        logger.removeHandler(handler)
    assert nested == [15]
    # only the outer call is timed; the nested one emitted nothing
    assert [e.action for e in engine.drain().events] == [TraceAction.TIME_METHOD]
    assert engine.action_errors == 1
    assert vm.instrumentation.events_dispatched == 4
    assert engine.spurious_filtered == 0
    assert thread.in_interceptor is False
    assert thread.frames == [] and thread.trace_pending == []


def test_frames_are_method_refs_with_intercept_ref_innermost(monkeypatch):
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)",
                          (TraceAction.CAPTURE_STACK, TraceAction.CAPTURE_ARGS))))
    thread = vm.new_thread()
    to_payload = vm.registry.value_to_payload
    seen = []

    def recording(value):
        seen.append(list(thread.frames))  # read while the proxy runs its actions
        return to_payload(value)

    monkeypatch.setattr(vm.registry, "value_to_payload", recording)
    vm.invoke(thread, "app.Main.mid(int)", (2,))
    mid, leaf = MethodRef.parse("app.Main.mid(int)"), MethodRef.parse("app.Main.leaf(int)")
    # the synthetic frame lives only in the snapshot, never on the VM's stack
    assert seen == [[mid, leaf], [mid, leaf]]
    assert all(type(f) is MethodRef for frames in seen for f in frames)
    [stack] = [e.payload["stack"] for e in engine.drain().events
               if e.action is TraceAction.CAPTURE_STACK]
    assert stack == [INTERCEPT_REF.key, leaf.key, mid.key]
    assert thread.frames == []


def test_failing_action_logs_one_traceback_per_target(caplog, monkeypatch):
    vm, engine = make_engine()
    ts = targets(("app.Main.leaf(int)", (TraceAction.CAPTURE_ARGS, TraceAction.TIME_METHOD)))
    engine.apply(ts)
    thread = vm.new_thread()

    def broken(value):
        raise RuntimeError("payload bug")

    monkeypatch.setattr(vm.registry, "value_to_payload", broken)
    with caplog.at_level(logging.ERROR, logger="tracevm.engine"):
        for i in range(50):
            assert vm.invoke(thread, "app.Main.leaf(int)", (i,)) == 3 * i
        assert len(caplog.records) == 1 and caplog.records[0].exc_info is not None
        assert engine.action_errors == 50
        assert [e.action for e in engine.drain().events] == [TraceAction.TIME_METHOD] * 50
        # a new session logs its first failure again
        engine.rollback()
        engine.apply(ts)
        vm.invoke(thread, "app.Main.leaf(int)", (1,))
    assert len(caplog.records) == 2
    assert engine.action_errors == 51


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


def test_rollback_clears_the_target_set():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)),
                         ("late.Plugin.hook(int)", (TraceAction.CAPTURE_ARGS,))))
    assert engine.status()["pending"] == 1
    engine.rollback()
    status = engine.status()
    assert status["targets"] == [] and status["pending"] == 0
    engine.apply(targets(("app.Main.mid(int)", (TraceAction.CAPTURE_STACK,))))
    status = engine.status()
    assert status["targets"] == ["app.Main.mid(int)"]
    assert status["pending"] == 0 and status["injected"] == 1


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


def test_rollback_survives_a_proxy_removed_behind_the_engine():
    vm, engine = make_engine()
    vm.jit_compile("app.Main.leaf(int)")
    pristine = vm.registry.snapshot_state()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)),
                         ("app.Main.mid(int)", (TraceAction.CAPTURE_ARGS,))))
    vm.instrumentation.remove_listener(PROXY_LISTENER_ID)
    summary = engine.rollback()
    assert summary == {"listener_removed": True, "entry_points_restored": 2,
                       "handler_restored": True}
    assert engine.phase is TracePhase.IDLE
    assert vm.registry.snapshot_state() == pristine
    assert vm.instrumentation.is_default_activation
    assert vm.registry._on_load == []


def test_rollback_after_a_failed_restore_finishes(monkeypatch):
    vm, engine = make_engine()
    vm.jit_compile("app.Main.leaf(int)")
    pristine = vm.registry.snapshot_state()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)),
                         ("app.Main.mid(int)", (TraceAction.CAPTURE_ARGS,))))

    def broken_restore(record):
        raise RuntimeError("restore fault")

    monkeypatch.setattr(vm.instrumentation, "restore_entry_point_for_method", broken_restore)
    with pytest.raises(RuntimeError, match="restore fault"):
        engine.rollback()
    monkeypatch.undo()
    summary = engine.rollback()
    assert summary == {"listener_removed": True, "entry_points_restored": 2,
                       "handler_restored": True}
    assert engine.phase is TracePhase.IDLE
    assert vm.registry.snapshot_state() == pristine
    assert vm.instrumentation.listener_ids() == []
    assert vm.instrumentation.is_default_activation
    assert vm.registry._on_load == []


def fail_second_install(monkeypatch, ins):
    """Make the second stub install raise; return the keys of every install tried.

    ``_install`` is the step that both a targeted install and the stock walk,
    which holds the lock once for the whole walk, run for each method.
    """
    install = ins._install
    calls = []

    def install_failing_second(record, stub):
        calls.append(record.method_ref.key)
        if len(calls) == 2:
            raise RuntimeError("install fault")
        return install(record, stub)

    monkeypatch.setattr(ins, "_install", install_failing_second)
    return calls


def test_apply_rolls_back_when_a_stub_install_fails(monkeypatch):
    vm, engine = make_engine()
    vm.jit_compile("app.Main.leaf(int)")
    pristine = vm.registry.snapshot_state()
    ins = vm.instrumentation
    calls = fail_second_install(monkeypatch, ins)
    with pytest.raises(RuntimeError, match="install fault"):
        engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)),
                             ("app.Main.mid(int)", (TraceAction.CAPTURE_ARGS,))))
    assert calls == ["app.Main.leaf(int)", "app.Main.mid(int)"]
    assert engine.phase is TracePhase.IDLE and engine.mode is None
    assert engine.status()["targets"] == []
    assert vm.registry.snapshot_state() == pristine
    assert ins.listener_ids() == []
    assert ins.is_default_activation
    assert vm.registry._on_load == []
    # nothing is left behind that blocks the next session
    monkeypatch.undo()
    assert engine.apply(targets(("app.Main.mid(int)", (TraceAction.TIME_METHOD,)))).injected == 1


def test_apply_global_rolls_back_when_a_stub_install_fails(monkeypatch):
    vm, engine = make_engine()
    pristine = vm.registry.snapshot_state()
    ins = vm.instrumentation
    calls = fail_second_install(monkeypatch, ins)
    with pytest.raises(RuntimeError, match="install fault"):
        engine.apply_global(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    assert len(calls) == 2
    assert engine.phase is TracePhase.IDLE and engine.mode is None
    assert ins.listener_ids() == []
    assert vm.registry.snapshot_state() == pristine
    assert ins.is_default_activation
    # nothing is left behind that blocks the next session
    monkeypatch.undo()
    assert engine.apply(targets(("app.Main.mid(int)", (TraceAction.TIME_METHOD,)))).injected == 1


def test_apply_on_an_active_engine_leaves_the_session_up():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    live = vm.registry.snapshot_state()
    with pytest.raises(PhaseError):
        engine.apply(targets(("app.Main.mid(int)", (TraceAction.TIME_METHOD,))))
    assert engine.phase is TracePhase.ACTIVE
    assert engine.status()["targets"] == ["app.Main.leaf(int)"]
    assert vm.registry.snapshot_state() == live
    assert vm.instrumentation.listener_ids() == [PROXY_LISTENER_ID]
    assert not vm.instrumentation.is_default_activation
    vm.invoke(vm.new_thread(), "app.Main.leaf(int)", (1,))
    assert [e.method_ref.key for e in engine.drain().events] == ["app.Main.leaf(int)"]


def test_rollback_notes_compile_while_traced(caplog):
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    # the method gets compiled while the interpreter stub is installed
    with caplog.at_level("INFO", logger="tracevm.vm"):
        vm.jit_compile("app.Main.leaf(int)")
    rec = vm.registry.lookup("app.Main.leaf(int)")
    assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    engine.rollback()
    # the compile moved the saved entry to the compiled tier, so rollback
    # puts back CompiledDirect, not the interpreter bridge it replaced
    assert rec.entry_point is EntryPoint.COMPILED_DIRECT
    assert rec.original_entry_point is None
    assert any("compiled while traced" in r.message for r in caplog.records)
    before = vm.compiled_calls
    assert vm.invoke(vm.new_thread(), "app.Main.leaf(int)", (2,)) == 6
    assert vm.compiled_calls == before + 1


def test_an_apply_during_jit_compile_keeps_its_stub_and_rolls_back_to_compiled():
    vm, engine = make_engine()
    leaf = "app.Main.leaf(int)"
    record = vm.registry.lookup(leaf)
    # the line of jit_compile between its tier test and its write of the entry
    lines, first = inspect.getsourcelines(VM.jit_compile)
    write = first + next(i for i, line in enumerate(lines)
                         if "record.entry_point = _COMPILED" in line)
    code = VM.jit_compile.__code__
    applier = threading.Thread(target=engine.apply,
                               args=(targets((leaf, (TraceAction.TIME_METHOD,))),))

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == write:
            applier.start()
            # an apply that shares the compile's lock waits here until the timeout
            applier.join(timeout=0.5)
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        vm.jit_compile(leaf)
    finally:
        sys.settrace(previous)
    applier.join(timeout=10)
    assert not applier.is_alive()
    assert engine.phase is TracePhase.ACTIVE
    # without the lock the compile's write lands after the stub and drops it
    assert record.entry_point is EntryPoint.INSTRUMENTATION_QUICK_STUB
    assert vm.invoke(vm.new_thread(), leaf, (2,)) == 6
    assert [e.method_ref.key for e in engine.drain().events] == [leaf]
    engine.rollback()
    assert record.entry_point is EntryPoint.COMPILED_DIRECT
    assert record.original_entry_point is None


def test_compiles_racing_sessions_leave_no_compiled_method_on_the_bridge():
    n = 200
    src = "class app.Many\n" + "".join(
        f"  method m{i}(int)\n    loadarg 0\n    ret\n" for i in range(n))
    vm = VM(load_program(src))
    engine = TraceEngine(vm, EventSink())
    keys = [f"app.Many.m{i}(int)" for i in range(n)]
    every = targets(*[(key, (TraceAction.TIME_METHOD,)) for key in keys])
    compiled = threading.Event()
    errors = []

    def sessions():
        try:
            while not compiled.is_set():
                engine.apply(every)
                engine.rollback()
        except Exception as exc:  # pragma: no cover - reported by the assert below
            errors.append(exc)

    def compile_all(part):
        for key in part:
            vm.jit_compile(key)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        churner = threading.Thread(target=sessions)
        compilers = [threading.Thread(target=compile_all, args=(keys[i::2],)) for i in range(2)]
        churner.start()
        for worker in compilers:
            worker.start()
        for worker in compilers:
            worker.join(timeout=30)
        compiled.set()
        churner.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not churner.is_alive() and not any(worker.is_alive() for worker in compilers)
    assert errors == []
    engine.rollback()
    # every method is compiled, and no rollback put one back on the bridge
    assert {vm.registry.lookup(key).entry_point for key in keys} == {EntryPoint.COMPILED_DIRECT}


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
    assert "late.Plugin.hook(int)" not in vm.registry
    assert engine.status()["injected"] == 1
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


def test_failed_deferred_install_stays_inside_the_load_hook(monkeypatch, caplog):
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,)),
                         ("late.Plugin.hook(int)", (TraceAction.CAPTURE_ARGS,))))
    ins = vm.instrumentation

    def failing_install(record, stub):
        raise RuntimeError("install fault")

    monkeypatch.setattr(ins, "install_stubs_for_method", failing_install)
    with caplog.at_level(logging.ERROR, logger="tracevm.engine"):
        assert vm.registry.load(parse_program(LATE_SRC)) == ["late.Plugin.hook(int)"]
    assert [r.message for r in caplog.records if r.levelno >= logging.ERROR] == [
        "deferred injection of late.Plugin.hook(int) failed; it stays pending"]
    assert vm.invoke(vm.new_thread(), "late.Plugin.hook(int)", (4,)) == 5
    rec = vm.registry.lookup("late.Plugin.hook(int)")
    assert rec.entry_point is EntryPoint.INTERPRETER_BRIDGE
    status = engine.status()
    assert (status["injected"], status["pending"], status["load_hook_errors"]) == (1, 1, 1)
    engine.rollback()
    assert engine.phase is TracePhase.IDLE and engine.status()["phase"] == "idle"
    assert ins.listener_ids() == [] and vm.registry._on_load == []
    assert vm.registry.lookup("app.Main.leaf(int)").entry_point is EntryPoint.INTERPRETER_BRIDGE


def test_late_load_stubs_only_its_targets_in_load_order(monkeypatch, caplog):
    vm, engine = make_engine()
    # listed against load order, so the log must follow the load, not the set
    engine.apply(targets(("late.Plugin.second(int)", (TraceAction.TIME_METHOD,)),
                         ("late.Plugin.first(int)", (TraceAction.CAPTURE_ARGS,))))
    ins = vm.instrumentation
    install, installed = ins.install_stubs_for_method, []

    def failing_first(record, stub):
        installed.append(record.method_ref.key)
        if record.method_ref.key == "late.Plugin.first(int)":
            raise RuntimeError("install fault")
        return install(record, stub)

    monkeypatch.setattr(ins, "install_stubs_for_method", failing_first)
    with caplog.at_level(logging.INFO, logger="tracevm.engine"):
        new_keys = vm.registry.load(parse_program("""
class late.Plugin
  method first(int)
    loadarg 0
    ret
  method noise(int)
    loadarg 0
    ret
  method second(int)
    loadarg 0
    ret
class late.Extra
  method helper()
    pushconst 2
    ret
"""))
    assert [(r.levelname, r.message) for r in caplog.records] == [
        ("INFO", "deferred injection of late.Plugin.first(int)"),
        ("ERROR", "deferred injection of late.Plugin.first(int) failed; it stays pending"),
        ("INFO", "deferred injection of late.Plugin.second(int)")]
    assert installed == ["late.Plugin.first(int)", "late.Plugin.second(int)"]
    stubs = {key: vm.registry.lookup(key).entry_point for key in new_keys}
    assert stubs == {"late.Plugin.first(int)": EntryPoint.INTERPRETER_BRIDGE,
                     "late.Plugin.noise(int)": EntryPoint.INTERPRETER_BRIDGE,
                     "late.Plugin.second(int)": EntryPoint.INSTRUMENTATION_INTERPRETER_STUB,
                     "late.Extra.helper()": EntryPoint.INTERPRETER_BRIDGE}
    status = engine.status()
    assert (status["injected"], status["pending"], status["load_hook_errors"]) == (1, 1, 1)
    monkeypatch.undo()
    assert engine.rollback()["entry_points_restored"] == 1
    assert {vm.registry.lookup(key).entry_point for key in new_keys} == {
        EntryPoint.INTERPRETER_BRIDGE}


def test_late_target_keeps_every_pending_action():
    vm, engine = make_engine()
    hook = MethodRef.parse("late.Plugin.hook(int)")
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))),
                 pending=[(hook, (TraceAction.TIME_METHOD,)),
                          (hook, (TraceAction.CAPTURE_ARGS,))])
    status = engine.status()
    assert status["pending"] == 2
    assert status["targets"] == ["app.Main.leaf(int)", "late.Plugin.hook(int)"]
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
    assert (report.targets, report.injected, report.entry_points_changed) == (1, 1, 1)
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


def test_load_in_flight_during_inject_counts_each_target_once():
    # A hook registered before the engine's injects while the load is in
    # flight; the engine's own hook then sees the same key arrive.
    vm, engine = make_engine()
    reports = []
    vm.registry.on_load(lambda keys: reports.append(engine.inject_targets(targets(
        ("late.Plugin.hook(int)", (TraceAction.TIME_METHOD,)),
        ("late.Other.gone()", (TraceAction.CAPTURE_ARGS,))))))
    engine.suppress_global_tracing()
    vm.registry.load(parse_program(LATE_SRC))
    assert (reports[0].injected, reports[0].entry_points_changed, reports[0].pending) == (1, 1, 1)
    status = engine.status()
    assert (status["injected"], status["pending"]) == (1, 1)
    rec = vm.registry.lookup("late.Plugin.hook(int)")
    assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    assert engine.rollback()["entry_points_restored"] == 1
    assert rec.entry_point is EntryPoint.INTERPRETER_BRIDGE


def test_load_hook_held_only_while_a_session_is_up():
    vm = VM(load_program(SRC))
    hooks = vm.registry._on_load
    idle = [TraceEngine(vm) for _ in range(100)]
    assert hooks == []
    glob = TraceEngine(vm)
    glob.apply_global(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    assert len(hooks) == 1
    glob.rollback()
    assert hooks == []
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


def test_apply_global_stubs_classes_loaded_during_the_session(caplog):
    # The stock walk puts every loaded method on the interpreter stub; a class
    # loaded mid-session must join it, or a later compile untraces its methods.
    vm, engine = make_engine()
    engine.apply_global(targets(("late.Plugin.hook(int)", (TraceAction.TIME_METHOD,))))
    with caplog.at_level(logging.INFO, logger="tracevm.engine"):
        new_keys = vm.registry.load(parse_program(LATE_SRC + """
class late.Extra
  method helper()
    pushconst 2
    ret
"""))
    assert new_keys == ["late.Plugin.hook(int)", "late.Extra.helper()"]
    assert [r.message for r in caplog.records] == ["deferred injection of late.Plugin.hook(int)"]
    for key in new_keys:
        assert vm.registry.lookup(key).entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    thread = vm.new_thread()
    assert vm.invoke(thread, "late.Plugin.hook(int)", (4,)) == 5
    vm.jit_compile("late.Plugin.hook(int)")
    assert vm.invoke(thread, "late.Plugin.hook(int)", (4,)) == 5
    assert [e.method_ref.key for e in engine.drain().events] == ["late.Plugin.hook(int)"] * 2
    status = engine.status()
    assert (status["injected"], status["pending"]) == (0, 0)
    assert engine.rollback()["entry_points_restored"] == len(vm.registry)
    rec = vm.registry.lookup("late.Plugin.hook(int)")
    assert rec.entry_point is EntryPoint.COMPILED_DIRECT and rec.original_entry_point is None
    assert vm.registry.lookup("late.Extra.helper()").entry_point is EntryPoint.INTERPRETER_BRIDGE
    assert vm.registry._on_load == []


def test_status_reports_session_shape():
    vm, engine = make_engine()
    engine.apply(targets(("app.Main.leaf(int)", (TraceAction.TIME_METHOD,))))
    vm.invoke(vm.new_thread(), "app.Main.leaf(int)", (1,))
    status = engine.status()
    assert status["phase"] == "active"
    assert status["mode"] == "targeted"
    assert status["targets"] == ["app.Main.leaf(int)"]
    assert PROXY_LISTENER_ID in vm.instrumentation.listener_ids()
    assert status["events_buffered"] == 1
    assert status["unmatched_exits"] == 0
    assert status["callback_errors"] == 0

    # both counters report what the event path tolerated
    ref = MethodRef.parse("app.Main.leaf(int)")
    engine._on_event(vm.new_thread(), ref, EventKind.METHOD_EXITED, (), 1, False)

    def bomb(thread, ref, kind, args, value, abrupt):
        raise RuntimeError("listener bug")

    vm.instrumentation.add_listener(ListenerRegistration(
        "bomb", frozenset({EventKind.METHOD_ENTERED}), bomb))
    vm.invoke(vm.new_thread(), "app.Main.leaf(int)", (1,))
    status = engine.status()
    assert status["unmatched_exits"] == 1
    assert status["callback_errors"] == 1


# Non-invasiveness, read off the engine's source: it changes the VM only
# through the built-in interfaces below and writes no VM-owned field but the
# two thread scratch slots.
_VM_OWNED = ("thread", "vm", "self.vm", "self.instrumentation")
_OWNERS = {"vm": "VM", "self.vm": "VM", "vm.instrumentation": "Instrumentation",
           "self.instrumentation": "Instrumentation", "self.vm.registry": "ClassRegistry"}
_ALLOWED = {
    "VM": {"instrumentation", "registry"},
    "Instrumentation": {
        "install_stubs_for_method", "restore_entry_point_for_method", "restore_all_entry_points",
        "enable_method_tracing_native", "set_activation_handler", "is_default_activation",
        "native_trace_start", "remove_listener", "listener_ids", "callback_errors"},
    "ClassRegistry": {"get", "on_load", "remove_on_load", "value_to_payload"},
}
_MUTATORS = frozenset({"append", "extend", "insert", "pop", "popitem", "remove", "clear",
                       "update", "setdefault", "add", "discard", "sort", "reverse"})


def _path(node, aliases) -> str:
    """The dotted path ``node`` reads, through the local ``aliases``; a call ends in ``()``."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        return f"{_path(node.value, aliases)}.{node.attr}"
    if isinstance(node, ast.Call):
        return f"{_path(node.func, aliases)}()"
    if isinstance(node, ast.Subscript):
        return f"{_path(node.value, aliases)}[]"
    return "?"


def _aliases(function) -> dict:
    """Each local name bound in ``function`` to the path of its value, in source order."""
    binds = []
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    binds += zip(target.elts, node.value.elts)
                else:
                    binds.append((target, node.value))
        elif isinstance(node, ast.NamedExpr):
            binds.append((node.target, node.value))
    aliases = {}
    for target, value in sorted(binds, key=lambda b: (b[1].lineno, b[1].col_offset)):
        if isinstance(target, ast.Name):
            aliases[target.id] = _path(value, aliases)
    return aliases


def _vm_owned(path: str) -> bool:
    return any(path == root or path.startswith(root + ".") for root in _VM_OWNED)


def test_the_engine_changes_the_vm_only_through_its_built_in_interfaces():
    tree = ast.parse(Path(engine_module.__file__).read_text(encoding="utf-8"))
    stores, mutations = set(), set()
    used = {owner: set() for owner in _ALLOWED}
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        aliases = _aliases(function)
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute):
                owner = _path(node.value, aliases)
                if not isinstance(node.ctx, ast.Load):
                    stores.add(owner if owner == "self" else f"{owner}.{node.attr}")
                if owner in _OWNERS:
                    used[_OWNERS[owner]].add(node.attr)
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                assert not _vm_owned(_path(node.value, aliases)), ast.unparse(node)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                receiver = _path(node.func.value, aliases)
                if _vm_owned(receiver):
                    mutations.add(f"{receiver}.{node.func.attr}")
    # attributes are stored on the engine's own objects, and on a thread's re-entry flag
    assert stores == {"self", "thread.in_interceptor"}
    # ``pending`` aliases ``thread.trace_pending``: its pop counts here
    assert mutations == {"thread.trace_pending.append", "thread.trace_pending.pop"}
    assert used == _ALLOWED
