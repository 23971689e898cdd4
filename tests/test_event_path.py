"""The traced-call event path: every action combination on both stubs.

A target's enter and exit events pass the proxy's one-lookup filter, run the
precomputed actions under the shared intercept frame, and append to the sink.
These tests pin the exact stream that path produces, the target table it
reads, and that a failing action never reaches the traced program.
"""

from itertools import combinations

import pytest

from tracevm import (EntryPoint, EventSink, MethodRef, TargetSet, TraceAction, TraceEngine, VM,
                     load_program)
from tracevm.engine import INTERCEPT_REF

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
"""

LEAF = "app.Main.leaf(int)"
STACK = [INTERCEPT_REF.key, LEAF, "app.Main.mid(int)", "app.Main.top(int)"]

ALL_ACTIONS = (TraceAction.CAPTURE_STACK, TraceAction.CAPTURE_ARGS, TraceAction.TIME_METHOD)
SUBSETS = [acts for n in (1, 2, 3) for acts in combinations(ALL_ACTIONS, n)]


def traced_vm(acts, compiled: bool):
    vm = VM(load_program(SRC))
    if compiled:
        vm.jit_compile(LEAF)
    engine = TraceEngine(vm, EventSink())
    engine.apply(TargetSet([(MethodRef.parse(LEAF), acts)]))
    stub = (EntryPoint.INSTRUMENTATION_QUICK_STUB if compiled
            else EntryPoint.INSTRUMENTATION_INTERPRETER_STUB)
    assert vm.registry.lookup(LEAF).entry_point is stub
    return vm, engine


def expected_stream(acts, arg: int) -> list:
    """(action, payload) per event of one call; a timing payload is None."""
    stream = []
    if TraceAction.CAPTURE_STACK in acts:
        stream.append((TraceAction.CAPTURE_STACK, {"stack": STACK}))
    if TraceAction.TIME_METHOD in acts:
        stream.append((TraceAction.TIME_METHOD, None))
    if TraceAction.CAPTURE_ARGS in acts:
        stream.append((TraceAction.CAPTURE_ARGS, {"args": [arg], "return": arg * 3}))
    return stream


@pytest.mark.parametrize("compiled", [True, False], ids=["quick_stub", "interpreter_stub"])
@pytest.mark.parametrize("acts", SUBSETS, ids=lambda acts: "+".join(a.name for a in acts))
def test_action_matrix_exact_stream(acts, compiled):
    vm, engine = traced_vm(acts, compiled)
    thread = vm.new_thread()
    args = (2, 5, 7)
    for arg in args:
        assert vm.invoke(thread, "app.Main.top(int)", (arg,)) == arg * 3
    events = engine.drain().events

    want = [step for arg in args for step in expected_stream(acts, arg)]
    assert [e.action for e in events] == [action for action, _ in want]
    for event, (action, payload) in zip(events, want):
        assert event.method_ref.key == LEAF
        if action is TraceAction.TIME_METHOD:
            assert list(event.payload) == ["duration_ns"]
            assert event.payload["duration_ns"] >= 0
        else:
            assert event.payload == payload
    assert [e.sequence_no for e in events] == list(range(len(want)))

    # top and mid are interpreted, so each call fires their four events into
    # the proxy as well; the proxy filters exactly those.
    assert engine.spurious_filtered == 4 * len(args)
    assert engine.unmatched_exits == 0
    assert thread.frames == [] and thread.trace_pending == []
    assert thread.in_interceptor is False


def test_flags_agree_with_actions_after_merges():
    f, g = MethodRef.parse("a.A.f()"), MethodRef.parse("b.B.g()")
    stack, args, time = TraceAction.CAPTURE_STACK, TraceAction.CAPTURE_ARGS, TraceAction.TIME_METHOD
    ts = TargetSet([(f, (time,)), (f, (args, time))])
    assert ts.table == {"a.A.f()": (f, (time, args), False, True, True)}

    grown = ts.with_target(g, (stack,))
    grown = grown.with_target(f, (stack,))
    assert grown.table == {"a.A.f()": (f, (time, args, stack), True, True, True),
                           "b.B.g()": (g, (stack,), True, False, False)}
    for target_set in (ts, grown):
        for key, value in target_set.table.items():
            # an exact tuple: the proxy's unpack takes CPython's specialised path
            assert type(value) is tuple
            acts = target_set.actions_for(key)
            assert value[1] == acts
            assert value[2:] == (stack in acts, args in acts, time in acts)
    assert set(grown.table) == grown.members
    # the source set is unchanged
    assert ts.table == {"a.A.f()": (f, (time, args), False, True, True)}
    assert TargetSet().table == {}


@pytest.mark.parametrize("compiled", [True, False], ids=["quick_stub", "interpreter_stub"])
def test_failing_action_leaves_the_call_alone(compiled, monkeypatch):
    vm, engine = traced_vm(ALL_ACTIONS, compiled)
    thread = vm.new_thread()

    def broken(value):
        raise RuntimeError("payload bug")

    monkeypatch.setattr(vm.registry, "value_to_payload", broken)
    assert vm.invoke(thread, "app.Main.top(int)", (4,)) == 12
    assert thread.in_interceptor is False
    assert thread.frames == []
    # the stack capture ran before the argument capture failed; the pending
    # entry is still pushed, so the call is timed and only its args are lost
    assert [e.action for e in engine.drain().events] == [TraceAction.CAPTURE_STACK,
                                                         TraceAction.TIME_METHOD]
    assert engine.unmatched_exits == 0
    assert engine.action_errors == 1
    assert thread.trace_pending == []

    monkeypatch.undo()
    assert vm.invoke(thread, "app.Main.top(int)", (4,)) == 12
    assert len(engine.drain().events) == 3
    assert thread.frames == [] and thread.trace_pending == []


def test_failing_return_capture_is_counted(monkeypatch):
    vm, engine = traced_vm((TraceAction.CAPTURE_ARGS, TraceAction.TIME_METHOD), False)
    thread = vm.new_thread()
    real = vm.registry.value_to_payload

    def broken_for_return(value):
        if value == 12:
            raise RuntimeError("payload bug")
        return real(value)

    monkeypatch.setattr(vm.registry, "value_to_payload", broken_for_return)
    assert vm.invoke(thread, "app.Main.top(int)", (4,)) == 12
    # timing is appended before the return payload fails
    assert [e.action for e in engine.drain().events] == [TraceAction.TIME_METHOD]
    assert engine.action_errors == 1 and engine.status()["action_errors"] == 1
    assert engine.unmatched_exits == 0
    assert thread.frames == [] and thread.trace_pending == []
    assert thread.in_interceptor is False
