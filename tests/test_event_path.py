"""The traced-call event path: every action combination on both stubs.

A target's enter and exit events pass the proxy's one-lookup filter, run the
precomputed actions under the shared intercept frame, and append to the sink.
These tests pin the exact stream that path produces, the target table it
reads, and that a failing action never reaches the traced program.
"""

from itertools import combinations

import pytest

from tracevm import (EntryPoint, EventSink, MethodRef, TargetSet, TraceAction, TraceEngine, VM,
                     load_program, parse_program)
from tracevm import vm as vm_module
from tracevm.engine import INTERCEPT_REF
from tracevm.vm import Q_CALLADD

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

    grown = TargetSet(ts.entries() + [(g, (stack,))])
    grown = TargetSet(grown.entries() + [(f, (stack,))])
    assert grown.table == {"a.A.f()": (f, (time, args, stack), True, True, True),
                           "b.B.g()": (g, (stack,), True, False, False)}
    for target_set in (ts, grown):
        for key, value in target_set.table.items():
            # an exact tuple: the proxy's unpack takes CPython's specialised path
            assert type(value) is tuple
            acts = value[1]
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


I64_MAX = 2**63 - 1
WRAP_SRC = f"""
class app.Wrap
  method outer(int)
    loadarg 0
    pushconst {I64_MAX}
    mul
    pushconst 4294967296
    add
    call app.Wrap.inner(int)
    pushconst {I64_MAX}
    add
    ret
  method inner(int)
    loadarg 0
    loadarg 0
    mul
    pushconst {I64_MAX}
    add
    ret
"""


def test_wrapped_values_reach_the_trace_as_the_interpreter_gives_them(refeval):
    # Both methods are targets; inner's argument and both returns are in range
    # only after wrapping, which compiled code defers to where they are observed.
    keys = ("app.Wrap.outer(int)", "app.Wrap.inner(int)")
    acts = (TraceAction.CAPTURE_ARGS, TraceAction.TIME_METHOD)
    args = (1, 2, 3037000500, I64_MAX, -(2**63), -7)
    runs = []
    for compiled in (False, True):
        vm = VM(load_program(WRAP_SRC))
        if compiled:
            for key in keys:
                vm.jit_compile(key)
        engine = TraceEngine(vm, EventSink())
        engine.apply(TargetSet([(MethodRef.parse(key), acts) for key in keys]))
        thread = vm.new_thread()
        results = [vm.invoke(thread, keys[0], (arg,)) for arg in args]
        runs.append((results, [refeval.normalise_event(e) for e in engine.drain().events]))
    assert vm.registry.lookup(keys[1]).entry_point is EntryPoint.INSTRUMENTATION_QUICK_STUB
    assert vm.interpreted_calls == 0 and vm.compiled_calls == 2 * len(args)
    assert runs[1] == runs[0]
    captured = [event for event in runs[1][1] if event[0] == "args"]
    assert len(captured) == 2 * len(args)
    assert all(-(2**63) <= value <= I64_MAX for event in captured for value in (*event[2], event[3]))


SITE_SRC = """
class app.Site
  method leaf(int,int)
    loadarg 0
    loadarg 1
    sub
    ret
  method top(int)
    loadarg 0
    storelocal 0
    pushconst 9
    loadarg 0
    call app.Site.leaf(int,int)
    loadlocal 0
    add
    storelocal 0
    loadlocal 0
    ret
"""


def test_a_fused_call_site_emits_the_events_of_its_stored_ops(monkeypatch, refeval):
    top, leaf = "app.Site.top(int)", "app.Site.leaf(int,int)"
    assert Q_CALLADD in [op for op, _ in vm_module.quicken(load_program(SITE_SRC).lookup(top).code)]
    acts = (TraceAction.TIME_METHOD, TraceAction.CAPTURE_STACK)
    args = (4, -3, 2**62)
    runs = []
    for fused in (True, False):
        if not fused:  # the interpreter runs the stored ops, one dispatch each
            monkeypatch.setattr(vm_module, "quicken", lambda code: code)
        vm = VM(load_program(SITE_SRC))
        engine = TraceEngine(vm, EventSink())
        engine.apply(TargetSet([(MethodRef.parse(leaf), acts)]))
        thread = vm.new_thread()
        results = [vm.invoke(thread, top, (n,)) for n in args]
        assert vm.interpreted_calls == 2 * len(args)
        runs.append((results, [refeval.normalise_event(e) for e in engine.drain().events]))
    assert runs[0] == runs[1]
    ref, events = refeval.RefEval(parse_program(SITE_SRC)), []
    results = [ref.run(top, (n,), {leaf: {refeval.STACK, refeval.TIME}}, events) for n in args]
    assert runs[0] == (results, events)
    # the interpreted caller's frame is in the captured stack
    assert runs[0][1][:2] == [("stack", leaf, (INTERCEPT_REF.key, leaf, top)), ("time", leaf)]
