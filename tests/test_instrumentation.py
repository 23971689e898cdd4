import pytest

from tracevm import (
    DuplicateListenerError,
    EntryPoint,
    EventKind,
    InvalidStubError,
    ListenerRegistration,
    StackDepthError,
    UnknownListenerError,
    VM,
    load_program,
)
from tracevm.jit import lower_method

SRC = """
class a.A
  method f()
    pushconst 1
    ret
  method g()
    pushconst 2
    ret
class b.B
  method h(int)
    loadarg 0
    ret
"""

BOTH = frozenset({EventKind.METHOD_ENTERED, EventKind.METHOD_EXITED})


def make_vm():
    return VM(load_program(SRC))


def recording_listener(sink):
    def callback(thread, ref, kind, args, value, abrupt):
        sink.append((ref.key, kind, (args, value, abrupt)))
    return callback


def test_listener_registry_basics():
    vm = make_vm()
    ins = vm.instrumentation
    reg = ListenerRegistration("one", BOTH, recording_listener([]))
    ins.add_listener(reg)
    assert ins.listener_ids() == ["one"]
    with pytest.raises(DuplicateListenerError):
        ins.add_listener(ListenerRegistration("one", BOTH, recording_listener([])))
    ins.remove_listener("one")
    assert ins.listener_ids() == []
    with pytest.raises(UnknownListenerError):
        ins.remove_listener("one")
    with pytest.raises(ValueError):
        ins.add_listener(ListenerRegistration("empty", frozenset(), recording_listener([])))


def test_dispatch_respects_event_mask():
    vm = make_vm()
    entries, exits = [], []
    vm.instrumentation.add_listener(ListenerRegistration(
        "enter-only", frozenset({EventKind.METHOD_ENTERED}), recording_listener(entries)))
    vm.instrumentation.add_listener(ListenerRegistration(
        "exit-only", frozenset({EventKind.METHOD_EXITED}), recording_listener(exits)))
    vm.invoke(vm.new_thread(), "a.A.f()", ())
    assert [k for _, k, _ in entries] == [EventKind.METHOD_ENTERED]
    assert [k for _, k, _ in exits] == [EventKind.METHOD_EXITED]
    assert entries[0][2] == ((), None, False)
    assert exits[0][2] == ((), 1, False)


def test_entry_detail_carries_args():
    vm = make_vm()
    seen = []
    vm.instrumentation.add_listener(ListenerRegistration(
        "args", frozenset({EventKind.METHOD_ENTERED}), recording_listener(seen)))
    vm.invoke(vm.new_thread(), "b.B.h(int)", (42,))
    assert seen[0][2] == ((42,), None, False)


@pytest.mark.parametrize("stub", [EntryPoint.INSTRUMENTATION_INTERPRETER_STUB,
                                  EntryPoint.INSTRUMENTATION_QUICK_STUB])
def test_exit_event_of_raising_call_is_abrupt(stub):
    src = """
class r.R
  method down(int)
    loadarg 0
    jz +6
    loadarg 0
    pushconst 1
    sub
    call r.R.down(int)
    ret
    pushconst 0
    ret
"""
    vm = VM(load_program(src), max_stack_depth=3)
    if stub is EntryPoint.INSTRUMENTATION_QUICK_STUB:
        vm.jit_compile("r.R.down(int)")
    vm.instrumentation.install_stubs_for_method(vm.registry.lookup("r.R.down(int)"), stub)
    exits = []
    vm.instrumentation.add_listener(ListenerRegistration(
        "exits", frozenset({EventKind.METHOD_EXITED}), recording_listener(exits)))
    with pytest.raises(StackDepthError):
        vm.invoke(vm.new_thread(), "r.R.down(int)", (5,))
    # The fourth call is refused before it runs; the three running calls unwind.
    assert exits == [("r.R.down(int)", EventKind.METHOD_EXITED, ((), None, True))] * 3


def test_snapshot_isolation_mid_dispatch():
    # A listener that adds another listener must not see it fire for the
    # events already in flight.
    vm = make_vm()
    ins = vm.instrumentation
    late_calls = []

    def late(thread, ref, kind, args, value, abrupt):
        late_calls.append(ref.key)

    installed = []

    def installer(thread, ref, kind, args, value, abrupt):
        if not installed:
            installed.append(True)
            ins.add_listener(ListenerRegistration(
                "late", frozenset({EventKind.METHOD_ENTERED}), late))

    ins.add_listener(ListenerRegistration(
        "installer", frozenset({EventKind.METHOD_ENTERED}), installer))
    thread = vm.new_thread()
    vm.invoke(thread, "a.A.f()", ())
    assert late_calls == []
    vm.invoke(thread, "a.A.f()", ())
    assert late_calls == ["a.A.f()"]


def test_listener_exceptions_are_isolated():
    vm = make_vm()
    ins = vm.instrumentation
    seen = []

    def bomb(thread, ref, kind, args, value, abrupt):
        raise RuntimeError("listener bug")

    ins.add_listener(ListenerRegistration("bomb", BOTH, bomb))
    ins.add_listener(ListenerRegistration("ok", BOTH, recording_listener(seen)))
    assert vm.invoke(vm.new_thread(), "a.A.f()", ()) == 1
    assert len(seen) == 2
    assert ins.callback_errors == 2


def test_events_dispatched_counts_event_objects():
    vm = make_vm()
    ins = vm.instrumentation
    ins.add_listener(ListenerRegistration("c", BOTH, recording_listener([])))
    vm.invoke(vm.new_thread(), "a.A.f()", ())
    assert ins.events_dispatched == 2


def test_stub_install_and_restore():
    vm = make_vm()
    ins = vm.instrumentation
    rec = vm.registry.lookup("a.A.f()")
    assert ins.install_stubs_for_method(rec, EntryPoint.INSTRUMENTATION_INTERPRETER_STUB)
    assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    assert rec.original_entry_point is EntryPoint.INTERPRETER_BRIDGE
    # repeat install is a no-op and must not clobber the saved original
    assert not ins.install_stubs_for_method(rec, EntryPoint.INSTRUMENTATION_INTERPRETER_STUB)
    assert rec.original_entry_point is EntryPoint.INTERPRETER_BRIDGE
    assert ins.restore_entry_point_for_method(rec)
    assert rec.entry_point is EntryPoint.INTERPRETER_BRIDGE
    assert rec.original_entry_point is None
    assert not ins.restore_entry_point_for_method(rec)


def test_original_saved_once_across_stub_changes():
    vm = make_vm()
    vm.jit_compile("a.A.f()")
    ins = vm.instrumentation
    rec = vm.registry.lookup("a.A.f()")
    ins.install_stubs_for_method(rec, EntryPoint.INSTRUMENTATION_QUICK_STUB)
    ins.install_stubs_for_method(rec, EntryPoint.INSTRUMENTATION_INTERPRETER_STUB)
    assert rec.original_entry_point is EntryPoint.COMPILED_DIRECT
    ins.restore_entry_point_for_method(rec)
    assert rec.entry_point is EntryPoint.COMPILED_DIRECT


def test_stub_install_rejects_bad_inputs():
    vm = make_vm()
    ins = vm.instrumentation
    rec = vm.registry.lookup("a.A.f()")
    with pytest.raises(InvalidStubError):
        ins.install_stubs_for_method(rec, EntryPoint.COMPILED_DIRECT)
    # quick stub requires a compiled body to call into
    with pytest.raises(InvalidStubError):
        ins.install_stubs_for_method(rec, EntryPoint.INSTRUMENTATION_QUICK_STUB)
    vm.jit_compile("a.A.f()")
    assert ins.install_stubs_for_method(rec, EntryPoint.INSTRUMENTATION_QUICK_STUB)


def test_global_walk_degrades_everything():
    vm = make_vm()
    vm.jit_compile("a.A.g()")
    report = vm.instrumentation.enable_method_tracing_native()
    assert len(vm.registry) == 3
    assert report == 3
    for rec in vm.registry.records():
        assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    # even the compiled method got the interpreter stub
    g = vm.registry.lookup("a.A.g()")
    assert g.original_entry_point is EntryPoint.COMPILED_DIRECT
    # second walk finds nothing left to replace
    again = vm.instrumentation.enable_method_tracing_native()
    assert again == 0
    assert vm.instrumentation.restore_all_entry_points() == 3


def test_activation_handler_slot():
    vm = make_vm()
    ins = vm.instrumentation
    assert ins.is_default_activation
    calls = []

    def quiet():
        calls.append(True)
        return None

    previous = ins.set_activation_handler(quiet)
    assert not ins.is_default_activation
    with pytest.raises(ValueError):
        ins.set_activation_handler(None)
    result = ins.native_trace_start(ListenerRegistration(
        "t", BOTH, recording_listener([])))
    assert result is None
    assert calls == [True]
    # no stubs were installed while the quiet handler was in place
    for rec in vm.registry.records():
        assert rec.entry_point is EntryPoint.INTERPRETER_BRIDGE
    ins.set_activation_handler(previous)
    assert ins.is_default_activation


def test_native_trace_start_stock_path():
    vm = make_vm()
    seen = []
    report = vm.instrumentation.native_trace_start(ListenerRegistration(
        "stock", BOTH, recording_listener(seen)))
    assert report == 3
    vm.invoke(vm.new_thread(), "a.A.f()", ())
    assert [k for k, _, _ in seen] == ["a.A.f()", "a.A.f()"]


def test_stubbed_interpreted_method_fires_one_event_pair():
    # The interpreter stub leans on the interpreter's own checkpoint; there
    # must be exactly one enter and one exit per call, not two.
    vm = make_vm()
    seen = []
    vm.instrumentation.add_listener(ListenerRegistration(
        "pair", BOTH, recording_listener(seen)))
    vm.instrumentation.install_stubs_for_method(
        vm.registry.lookup("a.A.f()"), EntryPoint.INSTRUMENTATION_INTERPRETER_STUB)
    vm.invoke(vm.new_thread(), "a.A.f()", ())
    kinds = [k for key, k, _ in seen if key == "a.A.f()"]
    assert kinds == [EventKind.METHOD_ENTERED, EventKind.METHOD_EXITED]


def test_quick_stub_fires_one_event_pair():
    vm = make_vm()
    vm.jit_compile("a.A.f()")
    seen = []
    vm.instrumentation.add_listener(ListenerRegistration(
        "pair", BOTH, recording_listener(seen)))
    vm.instrumentation.install_stubs_for_method(
        vm.registry.lookup("a.A.f()"), EntryPoint.INSTRUMENTATION_QUICK_STUB)
    vm.invoke(vm.new_thread(), "a.A.f()", ())
    kinds = [k for key, k, _ in seen if key == "a.A.f()"]
    assert kinds == [EventKind.METHOD_ENTERED, EventKind.METHOD_EXITED]
    assert vm.compiled_calls == 1


ARGS_SRC = """
class p.P
  method pair(int,int)
    loadarg 0
    loadarg 1
    add
    ret
  method one(int)
    loadarg 0
    pushconst 2
    mul
    ret
  method none()
    pushconst 3
    ret
""" + "".join(f"""  method {name}(int)
    loadarg 0
    pushconst 1
    call p.P.pair(int,int)
    call p.P.one(int)
    call p.P.none()
    add
    ret
""" for name in ("caller", "jcaller"))


def test_listeners_get_the_calls_own_argument_tuple():
    vm = VM(load_program(ARGS_SRC))
    source = lower_method(vm.jit_compile("p.P.jcaller(int)"))[1]
    # the compiled call edges pass tuple displays, not lists
    for display in ("'p.P.pair(int,int)', (args[0], 1))", "'p.P.one(int)', (s0,))",
                    "'p.P.none()', ())"):
        assert display in source
    seen = []
    vm.instrumentation.add_listener(ListenerRegistration(
        "args", frozenset({EventKind.METHOD_ENTERED}),
        lambda thread, ref, kind, args, value, abrupt: seen.append((ref.key, args))))
    thread = vm.new_thread()
    root_args = (4, 5)
    assert vm.invoke(thread, "p.P.pair(int,int)", root_args) == 9
    assert seen[0][1] is root_args
    for caller in ("p.P.caller(int)", "p.P.jcaller(int)"):
        seen.clear()
        assert vm.invoke(thread, caller, (6,)) == 17
        callees = [(key, args) for key, args in seen if key != caller]
        assert callees == [("p.P.pair(int,int)", (6, 1)), ("p.P.one(int)", (7,)),
                           ("p.P.none()", ())]
        assert all(type(args) is tuple for _, args in seen)
