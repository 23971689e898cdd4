import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import tracevm
from tracevm import (
    ArityMismatchError,
    EntryPoint,
    EventKind,
    ListenerRegistration,
    MethodNotFoundError,
    MethodRef,
    Opcode,
    ProgramParseError,
    StackDepthError,
    TargetSet,
    TraceAction,
    TraceEngine,
    VM,
    VMInternalError,
    load_program,
)
from tracevm.core import MethodRecord

COUNTDOWN = """
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


def test_invoke_errors(fib_source):
    vm = VM(load_program(fib_source))
    thread = vm.new_thread()
    with pytest.raises(MethodNotFoundError):
        vm.invoke(thread, "demo.Math.nope()", ())
    with pytest.raises(ArityMismatchError):
        vm.invoke(thread, "demo.Math.fib(int)", (1, 2))


@pytest.mark.parametrize("compiled", [False, True], ids=["interpreted", "compiled"])
def test_call_edge_to_an_unloaded_method(compiled):
    from tracevm import parse_program

    vm = VM(load_program("class a.A\n  method f()\n    call b.B.g()\n    ret"))
    if compiled:
        vm.jit_compile("a.A.f()")
    thread = vm.new_thread()
    with pytest.raises(MethodNotFoundError, match=r"b\.B\.g\(\)"):
        vm.invoke(thread, "a.A.f()", ())
    assert thread.frames == []
    # a class loaded later is found by the same call site
    vm.registry.load(parse_program("class b.B\n  method g()\n    pushconst 7\n    ret"))
    assert vm.invoke(thread, "a.A.f()", ()) == 7


def test_invoke_by_non_canonical_key_parses_on_miss(fib_source):
    vm = VM(load_program(fib_source))
    thread = vm.new_thread()
    assert vm.invoke(thread, "demo.Math.fib(int)", (10,)) == 55
    assert vm.invoke(thread, "  demo.Math.fib( int ) ", (10,)) == 55
    vm2 = VM(load_program("class a.A\n  method f()\n    pushconst 1\n    ret"))
    assert vm2.invoke(vm2.new_thread(), " a.A.f( ) ", ()) == 1
    for bad in ("demo.Math.fib", "fib(int)", "demo.Math.fib(in t)", "demo.Math.9fib(int)"):
        with pytest.raises(ProgramParseError):
            vm.invoke(thread, bad, (1,))


def test_invoke_jit_compile_and_lookup_resolve_names_alike():
    vm = VM(load_program("class a.A\n  method f(int,int)\n    loadarg 0\n    ret"))
    thread = vm.new_thread()
    record = vm.registry.lookup("a.A.f(int,int)")
    assert vm.registry.lookup("a.A.f( int , int )") is record
    assert vm.jit_compile(" a.A.f( int , int ) ") is record
    assert record.entry_point is EntryPoint.COMPILED_DIRECT
    assert vm.invoke(thread, "a.A.f( int , int )", (4, 5)) == 4
    resolvers = (vm.registry.lookup, vm.jit_compile,
                 lambda name: vm.invoke(thread, name, (4, 5)))
    for resolve in resolvers:
        for bad in ("a.A.f", "f(int,int)", "a.A.f(in t,int)", "a.A.9f(int,int)"):
            with pytest.raises(ProgramParseError):
                resolve(bad)
        for missing in ("a.A.g(int,int)", "a.A.f( int )", "b.B.f(int,int)"):
            with pytest.raises(MethodNotFoundError):
                resolve(missing)
    assert thread.frames == []


def test_locals_zero_initialized():
    vm = VM(load_program("class a.A\n  method f()\n    loadlocal 5\n    ret"))
    assert vm.invoke(vm.new_thread(), "a.A.f()", ()) == 0


def test_jz_only_on_zero():
    src = """
class a.A
  method f(int)
    loadarg 0
    jz +3
    pushconst 10
    ret
    pushconst 20
    ret
"""
    vm = VM(load_program(src))
    thread = vm.new_thread()
    assert vm.invoke(thread, "a.A.f(int)", (0,)) == 20
    assert vm.invoke(thread, "a.A.f(int)", (1,)) == 10
    assert vm.invoke(thread, "a.A.f(int)", (-1,)) == 10


def test_depth_limit_enforced():
    vm = VM(load_program(COUNTDOWN), max_stack_depth=50)
    thread = vm.new_thread()
    assert vm.invoke(thread, "r.R.down(int)", (49,)) == 0
    with pytest.raises(StackDepthError):
        vm.invoke(thread, "r.R.down(int)", (50,))
    # the failed call must not leak frames
    assert thread.frames == []


def test_default_depth_limit_supports_deep_chains():
    vm = VM(load_program(COUNTDOWN))
    assert vm.max_stack_depth == 10_000
    thread = vm.new_thread()
    assert vm.invoke(thread, "r.R.down(int)", (9_999,)) == 0
    with pytest.raises(StackDepthError):
        vm.invoke(thread, "r.R.down(int)", (10_000,))
    assert thread.frames == []


def test_deep_chain_also_works_compiled():
    vm = VM(load_program(COUNTDOWN))
    vm.jit_compile("r.R.down(int)")
    assert vm.invoke(vm.new_thread(), "r.R.down(int)", (9_999,)) == 0


def _on_a_thread(fn):
    """``fn()`` run on a fresh ``threading.Thread``: its result, or its exception re-raised."""
    box = {}

    def body():
        try:
            box["result"] = fn()
        except BaseException as exc:
            box["error"] = exc

    worker = threading.Thread(target=body)
    worker.start()
    worker.join()
    if "error" in box:
        raise box["error"]
    return box["result"]


@pytest.mark.parametrize("compiled", [False, True], ids=["interpreted", "compiled"])
def test_deep_chain_on_a_thread_under_a_targeted_session(compiled):
    vm = VM(load_program(COUNTDOWN))
    if compiled:
        vm.jit_compile("r.R.down(int)")
    engine = TraceEngine(vm)
    engine.apply(TargetSet([(MethodRef.parse("r.R.down(int)"), (TraceAction.TIME_METHOD,))]))
    thread = vm.new_thread("deep")
    assert _on_a_thread(lambda: vm.invoke(thread, "r.R.down(int)", (9_999,))) == 0
    assert len(engine.drain().events) == 10_000
    with pytest.raises(StackDepthError):
        _on_a_thread(lambda: vm.invoke(thread, "r.R.down(int)", (10_000,)))
    assert thread.frames == []
    engine.rollback()


_RLIMIT_PROBE = """
import resource
from tracevm import VM, load_program

# Start with the soft limit below the hard one, as a login shell does, even if
# the process that spawned this one raised its own.
hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
if hard == resource.RLIM_INFINITY or hard > 8 << 20:
    resource.setrlimit(resource.RLIMIT_STACK, (8 << 20, hard))
before = resource.getrlimit(resource.RLIMIT_STACK)
VM(load_program("class a.A\\n  method f()\\n    pushconst 1\\n    ret"))
after = resource.getrlimit(resource.RLIMIT_STACK)
print(before == after, before, after)
"""


def test_building_a_vm_leaves_the_stack_rlimit_alone():
    src = str(Path(tracevm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _RLIMIT_PROBE], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.startswith("True "), out.stdout


def test_thread_frames_outermost_first():
    src = """
class s.S
  method inner()
    pushconst 1
    ret
  method outer()
    call s.S.inner()
    ret
"""
    vm = VM(load_program(src))
    seen = []

    from tracevm import EventKind, ListenerRegistration

    def listener(thread, ref, kind, args, value, abrupt):
        if ref.method_name == "inner":
            seen.append(list(thread.frames))

    vm.instrumentation.add_listener(ListenerRegistration(
        "t", frozenset({EventKind.METHOD_ENTERED}), listener))
    vm.invoke(vm.new_thread(), "s.S.outer()", ())
    inner, outer = MethodRef.parse("s.S.inner()"), MethodRef.parse("s.S.outer()")
    [frames] = seen
    assert frames == [outer, inner]
    assert all(type(f) is MethodRef for f in frames)


def test_tier_counters(fib_source):
    vm = VM(load_program(fib_source))
    thread = vm.new_thread()
    vm.invoke(thread, "demo.Math.fib(int)", (5,))
    assert vm.compiled_calls == 0
    interp_n = vm.interpreted_calls
    assert interp_n > 0
    vm.jit_compile("demo.Math.fib(int)")
    vm.invoke(thread, "demo.Math.fib(int)", (5,))
    assert vm.interpreted_calls == interp_n
    assert vm.compiled_calls == interp_n
    assert len(vm.registry) == 1


def test_corrupt_bytecode_aborts_with_internal_error():
    vm = VM(load_program("class a.A\n  method f()\n    pushconst 1\n    ret"))
    # Bypass the loader: underflowing bytecode must abort, not wrap around.
    broken = MethodRecord(MethodRef("a.A", "g", ()),
                          ((Opcode.ADD.value, None), (Opcode.RETURN.value, None)),
                          0, (0, None))
    vm.registry._records["a.A.g()"] = broken
    with pytest.raises(VMInternalError) as info:
        vm.invoke(vm.new_thread(), "a.A.g()", ())
    assert "a.A.g()" in str(info.value)


def test_corrupt_bytecode_fires_one_abrupt_exit():
    vm = VM(load_program("class a.A\n  method f()\n    pushconst 1\n    ret"))
    g = MethodRef("a.A", "g", ())
    vm.registry._records[g.key] = MethodRecord(
        g, ((Opcode.ADD.value, None), (Opcode.RETURN.value, None)), 0, (0, None))
    seen = []

    def listener(thread, ref, kind, args, value, abrupt):
        seen.append((ref.key, kind, value, abrupt))

    vm.instrumentation.add_listener(ListenerRegistration(
        "t", frozenset({EventKind.METHOD_ENTERED, EventKind.METHOD_EXITED}), listener))
    thread = vm.new_thread()
    with pytest.raises(VMInternalError, match="a.A.g()") as info:
        vm.invoke(thread, g, ())
    assert isinstance(info.value.__cause__, IndexError)
    assert seen == [(g.key, EventKind.METHOD_ENTERED, None, False),
                    (g.key, EventKind.METHOD_EXITED, None, True)]
    assert thread.frames == []


TWO_TIER = """
class t.T
  method leaf(int)
    loadarg 0
    pushconst 1
    add
    ret
  method mid(int)
    loadarg 0
    call t.T.leaf(int)
    loadarg 0
    call t.T.leaf(int)
    add
    ret
  method top(int)
    loadarg 0
    call t.T.mid(int)
    loadarg 0
    call t.T.leaf(int)
    add
    ret
"""


def test_tier_counters_exact_on_a_two_tier_program():
    # top and leaf are interpreted, mid is compiled: one top call runs top and
    # leaf x3 interpreted and mid once compiled.
    vm = VM(load_program(TWO_TIER))
    vm.jit_compile("t.T.mid(int)")
    thread = vm.new_thread()
    for n in (1, 2, 3):
        assert vm.invoke(thread, "t.T.top(int)", (n,)) == 3 * n + 3
    assert (vm.interpreted_calls, vm.compiled_calls) == (12, 3)
    assert vm.instrumentation.events_dispatched == 0

    # With no listener, the quick stub on mid dispatches no event either.
    vm.instrumentation.install_stubs_for_method(
        vm.registry.lookup("t.T.mid(int)"), EntryPoint.INSTRUMENTATION_QUICK_STUB)
    for n in (1, 2, 3):
        assert vm.invoke(thread, "t.T.top(int)", (n,)) == 3 * n + 3
    assert vm.instrumentation.events_dispatched == 0

    # A listener makes each interpreted call dispatch an entry and an exit;
    # the quick stub on mid adds a pair per mid call.
    vm.instrumentation.add_listener(ListenerRegistration(
        "t", frozenset({EventKind.METHOD_ENTERED, EventKind.METHOD_EXITED}),
        lambda *event: None))
    for n in (1, 2, 3):
        assert vm.invoke(thread, "t.T.top(int)", (n,)) == 3 * n + 3
    assert (vm.interpreted_calls, vm.compiled_calls) == (36, 9)
    assert vm.instrumentation.events_dispatched == 3 * (2 * 4 + 2)
    assert thread.frames == []


def test_string_constants_flow_as_intern_ids():
    src = 'class a.A\n  method f()\n    pushconst "x@y.zz"\n    ret'
    vm = VM(load_program(src))
    value = vm.invoke(vm.new_thread(), "a.A.f()", ())
    assert isinstance(value, int)
    assert vm.registry.value_to_payload(value) == "x@y.zz"


def test_vm_rejects_bad_depth_limit(fib_source):
    with pytest.raises(ValueError):
        VM(load_program(fib_source), max_stack_depth=0)
