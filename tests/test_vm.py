import itertools
import os
import random
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
from tracevm import vm as vm_module
from tracevm.core import _OPCODE_TABLE, I64_MAX, I64_MIN, MethodRecord
from tracevm.vm import _RUNS, quicken

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


# The quickened form. ``_run_method`` builds ``f(int,int,int)``: arg 0 seeds
# local 0, arg 1 is the run's ``loadarg`` operand, and when arg 2 is 0 a jump
# enters the run at its op ``j`` instead of at its start.
K = 2**62 + 3
EDGES = (2**63 - 1, -(2**63), 2**62, -(2**62) + 1, 2**63 - 2, -1, 0)  # sample_args' extremes
_EFFECT = {int(op): row for op, row in _OPCODE_TABLE.items()}
RUN_IDS = ["-".join(_EFFECT[op][0] for op in run) for run in _RUNS]


def _run_method(run: tuple, j: int) -> str:
    before, depth, low = [], 0, 0
    for op in run:
        pops, pushes = _EFFECT[op][2:]
        before.append(depth)
        low = min(low, depth - pops)
        depth += pushes - pops
    start, extra = -low, before[j]  # the run's own start depth; what the jump path adds
    body = ["loadarg 0", "pushconst 0", "add", "storelocal 0",
            *["loadarg 1"] * (start + extra), "loadarg 2", "pushconst 0", "add"]
    p = len(body) + 1 + extra  # the run's first op
    body += [f"jz {p + j - len(body):+d}", *["storelocal 1"] * extra]
    t = p + len(run) + 3  # the tail that a jz in the run jumps to
    operand = {"loadlocal": " 0", "pushconst": f" {K}", "loadarg": " 1", "storelocal": " 0"}
    for i, op in enumerate(run):
        name = _EFFECT[op][0]
        body.append(name + (f" {t - p - i:+d}" if name == "jz" else operand.get(name, "")))
    # returns local 0 as it is: the jump keeps this loadlocal and ret apart
    body += ["loadlocal 0", "jmp +1", "ret", "pushconst 77", "ret"]
    return "class q.Q\n  method f(int,int,int)\n" + "\n".join(f"    {line}" for line in body)


def _three_ways(src: str, refeval, arg_sets) -> list:
    """``q.Q.f`` over ``arg_sets``, interpreted; checked against compiled and the reference."""
    vm_i, vm_c = VM(load_program(src)), VM(load_program(src))
    vm_c.jit_compile("q.Q.f(int,int,int)")
    ref = refeval.RefEval(tracevm.parse_program(src))
    ti, tc = vm_i.new_thread(), vm_c.new_thread()
    results = []
    for args in arg_sets:
        got = vm_i.invoke(ti, "q.Q.f(int,int,int)", args)
        assert got == vm_c.invoke(tc, "q.Q.f(int,int,int)", args) == ref.run(
            "q.Q.f(int,int,int)", args), (args, got)
        results.append(got)
    return results


@pytest.mark.parametrize("run", _RUNS, ids=RUN_IDS)
def test_a_jump_into_a_fusible_run_ends_the_run(run, refeval):
    for j in range(len(run)):
        src = _run_method(run, j)
        code = load_program(src).lookup("q.Q.f(int,int,int)").code
        # a jump to the run's first op leaves it whole; one to a later op splits it
        assert (_RUNS[run] in [op for op, _ in quicken(code)]) == (j == 0), j
        _three_ways(src, refeval, [(x, y, c) for x, y in [(5, 3), (0, -7), (EDGES[0], 2)]
                                   for c in (0, 1)])


ARITH_RUNS = [run for run in _RUNS if {Opcode.ADD, Opcode.SUB, Opcode.MUL} & set(run)]


@pytest.mark.parametrize("run", ARITH_RUNS,
                         ids=[RUN_IDS[list(_RUNS).index(run)] for run in ARITH_RUNS])
def test_every_fused_op_wraps_at_the_64_bit_edges(run, refeval):
    src = _run_method(run, 0)
    assert _RUNS[run] in [op for op, _ in quicken(load_program(src).lookup(
        "q.Q.f(int,int,int)").code)]
    arg_sets = [(x, y, 1) for x, y in itertools.product(EDGES, repeat=2)]
    results = _three_ways(src, refeval, arg_sets)
    assert all(I64_MIN <= value <= I64_MAX for value in results)
    # the unbounded result leaves the range for some edge pair, so the wrap runs
    op = next(op for op in run if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL))
    exact = {Opcode.ADD: int.__add__, Opcode.SUB: int.__sub__, Opcode.MUL: int.__mul__}[op]
    assert any(not I64_MIN <= exact(x, K if Opcode.PUSH_CONST in run else y) <= I64_MAX
               for x, y, _ in arg_sets)


def _late(op: str) -> str:
    """``late.L.f(int)``, whose body fuses to three ops: ``arg 0 OP 5``."""
    lines = ["loadarg 0", "storelocal 0", "loadlocal 0", "pushconst 5", op, "storelocal 0",
             "loadlocal 0", "ret"]
    return "class late.L\n  method f(int)\n" + "\n".join(f"    {line}" for line in lines)


def test_two_registries_each_run_their_own_body_under_one_late_key():
    program = tracevm.parse_program(COUNTDOWN)
    vms = [VM(program.instantiate()) for _ in range(2)]
    for vm, op in zip(vms, ("add", "mul")):
        vm.registry.load(tracevm.parse_program(_late(op)))
    threads = [vm.new_thread() for vm in vms]
    for _ in range(2):
        assert [vm.invoke(t, "late.L.f(int)", (3,)) for vm, t in zip(vms, threads)] == [8, 15]
    # a loaded record quickens its own body; the program's table is for its own methods
    assert "late.L.f(int)" not in program.quickened


def test_registries_of_one_program_quicken_a_method_once_between_them(monkeypatch):
    seen = []

    def counting(code):
        seen.append(code)
        return quicken(code)

    monkeypatch.setattr(vm_module, "quicken", counting)
    program = tracevm.parse_program(_late("sub"))
    for _ in range(3):
        vm = VM(program.instantiate())
        for _ in range(2):
            assert vm.invoke(vm.new_thread(), "late.L.f(int)", (3,)) == -2
    assert seen == [program.specs["late.L.f(int)"].code]
    assert vm.registry.lookup("late.L.f(int)").quickened is program.quickened["late.L.f(int)"]


@pytest.mark.parametrize("body, value", [
    # the shape of the late class that session_churn loads each cycle
    (("loadarg 0", "pushconst 4", "mul", "pushconst 11", "add", "ret"), 31),
    # starts like a fusible run at its loadlocal, but no run is whole
    (("loadarg 0", "loadlocal 0", "pushconst 4", "add", "mul", "ret"), 20),
], ids=["late-leaf", "no-whole-run"])
def test_a_body_with_nothing_to_fuse_is_its_own_quickened_form(body, value):
    late = "class app.Late1\n  method leaf(int)\n" + "\n".join(f"    {line}" for line in body)
    vm = VM(load_program(COUNTDOWN))
    vm.registry.load(tracevm.parse_program(late))
    assert vm.invoke(vm.new_thread(), "app.Late1.leaf(int)", (5,)) == value
    record = vm.registry.lookup("app.Late1.leaf(int)")
    assert record.quickened is record.code


@pytest.mark.parametrize("shared_vm", [True, False], ids=["one-vm", "two-registries"])
def test_threads_that_first_interpret_a_method_at_once_both_get_it_right(monkeypatch, shared_vm):
    program = tracevm.parse_program(_late("mul"))
    vms = [VM(program.instantiate())] * 2 if shared_vm else [
        VM(program.instantiate()) for _ in range(2)]
    inside = threading.Barrier(2, timeout=10)

    def meeting(code):
        inside.wait()  # both threads are quickening the method at this point
        return quicken(code)

    monkeypatch.setattr(vm_module, "quicken", meeting)
    results = [None, None]

    def first_call(i):
        results[i] = vms[i].invoke(vms[i].new_thread(), "late.L.f(int)", (i + 2,))

    workers = [threading.Thread(target=first_call, args=(i,)) for i in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
    assert not any(worker.is_alive() for worker in workers)
    assert results == [10, 15]
    records = [vm.registry.lookup("late.L.f(int)") for vm in vms]
    assert records[0].quickened == records[1].quickened == program.quickened["late.L.f(int)"]


# Copy on write. Every registry of a program calls an untouched method through
# the program's one shared record; whatever writes a method's state goes
# through the registry and gets a private record, so the shared one stays
# pristine for every other VM.
SHARED = """
class s.S
  method leaf(int)
    loadarg 0
    storelocal 0
    loadlocal 0
    pushconst 1
    add
    storelocal 0
    loadlocal 0
    ret
  method top(int)
    loadarg 0
    call s.S.leaf(int)
    loadarg 0
    call s.S.leaf(int)
    mul
    ret
"""
LEAF, TOP = "s.S.leaf(int)", "s.S.top(int)"
LATE = "class late.L\n  method f(int)\n    loadarg 0\n    call s.S.top(int)\n    ret"
TIMED = (TraceAction.TIME_METHOD,)


def _top(n):
    return (n + 1) * (n + 1)


def _assert_pristine(record):
    assert record.entry_point is EntryPoint.INTERPRETER_BRIDGE
    assert record.original_entry_point is None and record.lowered_code is None


def _compile_and_call(vm, thread):
    vm.jit_compile(TOP)
    vm.jit_compile(LEAF)
    assert vm.invoke(thread, TOP, (4,)) == _top(4)


def _targeted(vm, thread):
    engine = TraceEngine(vm)
    engine.apply(TargetSet([(MethodRef.parse(LEAF), TIMED)]))
    assert vm.invoke(thread, TOP, (4,)) == _top(4)
    assert len(engine.drain().events) == 2
    return engine.rollback


def _global(vm, thread):
    engine = TraceEngine(vm)
    engine.apply_global(TargetSet([(MethodRef.parse(TOP), TIMED)]))
    assert vm.invoke(thread, TOP, (4,)) == _top(4)
    assert len(engine.drain().events) == 1
    return engine.rollback


def _late_load(vm, thread):
    engine = TraceEngine(vm)
    engine.apply(TargetSet([(MethodRef.parse(TOP), TIMED)]),
                 pending=[(MethodRef.parse("late.L.f(int)"), TIMED)])
    vm.registry.load(tracevm.parse_program(LATE))
    assert vm.invoke(thread, "late.L.f(int)", (4,)) == _top(4)
    assert len(engine.drain().events) == 2
    return engine.rollback


def _manual_stub(vm, thread):
    record = vm.registry.get(LEAF)
    assert vm.instrumentation.install_stubs_for_method(
        record, EntryPoint.INSTRUMENTATION_INTERPRETER_STUB)
    assert vm.invoke(thread, TOP, (4,)) == _top(4)
    return lambda: vm.instrumentation.restore_entry_point_for_method(record)


@pytest.mark.parametrize("write", [_compile_and_call, _targeted, _global, _late_load,
                                   _manual_stub],
                         ids=["jit", "targeted", "global", "late-load", "manual-stub"])
def test_every_write_lands_on_a_private_record(write):
    program = tracevm.parse_program(SHARED)
    bystander, writer = VM(program.instantiate()), VM(program.instantiate())
    thread = writer.new_thread()
    assert writer.invoke(thread, TOP, (2,)) == _top(2)  # first reached by a call edge
    shared = dict(program.shared)
    assert list(shared) == [TOP, LEAF] and writer.registry._records == {}

    def check():
        assert program.shared == shared  # no record replaced, none added
        for key, record in shared.items():
            _assert_pristine(record)
            assert writer.registry.get(key) is not record
        assert all(rec is not shared.get(key) for key, rec in writer.registry._records.items())
        # another VM of the program runs on the shared records and sees no stub
        assert bystander.invoke(bystander.new_thread(), TOP, (3,)) == _top(3)
        assert bystander.compiled_calls == 0 and bystander.registry._records == {}
        assert writer.invoke(thread, TOP, (5,)) == _top(5)

    undo = write(writer, thread)
    check()
    if undo is not None:
        undo()
        check()

    fresh = VM(program.instantiate())
    assert fresh.invoke(fresh.new_thread(), TOP, (6,)) == _top(6)
    for key in (TOP, LEAF):
        record = fresh.registry.get(key)  # private, with the program's quickened body
        assert record is not shared[key] and record.quickened is program.quickened[key]
        _assert_pristine(record)
    assert program.quickened[LEAF] != program.specs[LEAF].code  # the body fused


def test_a_fresh_registry_driven_only_by_calls_builds_no_record(monkeypatch):
    program = tracevm.parse_program(SHARED)
    first = VM(program.instantiate())
    assert first.invoke(first.new_thread(), TOP, (2,)) == _top(2)
    built = []
    init = MethodRecord.__init__

    def counting_init(self, *args):
        built.append(args[0].key)
        init(self, *args)

    monkeypatch.setattr(MethodRecord, "__init__", counting_init)
    for target in (TOP, MethodRef.parse(TOP)):
        vm = VM(program.instantiate())
        thread = vm.new_thread()
        assert [vm.invoke(thread, target, (n,)) for n in (1, 2)] == [_top(1), _top(2)]
        assert built == [] and vm.registry._records == {}
    # a program method no VM called yet gets its shared record once
    other = tracevm.parse_program(SHARED)
    for _ in range(2):
        vm = VM(other.instantiate())
        assert vm.invoke(vm.new_thread(), LEAF, (1,)) == 2
    assert built == [LEAF] and vm.registry._records == {}


def test_vms_of_one_program_first_call_at_once_while_another_traces():
    """Eight VMs of one program make their first calls at once while a ninth compiles and traces."""

    def program():
        return tracevm.gen_workload(n_classes=12, methods_per_class=10, target_count=4, seed=778)

    work = program()
    calls = work.traffic(60, seed=5)
    oracle = VM(work.program.instantiate())
    expected = [oracle.invoke(oracle.new_thread(), key, args) for key, args in calls]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(10):
            work = program()  # a program no VM has called yet
            readers = [VM(work.program.instantiate()) for _ in range(8)]
            writer = VM(work.program.instantiate())
            engine = TraceEngine(writer)
            barrier = threading.Barrier(9, timeout=10)
            done = threading.Event()
            results, errors = {}, []

            def read(i):
                order = list(enumerate(calls))
                random.Random(round_no * 8 + i).shuffle(order)
                thread = readers[i].new_thread()
                barrier.wait()
                results[i] = {n: readers[i].invoke(thread, key, args) for n, (key, args) in order}

            def write():
                thread = writer.new_thread()
                barrier.wait()
                try:
                    for key, _ in calls[:6]:
                        writer.jit_compile(key)
                    while not done.is_set():
                        engine.apply(TargetSet(work.target_entries))
                        for n, (key, args) in enumerate(calls[:6]):
                            assert writer.invoke(thread, key, args) == expected[n]
                        engine.rollback()
                except Exception as exc:  # pragma: no cover - the failure being tested
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            threads.append(threading.Thread(target=write))
            for t in threads:
                t.start()
            for t in threads[:8]:
                t.join(timeout=30)
            done.set()
            threads[8].join(timeout=30)
            assert not any(t.is_alive() for t in threads) and errors == []
            assert sorted(results) == list(range(8))
            for per_reader in results.values():
                assert [per_reader[n] for n in range(len(calls))] == expected
            assert all(vm.registry._records == {} and vm.compiled_calls == 0 for vm in readers)
            for record in work.program.shared.values():
                _assert_pristine(record)
            for record in writer.registry._records.values():  # rolled back
                compiled = record.lowered_code is not None
                assert record.original_entry_point is None
                assert record.entry_point is (EntryPoint.COMPILED_DIRECT if compiled
                                              else EntryPoint.INTERPRETER_BRIDGE)
            assert writer.compiled_calls > 0
    finally:
        sys.setswitchinterval(old_interval)
