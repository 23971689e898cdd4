import ctypes
import dis
import gc
import random
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracevm import (
    CompilationState,
    EntryPoint,
    EventKind,
    EventSink,
    ListenerRegistration,
    MethodNotFoundError,
    MethodRef,
    Opcode,
    Program,
    TargetSet,
    TraceAction,
    TraceEngine,
    VM,
    VMInternalError,
    gen_random_program,
    gen_workload,
    load_program,
    parse_program,
    sample_args,
    wrap_i64,
)
from tracevm import jit
from tracevm import vm as vm_module
from tracevm.jit import _NEST_CAP, _WIDE, lower_method

I64_MAX = 2**63 - 1
I64 = st.integers(min_value=-(2**63), max_value=I64_MAX)
I64_EDGES = (-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1, 3037000500, -3037000500)
OPERAND = st.one_of(st.sampled_from(I64_EDGES), I64)
_PYOPS = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b}


def _vm(src):
    return VM(load_program(src))


# Building a VM raises the process-wide recursion limit once. Doing it here,
# before any ``@given`` test builds one, keeps hypothesis from warning that a
# test changed the limit, whichever tests ran first.
_vm("class a.A\n  method f()\n    pushconst 0\n    ret")


def _arith_src(op):
    return f"""
class a.A
  method f(int,int)
    loadarg 0
    loadarg 1
    {op}
    ret
"""


@pytest.mark.parametrize("op,pyop", [("add", lambda a, b: a + b),
                                     ("sub", lambda a, b: a - b),
                                     ("mul", lambda a, b: a * b)])
@given(a=I64, b=I64)
def test_compiled_arith_wraps_like_c(op, pyop, a, b):
    vm = _vm(_arith_src(op))
    vm.jit_compile("a.A.f(int,int)")
    thread = vm.new_thread()
    assert vm.invoke(thread, "a.A.f(int,int)", (a, b)) == ctypes.c_int64(pyop(a, b)).value


def test_fib_compiled_equals_interpreted(fib_source):
    vm_i = _vm(fib_source)
    vm_c = _vm(fib_source)
    vm_c.jit_compile("demo.Math.fib(int)")
    ti, tc = vm_i.new_thread(), vm_c.new_thread()
    for n in range(18):
        assert (vm_i.invoke(ti, "demo.Math.fib(int)", (n,))
                == vm_c.invoke(tc, "demo.Math.fib(int)", (n,)))


def test_straightline_lowering_has_no_dispatch_loop():
    vm = _vm("class a.A\n  method f(int)\n    loadarg 0\n    pushconst 3\n    mul\n    ret")
    rec = vm.jit_compile("a.A.f(int)")
    assert "while True" not in lower_method(rec)[1]
    assert rec.compilation_state is CompilationState.COMPILED
    assert rec.entry_point is EntryPoint.COMPILED_DIRECT


def test_branchy_lowering_uses_block_dispatch(fib_source):
    vm = _vm(fib_source)
    rec = vm.jit_compile("demo.Math.fib(int)")
    assert "while True" in lower_method(rec)[1]
    assert "elif _b ==" in lower_method(rec)[1]


@pytest.mark.parametrize("token", ["int²", "n½"])
def test_non_identifier_signature_token_compiles(token):
    # ``str.isalnum`` holds for these characters, but no identifier may hold them.
    key = f"a.B.m({token})"
    src = (f"class a.B\n  method m({token})\n    loadarg 0\n    pushconst 3\n    mul\n    ret\n"
           f"  method n({token})\n    loadarg 0\n    call {key}\n    pushconst 1\n    add\n    ret")
    vm_i, vm_c = _vm(src), _vm(src)
    outer = f"a.B.n({token})"
    for ref in (key, outer):
        vm_c.jit_compile(ref)
    ti, tc = vm_i.new_thread(), vm_c.new_thread()
    for arg in (0, 14, -(2**63)):
        assert vm_c.invoke(tc, outer, (arg,)) == vm_i.invoke(ti, outer, (arg,))
    for ref in (key, outer):
        assert vm_c.registry.lookup(ref).lowered_code.__name__.isidentifier()
    assert vm_c.interpreted_calls == 0 and vm_i.interpreted_calls == 6


def test_ascii_keys_keep_their_lowered_names(small_workload):
    vm = VM(small_workload.program.instantiate())
    rec = vm.jit_compile("load.Probe.hotPlain(int)")
    vm.invoke(vm.new_thread(), rec.method_ref, (3,))
    assert rec.lowered_code.__name__ == "_lowered_load_Probe_hotPlain_int_"


def test_jit_compile_idempotent(fib_source):
    vm = _vm(fib_source)
    rec1 = vm.jit_compile("demo.Math.fib(int)")
    code = rec1.lowered_code
    rec2 = vm.jit_compile("demo.Math.fib(int)")
    assert rec2.lowered_code is code


def test_jit_keeps_installed_stub():
    vm = _vm("class a.A\n  method f()\n    pushconst 5\n    ret")
    ins = vm.instrumentation
    ins.install_stubs_for_method(vm.registry.lookup("a.A.f()"),
                                 EntryPoint.INSTRUMENTATION_INTERPRETER_STUB)
    rec = vm.jit_compile("a.A.f()")
    # Tier changed, dispatch slot untouched: the stub stays until restore,
    # which puts back the saved entry, now on the compiled tier.
    assert rec.compilation_state is CompilationState.COMPILED
    assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    assert rec.original_entry_point is EntryPoint.COMPILED_DIRECT


def test_locals_and_loops_compile_correctly():
    # sum of 1..n via a countdown loop
    src = """
class a.A
  method sum(int)
    pushconst 0
    storelocal 0
    loadarg 0
    storelocal 1
    loadlocal 1
    jz +10
    loadlocal 0
    loadlocal 1
    add
    storelocal 0
    loadlocal 1
    pushconst 1
    sub
    storelocal 1
    jmp -10
    loadlocal 0
    ret
"""
    vm = _vm(src)
    thread = vm.new_thread()
    expected = [n * (n + 1) // 2 for n in range(30)]
    got_interp = [vm.invoke(thread, "a.A.sum(int)", (n,)) for n in range(30)]
    vm.jit_compile("a.A.sum(int)")
    got_comp = [vm.invoke(thread, "a.A.sum(int)", (n,)) for n in range(30)]
    assert got_interp == expected
    assert got_comp == expected


def test_zero_fill_only_for_locals_read_first():
    # In f, l1 is stored before any read; l2 is read before its store; l0 is
    # stored only after a jump, which skips the store when the argument is 0.
    # In g, the run before the first jump crosses a loop head (pc 2) and
    # stores both locals before reading them.
    src = """
class a.A
  method g()
    pushconst 3
    storelocal 0
    loadlocal 0
    pushconst 1
    storelocal 1
    loadlocal 1
    sub
    storelocal 0
    loadlocal 0
    jz +2
    jmp -8
    loadlocal 1
    ret
  method f(int)
    pushconst 7
    storelocal 1
    loadlocal 2
    pushconst 1
    add
    storelocal 2
    loadarg 0
    jz +3
    pushconst 5
    storelocal 0
    loadlocal 0
    loadlocal 1
    add
    loadlocal 2
    add
    ret
"""
    vm = _vm(src)
    thread = vm.new_thread()
    rec = vm.jit_compile("a.A.f(int)")
    fills = [line.strip() for line in lower_method(rec)[1].splitlines()
             if line.lstrip().startswith("l") and line.endswith(" = 0")]
    assert fills == ["l0 = 0", "l2 = 0"]
    assert [vm.invoke(thread, "a.A.f(int)", (a,)) for a in (0, 3)] == [8, 13]
    assert vm.invoke(thread, "a.A.g()", ()) == 1
    rec = vm.jit_compile("a.A.g()")
    assert " = 0\n" not in lower_method(rec)[1].replace("_b = 0\n", "")
    assert vm.invoke(thread, "a.A.g()", ()) == 1 and vm.compiled_calls == 3


def test_calls_from_compiled_code_redispatch():
    src = """
class a.A
  method leaf(int)
    loadarg 0
    pushconst 10
    mul
    ret
  method outer(int)
    loadarg 0
    call a.A.leaf(int)
    pushconst 1
    add
    ret
"""
    vm = _vm(src)
    vm.jit_compile("a.A.outer(int)")
    thread = vm.new_thread()
    before = vm.interpreted_calls
    assert vm.invoke(thread, "a.A.outer(int)", (4,)) == 41
    # leaf stays interpreted and is reached through the normal dispatch path
    assert vm.interpreted_calls == before + 1


def test_lowered_namespace_is_sealed(fib_source):
    vm = _vm(fib_source + "class demo.One\n  method one()\n    pushconst 1\n    ret\n")
    recs = [vm.jit_compile(key) for key in ("demo.Math.fib(int)", "demo.One.one()")]
    thread = vm.new_thread()
    assert vm.invoke(thread, "demo.Math.fib(int)", (6,)) == 8
    assert vm.invoke(thread, "demo.One.one()") == 1
    scope = recs[0].lowered_code.__globals__
    # One scope for all lowered code, holding no function and no per-method value.
    assert recs[1].lowered_code.__globals__ is scope
    assert scope["__builtins__"] == {}
    assert set(scope) == {"__builtins__"}
    # The function is all a compiled record keeps: no source text.
    for rec in recs:
        assert not [ref for ref in gc.get_referents(rec) if isinstance(ref, str)]


def test_compiled_interpreter_differential_on_random_programs():
    from tracevm import gen_random_program, sample_args

    rng = random.Random(99)
    for seed in range(40):
        program, refs = gen_random_program(seed)
        vm_i = VM(program.instantiate())
        vm_c = VM(program.instantiate())
        for spec in program.methods:
            vm_c.jit_compile(spec.ref)
        ti, tc = vm_i.new_thread(), vm_c.new_thread()
        for ref in refs:
            for _ in range(3):
                args = sample_args(rng, ref.arity)
                assert (vm_i.invoke(ti, ref, args) == vm_c.invoke(tc, ref, args)), (
                    seed, ref.key, args)


def _with_twins(program, cls="gen.Q"):
    """``program`` plus a twin of each method in ``cls``: an equal code tuple, not the same one."""
    twins = {}
    for spec in program.methods:
        ref = MethodRef(cls, spec.ref.method_name, spec.ref.params)
        twins[ref.key] = spec._replace(ref=ref, code=tuple(list(spec.code)))
    return Program({**program.specs, **twins}, program.intern_map)


def test_twins_compile_once_and_match_the_interpreter():
    rng = random.Random(7)
    twins_with_calls = 0
    for seed in range(40):
        program, refs = gen_random_program(seed)
        twinned = _with_twins(program)
        vm_i, vm_c = VM(program.instantiate()), VM(twinned.instantiate())
        for key in twinned.specs:
            vm_c.jit_compile(key)
        ti, tc = vm_i.new_thread(), vm_c.new_thread()
        for ref in refs:
            twin = MethodRef("gen.Q", ref.method_name, ref.params)
            twins_with_calls += any(op == Opcode.CALL for op, _ in vm_c.registry.lookup(twin).code)
            for _ in range(3):
                args = sample_args(rng, ref.arity)
                want = vm_i.invoke(ti, ref, args)
                assert vm_c.invoke(tc, ref, args) == want, (seed, ref.key, args)
                assert vm_c.invoke(tc, twin, args) == want, (seed, twin.key, args)
        assert vm_c.interpreted_calls == 0
    assert twins_with_calls > 10


TWIN_SRC = """
class t.A
  method leaf(int)
    loadarg 0
    pushconst 3
    mul
    ret
  method f(int)
    loadarg 0
    call t.A.leaf(int)
    loadarg 0
    jz +2
    call t.A.leaf(int)
    ret
class t.B
  method g(int)
    loadarg 0
    call t.A.leaf(int)
    loadarg 0
    jz +2
    call t.A.leaf(int)
    ret
"""


def _count_lowerings(monkeypatch) -> list:
    lowered = []

    def counting(record):
        lowered.append(record.method_ref.key)
        return lower_method(record)

    monkeypatch.setattr(vm_module, "lower_method", counting)
    return lowered


def test_twins_keep_their_own_identity_in_one_scope(monkeypatch):
    lowered = _count_lowerings(monkeypatch)
    vm = _vm(TWIN_SRC)
    thread = vm.new_thread()
    for key in ("t.A.f(int)", "t.B.g(int)"):
        vm.jit_compile(key)
    assert [vm.invoke(thread, key, (2,)) for key in ("t.A.f(int)", "t.B.g(int)")] == [18, 18]
    f, g = (vm.registry.lookup(key).lowered_code for key in ("t.A.f(int)", "t.B.g(int)"))
    # each twin lowers its own body on its own first call
    assert lowered == ["t.A.f(int)", "t.B.g(int)"]
    assert (f.__name__, g.__name__) == ("_lowered_t_A_f_int_", "_lowered_t_B_g_int_")
    assert f.__qualname__ == f.__name__ and g.__qualname__ == g.__name__
    assert (f.__code__.co_filename, g.__code__.co_filename) == ("<lowered t.A.f(int)>",
                                                                "<lowered t.B.g(int)>")
    assert f.__code__.co_code == g.__code__.co_code
    assert f.__globals__ is g.__globals__ is jit._SCOPE
    # the text names no method, so twins lower to one text and share one defaults tuple
    f_record, g_record = (vm.registry.lookup(key) for key in ("t.A.f(int)", "t.B.g(int)"))
    assert lower_method(f_record)[1] == lower_method(g_record)[1]
    assert f.__defaults__ is g.__defaults__ is jit._DEFAULTS
    thread = vm.new_thread()
    assert [vm.invoke(thread, "t.B.g(int)", (a,)) for a in (0, 4)] == [0, 36]


def test_vms_share_no_compiled_bodies(monkeypatch):
    lowered = _count_lowerings(monkeypatch)
    program = parse_program(TWIN_SRC)
    first, second = VM(program.instantiate()), VM(program.instantiate())
    for vm, key in ((first, "t.A.f(int)"), (second, "t.B.g(int)"), (second, "t.A.f(int)")):
        vm.invoke(vm.new_thread(), vm.jit_compile(key).method_ref, (1,))
    assert lowered == ["t.A.f(int)", "t.B.g(int)", "t.A.f(int)"]


def test_a_compiled_method_lowers_on_its_first_call_only(monkeypatch):
    lowered = _count_lowerings(monkeypatch)
    vm = _vm(TWIN_SRC)
    keys = ("t.A.leaf(int)", "t.A.f(int)", "t.B.g(int)")
    records = [vm.jit_compile(key) for key in keys]
    # the tier moves at once; the bodies wait behind the shared prestub
    assert lowered == []
    for record in records:
        assert record.compilation_state is CompilationState.COMPILED
        assert record.entry_point is EntryPoint.COMPILED_DIRECT
        assert record.lowered_code is vm_module._lower_on_first_call
    thread = vm.new_thread()
    assert vm.invoke(thread, "t.A.f(int)", (2,)) == 18
    assert lowered == ["t.A.f(int)", "t.A.leaf(int)"]
    assert vm.invoke(thread, "t.A.f(int)", (3,)) == 27
    # the twin's first call lowers its own body; leaf is lowered already
    assert vm.invoke(thread, "t.B.g(int)", (3,)) == 27
    assert lowered == ["t.A.f(int)", "t.A.leaf(int)", "t.B.g(int)"]
    f, g = records[1].lowered_code, records[2].lowered_code
    assert g.__name__ == "_lowered_t_B_g_int_"
    assert g.__code__.co_code == f.__code__.co_code
    assert vm_module._lower_on_first_call not in {rec.lowered_code for rec in records}
    # three calls of f or g, each calling leaf twice
    assert vm.compiled_calls == 9 and vm.interpreted_calls == 0


def test_a_target_compiled_while_traced_lowers_on_its_first_traced_call(monkeypatch):
    lowered = _count_lowerings(monkeypatch)
    vm = _vm(TWIN_SRC)
    engine = TraceEngine(vm, EventSink())
    targets = TargetSet([(MethodRef.parse("t.A.f(int)"),
                          (TraceAction.TIME_METHOD, TraceAction.CAPTURE_ARGS))])
    engine.apply(targets)
    record = vm.jit_compile("t.A.f(int)")
    thread = vm.new_thread()
    # the interpreter stub stays in the slot: a traced call interprets, lowering nothing
    assert record.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    assert vm.invoke(thread, "t.A.f(int)", (2,)) == 18
    engine.rollback()
    engine.apply(targets)
    assert record.entry_point is EntryPoint.INSTRUMENTATION_QUICK_STUB
    assert lowered == []
    engine.drain()
    assert vm.invoke(thread, "t.A.f(int)", (3,)) == 27
    assert lowered == ["t.A.f(int)"]
    events = engine.drain().events
    assert [e.method_ref.key for e in events] == ["t.A.f(int)"] * 2
    by_action = {e.action: e.payload for e in events}
    assert by_action[TraceAction.CAPTURE_ARGS] == {"args": [3], "return": 27}
    assert by_action[TraceAction.TIME_METHOD]["duration_ns"] > 0
    assert vm.invoke(thread, "t.A.f(int)", (4,)) == 36
    assert lowered == ["t.A.f(int)"]
    engine.rollback()
    assert record.entry_point is EntryPoint.COMPILED_DIRECT


def test_a_lowering_that_raises_leaves_the_prestub_for_the_next_call(monkeypatch):
    vm = _vm(TWIN_SRC)
    leaf = vm.jit_compile("t.A.leaf(int)")
    assert vm.instrumentation.install_stubs_for_method(leaf, EntryPoint.INSTRUMENTATION_QUICK_STUB)
    exits = []
    vm.instrumentation.add_listener(ListenerRegistration(
        "t", frozenset({EventKind.METHOD_EXITED}),
        lambda thread, ref, kind, args, value, abrupt: exits.append((ref.key, value, abrupt))))
    failed = []

    def failing_once(record):
        if not failed:
            failed.append(record.method_ref.key)
            raise VMInternalError("lowering failed")
        return lower_method(record)

    monkeypatch.setattr(vm_module, "lower_method", failing_once)
    thread = vm.new_thread()
    # f runs interpreted; the error of its callee's first call reaches it
    with pytest.raises(VMInternalError, match="lowering failed"):
        vm.invoke(thread, "t.A.f(int)", (2,))
    assert failed == ["t.A.leaf(int)"] and thread.frames == []
    # one abrupt exit for the stubbed callee, one for the caller it unwound
    assert exits == [("t.A.leaf(int)", None, True), ("t.A.f(int)", None, True)]
    assert leaf.lowered_code is vm_module._lower_on_first_call
    # the next call lowers the body and runs it
    assert vm.invoke(thread, "t.A.f(int)", (2,)) == 18
    assert leaf.lowered_code.__name__ == "_lowered_t_A_leaf_int_"
    assert exits[2:] == [("t.A.leaf(int)", 6, False), ("t.A.leaf(int)", 18, False),
                         ("t.A.f(int)", 18, False)]
    assert leaf.entry_point is EntryPoint.INSTRUMENTATION_QUICK_STUB


def test_racing_first_calls_keep_one_code_object(monkeypatch):
    lowered = _count_lowerings(monkeypatch)
    src = "class r.R\n  method f(int)\n" + "\n".join(
        ["    loadarg 0", *[f"    pushconst {i}\n    add" for i in range(200)], "    ret"])
    want = 5 + sum(range(200))
    n_threads = 4  # more than the cores of a small machine
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            vm = _vm(src)
            record = vm.jit_compile("r.R.f(int)")
            lowered.clear()
            barrier = threading.Barrier(n_threads, timeout=30)
            results = []

            def call():
                thread = vm.new_thread()
                barrier.wait()
                results.append(vm.invoke(thread, "r.R.f(int)", (5,)))

            workers = [threading.Thread(target=call) for _ in range(n_threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
            assert results == [want] * n_threads
            # each racing first call may lower; the record keeps the last store
            assert 1 <= len(lowered) <= n_threads
            assert record.lowered_code is not vm_module._lower_on_first_call
    finally:
        sys.setswitchinterval(interval)


def test_a_chain_of_first_calls_near_the_depth_limit_returns(monkeypatch):
    lowered = _count_lowerings(monkeypatch)
    depth = 1_000
    lines = ["class d.D"]
    for i in range(depth - 1):
        lines += [f"  method m{i}(int)", "    loadarg 0", f"    pushconst {i}", "    add",
                  f"    call d.D.m{i + 1}(int)", "    ret"]
    lines += [f"  method m{depth - 1}(int)", "    loadarg 0", "    ret"]
    vm = VM(load_program("\n".join(lines)), max_stack_depth=depth)
    for i in range(depth):
        vm.jit_compile(f"d.D.m{i}(int)")
    # each level lowers its own distinct body on the way down
    assert vm.invoke(vm.new_thread(), "d.D.m0(int)", (7,)) == 7 + sum(range(depth - 1))
    assert len(lowered) == depth


def test_random_twins_lower_to_one_text_under_their_own_names():
    for seed in range(40):
        twinned = _with_twins(gen_random_program(seed)[0])
        vm = VM(twinned.instantiate())
        for spec in twinned.specs.values():
            if spec.ref.class_name == "gen.Q":
                continue
            twin = MethodRef("gen.Q", spec.ref.method_name, spec.ref.params)
            (f, text), (g, twin_text) = (lower_method(vm.registry.lookup(ref))
                                         for ref in (spec.ref, twin))
            assert text == twin_text, (seed, spec.ref.key)
            for fn, ref in ((f, spec.ref), (g, twin)):
                assert fn.__name__ == fn.__qualname__ == f"_lowered_{jit._mangle(ref.key)}"
                assert fn.__code__.co_filename == f"<lowered {ref.key}>"
                assert fn.__defaults__ is jit._DEFAULTS
            # every value the code reads is a local, an argument or a constant
            ops = {ins.opname for ins in dis.get_instructions(f)}
            assert not ops & {"LOAD_GLOBAL", "LOAD_NAME"}, (seed, spec.ref.key)


# Signature tokens holding each character a Python string literal must escape.
QUOTED_KEY = """q.Q.leaf(it's,"x",a\\b)"""
QUOTED_SRC = f"""
class q.Q
  method leaf(it's,"x",a\\b)
    loadarg 0
    loadarg 1
    sub
    loadarg 2
    mul
    ret
  method caller(int)
    loadarg 0
    pushconst 2
    loadarg 0
    call {QUOTED_KEY}
    pushconst 1
    add
    ret
"""


def test_a_call_names_a_quoted_callee_by_its_key():
    vm_i, vm_c = _vm(QUOTED_SRC), _vm(QUOTED_SRC)
    assert "'" in QUOTED_KEY and '"' in QUOTED_KEY and "\\" in QUOTED_KEY
    record = vm_c.jit_compile("q.Q.caller(int)")
    assert repr(QUOTED_KEY) in lower_method(record)[1]
    ti, tc = vm_i.new_thread(), vm_c.new_thread()
    for arg in (0, 5, -7, I64_MAX, -(2**63)):
        want = vm_i.invoke(ti, "q.Q.caller(int)", (arg,))
        assert want == wrap_i64((arg - 2) * arg + 1)
        assert vm_c.invoke(tc, "q.Q.caller(int)", (arg,)) == want
    assert vm_c.compiled_calls == 5


def test_a_caller_compiled_before_its_callee_loads_finds_it_under_a_session():
    vm = _vm("class a.A\n  method f(int)\n    loadarg 0\n    call b.B.g(int)\n"
             "    pushconst 1\n    add\n    ret")
    vm.jit_compile("a.A.f(int)")
    engine = TraceEngine(vm, EventSink())
    engine.apply(TargetSet([(MethodRef.parse(key), (TraceAction.TIME_METHOD,))
                            for key in ("a.A.f(int)", "b.B.g(int)")]))
    thread = vm.new_thread()
    with pytest.raises(MethodNotFoundError, match=r"b\.B\.g\(int\)"):
        vm.invoke(thread, "a.A.f(int)", (4,))
    assert thread.frames == []
    vm.registry.load(parse_program(
        "class b.B\n  method g(int)\n    loadarg 0\n    pushconst 3\n    mul\n    ret"))
    assert vm.invoke(thread, "a.A.f(int)", (4,)) == 13
    assert vm.interpreted_calls == 1  # only the late callee runs interpreted
    events = [(e.method_ref.key, e.payload.get("abrupt", False)) for e in engine.drain().events]
    assert events == [("a.A.f(int)", True), ("b.B.g(int)", False), ("a.A.f(int)", False)]
    engine.rollback()


def _method_src(body, params="int"):
    lines = ["class a.A", f"  method f({params})"]
    lines += [f"    {ins}" for ins in body]
    return "\n".join(lines)


def _both_tiers(src, key, args, also=()):
    """Run ``key`` interpreted, then compiled with ``also``, on one VM; return both results."""
    vm = _vm(src)
    thread = vm.new_thread()
    interpreted = vm.invoke(thread, key, args)
    for other in (key, *also):
        vm.jit_compile(other)
    compiled_before = vm.compiled_calls
    compiled = vm.invoke(thread, key, args)
    assert vm.compiled_calls > compiled_before
    return interpreted, compiled


@pytest.mark.parametrize("shape", ["accumulate", "nested"])
@given(first=OPERAND, steps=st.lists(
    st.tuples(st.sampled_from(sorted(_PYOPS)), OPERAND), min_size=2, max_size=40))
def test_arith_chains_wrap_after_every_step(shape, first, steps):
    # accumulate: ((x0 op1 x1) op2 x2) ...; nested: x0 op1 (x1 op2 (x2 ...)).
    body = ["loadarg 0"]
    if shape == "accumulate":
        expected = first
        for op, operand in steps:
            body += [f"pushconst {operand}", op]
            expected = wrap_i64(_PYOPS[op](expected, operand))
    else:
        body += [f"pushconst {operand}" for _, operand in steps]
        body += [op for op, _ in reversed(steps)]
        values = [first] + [operand for _, operand in steps]
        expected = values[-1]
        for (op, _), left in zip(reversed(steps), reversed(values[:-1])):
            expected = wrap_i64(_PYOPS[op](left, expected))
    body.append("ret")
    assert _both_tiers(_method_src(body), "a.A.f(int)", (first,)) == (expected, expected)


def test_deep_operand_chain_compiles():
    body = ["pushconst 3"] * 300 + ["add"] * 299 + ["ret"]
    assert _both_tiers(_method_src(body, params=""), "a.A.f()", ()) == (900, 900)


STORE_HAZARDS = {
    # A pending read of local 0 must not see the store that follows it.
    "local_read": (["loadarg 0", "storelocal 0",
                    "loadlocal 0", "pushconst 5", "storelocal 0", "loadlocal 0", "add", "ret"],
                   lambda a: a + 5),
    "local_in_expression": (["loadarg 0", "storelocal 0",
                             "loadlocal 0", "pushconst 1", "add",
                             "pushconst 5", "storelocal 0", "loadlocal 0", "mul", "ret"],
                            lambda a: (a + 1) * 5),
    # Entry 0 reads slot s1 (a call result); a nesting-capped entry is then
    # written out to s1 while entry 0 is still pending.
    "slot_read": (["loadarg 0", "call a.A.k()", "add"]
                  + ["pushconst 1"] * (_NEST_CAP + 1) + ["add"] * _NEST_CAP
                  + ["add", "ret"],
                  lambda a: a + 10 + _NEST_CAP + 1),
}


@pytest.mark.parametrize("case", sorted(STORE_HAZARDS))
@pytest.mark.parametrize("arg", [4, 2**63 - 1, -(2**63)])
def test_store_hazards_in_both_tiers(case, arg):
    body, fold = STORE_HAZARDS[case]
    src = _method_src(body) + "\n  method k()\n    pushconst 10\n    ret"
    expected = wrap_i64(fold(arg))
    assert _both_tiers(src, "a.A.f(int)", (arg,)) == (expected, expected)


def test_benchmark_program_compiled_matches_interpreter():
    w = gen_workload(n_classes=100, methods_per_class=10, seed=1234)
    vm_i, vm_c = VM(w.program.instantiate()), VM(w.program.instantiate())
    for spec in w.program.methods:
        vm_c.jit_compile(spec.ref)
    assert len(w.program.methods) == 1002
    calls = w.traffic(500)
    for probe in (w.latency_traced, w.latency_untraced):
        calls += [(probe, (a,)) for a in (0, 1, -7, 12345, 2**63 - 1, -(2**63))]
    ti, tc = vm_i.new_thread(), vm_c.new_thread()
    expected = [vm_i.invoke(ti, key, args) for key, args in calls]
    assert [vm_c.invoke(tc, key, args) for key, args in calls] == expected
    assert vm_c.interpreted_calls == 0


def test_probe_lowers_to_one_line_per_chunk(small_workload):
    vm = VM(small_workload.program.instantiate())
    rec = vm.jit_compile(small_workload.latency_untraced)
    # Header: the def line and no zero-fill, since the probe's first
    # instructions store its one local before reading it; then the return.
    assert rec.n_locals == 1 and "l0 = 0" not in lower_method(rec)[1]
    limit = len(rec.bytecode) // 4 + 1 + 1
    assert len(lower_method(rec)[1].splitlines()) <= limit
    # Arithmetic inside the block runs unchecked; only a width past _WIDE
    # and the return are range-checked.
    assert lower_method(rec)[1].count("_w(t)") <= 3


def test_wide_products_are_checked_in_place():
    body = ["loadarg 0"] + [f"pushconst {I64_MAX}", "mul"] * 40 + ["ret"]
    rec = _vm(_method_src(body)).jit_compile("a.A.f(int)")
    assert lower_method(rec)[1].count("_w(t)") >= 40 // (_WIDE // 64)


def _fold_loop(a):
    for _ in range(1000):
        a = wrap_i64(wrap_i64(wrap_i64(a + 2**32) * a) * a)
    return a


def _fold_mul_chain(a):
    for _ in range(301):
        a = wrap_i64(a * I64_MAX)
    return a


WRAP_OBSERVATIONS = {
    # 2**32 squared wraps to 0, so jz must branch.
    "jz_condition": (["pushconst 4294967296", "pushconst 4294967296", "mul",
                      "jz +3", "pushconst 1", "ret", "pushconst 2", "ret"],
                     lambda a: 2 if wrap_i64(2**32 * 2**32) == 0 else 1),
    "ret": (["loadarg 0", f"pushconst {I64_MAX}", "add", "ret"],
            lambda a: wrap_i64(a + I64_MAX)),
    # The sum stays on the stack across the block boundary at the jz target.
    "slot_at_block_exit": (["loadarg 0", f"pushconst {I64_MAX}", "add",
                            "loadarg 0", "jz +1", "ret"],
                           lambda a: wrap_i64(a + I64_MAX)),
    # 2**62 fits in 63 signed bits; the sum of two needs 65.
    "constant_width": ([f"pushconst {2**62}", f"pushconst {2**62}", "add", "ret"],
                       lambda a: wrap_i64(2**63)),
    # A loop-carried local: (l0 + 2**32) * l0 * l0, a thousand times.
    "loop_local": (["loadarg 0", "storelocal 0", "pushconst 1000", "storelocal 1",
                    "loadlocal 0", "pushconst 4294967296", "add", "loadlocal 0", "mul",
                    "loadlocal 0", "mul", "storelocal 0",
                    "loadlocal 1", "pushconst 1", "sub", "storelocal 1",
                    "loadlocal 1", "jz +2", "jmp -14", "loadlocal 0", "ret"],
                   _fold_loop),
    # Every second product passes _WIDE and is wrapped in place; the last is
    # left for the return.
    "mul_chain": (["loadarg 0"] + [f"pushconst {I64_MAX}", "mul"] * 301 + ["ret"],
                  _fold_mul_chain),
}


@pytest.mark.parametrize("case", sorted(WRAP_OBSERVATIONS))
@pytest.mark.parametrize("arg", [3, I64_MAX, -(2**63), 3037000500])
def test_wrap_at_each_observation(case, arg):
    body, fold = WRAP_OBSERVATIONS[case]
    expected = fold(arg)
    assert _both_tiers(_method_src(body), "a.A.f(int)", (arg,)) == (expected, expected)


CALL_SRC = _method_src(["loadarg 0", f"pushconst {I64_MAX}", "add", "call a.A.same(int)", "ret"]) + f"""
  method same(int)
    loadarg 0
    ret
  method bump(int)
    loadarg 0
    pushconst {I64_MAX}
    add
    ret
  method viaBump(int)
    loadarg 0
    call a.A.bump(int)
    ret
"""


@pytest.mark.parametrize("callee_compiled", [False, True], ids=["interpreted", "compiled"])
@pytest.mark.parametrize("arg", [3, I64_MAX, -(2**63)])
def test_call_argument_and_callee_return_are_wrapped(callee_compiled, arg):
    # f passes a sum to a callee that returns its argument as it got it;
    # viaBump returns what bump returns.
    expected = wrap_i64(arg + I64_MAX)
    for key, callee in (("a.A.f(int)", "a.A.same(int)"), ("a.A.viaBump(int)", "a.A.bump(int)")):
        also = (callee,) if callee_compiled else ()
        assert _both_tiers(CALL_SRC, key, (arg,), also) == (expected, expected), key
