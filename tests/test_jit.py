import ctypes
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracevm import (
    CompilationState,
    EntryPoint,
    VM,
    gen_workload,
    load_program,
    parse_program,
    wrap_i64,
)
from tracevm.jit import _NEST_CAP

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
I64_EDGES = (-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1, 3037000500, -3037000500)
OPERAND = st.one_of(st.sampled_from(I64_EDGES), I64)
_PYOPS = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b}


def _vm(src):
    return VM(load_program(src))


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
    assert "while True" not in rec.lowered_source
    assert rec.compilation_state is CompilationState.COMPILED
    assert rec.entry_point is EntryPoint.COMPILED_DIRECT


def test_branchy_lowering_uses_block_dispatch(fib_source):
    vm = _vm(fib_source)
    rec = vm.jit_compile("demo.Math.fib(int)")
    assert "while True" in rec.lowered_source
    assert "elif _b ==" in rec.lowered_source


@pytest.mark.parametrize("token", ["int²", "n½"])
def test_non_identifier_signature_token_compiles(token):
    # ``str.isalnum`` holds for these characters, but no identifier may hold them.
    key = f"a.B.m({token})"
    src = (f"class a.B\n  method m({token})\n    loadarg 0\n    pushconst 3\n    mul\n    ret\n"
           f"  method n({token})\n    loadarg 0\n    call {key}\n    pushconst 1\n    add\n    ret")
    vm_i, vm_c = _vm(src), _vm(src)
    outer = f"a.B.n({token})"
    for ref in (key, outer):
        assert vm_c.jit_compile(ref).lowered_code.__name__.isidentifier()
    ti, tc = vm_i.new_thread(), vm_c.new_thread()
    for arg in (0, 14, -(2**63)):
        assert vm_c.invoke(tc, outer, (arg,)) == vm_i.invoke(ti, outer, (arg,))
    assert vm_c.interpreted_calls == 0 and vm_i.interpreted_calls == 6


def test_ascii_keys_keep_their_lowered_names(small_workload):
    vm = VM(small_workload.program.instantiate())
    rec = vm.jit_compile("load.Probe.hotPlain(int)")
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
    ins.install_stubs_for_method("a.A.f()", EntryPoint.INSTRUMENTATION_INTERPRETER_STUB)
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
    fills = [line.strip() for line in rec.lowered_source.splitlines()
             if line.lstrip().startswith("l") and line.endswith(" = 0")]
    assert fills == ["l0 = 0", "l2 = 0"]
    assert [vm.invoke(thread, "a.A.f(int)", (a,)) for a in (0, 3)] == [8, 13]
    assert vm.invoke(thread, "a.A.g()", ()) == 1
    rec = vm.jit_compile("a.A.g()")
    assert " = 0\n" not in rec.lowered_source.replace("_b = 0\n", "")
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
    vm = _vm(fib_source)
    rec = vm.jit_compile("demo.Math.fib(int)")
    assert rec.lowered_code.__globals__["__builtins__"] == {}


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


def _method_src(body, params="int"):
    lines = ["class a.A", f"  method f({params})"]
    lines += [f"    {ins}" for ins in body]
    return "\n".join(lines)


def _both_tiers(src, key, args):
    """Run ``key`` interpreted, then compiled, on one VM; return both results."""
    vm = _vm(src)
    thread = vm.new_thread()
    interpreted = vm.invoke(thread, key, args)
    vm.jit_compile(key)
    compiled_before = vm.compiled_calls
    compiled = vm.invoke(thread, key, args)
    assert vm.compiled_calls > compiled_before
    return interpreted, compiled


@pytest.mark.parametrize("shape", ["accumulate", "nested"])
@given(first=OPERAND, steps=st.lists(
    st.tuples(st.sampled_from(sorted(_PYOPS)), OPERAND), min_size=2, max_size=4))
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
    assert rec.n_locals == 1 and "l0 = 0" not in rec.lowered_source
    limit = len(rec.bytecode) // 4 + 1 + 1
    assert len(rec.lowered_source.splitlines()) <= limit
