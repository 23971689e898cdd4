import ctypes
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracevm import (
    CompilationState,
    EntryPoint,
    VM,
    load_program,
    parse_program,
)

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


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
    # Tier changed, dispatch slot untouched: the stub stays until restore.
    assert rec.compilation_state is CompilationState.COMPILED
    assert rec.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    assert rec.original_entry_point is EntryPoint.INTERPRETER_BRIDGE


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
