import copy
import ctypes

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracevm import (
    EntryPoint,
    Instruction,
    MethodNotFoundError,
    MethodRef,
    Opcode,
    ProgramParseError,
    load_program,
    parse_program,
    wrap_i64,
)
from tracevm.core import INTERN_BASE, intern_id, parse_signature

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def c_wrap(value):
    # Independent oracle: let libc's int64 do the wrapping.
    return ctypes.c_int64(value).value


def test_wrap_i64_known_values():
    assert wrap_i64(0) == 0
    assert wrap_i64(2**63 - 1) == 2**63 - 1
    assert wrap_i64(2**63) == -(2**63)
    assert wrap_i64(-(2**63) - 1) == 2**63 - 1
    assert wrap_i64((2**63 - 1) + 1) == -(2**63)
    assert wrap_i64(-(2**63) * 2) == 0


@given(I64, I64)
def test_wrap_matches_c_int64_add(a, b):
    assert wrap_i64(a + b) == c_wrap(a + b)


@given(I64, I64)
def test_wrap_matches_c_int64_mul(a, b):
    assert wrap_i64(a * b) == c_wrap(a * b)


def test_methodref_key_and_parse_roundtrip():
    ref = MethodRef("a.b.Cls", "m", ("int", "Consumer"))
    assert ref.key == "a.b.Cls.m(int,Consumer)"
    assert ref.arity == 2
    back = MethodRef.parse(ref.key)
    assert back == ref
    assert hash(back) == hash(ref)
    assert MethodRef.parse("p.C.f()").params == ()


@pytest.mark.parametrize("bad", [
    "noparen",
    "onlymethod(int)",
    "a.b.C.m(int",
    "a.b.C.m(int,)",
    "a.b.C.m(in t)",
    "a..C.m()",
    "a.b.C.1m()",
])
def test_methodref_parse_rejects(bad):
    with pytest.raises(ProgramParseError):
        MethodRef.parse(bad)


def test_parse_signature_strips_whitespace():
    assert parse_signature(" int , Consumer ") == ("int", "Consumer")
    assert parse_signature("") == ()


def test_intern_ids_deterministic_and_far_negative():
    a = intern_id("alice@example.com")
    assert a == intern_id("alice@example.com")
    assert a != intern_id("bob@example.com")
    assert INTERN_BASE <= a < INTERN_BASE + 2**48


def test_entrypoint_stub_predicate():
    assert EntryPoint.INSTRUMENTATION_QUICK_STUB.is_instrumentation_stub
    assert EntryPoint.INSTRUMENTATION_INTERPRETER_STUB.is_instrumentation_stub
    assert not EntryPoint.INTERPRETER_BRIDGE.is_instrumentation_stub
    assert not EntryPoint.COMPILED_DIRECT.is_instrumentation_stub


def test_registry_lookup_and_contains(fib_source):
    registry = load_program(fib_source)
    rec = registry.lookup("demo.Math.fib(int)")
    assert rec.method_ref.key == "demo.Math.fib(int)"
    assert "demo.Math.fib(int)" in registry
    assert len(registry) == 1
    with pytest.raises(MethodNotFoundError):
        registry.lookup("demo.Math.nope()")


def test_registry_fresh_instantiation_is_independent(fib_source):
    program = parse_program(fib_source)
    r1, r2 = program.instantiate(), program.instantiate()
    rec1 = r1.lookup("demo.Math.fib(int)")
    rec1.entry_point = EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    assert r2.lookup("demo.Math.fib(int)").entry_point is EntryPoint.INTERPRETER_BRIDGE


def test_registry_on_load_hook(fib_source):
    registry = load_program(fib_source)
    seen = []
    registry.on_load(seen.append)
    extra = parse_program("class x.Y\n  method f()\n    pushconst 1\n    ret")
    new_keys = registry.load(extra)
    assert new_keys == ["x.Y.f()"]
    assert seen == [["x.Y.f()"]]
    assert len(registry) == 2


def test_registry_duplicate_load_rejected(fib_source):
    registry = load_program(fib_source)
    from tracevm import ProgramValidationError

    with pytest.raises(ProgramValidationError):
        registry.load(parse_program(fib_source))


def test_value_to_payload_maps_interned_strings():
    registry = load_program(
        'class s.S\n  method f()\n    pushconst "hi there"\n    ret')
    value = registry.lookup("s.S.f()").bytecode[0].arg
    assert registry.value_to_payload(value) == "hi there"
    assert registry.value_to_payload(42) == 42


def test_instruction_shape():
    ins = Instruction(Opcode.PUSH_CONST, 7)
    op, arg = ins
    # stored as a plain int (the interpreter's fast compare); .op maps it back
    assert op == Opcode.PUSH_CONST and type(op) is int and arg == 7
    assert ins.op is Opcode.PUSH_CONST and ins.op.name == "PUSH_CONST"
    assert Instruction(Opcode.RETURN).arg is None


def test_instruction_normalises_the_opcode():
    for ins in (Instruction(Opcode.ADD), Instruction(5)):
        assert len(ins) == 2 and type(ins[0]) is int
        assert ins == (5, None) and ins.op is Opcode.ADD and ins.arg is None
    assert Instruction(Opcode.CALL, "x") == Instruction(10, "x")
    ins = Instruction(Opcode.PUSH_CONST, 7)
    assert copy.deepcopy(ins) == ins and type(copy.copy(ins)) is Instruction
