import copy
import ctypes
import random
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tracevm import (
    VM,
    EntryPoint,
    Instruction,
    MethodNotFoundError,
    MethodRef,
    Opcode,
    ProgramParseError,
    ProgramValidationError,
    load_program,
    parse_program,
    wrap_i64,
)
from tracevm.core import INTERN_BASE, MethodRecord, intern_id, parse_signature

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
    "a.B\n.f()",
])
def test_methodref_parse_rejects(bad):
    with pytest.raises(ProgramParseError):
        MethodRef.parse(bad)


def test_parse_signature_strips_whitespace():
    assert parse_signature(" int , Consumer ") == ("int", "Consumer")
    assert parse_signature("") == ()


def _split_per_character(sig: str):
    """``parse_signature`` as it tested each token, one character at a time."""
    sig = sig.strip()
    if not sig:
        return ()
    params = []
    for raw in sig.split(","):
        token = raw.strip()
        if not token or any(ch.isspace() for ch in token):
            return ProgramParseError
        params.append(token)
    return tuple(params)


_SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u3000"


@given(st.text(st.one_of(st.sampled_from(_SPACES + ",ab"), st.characters()), max_size=12))
@example("int\x1cx")
@example("int\xa0x")
@example("int x")
@example(" a , b\x1c")
def test_parse_signature_tests_whitespace_like_a_per_character_scan(sig):
    try:
        got = parse_signature(sig)
    except ProgramParseError:
        got = ProgramParseError
    assert got == _split_per_character(sig)


def test_intern_ids_deterministic_and_far_negative():
    a = intern_id("alice@example.com")
    assert a == intern_id("alice@example.com")
    assert a != intern_id("bob@example.com")
    assert INTERN_BASE <= a < INTERN_BASE + 2**48
    # pinned: interned constants are part of every parsed program's code
    assert a == -4611578985552621558
    assert intern_id("bob@example.com") == -4611596594884821601


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
    assert list(r2._records) == []  # untouched in r2: no record built yet
    rec2 = r2.lookup("demo.Math.fib(int)")
    assert rec2 is not rec1 and rec2.entry_point is EntryPoint.INTERPRETER_BRIDGE
    assert rec2.code is rec1.code  # the parsed code is shared
    assert r1.get("demo.Math.fib(int)") is rec1


TWO_CLASSES = """
class a.A
  method f()
    pushconst 1
    ret
  method g(int)
    loadarg 0
    ret
class b.B
  method h()
    call a.A.f()
    ret
"""


def test_untouched_methods_answer_get_in_and_len():
    registry = parse_program(TWO_CLASSES).instantiate()
    assert "b.B.h()" in registry and "a.A.g(int)" in registry
    assert "b.B.nope()" not in registry
    assert len(registry) == 3
    assert list(registry._records) == []
    rec = registry.get("a.A.g(int)")
    assert rec.method_ref.key == "a.A.g(int)" and rec.n_locals == 0
    assert registry.get("b.B.nope()") is None
    assert registry.lookup(MethodRef("a.A", "g", ("int",))) is rec
    with pytest.raises(MethodNotFoundError):
        registry.lookup("b.B.nope()")
    assert list(registry._records) == ["a.A.g(int)"]


def test_callee_shares_one_record_and_get_builds_private_ones():
    program = parse_program(TWO_CLASSES)
    r1, r2 = program.instantiate(), program.instantiate()
    shared = r1.callee("a.A.g(int)")
    assert program.shared == {"a.A.g(int)": shared}
    assert r2.callee(MethodRef("a.A", "g", ("int",))) is shared
    assert r1._records == {} and r2._records == {}  # ``_records`` holds private records only
    program.quickened["a.A.g(int)"] = quick = ((2, 0), (11, None))
    for registry in (r1, r2):
        private = registry.get("a.A.g(int)")
        assert private is not shared and private.quickened is quick
        assert registry.lookup("a.A.g(int)") is private
        assert list(registry.records())[1] is private
    assert shared.quickened is None  # ``VM.interpret`` fills it on its first run
    with pytest.raises(MethodNotFoundError):
        r1.callee("a.A.nope()")
    r1.load(parse_program("class c.C\n  method k()\n    pushconst 3\n    ret"))
    assert r1.callee("c.C.k()") is r1._records["c.C.k()"]  # a loaded method is private
    assert list(program.shared) == ["a.A.g(int)"]


def test_records_in_program_then_load_order():
    registry = parse_program(TWO_CLASSES).instantiate()
    registry.get("b.B.h()")
    registry.get("a.A.g(int)")
    registry.load(parse_program("class c.C\n  method k()\n    pushconst 3\n    ret"))
    registry.load(parse_program("class d.D\n  method m()\n    pushconst 4\n    ret"))
    keys = [rec.method_ref.key for rec in registry.records()]
    assert keys == ["a.A.f()", "a.A.g(int)", "b.B.h()", "c.C.k()", "d.D.m()"]
    assert len(registry) == 5
    assert list(registry.snapshot_state()) == keys


def test_load_rejects_an_untouched_method():
    registry = parse_program(TWO_CLASSES).instantiate()
    again = parse_program("class a.A\n  method g(int)\n    pushconst 9\n    ret")
    with pytest.raises(ProgramValidationError, match="duplicate method a.A.g"):
        registry.load(again)
    assert len(registry) == 3 and list(registry._records) == []
    assert registry.lookup("a.A.g(int)").bytecode[0].op is Opcode.LOAD_ARG


def test_snapshot_state_equals_an_eager_build(small_workload):
    program = small_workload.program
    registry = program.instantiate()
    eager = [MethodRecord(s.ref, s.code, s.n_locals, s.stack_depths)
             for s in program.methods]
    want = {rec.method_ref.key: (rec.entry_point, rec.original_entry_point,
                                 rec.compilation_state) for rec in eager}
    assert registry.snapshot_state() == want
    assert registry.snapshot_entry_points() == {k: v[0] for k, v in want.items()}
    assert len(registry._records) == len(program.methods)


def test_instantiating_10k_methods_builds_no_record(big_workload, monkeypatch):
    built = []
    init = MethodRecord.__init__

    def counting_init(self, *args):
        built.append(args[0].key)
        init(self, *args)

    monkeypatch.setattr(MethodRecord, "__init__", counting_init)
    registry = big_workload.program.instantiate()
    assert len(registry) == 10_000 and built == []
    key = big_workload.hot_keys[0]
    registry.get(key)
    registry.get(key)
    assert built == [key]


def test_intern_id_collisions_are_rejected(monkeypatch):
    import tracevm.loader

    monkeypatch.setattr(tracevm.loader, "intern_id", lambda text: INTERN_BASE)
    with pytest.raises(ProgramValidationError, match="collision"):
        parse_program('class s.S\n  method f()\n    pushconst "a"\n    pushconst "b"\n'
                      '    add\n    ret')
    registry = parse_program('class s.S\n  method f()\n    pushconst "a"\n    ret').instantiate()
    with pytest.raises(ProgramValidationError, match="collision"):
        registry.load(parse_program('class t.T\n  method g()\n    pushconst "b"\n    ret'))
    assert registry.value_to_payload(INTERN_BASE) == "a"
    # A rejected load adds none of its strings, not even those before the collision.
    ids = {"a": INTERN_BASE, "b": INTERN_BASE + 1, "c": INTERN_BASE}
    monkeypatch.setattr(tracevm.loader, "intern_id", ids.__getitem__)
    with pytest.raises(ProgramValidationError, match="collision"):
        registry.load(parse_program('class u.U\n  method h()\n    pushconst "b"\n'
                                    '    pushconst "c"\n    add\n    ret'))
    assert registry.value_to_payload(INTERN_BASE + 1) == INTERN_BASE + 1
    assert "u.U.h()" not in registry


def test_concurrent_first_touch_builds_one_record_per_method(small_workload):
    """Eight threads first-touch the same methods while a ninth walks the registry."""
    program = small_workload.program
    calls = small_workload.traffic(60, seed=5)
    ref_vm = VM(program.instantiate())
    ref_thread = ref_vm.new_thread()
    expected = [ref_vm.invoke(ref_thread, key, args) for key, args in calls]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(40):
            vm = VM(program.instantiate())
            registry = vm.registry
            barrier = threading.Barrier(9)
            done = threading.Event()
            results, seen, errors = {}, [], []

            def worker(i):
                order = list(calls)
                random.Random(round_no * 8 + i).shuffle(order)
                thread = vm.new_thread(f"t{i}")
                barrier.wait()
                # Odd threads touch through ``get`` first, even ones through ``invoke``.
                got = {key: registry.get(key) for key, _ in order if i % 2}
                results[i] = {(key, args): vm.invoke(thread, key, args) for key, args in order}
                got.update({key: registry.get(key) for key, _ in order if key not in got})
                seen.append(got)

            def walker():
                barrier.wait()
                try:
                    while not done.is_set():
                        assert len(list(registry.records())) == len(registry)
                        assert len(registry.snapshot_state()) == len(registry)
                except Exception as exc:  # pragma: no cover - the failure being tested
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            threads.append(threading.Thread(target=walker))
            for t in threads:
                t.start()
            for t in threads[:8]:
                t.join()
            done.set()
            threads[8].join()
            assert errors == []
            for per_thread in results.values():
                assert [per_thread[(key, args)] for key, args in calls] == expected
            for got in seen:
                for key, rec in got.items():
                    assert rec is registry._records[key]
    finally:
        sys.setswitchinterval(old_interval)


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
