import pytest

from tracevm import Opcode, ProgramParseError, ProgramValidationError, parse_program

# Hand-derived stack depth at entry of each fib instruction.
FIB_DEPTHS = (0, 1, 0, 1, 2, 1, 0, 1, 2, 1, 1, 2, 3, 2, 2, 1, 0, 1, 0, 1)


def test_fib_parses_to_expected_shape(fib_source):
    program = parse_program(fib_source)
    assert program.class_order == ("demo.Math",)
    (spec,) = program.methods
    assert spec.ref.key == "demo.Math.fib(int)"
    ops = [ins.op for ins in spec.bytecode]
    assert ops == [
        Opcode.LOAD_ARG, Opcode.JUMP_IF_ZERO, Opcode.LOAD_ARG, Opcode.PUSH_CONST,
        Opcode.SUB, Opcode.JUMP_IF_ZERO, Opcode.LOAD_ARG, Opcode.PUSH_CONST,
        Opcode.SUB, Opcode.CALL, Opcode.LOAD_ARG, Opcode.PUSH_CONST, Opcode.SUB,
        Opcode.CALL, Opcode.ADD, Opcode.RETURN, Opcode.PUSH_CONST, Opcode.RETURN,
        Opcode.PUSH_CONST, Opcode.RETURN,
    ]
    assert spec.bytecode[1].arg == 15
    assert spec.bytecode[5].arg == 13
    assert spec.bytecode[9].arg.key == "demo.Math.fib(int)"
    assert spec.stack_depths == FIB_DEPTHS
    assert spec.n_locals == 0


EVERY_OPCODE = """
class c.C
  method g(int)
    loadarg 0
    ret
  method f(int)
    pushconst 2
    storelocal 0
    loadlocal 0
    loadarg 0
    add
    pushconst 1
    sub
    pushconst 3
    mul
    jz +4
    loadarg 0
    call c.C.g(int)
    jmp +2
    pushconst 0
    ret
"""


def test_instructions_hold_plain_int_opcodes():
    program = parse_program(EVERY_OPCODE)
    seen = set()
    for spec in program.methods:
        for ins in spec.bytecode:
            assert len(ins) == 2 and type(ins[0]) is int
            assert ins.op is Opcode(ins[0]) and ins.op.name == Opcode(ins[0]).name
            seen.add(ins.op)
    assert seen == set(Opcode)
    f = program.methods[1].bytecode
    assert f[0].op is Opcode.PUSH_CONST and f[-1].op is Opcode.RETURN


@pytest.mark.parametrize("mnemonic", ["add", "sub", "mul"])
def test_arithmetic_underflow_names_the_opcode(mnemonic):
    _expect(f"class c.C\n  method f()\n    pushconst 1\n    {mnemonic}\n    ret",
            ProgramValidationError, f"stack underflow at {mnemonic}")


def test_comments_blank_lines_and_strings():
    src = (
        "# header comment\n"
        "class c.C  # trailing\n"
        "\n"
        '  method f()\n'
        '    pushconst "a # not a comment"  # real comment\n'
        "    ret\n"
    )
    program = parse_program(src)
    assert list(program.intern_map.values()) == ["a # not a comment"]


def test_string_escapes():
    program = parse_program(
        'class c.C\n  method f()\n    pushconst "say \\"hi\\" \\\\"\n    ret')
    assert list(program.intern_map.values()) == ['say "hi" \\']


def test_locals_inferred():
    src = """
class c.C
  method f(int)
    loadarg 0
    storelocal 3
    loadlocal 3
    ret
"""
    (spec,) = parse_program(src).methods
    assert spec.n_locals == 4


def _expect(src, err, fragment):
    with pytest.raises(err) as info:
        parse_program(src)
    assert fragment in str(info.value)


def test_jump_out_of_range():
    _expect("class c.C\n  method f()\n    pushconst 1\n    jz +9\n    ret",
            ProgramValidationError, "out of range")
    _expect("class c.C\n  method f()\n    pushconst 1\n    jz -5\n    ret",
            ProgramValidationError, "out of range")


def test_fall_off_end_rejected():
    _expect("class c.C\n  method f()\n    pushconst 1",
            ProgramValidationError, "missing ret")


def test_stack_underflow_rejected():
    _expect("class c.C\n  method f()\n    add\n    ret",
            ProgramValidationError, "underflow")
    _expect("class c.C\n  method f()\n    ret",
            ProgramValidationError, "underflow")
    _expect("class c.C\n  method f()\n    storelocal 0\n    ret",
            ProgramValidationError, "underflow")


def test_inconsistent_merge_depth_rejected():
    # Path A reaches pc 4 with depth 2, path B with depth 1.
    src = """
class c.C
  method f(int)
    loadarg 0
    jz +3
    pushconst 1
    pushconst 2
    ret
"""
    _expect(src, ProgramValidationError, "inconsistent stack depth")


def test_loadarg_out_of_range():
    _expect("class c.C\n  method f(int)\n    loadarg 1\n    ret",
            ProgramValidationError, "out of range for arity")


def test_call_underflow():
    src = ("class c.C\n  method f(int,int)\n    loadarg 0\n    loadarg 1\n    add\n    ret\n"
           "  method g()\n    call c.C.f(int,int)\n    ret")
    _expect(src, ProgramValidationError, "underflow at call")


def test_duplicate_method_rejected():
    src = ("class c.C\n  method f()\n    pushconst 1\n    ret\n"
           "  method f()\n    pushconst 2\n    ret")
    _expect(src, ProgramParseError, "duplicate method")


def test_parse_errors():
    _expect("class c.C\n  method f()\n    bogus 1\n    ret",
            ProgramParseError, "unknown instruction")
    _expect("class c.C\n  method f()\n    pushconst\n    ret",
            ProgramParseError, "needs an operand")
    _expect("class c.C\n  method f()\n    pushconst 1\n    add 2\n    ret",
            ProgramParseError, "takes no operand")
    _expect("class c.C\n  method f()\n    loadarg x\n    ret",
            ProgramParseError, "expected integer")
    _expect("class c.C\n  method f()\n    loadlocal -1\n    ret",
            ProgramParseError, "non-negative")
    _expect("method f()\n    pushconst 1\n    ret",
            ProgramParseError, "outside a class")
    _expect("pushconst 1", ProgramParseError, "outside a method")
    _expect("", ProgramParseError, "no methods")
    _expect("class c.C\n  method f(in t)\n    pushconst 1\n    ret",
            ProgramParseError, "bad signature token")
    _expect("class c.C\n  method f()\n    pushconst 99999999999999999999999\n    ret",
            ProgramParseError, "outside 64-bit range")
    _expect('class c.C\n  method f()\n    pushconst "open\n    ret',
            ProgramParseError, "unterminated string")
    _expect("class 9bad\n  method f()\n    pushconst 1\n    ret",
            ProgramParseError, "bad class")


def test_empty_method_rejected():
    _expect("class c.C\n  method f()\n  method g()\n    pushconst 1\n    ret",
            ProgramValidationError, "no instructions")


def test_local_slot_cap():
    _expect("class c.C\n  method f()\n    pushconst 1\n    storelocal 256\n"
            "    pushconst 0\n    ret",
            ProgramValidationError, "too large")


def test_error_carries_line_number():
    with pytest.raises(ProgramValidationError) as info:
        parse_program("class c.C\n  method f()\n    pushconst 1\n    jz +7\n    ret")
    assert info.value.line == 4
    assert info.value.method == "c.C.f()"


def test_unreachable_code_tolerated():
    # pc 3 is unreachable; validation and lowering must both skip it.
    src = """
class c.C
  method f()
    pushconst 1
    jmp +2
    add
    ret
"""
    (spec,) = parse_program(src).methods
    assert spec.stack_depths[2] is None
