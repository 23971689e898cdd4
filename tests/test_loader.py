import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracevm import (
    Opcode,
    ProgramParseError,
    ProgramValidationError,
    gen_workload,
    parse_program,
)
from tracevm import loader

# Hand-derived stack depth at entry of each fib instruction.
FIB_DEPTHS = (0, 1, 0, 1, 2, 1, 0, 1, 2, 1, 1, 2, 3, 2, 2, 1, 0, 1, 0, 1)


def test_fib_parses_to_expected_shape(fib_source):
    program = parse_program(fib_source)
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
    # CPython 3.11 specialises the interpreter's ``op, arg = code[pc]`` and
    # ``op == <int>`` only on an exact tuple and an exact int: a tuple subclass
    # or an IntEnum opcode in stored code would slow every interpreted call.
    program = parse_program(EVERY_OPCODE)
    registry = program.instantiate()
    registry.load(parse_program("class d.D\n  method k()\n    pushconst 4\n    ret"))
    codes = [spec.code for spec in program.methods]
    codes += [rec.code for rec in registry.records()]
    codes += [spec.code for spec in gen_workload(seed=1234).program.methods]
    for code in codes:
        assert type(code) is tuple
        for pair in code:
            assert type(pair) is tuple and len(pair) == 2 and type(pair[0]) is int
    seen = set()
    for spec in program.methods:
        assert spec.bytecode == spec.code  # element-wise: the view is tuples too
        for ins, (op, arg) in zip(spec.bytecode, spec.code):
            assert ins.op is Opcode(op) and ins.op.name == Opcode(op).name and ins.arg is arg
            seen.add(ins.op)
    assert seen == set(Opcode)
    f = program.methods[1].bytecode
    assert f[0].op is Opcode.PUSH_CONST and f[-1].op is Opcode.RETURN


@pytest.mark.parametrize("mnemonic", ["add", "sub", "mul", "storelocal", "jz", "ret", "call"])
def test_arithmetic_underflow_names_the_opcode(mnemonic):
    # Every popping opcode, one value short of what it pops.
    pops = 2 if mnemonic in ("add", "sub", "mul", "call") else 1
    operand = {"storelocal": " 0", "jz": " +1", "call": " c.C.g(int,int)"}.get(mnemonic, "")
    src = ("class c.C\n  method f()\n" + "    pushconst 1\n" * (pops - 1)
           + f"    {mnemonic}{operand}\n    pushconst 0\n    ret\n"
           "  method g(int,int)\n    loadarg 0\n    ret\n")
    with pytest.raises(ProgramValidationError) as info:
        parse_program(src)
    callee = operand if mnemonic == "call" else ""
    assert str(info.value) == f"c.C.f(): line {2 + pops}: stack underflow at {mnemonic}{callee}"


def test_comments_blank_lines_and_strings():
    for line, text in (('pushconst "a # not a comment"  # real comment', "a # not a comment"),
                       ('pushconst "a\\\\"  # c', "a\\")):
        src = (
            "# header comment\n"
            "class c.C  # trailing\n"
            "\n"
            '  method f()\n'
            f"    {line}\n"
            "    ret\n"
        )
        program = parse_program(src)
        assert list(program.intern_map.values()) == [text]


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


@pytest.mark.parametrize("literal", ['"a\\n"', '"a\\"', '"a"b"'])
def test_bad_string_literal_rejected(literal):
    with pytest.raises(ProgramParseError) as info:
        parse_program(f"class c.C\n  method f()\n    pushconst {literal}\n    ret")
    assert info.value.line == 3


@pytest.mark.parametrize("src, line, fragment", [
    ("class c.C\n  method f()\n    call c.C\n    ret", 3, "bad method reference 'c.C'"),
    ("class c.C\n  method f(in t)\n    pushconst 1\n    ret", 2, "bad signature token"),
], ids=["call-operand", "method-header"])
def test_method_reference_error_carries_line_number(src, line, fragment):
    with pytest.raises(ProgramParseError) as info:
        parse_program(src)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: {fragment}")


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


def test_generated_program_bytecode_is_pinned():
    # Taken before instruction lines were shared: sharing must not move a byte.
    program = gen_workload(seed=1234).program
    text = repr([(m.ref.key, [(op, getattr(arg, "key", arg)) for op, arg in m.bytecode])
                 for m in program.methods])
    assert hashlib.blake2b(text.encode(), digest_size=8).hexdigest() == "a7fe2d50b0f10629"


def test_equal_instruction_lines_share_one_object():
    program = parse_program(EVERY_OPCODE + "  method h(int)\n    loadarg 0\n    ret\n")
    g, f, h = program.methods
    assert g.code[0] is f.code[3] is h.code[0]
    assert g.code[1] is f.code[-1] is h.code[1]
    assert f.code[3] is f.code[10] and f.code[5] is not f.code[7]
    # Each parse has its own table.
    assert parse_program(EVERY_OPCODE).methods[0].code[0] is not g.code[0]


def test_parse_constructs_one_instruction_per_distinct_line(big_workload):
    program = parse_program(big_workload.source)
    # The program keeps every pair alive, so distinct ids are distinct objects.
    built = {id(pair) for m in program.methods for pair in m.code}
    distinct = {raw for raw in big_workload.source.splitlines()
                if raw.split("#", 1)[0].strip()
                and raw.split(None, 1)[0] not in ("class", "method")}
    total = sum(len(m.code) for m in program.methods)
    assert 0 < len(built) <= len(distinct) < total // 10


@pytest.mark.parametrize("first, second, fragment, line", [
    ("loadarg 1;ret", "loadarg 1;ret", "loadarg 1 out of range for arity 1", 6),
    ("jmp +2;pushconst 1;pushconst 2;ret", "jmp +2;ret", "jump target 2 out of range", 8),
    ("pushconst 5;storelocal 1;pushconst 0;ret", "storelocal 1;ret",
     "stack underflow at storelocal", 8),
    ("pushconst 5;storelocal 1;pushconst 0;ret", "pushconst 0", "missing ret", 8),
])
def test_reused_line_failing_in_context_reports_its_own_line(first, second, fragment, line):
    # Each line of ``second`` already parsed fine in ``f``; it fails only in ``g``.
    body = lambda ops: "".join(f"    {op}\n" for op in ops.split(";"))
    src = f"class c.C\n  method f(int,int)\n{body(first)}  method g(int)\n{body(second)}"
    with pytest.raises(ProgramValidationError, match=fragment) as info:
        parse_program(src)
    assert (info.value.method, info.value.line) == ("c.C.g(int)", line)


def test_reused_line_outside_a_method_keeps_its_error():
    src = ("class c.C\n  method f()\n    pushconst 1\n    ret\n"
           "class c.D\n    pushconst 1\n  method g()\n    pushconst 1\n    ret")
    with pytest.raises(ProgramParseError, match="instruction outside a method: 'pushconst 1'") as info:
        parse_program(src)
    assert info.value.line == 6


def test_comment_does_not_change_the_instruction():
    src = ("class c.C\n  method f(int)\n    loadarg 0  # c\n    loadarg 0\n"
           "    loadarg 0 # other\n    add\n    add\n    ret")
    (spec,) = parse_program(src).methods
    assert spec.bytecode[0] == spec.bytecode[1] == spec.bytecode[2] == (Opcode.LOAD_ARG, 0)


def test_reopened_class_keeps_first_seen_order():
    src = ("class a.X\n  method f()\n    pushconst 1\n    ret\n"
           "class a.Y\n  method f()\n    pushconst 1\n    ret\n"
           "class a.X\n  method g()\n    pushconst 1\n    ret")
    program = parse_program(src)
    assert [m.ref.key for m in program.methods] == ["a.X.f()", "a.Y.f()", "a.X.g()"]


# Every line end ``str.splitlines`` knows; ``\r`` then ``\n`` from two draws makes a ``\r\n``.
LINE_ENDS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# Runs of well-formed lines; ``{i}`` keeps method names apart.
LINE_RUNS = (
    ("  method m{i}(int)", "    loadarg 0", "    loadarg 0", "    jz +3", "    pushconst 1",
     "    add", "    ret"),
    ("  method m{i}()", '    pushconst "a\\"b"  # note', "    ret"),
    ("",), ("  # comment",), ("class c.D",),
)
# Lines that each make some texts fail, in parsing or in validation.
FAULTS = ("    bogus", "    loadarg 1", "    jz +9", "  method m0(int)")


def _outcome(text: str):
    """What parsing ``text`` gives: the ``Program``, or the error with its line number."""
    try:
        return parse_program(text)
    except (ProgramParseError, ProgramValidationError) as exc:
        return type(exc), str(exc), exc.line


@st.composite
def mixed_line_ends(draw):
    lines = ["class c.C"]
    for i, run in enumerate(draw(st.lists(st.sampled_from(LINE_RUNS), max_size=12))):
        lines += [line.format(i=i) for line in run]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(FAULTS)))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends))


@given(mixed_line_ends())
def test_text_read_in_blocks_parses_as_its_splitlines(text):
    # The same lines, each ended by a plain "\n": what text.splitlines() gives.
    expected = _outcome("\n".join(text.splitlines()) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        for block in (1, 2, 3, 7, len(text) + 1):
            mp.setattr(loader, "_BLOCK_CHARS", block)
            assert _outcome(text) == expected


def test_malformed_line_past_the_first_block_reports_its_line():
    methods = "".join(f"  method m{i}(int)\r\n    loadarg 0\r\n    ret\r\n" for i in range(4000))
    src = f"class c.C\r\n{methods}    bogus\r\n"
    assert src.index("bogus") > 2 * loader._BLOCK_CHARS
    with pytest.raises(ProgramParseError, match="unknown instruction 'bogus'") as info:
        parse_program(src)
    assert info.value.line == 1 + 3 * 4000 + 1


def test_repeated_depths_and_signatures_are_stored_once(big_workload):
    specs = big_workload.program.methods
    for field in (lambda s: s.stack_depths, lambda s: s.ref.params):
        values = [field(s) for s in specs]
        # the program keeps every value alive, so distinct ids are distinct objects
        assert len({id(v) for v in values}) == len(set(values)) < len(values) // 10
