"""Program text parser and static validator.

The source format is line oriented::

    class demo.Math
      method fib(int)
        loadarg 0
        jz +15
        ...
        ret

``#`` starts a comment outside string literals. A literal is ``"..."`` whose
only escapes are ``\\"`` and ``\\\\``; one with no closing quote runs to the end
of the line and is rejected as unterminated. Indentation is not significant.
Jump offsets are relative to the jump instruction itself.

The opcode table in ``core`` gives each mnemonic its opcode, operand kind and
stack effect. The parser reads an instruction's operand by its kind, and the
validator applies its stack effect.

Each distinct instruction line is parsed once per ``parse_program`` call into
one exact ``(int_op, arg)`` tuple, shared by every repeat inside a method. The
operand checks depend only on the line, so they run once; the per-method
checks below run on every method with each occurrence's own line number.

Validation walks the control-flow graph of each method and rejects jumps out
of range, operand-stack underflow, inconsistent stack depth at merge points,
paths that fall off the end without ``ret``, and bad argument or local slots.
The per-instruction stack depths proven here are what the lowering pass later
relies on to turn stack slots into plain variables.
"""

from __future__ import annotations

import re

from .core import (
    _OPCODE_TABLE,
    _OPCODES,
    I64_MAX,
    I64_MIN,
    ClassRegistry,
    MethodRef,
    MethodSpec,
    MNEMONIC_TO_OPCODE,
    Program,
    _DOTTED_RE,
    _IDENT,
    intern_id,
    parse_signature,
)
from .errors import ProgramParseError, ProgramValidationError

MAX_LOCAL_SLOTS = 256

# Plain-int opcodes, as stored code holds them.
(_PUSH, _LARG, _LLOC, _SLOC, _ADD, _SUB, _MUL, _JZ, _JMP, _CALL, _RET) = _OPCODES
# The core table's (pops, pushes), keyed by plain-int opcode for the validator.
_STACK_EFFECT = {op.value: row[2:] for op, row in _OPCODE_TABLE.items()}
# What a missing operand of each kind is reported as needing.
_NEEDS = {"const": "an operand", "slot": "a slot operand", "offset": "a relative offset",
          "method": "a method reference"}

# A string literal: '"', then characters other than '"' and '\' or a '\' with
# the character it escapes, then the closing '"', without which the literal
# runs to the end of the line. Only \" and \\ decode.
_LITERAL = r'"((?:[^"\\]|\\.)*)("?)'
_LITERAL_RE = re.compile(_LITERAL)
_CODE_RE = re.compile(rf"(?:[^\"#]|{_LITERAL})*")  # a line up to its comment
_ESCAPE_RE = re.compile(r"\\(.)")
_INT_RE = re.compile(r"[+-]?\d+$")
_CLASS_RE = re.compile(r"class\s+(\S+)")
_METHOD_RE = re.compile(rf"method\s+({_IDENT})\s*\((.*)\)")


def _strip_comment(line: str) -> str:
    return _CODE_RE.match(line).group() if "#" in line else line


def _parse_string_literal(text: str, line_no: int) -> str:
    m = _LITERAL_RE.match(text)
    body, closed = m.groups()
    if not closed:
        raise ProgramParseError(f"unterminated string literal {text!r}", line_no)
    if m.end() != len(text) or not set(_ESCAPE_RE.findall(body)) <= {'"', "\\"}:
        raise ProgramParseError(
            f'bad string literal {text!r}: the only escapes are \\" and \\\\', line_no)
    return _ESCAPE_RE.sub(r"\1", body)


def _parse_int(token: str, line_no: int, *, signed: bool = True) -> int:
    if not _INT_RE.match(token):
        raise ProgramParseError(f"expected integer operand, got {token!r}", line_no)
    value = int(token)
    if not signed and value < 0:
        raise ProgramParseError(f"expected non-negative operand, got {token}", line_no)
    return value


def _at_line(parse, text: str, line_no: int):
    """Run a core parser, giving the ``ProgramParseError`` it raises a line number."""
    try:
        return parse(text)
    except ProgramParseError as exc:
        raise ProgramParseError(exc.args[0], line_no) from None


def _method_spec(ref: MethodRef, decl_line: int, code: list, lines: list) -> MethodSpec:
    """Check one method's local slots, prove its stack depths and freeze it."""
    if not code:
        raise ProgramValidationError("method has no instructions", ref.key, decl_line)
    n_locals = 0
    for (op, slot), line_no in zip(code, lines):
        if op == _LLOC or op == _SLOC:
            if slot >= MAX_LOCAL_SLOTS:
                raise ProgramValidationError(f"local slot {slot} too large", ref.key, line_no)
            n_locals = max(n_locals, slot + 1)
    code = tuple(code)
    return MethodSpec(ref, code, n_locals, _stack_depths(ref, code, lines), decl_line)


def _stack_depths(ref: MethodRef, code: tuple, lines: list) -> tuple:
    """Prove a single stack depth per reachable instruction and full return coverage.

    Jump targets are range-checked before they are followed and a step past
    the last instruction is caught at once, so ``pc`` never leaves the method.
    """
    key, arity, n = ref.key, ref.arity, len(code)
    depths: list[int | None] = [None] * n
    work = [(0, 0)]
    while work:
        pc, depth = work.pop()
        while True:
            seen = depths[pc]
            if seen is not None:
                if seen != depth:
                    raise ProgramValidationError(
                        f"inconsistent stack depth at pc {pc} ({seen} vs {depth})",
                        key, lines[pc])
                break
            depths[pc] = depth
            op, arg = code[pc]
            pops, pushes = _STACK_EFFECT[op]
            if pops is None:  # call
                pops = arg.arity
            if depth < pops:
                callee = f" {arg.key}" if op == _CALL else ""
                raise ProgramValidationError(
                    f"stack underflow at {_OPCODE_TABLE[op][0]}{callee}", key, lines[pc])
            depth += pushes - pops
            if op == _LARG:
                if arg >= arity:
                    raise ProgramValidationError(
                        f"loadarg {arg} out of range for arity {arity}", key, lines[pc])
            elif op == _JZ or op == _JMP:
                target = pc + arg
                if not 0 <= target < n:
                    raise ProgramValidationError(
                        f"jump target {target} out of range", key, lines[pc])
                if op == _JMP:
                    pc = target
                    continue
                work.append((target, depth))
            elif op == _RET:
                break
            pc += 1
            if pc >= n:
                raise ProgramValidationError(
                    "control falls off the end of the method; missing ret", key, lines[-1])
    return tuple(depths)


def parse_program(text: str) -> Program:
    """Parse and validate program text into an immutable ``Program``.

    Each distinct instruction line is parsed once: ``parsed`` maps its raw text
    to the ``(int_op, arg)`` pair it gave, and a repeat inside a method reuses it.
    ``specs`` maps each key to its ``MethodSpec`` in program order; a method
    joins it when the next header or the end of the text closes it.
    """
    specs: dict[str, MethodSpec] = {}
    intern_map: dict[int, str] = {}
    parsed: dict[str, tuple[int, object]] = {}

    current_class: str | None = None
    ref: MethodRef | None = None  # the open method: decl_line, code and lines

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if ref is not None:
            ins = parsed.get(raw)
            if ins is not None:
                add_ins(ins)
                add_line(line_no)
                continue
        line = _strip_comment(raw).strip()
        if not line:
            continue

        head = line.split(None, 1)[0]
        if head == "class" or head == "method":
            m = (_CLASS_RE if head == "class" else _METHOD_RE).fullmatch(line)
            if not m:
                raise ProgramParseError(f"bad {head} header {line!r}", line_no)
            if ref is not None:
                specs[ref.key] = _method_spec(ref, decl_line, code, lines)
                ref = None
            if head == "class":
                name = m.group(1)
                if not _DOTTED_RE.fullmatch(name):
                    raise ProgramParseError(f"bad class name {name!r}", line_no)
                current_class = name
                continue
            if current_class is None:
                raise ProgramParseError("method outside a class", line_no)
            ref = MethodRef(current_class, m.group(1), _at_line(parse_signature, m.group(2), line_no))
            first = specs.get(ref.key)
            if first is not None:
                raise ProgramParseError(
                    f"duplicate method {ref.key} (first declared on line {first.decl_line})",
                    line_no)
            decl_line, code, lines = line_no, [], []
            add_ins, add_line = code.append, lines.append
            continue

        if ref is None:
            raise ProgramParseError(f"instruction outside a method: {line!r}", line_no)

        parts = line.split(None, 1)
        mnemonic = parts[0]
        operand = parts[1].strip() if len(parts) > 1 else None
        op = MNEMONIC_TO_OPCODE.get(mnemonic)
        if op is None:
            raise ProgramParseError(f"unknown instruction {mnemonic!r}", line_no)

        kind = _OPCODE_TABLE[op][1]
        arg = None
        if kind is None:
            if operand is not None:
                raise ProgramParseError(f"{mnemonic} takes no operand", line_no)
        elif operand is None:
            raise ProgramParseError(f"{mnemonic} needs {_NEEDS[kind]}", line_no)
        elif kind == "method":
            arg = _at_line(MethodRef.parse, operand, line_no)
        elif kind != "const":
            arg = _parse_int(operand, line_no, signed=kind == "offset")
        elif operand.startswith('"'):
            text_value = _parse_string_literal(operand, line_no)
            arg = intern_id(text_value)
            if intern_map.setdefault(arg, text_value) != text_value:
                raise ProgramValidationError(
                    f"intern id collision: {intern_map[arg]!r}, {text_value!r}", line=line_no)
        else:
            arg = _parse_int(operand, line_no)
            if not I64_MIN <= arg <= I64_MAX:
                raise ProgramParseError(f"constant {arg} outside 64-bit range", line_no)
        ins = parsed[raw] = (op.value, arg)
        add_ins(ins)
        add_line(line_no)

    if ref is not None:
        specs[ref.key] = _method_spec(ref, decl_line, code, lines)
    if not specs:
        raise ProgramParseError("program declares no methods", 1)
    return Program(specs, intern_map)


def load_program(text: str) -> ClassRegistry:
    """Parse program text and instantiate a fresh registry from it."""
    return parse_program(text).instantiate()
