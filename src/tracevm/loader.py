"""Program text parser and static validator.

The source format is line oriented::

    class demo.Math
      method fib(int)
        loadarg 0
        jz +15
        ...
        ret

``#`` starts a comment outside quoted strings. Indentation is not significant.
Jump offsets are relative to the jump instruction itself.

Each distinct instruction line is parsed once per ``parse_program`` call and
its immutable ``Instruction`` is shared by every repeat inside a method. The
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
    _OPCODES,
    I64_MAX,
    I64_MIN,
    ClassRegistry,
    Instruction,
    MethodRef,
    MethodSpec,
    MNEMONIC_TO_OPCODE,
    Opcode,
    Program,
    _DOTTED_RE,
    intern_id,
    parse_signature,
)
from .errors import ProgramParseError, ProgramValidationError

MAX_LOCAL_SLOTS = 256

# Plain-int opcodes, as ``Instruction`` stores them.
(_PUSH, _LARG, _LLOC, _SLOC, _ADD, _SUB, _MUL, _JZ, _JMP, _CALL, _RET) = _OPCODES

_INT_RE = re.compile(r"[+-]?\d+$")
_CLASS_RE = re.compile(r"class\s+(\S+)$")
_METHOD_RE = re.compile(r"method\s+([A-Za-z_$][A-Za-z0-9_$]*)\s*\((.*)\)$")


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    in_string = escaped = False
    for i, ch in enumerate(line):
        if escaped:
            escaped = False
        elif in_string:
            if ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "#":
            return line[:i]
    return line


def _parse_string_literal(text: str, line_no: int) -> str:
    if len(text) < 2 or not text.endswith('"'):
        raise ProgramParseError(f"unterminated string literal {text!r}", line_no)
    body = text[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise ProgramParseError(f"dangling escape in {text!r}", line_no)
            nxt = body[i + 1]
            if nxt not in ('"', "\\"):
                raise ProgramParseError(f"unknown escape \\{nxt} in {text!r}", line_no)
            out.append(nxt)
            i += 2
        elif ch == '"':
            raise ProgramParseError(f"stray quote inside {text!r}", line_no)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_int(token: str, line_no: int, *, signed: bool = True) -> int:
    if not _INT_RE.match(token):
        raise ProgramParseError(f"expected integer operand, got {token!r}", line_no)
    value = int(token)
    if not signed and value < 0:
        raise ProgramParseError(f"expected non-negative operand, got {token}", line_no)
    return value


class _MethodBuilder:
    def __init__(self, ref: MethodRef, decl_line: int):
        self.ref = ref
        self.decl_line = decl_line
        self.instructions: list[Instruction] = []
        self.lines: list[int] = []

    def finish(self) -> MethodSpec:
        key = self.ref.key
        code = tuple(self.instructions)
        if not code:
            raise ProgramValidationError("method has no instructions", key, self.decl_line)
        n_locals = 0
        for (op, slot), line_no in zip(code, self.lines):
            if op == _LLOC or op == _SLOC:
                if slot >= MAX_LOCAL_SLOTS:
                    raise ProgramValidationError(f"local slot {slot} too large", key, line_no)
                n_locals = max(n_locals, slot + 1)
        depths = self._verify(code, n_locals)
        return MethodSpec(self.ref, code, n_locals, depths, self.decl_line)

    def _verify(self, code, n_locals: int) -> tuple:
        """Prove a single stack depth per reachable instruction and full return coverage."""
        key = self.ref.key
        arity = self.ref.arity
        n = len(code)
        depths: list[int | None] = [None] * n
        work = [(0, 0)]
        while work:
            pc, depth = work.pop()
            while True:
                if pc >= n or pc < 0:
                    raise ProgramValidationError(
                        f"control reaches pc {pc}, outside the method",
                        key, self.lines[min(pc, n) - 1] if n else self.decl_line)
                seen = depths[pc]
                if seen is not None:
                    if seen != depth:
                        raise ProgramValidationError(
                            f"inconsistent stack depth at pc {pc} ({seen} vs {depth})",
                            key, self.lines[pc])
                    break
                depths[pc] = depth
                op, arg = code[pc]
                line_no = self.lines[pc]
                if op == _PUSH:
                    depth += 1
                elif op == _LARG:
                    if arg >= arity:
                        raise ProgramValidationError(
                            f"loadarg {arg} out of range for arity {arity}", key, line_no)
                    depth += 1
                elif op == _LLOC:
                    depth += 1
                elif op == _SLOC:
                    if depth < 1:
                        raise ProgramValidationError("stack underflow at storelocal", key, line_no)
                    depth -= 1
                elif op == _ADD or op == _SUB or op == _MUL:
                    if depth < 2:
                        raise ProgramValidationError(
                            f"stack underflow at {Opcode(op).name.lower()}", key, line_no)
                    depth -= 1
                elif op == _JZ:
                    if depth < 1:
                        raise ProgramValidationError("stack underflow at jz", key, line_no)
                    depth -= 1
                    target = pc + arg
                    if not 0 <= target < n:
                        raise ProgramValidationError(
                            f"jump target {target} out of range", key, line_no)
                    work.append((target, depth))
                elif op == _JMP:
                    target = pc + arg
                    if not 0 <= target < n:
                        raise ProgramValidationError(
                            f"jump target {target} out of range", key, line_no)
                    pc = target
                    continue
                elif op == _CALL:
                    callee: MethodRef = arg
                    if depth < callee.arity:
                        raise ProgramValidationError(
                            f"stack underflow at call {callee.key}", key, line_no)
                    depth = depth - callee.arity + 1
                elif op == _RET:
                    if depth < 1:
                        raise ProgramValidationError("stack underflow at ret", key, line_no)
                    break
                else:  # pragma: no cover - parser emits only known opcodes
                    raise ProgramValidationError(f"unknown opcode {op}", key, line_no)
                pc += 1
                if pc >= n:
                    raise ProgramValidationError(
                        "control falls off the end of the method; missing ret",
                        key, self.lines[-1])
        return tuple(depths)


def parse_program(text: str) -> Program:
    """Parse and validate program text into an immutable ``Program``.

    Each distinct instruction line is parsed once: ``parsed`` maps its raw text
    to the ``Instruction`` it gave, and a repeat inside a method reuses it.
    """
    methods: list[MethodSpec] = []
    seen_keys: dict[str, int] = {}
    class_order: dict[str, None] = {}
    intern_map: dict[int, str] = {}
    parsed: dict[str, Instruction] = {}

    current_class: str | None = None
    builder: _MethodBuilder | None = None

    def finish_builder():
        nonlocal builder
        if builder is not None:
            methods.append(builder.finish())
            builder = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if builder is not None:
            ins = parsed.get(raw)
            if ins is not None:
                add_ins(ins)
                add_line(line_no)
                continue
        line = _strip_comment(raw).strip()
        if not line:
            continue

        head = line.split(None, 1)[0]
        if head == "class":
            m = _CLASS_RE.match(line)
            if not m:
                raise ProgramParseError(f"bad class header {line!r}", line_no)
            finish_builder()
            name = m.group(1)
            if not _DOTTED_RE.match(name):
                raise ProgramParseError(f"bad class name {name!r}", line_no)
            current_class = name
            class_order[name] = None
            continue

        if head == "method":
            m = _METHOD_RE.match(line)
            if not m:
                raise ProgramParseError(f"bad method header {line!r}", line_no)
            if current_class is None:
                raise ProgramParseError("method outside a class", line_no)
            finish_builder()
            ref = MethodRef(current_class, m.group(1), parse_signature(m.group(2)))
            if ref.key in seen_keys:
                raise ProgramParseError(
                    f"duplicate method {ref.key} (first declared on line {seen_keys[ref.key]})",
                    line_no)
            seen_keys[ref.key] = line_no
            builder = _MethodBuilder(ref, line_no)
            add_ins, add_line = builder.instructions.append, builder.lines.append
            continue

        if builder is None:
            raise ProgramParseError(f"instruction outside a method: {line!r}", line_no)

        parts = line.split(None, 1)
        mnemonic = parts[0]
        operand = parts[1].strip() if len(parts) > 1 else None
        op = MNEMONIC_TO_OPCODE.get(mnemonic)
        if op is None:
            raise ProgramParseError(f"unknown instruction {mnemonic!r}", line_no)

        if op == _ADD or op == _SUB or op == _MUL or op == _RET:
            if operand is not None:
                raise ProgramParseError(f"{mnemonic} takes no operand", line_no)
            ins = Instruction(op)
        elif op == _PUSH:
            if operand is None:
                raise ProgramParseError("pushconst needs an operand", line_no)
            if operand.startswith('"'):
                text_value = _parse_string_literal(operand, line_no)
                value = intern_id(text_value)
                if intern_map.setdefault(value, text_value) != text_value:
                    raise ProgramValidationError(
                        f"intern id collision: {intern_map[value]!r}, {text_value!r}", line=line_no)
            else:
                value = _parse_int(operand, line_no)
                if not I64_MIN <= value <= I64_MAX:
                    raise ProgramParseError(f"constant {value} outside 64-bit range", line_no)
            ins = Instruction(op, value)
        elif op == _LARG or op == _LLOC or op == _SLOC:
            if operand is None:
                raise ProgramParseError(f"{mnemonic} needs a slot operand", line_no)
            ins = Instruction(op, _parse_int(operand, line_no, signed=False))
        elif op == _JZ or op == _JMP:
            if operand is None:
                raise ProgramParseError(f"{mnemonic} needs a relative offset", line_no)
            ins = Instruction(op, _parse_int(operand, line_no))
        else:  # call
            if operand is None:
                raise ProgramParseError("call needs a method reference", line_no)
            ins = Instruction(op, MethodRef.parse(operand))
        parsed[raw] = ins
        add_ins(ins)
        add_line(line_no)

    finish_builder()
    if not methods:
        raise ProgramParseError("program declares no methods", 1)
    specs = {spec.ref.key: spec[:4] for spec in methods}
    return Program(tuple(methods), tuple(class_order), specs, intern_map)


def load_program(text: str) -> ClassRegistry:
    """Parse program text and instantiate a fresh registry from it."""
    return parse_program(text).instantiate()
