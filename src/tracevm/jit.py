"""Lowering pass from stack bytecode to Python expressions.

The validator proves a single operand-stack depth for every reachable
instruction, so the lowering keeps the operand stack at compile time. Inside a
basic block it holds one expression string per stack slot: pushes add text,
``add``/``sub``/``mul`` combine the top two entries into one expression, and
``storelocal`` or a call emits a statement. The chunk
``loadlocal 0; pushconst 7; add; storelocal 0`` becomes one line. Holding an
entry back is safe because every entry is pure integer arithmetic on
constants, arguments, locals and slots. The one hazard is a write to a
variable that a pending entry reads: before such a write, the entry is
written out to its slot ``s<d>``. A call writes out every entry below its
arguments. An entry nested ``_NEST_CAP`` deep is written out too, since
CPython's parser cannot take unbounded nesting. Jumps and fall-through into
the next block leave the stack in the slots ``s0..s<d-1>``, so every block
starts with the same state; ``ret`` returns the top entry and drops the rest.

Methods without jumps lower to straight-line code. Methods with jumps lower to
a ``while`` loop dispatching on a block variable; every jump target starts a
block.

Arithmetic wraps to signed 64-bit like the interpreter, but only where a value
is observed: wrapping mod 2**64 commutes with ``+``, ``-`` and ``*``, so
``add``/``sub``/``mul`` emit plain ``(a + b)`` on Python's unbounded ints.
Each entry, and each local the block stores, carries a signed width, the
two's-complement bits its value fits in; 64 means in range. A wider value is
wrapped by ``(t if _lo <= (t := x) <= _hi else _w(t))``, where ``_w`` is
``core.wrap_i64``, the one place that spells the wrap, when it is returned,
passed to a call, tested by ``jz``, or left in a slot or local at a block
exit, so every block starts from wrapped state. An operation whose width
would pass ``_WIDE`` is wrapped in place, which keeps the ints a few digits
long. Each call site calls ``vm.call_ref`` in place, binding nothing to a
local, with the callee's key, written with ``repr`` so any signature token
is escaped, and the arguments in a tuple display: the callee's own entry
point still decides how it runs. The text is one fixed ``def _lowered`` that
names no method: it depends on ``code`` alone (the loader derives
``n_locals`` and ``stack_depths`` from it), so twins lower to one text. It is
compiled, never run; its code object is renamed to the method's own name and
file name and becomes a function in one sealed scope shared by all lowered
code, ``_SCOPE``, with ``_DEFAULTS`` as the values of the trailing
parameters. Each compiled method lowers its own body on its first call.
"""

from __future__ import annotations

import re
from types import CodeType, FunctionType

from .core import _OPCODES, I64_MAX, I64_MIN, MethodRecord, wrap_i64
from .errors import VMInternalError

# Plain-int opcodes, as stored code holds them.
(_PUSH, _LARG, _LLOC, _SLOC, _ADD, _SUB, _MUL, _JZ, _JMP, _CALL, _RET) = _OPCODES
_ARITH_SYMBOLS = {_ADD: "+", _SUB: "-", _MUL: "*"}

# Deepest arithmetic nesting kept in one expression before it is written out.
_NEST_CAP = 16
# Widest signed width an operation may produce before it is wrapped in place.
_WIDE = 128

_NON_IDENT_RE = re.compile(r"[^0-9A-Za-z]")
# Globals of every lowered function: no builtins and no names, since every
# value the code reads is a parameter default.
_SCOPE = {"__builtins__": {}}
# The defaults of ``_lo``, ``_hi`` and ``_w``, one tuple for every lowered function.
_DEFAULTS = (I64_MIN, I64_MAX, wrap_i64)


def _mangle(key: str) -> str:
    """An identifier from a method key: every character outside ``[0-9A-Za-z]`` becomes ``_``."""
    return _NON_IDENT_RE.sub("_", key)


def _checked(text: str) -> str:
    """``text`` wrapped to signed 64-bit, calling ``_w`` only on overflow."""
    return f"(t if _lo <= (t := {text}) <= _hi else _w(t))"


def lower_method(record: MethodRecord):
    """Return ``(function, source)`` for the record's code, the function named for the record."""
    code = record.code
    depths = record.stack_depths
    n = len(code)

    leaders = {0}
    has_jumps = False
    for i, (op, arg) in enumerate(code):
        if depths[i] is None:
            continue
        if op == _JMP or op == _JZ:
            has_jumps = True
            leaders.add(i + arg)
    block_starts = sorted(pc for pc in leaders if depths[pc] is not None)
    block_id = {pc: idx for idx, pc in enumerate(block_starts)}

    lines = ["def _lowered(vm, thread, args, _lo, _hi, _w):"]
    body_indent = "    "
    # Zero-fill a local unless the entry's straight-line run, which every
    # call executes before its first jump, stores it before reading it.
    first_use = {}
    for op, arg in code:
        if op == _JZ or op == _JMP or op == _RET:
            break
        if op == _LLOC or op == _SLOC:
            first_use.setdefault(arg, op)
    for slot in range(record.n_locals):
        if first_use.get(slot) != _SLOC:
            lines.append(f"{body_indent}l{slot} = 0")

    def emit_block(start: int, indent: str):
        """Emit one basic block; returns after the block transfers control."""
        # One (text, nesting, width) entry per operand-stack slot; the
        # widths of the locals stored in this block. Any other value is in range.
        stack = [(f"s{d}", 0, 64) for d in range(depths[start])]
        local_bits = {}

        def observed(entry) -> str:
            text, _, bits = entry
            return _checked(text) if bits > 64 else text

        def spill(d: int):
            """Write entry ``d`` out to ``s<d>``, first spilling entries that read ``s<d>``."""
            text, _, bits = stack[d]
            target = f"s{d}"
            if text == target:
                return
            save(target, d)
            lines.append(f"{indent}{target} = {text}")
            stack[d] = (target, 0, bits)

        def save(var: str, below: int):
            """Spill every entry under depth ``below`` that may read ``var``.

            A substring test: ``l1`` also matches ``l12``, which costs a
            needless spill but never a missed one.
            """
            for d in range(below):
                if var in stack[d][0]:
                    spill(d)

        def leave():
            """Wrap the stack into its slots and the stored locals in place."""
            for d in range(len(stack)):
                stack[d] = (observed(stack[d]), 0, 64)
                spill(d)
            for slot, bits in local_bits.items():
                if bits > 64:
                    lines.append(f"{indent}l{slot} = {_checked(f'l{slot}')}")
            local_bits.clear()

        def jump(target_pc: int, indent: str):
            lines.append(f"{indent}_b = {block_id[target_pc]}")
            lines.append(f"{indent}continue")

        pc = start
        while True:
            op, arg = code[pc]
            if op == _PUSH:
                stack.append((repr(arg), 0, (arg if arg >= 0 else ~arg).bit_length() + 1))
            elif op == _LARG:
                stack.append((f"args[{arg}]", 0, 64))
            elif op == _LLOC:
                stack.append((f"l{arg}", 0, local_bits.get(arg, 64)))
            elif op == _SLOC:
                text, _, bits = stack.pop()
                local = f"l{arg}"
                save(local, len(stack))
                lines.append(f"{indent}{local} = {text}")
                local_bits[arg] = bits
            elif op in _ARITH_SYMBOLS:
                b_text, b_nest, b_bits = stack.pop()
                a_text, a_nest, a_bits = stack[-1]
                nest = max(a_nest, b_nest) + 1
                bits = a_bits + b_bits if op == _MUL else max(a_bits, b_bits) + 1
                expr = f"{a_text} {_ARITH_SYMBOLS[op]} {b_text}"
                if bits > _WIDE:
                    stack[-1] = (_checked(expr), nest, 64)
                else:
                    stack[-1] = (f"({expr})", nest, bits)
                if nest >= _NEST_CAP:
                    spill(len(stack) - 1)
            elif op == _JZ:
                # ``cond`` reads no slot under its own depth, so the flush
                # cannot change it, and wrapping a local keeps its value mod 2**64.
                cond = observed(stack.pop())
                leave()
                lines.append(f"{indent}if {cond} == 0:")
                jump(pc + arg, indent + "    ")
            elif op == _JMP:
                leave()
                jump(pc + arg, indent)
                return
            elif op == _CALL:
                base = len(stack) - arg.arity
                for d in range(base):
                    spill(d)
                call_args = ", ".join(observed(entry) for entry in stack[base:])
                if arg.arity == 1:
                    call_args += ","
                del stack[base:]
                lines.append(f"{indent}s{base} = vm.call_ref(thread, {arg.key!r}, ({call_args}))")
                stack.append((f"s{base}", 0, 64))
            elif op == _RET:
                # The entries under the top are pure, so dropping them is safe.
                lines.append(f"{indent}return {observed(stack[-1])}")
                return
            else:  # pragma: no cover - validator rejects unknown opcodes
                raise VMInternalError(f"cannot lower opcode {op}")
            pc += 1
            if pc >= n:  # pragma: no cover - validator rejects fall-off
                raise VMInternalError("lowering walked past the last instruction")
            if pc in block_id:
                # Fall through into the next block.
                leave()
                jump(pc, indent)
                return

    if not has_jumps:
        emit_block(0, body_indent)
    else:
        lines.append(f"{body_indent}_b = 0")
        lines.append(f"{body_indent}while True:")
        for idx, start in enumerate(block_starts):
            kw = "if" if idx == 0 else "elif"
            lines.append(f"{body_indent}    {kw} _b == {idx}:")
            emit_block(start, body_indent + "        ")

    source = "\n".join(lines) + "\n"
    # The text is one ``def``: its code object is the module's one code constant.
    module = compile(source, "<lowered>", "exec")
    code_obj, = (c for c in module.co_consts if isinstance(c, CodeType))
    key = record.method_ref.key
    name = f"_lowered_{_mangle(key)}"
    code_obj = code_obj.replace(co_filename=f"<lowered {key}>", co_name=name, co_qualname=name)
    return FunctionType(code_obj, _SCOPE, name, _DEFAULTS), source
