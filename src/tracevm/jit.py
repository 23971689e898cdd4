"""Lowering pass from stack bytecode to straight Python source.

The validator proves a single operand-stack depth for every reachable
instruction, so each stack slot can become a plain variable instead of a list
with push/pop traffic. Methods without jumps lower to straight-line code.
Methods with jumps lower to a ``while`` loop dispatching on a block variable;
every jump target starts a block.

Arithmetic wraps to signed 64-bit exactly like the interpreter. Calls go back
through ``vm.call_ref`` so the callee's own entry point still decides how the
callee runs.
"""

from __future__ import annotations

from .core import _BIAS, _MASK, _OPCODES, MethodRecord
from .errors import VMInternalError

# Plain-int opcodes, as ``Instruction`` stores them.
(_PUSH, _LARG, _LLOC, _SLOC, _ADD, _SUB, _MUL, _JZ, _JMP, _CALL, _RET) = _OPCODES
_WRAP_SYMBOLS = {_ADD: "+", _SUB: "-", _MUL: "*"}


def _mangle(key: str) -> str:
    out = []
    for ch in key:
        out.append(ch if ch.isalnum() else "_")
    return "".join(out)


def lower_method(record: MethodRecord):
    """Return ``(function, source)`` for the record's bytecode."""
    code = record.bytecode
    depths = record.stack_depths
    n = len(code)

    refs = []
    ref_index = {}
    for op, arg in code:
        if op == _CALL and arg.key not in ref_index:
            ref_index[arg.key] = len(refs)
            refs.append(arg)

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

    name = f"_lowered_{_mangle(record.method_ref.key)}"
    lines = [f"def {name}(vm, thread, args, _refs=_REFS):"]
    body_indent = "    "
    if refs:
        lines.append(f"{body_indent}_call = vm.call_ref")
    for slot in range(record.n_locals):
        lines.append(f"{body_indent}l{slot} = 0")

    def emit_block(start: int, indent: str):
        """Emit one basic block; returns after the block transfers control."""
        pc = start
        depth = depths[start]
        while True:
            op, arg = code[pc]
            if op == _PUSH:
                lines.append(f"{indent}s{depth} = {arg!r}")
                depth += 1
            elif op == _LARG:
                lines.append(f"{indent}s{depth} = args[{arg}]")
                depth += 1
            elif op == _LLOC:
                lines.append(f"{indent}s{depth} = l{arg}")
                depth += 1
            elif op == _SLOC:
                depth -= 1
                lines.append(f"{indent}l{arg} = s{depth}")
            elif op in _WRAP_SYMBOLS:
                sym = _WRAP_SYMBOLS[op]
                depth -= 1
                a, b = f"s{depth - 1}", f"s{depth}"
                lines.append(
                    f"{indent}s{depth - 1} = ({a} {sym} {b} + {_BIAS} & {_MASK}) - {_BIAS}")
            elif op == _JZ:
                depth -= 1
                lines.append(f"{indent}if s{depth} == 0:")
                lines.append(f"{indent}    _b = {block_id[pc + arg]}")
                lines.append(f"{indent}    continue")
            elif op == _JMP:
                lines.append(f"{indent}_b = {block_id[pc + arg]}")
                lines.append(f"{indent}continue")
                return
            elif op == _CALL:
                callee = arg
                k = callee.arity
                depth -= k
                call_args = ", ".join(f"s{depth + j}" for j in range(k))
                lines.append(
                    f"{indent}s{depth} = _call(thread, _refs[{ref_index[callee.key]}], "
                    f"[{call_args}])")
                depth += 1
            elif op == _RET:
                lines.append(f"{indent}return s{depth - 1}")
                return
            else:  # pragma: no cover - validator rejects unknown opcodes
                raise VMInternalError(f"cannot lower opcode {op}")
            pc += 1
            if pc >= n:  # pragma: no cover - validator rejects fall-off
                raise VMInternalError("lowering walked past the last instruction")
            if pc in block_id:
                # Fall through into the next block.
                lines.append(f"{indent}_b = {block_id[pc]}")
                lines.append(f"{indent}continue")
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
    namespace = {"__builtins__": {}, "_REFS": tuple(refs)}
    exec(compile(source, f"<lowered {record.method_ref.key}>", "exec"), namespace)
    return namespace[name], source
