"""Reference evaluator for tracevm ``Program`` bytecode.

Written apart from ``tracevm.vm`` and ``tracevm.jit``: its own opcode table,
its own 64-bit wrap, and an explicit call stack instead of host recursion. The
benchmark checks every result and every trace event the program produces
against what this evaluator predicts.
"""

from __future__ import annotations

from collections import Counter

INTERCEPT_LABEL = "XTrace.intercept()"

# Wire action codes (config format): 1 stack, 2 args + return, 3 timing.
STACK, ARGS, TIME = 1, 2, 3

_PUSH, _LARG, _LLOC, _SLOC, _ADD, _SUB, _MUL, _JZ, _JMP, _CALL, _RET = range(11)
_BY_NAME = {
    "PUSH_CONST": _PUSH, "LOAD_ARG": _LARG, "LOAD_LOCAL": _LLOC,
    "STORE_LOCAL": _SLOC, "ADD": _ADD, "SUB": _SUB, "MUL": _MUL,
    "JUMP_IF_ZERO": _JZ, "JUMP": _JMP, "CALL": _CALL, "RETURN": _RET,
}

_SPAN = 1 << 64
_HALF = 1 << 63


def wrap64(value: int) -> int:
    value %= _SPAN
    return value - _SPAN if value >= _HALF else value


class RefEval:
    """Evaluates methods of one or more parsed programs."""

    def __init__(self, program=None):
        self._methods: dict[str, tuple] = {}
        if program is not None:
            self.add(program)

    def add(self, program) -> None:
        for spec in program.methods:
            code = []
            for ins in spec.bytecode:
                op = _BY_NAME[ins.op.name]
                arg = ins.arg
                if op == _CALL:
                    arg = (arg.key, arg.arity)
                code.append((op, arg))
            self._methods[spec.ref.key] = (tuple(code), spec.n_locals)

    def run(self, key: str, args, targets: dict | None = None, events: list | None = None,
            calls: Counter | None = None):
        """Evaluate ``key(args)``.

        With ``targets`` (method key to a set of action codes) the events a
        tracer must emit are appended to ``events`` in emission order, as
        normalised tuples (see ``normalise_event``). ``calls`` counts every
        method entered.
        """
        targets = targets or {}
        path: list[str] = []          # call path, outermost first
        frames = []                   # [code, pc, stack, locals, args, key]

        def enter(k, a):
            code, n_locals = self._methods[k]
            path.append(k)
            if calls is not None:
                calls[k] += 1
            acts = targets.get(k)
            if acts and STACK in acts:
                events.append(("stack", k, (INTERCEPT_LABEL,) + tuple(reversed(path))))
            frames.append([code, 0, [], [0] * n_locals, a, k])

        enter(key, list(args))
        while True:
            frame = frames[-1]
            code, pc, stack, loc, fargs, fkey = frame
            op, arg = code[pc]
            pc += 1
            if op == _PUSH:
                stack.append(arg)
            elif op == _LARG:
                stack.append(fargs[arg])
            elif op == _LLOC:
                stack.append(loc[arg])
            elif op == _SLOC:
                loc[arg] = stack.pop()
            elif op == _ADD:
                b = stack.pop()
                stack.append(wrap64(stack.pop() + b))
            elif op == _SUB:
                b = stack.pop()
                stack.append(wrap64(stack.pop() - b))
            elif op == _MUL:
                b = stack.pop()
                stack.append(wrap64(stack.pop() * b))
            elif op == _JZ:
                if stack.pop() == 0:
                    pc += arg - 1
            elif op == _JMP:
                pc += arg - 1
            elif op == _CALL:
                ckey, arity = arg
                cargs = stack[len(stack) - arity:] if arity else []
                del stack[len(stack) - arity:]
                frame[1] = pc
                enter(ckey, cargs)
                continue
            elif op == _RET:
                value = stack.pop()
                frames.pop()
                path.pop()
                acts = targets.get(fkey)
                if acts:
                    if TIME in acts:
                        events.append(("time", fkey))
                    if ARGS in acts:
                        events.append(("args", fkey, tuple(fargs), value))
                if not frames:
                    return value
                frames[-1][2].append(value)
                continue
            frame[1] = pc


def normalise_event(event) -> tuple:
    """Turn a drained ``TraceEvent`` into the tuple ``RefEval.run`` predicts.

    Raises ``ValueError`` on a malformed payload, such as a timing event
    without a positive integer duration.
    """
    key = event.method_ref.key
    action = int(event.action)
    payload = event.payload
    if action == STACK:
        return ("stack", key, tuple(payload["stack"]))
    if action == TIME:
        duration = payload.get("duration_ns")
        if not isinstance(duration, int) or duration <= 0 or payload.get("abrupt"):
            raise ValueError(f"bad timing payload for {key}: {payload!r}")
        return ("time", key)
    if action == ARGS:
        if payload.get("abrupt") or "return" not in payload:
            raise ValueError(f"bad args payload for {key}: {payload!r}")
        return ("args", key, tuple(payload["args"]), payload["return"])
    raise ValueError(f"unknown action {action} for {key}")
