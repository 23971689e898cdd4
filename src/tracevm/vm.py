"""Virtual machine: threads, tiered dispatch and the interpreter loop.

Every call dispatches through the callee's entry-point slot, and only
``_dispatch`` pushes or pops ``thread.frames``. ``_dispatch`` is also the one
place that fires method entry and exit events, the hook the tracing layers build
on: every entry but ``CompiledDirect`` asks whether anyone listens and fires the
events around the body, which is the compiled body for the quick stub, so a
traced hot method does not fall back to the interpreter. Only ``jit_compile``
changes a tier: it moves the live entry, or the one a stub saved, to compiled.

The interpreter runs each call in one Python frame, over the record's
``code`` of exact ``(int_op, arg)`` tuples: CPython 3.11 specialises
``code[pc]`` (``BINARY_SUBSCR_TUPLE_INT``), ``op, arg = ...``
(``UNPACK_SEQUENCE_TWO_TUPLE``) and ``op == O_X`` only on exact tuples and
ints. The if-chain follows the instruction mix of fleet traffic: loadlocal
24%, storelocal 22%, loadarg 13%, pushconst 12%, add 9%, sub 5%, jz 4%, ret
4%, mul 3%, jmp 2%, call 2%; pushconst and mul move up a place for the
latency probe, which is 25% pushconst and 10% mul. ``add``, ``sub`` and
``mul`` call ``core.wrap_i64`` only when a result leaves the signed 64-bit
range; the lowered code defers that check to where a value is observed. The
call edge ``call_ref`` resolves a callee with one dict get on the registry's
record map, and asks the registry only on a method's first touch.
"""

from __future__ import annotations

import logging
import sys
import threading

from .core import (
    _BRIDGE,
    _COMPILED,
    _OPCODES,
    _QUICK,
    I64_MAX,
    I64_MIN,
    ClassRegistry,
    MethodRecord,
    MethodRef,
    wrap_i64,
)
from .errors import ArityMismatchError, StackDepthError, VMInternalError
from .instrumentation import Instrumentation
from .jit import lower_method

log = logging.getLogger(__name__)

DEFAULT_MAX_STACK_DEPTH = 10_000

_headroom_lock = threading.Lock()
_rlimit_raised = False


def _ensure_stack_headroom(max_depth: int) -> None:
    """Best-effort bump of the recursion limit and OS stack for deep call chains.

    Each VM-level call costs a handful of Python frames, and Python frames
    consume C stack on 3.10. Raising the soft stack rlimit to the hard limit
    makes depths around the default limit safe on the main thread.
    """
    global _rlimit_raised
    with _headroom_lock:
        if not _rlimit_raised:
            _rlimit_raised = True
            try:
                import resource

                soft, hard = resource.getrlimit(resource.RLIMIT_STACK)
                if hard == resource.RLIM_INFINITY or (hard > 0 and soft != hard):
                    resource.setrlimit(resource.RLIMIT_STACK, (hard, hard))
            except Exception:
                pass
        need = max_depth * 6 + 2000
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)


class VMThread:
    """Execution context owned by one driver at a time: a frame stack plus trace scratch.

    ``frames`` holds the ``MethodRef`` of every active call, outermost first.
    """

    __slots__ = ("name", "frames", "in_interceptor", "trace_pending")

    def __init__(self, name: str = "main"):
        self.name = name
        self.frames: list[MethodRef] = []
        self.in_interceptor = False
        self.trace_pending: list = []


class VM:
    """A class registry plus execution tiers and an instrumentation side table.

    Construction changes process-wide limits through ``_ensure_stack_headroom``:
    the first ``VM`` of a process raises the soft ``RLIMIT_STACK`` to the hard
    limit, once, and every ``VM`` raises the recursion limit to fit its
    ``max_stack_depth``. Neither limit is lowered again.
    """

    def __init__(self, registry: ClassRegistry, *, max_stack_depth: int = DEFAULT_MAX_STACK_DEPTH):
        if max_stack_depth < 1:
            raise ValueError("max_stack_depth must be positive")
        self.registry = registry
        self._records = registry._records  # the registry never rebinds this dict
        self.max_stack_depth = max_stack_depth
        self.instrumentation = Instrumentation(registry)
        self.interpreted_calls = 0
        self.compiled_calls = 0
        _ensure_stack_headroom(max_stack_depth)

    def new_thread(self, name: str = "main") -> VMThread:
        return VMThread(name)

    def invoke(self, thread: VMThread, target: "MethodRef | str", args=()):
        """Public entry: resolve, arity-check and dispatch a call.

        Names resolve as in ``ClassRegistry.lookup``. A key string takes one
        ``get`` first, so ``lookup`` runs only on a miss. ``args`` becomes the
        call's one argument tuple, the same object when it is a tuple
        already, which every tier and listener receives.
        """
        if isinstance(target, str):
            record = self.registry.get(target) or self.registry.lookup(target)
        else:
            record = self.registry.lookup(target)
        if len(args) != record.arity:
            raise ArityMismatchError(
                f"{record.method_ref.key} takes {record.arity} args, got {len(args)}")
        return self._dispatch(thread, record, tuple(args))

    def call_ref(self, thread: VMThread, ref: MethodRef, args: tuple):
        """Internal call edge used by bytecode and lowered code.

        Both tiers pass ``args`` as an exact tuple. One dict get on the
        registry's record map; a miss, a first touch or a missing method, goes
        to ``lookup``, which builds the record or raises.
        """
        record = self._records.get(ref.key) or self.registry.lookup(ref)
        return self._dispatch(thread, record, args)

    def _dispatch(self, thread: VMThread, record: MethodRecord, args: tuple):
        """Run a call on its entry point; the one site that fires method events.

        Every entry but ``CompiledDirect`` fires them around its body when a
        listener is registered, with an abrupt exit when the body raised. The
        body and the entry listeners get the same ``args`` tuple; nothing
        mutates it.
        """
        frames = thread.frames
        if len(frames) >= self.max_stack_depth:
            raise StackDepthError(
                f"call depth limit {self.max_stack_depth} hit calling {record.method_ref.key}")
        frames.append(record.method_ref)
        try:
            entry = record.entry_point
            if entry is _COMPILED:
                self.compiled_calls += 1
                return record.lowered_code(self, thread, args)
            ins = self.instrumentation
            if ins._entry_callbacks:
                ins.method_enter_event(thread, record.method_ref, args)
            try:
                if entry is _QUICK:
                    # Installing the quick stub requires a compiled method and
                    # compiling is one-way, so the body runs without a tier check.
                    self.compiled_calls += 1
                    value = record.lowered_code(self, thread, args)
                else:
                    value = self.interpret(thread, record, args)
            except Exception:
                if ins._exit_callbacks:
                    ins.method_exit_event(thread, record.method_ref, None, abrupt=True)
                raise
            if ins._exit_callbacks:
                ins.method_exit_event(thread, record.method_ref, value)
            return value
        finally:
            frames.pop()

    def jit_compile(self, ref: "MethodRef | str") -> MethodRecord:
        """Lower a method and move its entry to the compiled tier.

        An installed stub stays in the slot and the entry it saved moves
        instead. Compiling twice is a no-op.
        """
        record = self.registry.lookup(ref)
        if record.lowered_code is not None:
            return record
        record.lowered_code = lower_method(record)[0]
        if record.entry_point is _BRIDGE:
            record.entry_point = _COMPILED
        elif record.original_entry_point is _BRIDGE:
            record.original_entry_point = _COMPILED
            log.info("%s was compiled while traced; restores to the compiled tier",
                     record.method_ref.key)
        return record

    def interpret(self, thread: VMThread, record: MethodRecord, args: tuple):
        """Interpreter tier: the bytecode loop, one Python frame per call.

        It fires no event; ``_dispatch`` does that around it. An ``IndexError``
        out of the loop is turned into ``VMInternalError``.
        """
        self.interpreted_calls += 1
        code = record.code
        stack: list = []
        push = stack.append
        pop = stack.pop
        loc = [0] * record.n_locals if record.n_locals else None
        call = self.call_ref
        lo, hi, wrap = I64_MIN, I64_MAX, wrap_i64
        (O_PUSH, O_LARG, O_LLOC, O_SLOC, O_ADD, O_SUB, O_MUL, O_JZ, O_JMP,
         O_CALL, O_RET) = _OPCODES
        pc = 0
        try:
            while True:
                op, arg = code[pc]
                if op == O_LLOC:
                    push(loc[arg])
                    pc += 1
                elif op == O_SLOC:
                    loc[arg] = pop()
                    pc += 1
                elif op == O_PUSH:
                    push(arg)
                    pc += 1
                elif op == O_LARG:
                    push(args[arg])
                    pc += 1
                elif op == O_ADD:
                    r = stack[-2] + pop()
                    stack[-1] = r if lo <= r <= hi else wrap(r)
                    pc += 1
                elif op == O_MUL:
                    r = stack[-2] * pop()
                    stack[-1] = r if lo <= r <= hi else wrap(r)
                    pc += 1
                elif op == O_SUB:
                    r = stack[-2] - pop()
                    stack[-1] = r if lo <= r <= hi else wrap(r)
                    pc += 1
                elif op == O_JZ:
                    pc = pc + arg if pop() == 0 else pc + 1
                elif op == O_JMP:
                    pc += arg
                elif op == O_CALL:
                    n = arg.arity
                    if n:
                        cargs = tuple(stack[-n:])
                        del stack[-n:]
                    else:
                        cargs = ()
                    push(call(thread, arg, cargs))
                    pc += 1
                elif op == O_RET:
                    return pop()
                else:  # pragma: no cover - loader emits only known opcodes
                    raise VMInternalError(f"unknown opcode {op} at pc {pc}")
        except IndexError as exc:
            # The validator proves stack depths, so underflow here means a bug
            # in this VM, not in the program. Abort with diagnostics.
            raise VMInternalError(
                f"operand stack corruption in {record.method_ref.key} at pc {pc}: {exc}"
            ) from exc
