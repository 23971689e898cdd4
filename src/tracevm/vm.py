"""Virtual machine: threads, tiered dispatch and the interpreter loop.

Every call dispatches through the callee's entry-point slot, and only
``_dispatch`` pushes or pops ``thread.frames``. ``_dispatch`` is also the one
place that fires method entry and exit events, the hook the tracing layers build
on: every entry but ``CompiledDirect`` asks whether anyone listens and fires the
events around the body, which is the compiled body for the quick stub, so a
traced hot method does not fall back to the interpreter. Only ``jit_compile``
changes a tier: it moves the live entry, or the one a stub saved, to compiled
at once, and every compiled method lowers its own body on its first call.

The interpreter runs each call in one Python frame, over the quickened form
of the record's ``code``: ``quicken`` fuses each run of stored ops listed in
``_RUNS`` into one op whose arg holds the run's operands. The four-op
``loadlocal a; pushconst k | loadarg i; add | sub | mul; storelocal b``
becomes ``loc[b] = loc[a] OP k`` (or ``OP args[i]``), and ``loadlocal a; add;
storelocal b``, ``pushconst | loadarg; storelocal``, ``loadlocal | loadarg;
jz`` and ``loadlocal; ret`` fuse too. Each fused op lowers the opcodes of
fleet traffic; dropping any one raises them. Jumps stay relative, counted in
the quickened form, and a jump target inside a run ends the run. A body with
nothing to fuse, such as a late ``leaf`` of pure stack ops, is its own
quickened form. The form is built on a method's first interpretation, never
at parse time, kept in ``MethodRecord.quickened``, and shared through
``Program.quickened`` by every registry of the program. Both forms are exact
``(int_op, arg)`` tuples: CPython 3.11 specialises ``code[pc]``
(``BINARY_SUBSCR_TUPLE_INT``), ``op, arg = ...``
(``UNPACK_SEQUENCE_TWO_TUPLE``) and ``op == O_X`` only on exact tuples and
ints. The loop asks first whether an op is fused (79% of what fleet traffic
runs), and each branch tests its ops by their share of that traffic, with the
probe's three fused ops, ``Q_SUBK``, ``Q_ADDK`` and ``Q_MULK``, first. Arithmetic
calls ``core.wrap_i64`` only when a result leaves the signed 64-bit range;
the lowered code defers that check to where a value is observed. The
call edge ``call_ref`` takes the callee's key, which both tiers read off the
``call`` instruction, and resolves it with one dict get on the registry's
private records, then one on the program's shared ones, so a fresh VM builds
nothing for a method another VM of its program has called.
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


def _ensure_stack_headroom(max_depth: int) -> None:
    """Raise the recursion limit to fit ``max_depth`` nested VM calls.

    Each VM-level call costs a handful of Python frames. On CPython 3.11 a
    Python-to-Python call uses no C stack, so the OS stack limit is left as it is.
    """
    with _headroom_lock:
        need = max_depth * 6 + 2000
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)


(O_PUSH, O_LARG, O_LLOC, O_SLOC, O_ADD, O_SUB, O_MUL, O_JZ, O_JMP, O_CALL, O_RET) = _OPCODES

# The fused ops of the quickened form, numbered after the stored opcodes: the
# loop's one ``op > O_RET`` test tells the two kinds apart.
_FUSED = tuple(range(O_RET + 1, O_RET + 13))
(Q_ADDK, Q_SUBK, Q_MULK, Q_ADDA, Q_SUBA, Q_MULA, Q_ADDL, Q_SETK, Q_SETA, Q_JZL, Q_JZA,
 Q_RETL) = _FUSED
# Each fusible run of stored ops and the fused op that runs it. A fused op's
# arg is the run's operands in order, or its one operand alone.
_RUNS = {
    (O_LLOC, O_PUSH, O_ADD, O_SLOC): Q_ADDK,  # loc[b] = loc[a] + k
    (O_LLOC, O_PUSH, O_SUB, O_SLOC): Q_SUBK,
    (O_LLOC, O_PUSH, O_MUL, O_SLOC): Q_MULK,
    (O_LLOC, O_LARG, O_ADD, O_SLOC): Q_ADDA,  # loc[b] = loc[a] + args[i]
    (O_LLOC, O_LARG, O_SUB, O_SLOC): Q_SUBA,
    (O_LLOC, O_LARG, O_MUL, O_SLOC): Q_MULA,
    (O_LLOC, O_ADD, O_SLOC): Q_ADDL,          # loc[b] = pop() + loc[a]
    (O_PUSH, O_SLOC): Q_SETK,                 # loc[b] = k
    (O_LARG, O_SLOC): Q_SETA,                 # loc[b] = args[i]
    (O_LLOC, O_JZ): Q_JZL,                    # jump if loc[a] == 0
    (O_LARG, O_JZ): Q_JZA,                    # jump if args[i] == 0
    (O_LLOC, O_RET): Q_RETL,                  # return loc[a]
}
_HEADS = frozenset(run[:2] for run in _RUNS)
_JUMPS = (O_JZ, O_JMP, Q_JZL, Q_JZA)  # each one's target is its last operand


def quicken(code: tuple) -> tuple:
    """The body ``VM.interpret`` runs: ``code`` with its fusible runs fused.

    At each op the longest run in ``_RUNS`` wins, and a jump target inside a
    run ends it, so every target starts an op. Jumps stay relative, counted
    in the quickened form. A body with nothing to fuse is its own quickened
    form: ``code`` itself, not a copy.
    """
    ops = [op for op, _ in code]
    # A body with no adjacent pair that starts a run returns here: about 1 us,
    # not 8, for the six-op leaf that session_churn loads on every cycle.
    if _HEADS.isdisjoint(zip(ops, ops[1:])):
        return code
    targets = {pc + arg for pc, (op, arg) in enumerate(code) if op == O_JZ or op == O_JMP}
    out, at, pc = [], {}, 0  # ``at``: stored pc -> quickened pc, where an op starts
    while pc < len(code):
        at[pc] = len(out)
        for width in (4, 3, 2):
            fused = _RUNS.get(tuple(ops[pc:pc + width]))
            if fused is not None and targets.isdisjoint(range(pc + 1, pc + width)):
                break
        else:
            width, fused = 1, None
        if fused is None:  # a jump keeps its stored target until ``at`` is whole
            op, arg = code[pc]
            out.append((op, pc + arg) if op == O_JZ or op == O_JMP else code[pc])
        else:
            operands = [arg for _, arg in code[pc:pc + width] if arg is not None]
            if fused in _JUMPS:
                operands[-1] += pc + width - 1
            out.append((fused, operands[0] if len(operands) == 1 else tuple(operands)))
        pc += width
    if len(out) == len(code):
        return code
    for i, (op, arg) in enumerate(out):
        if op in _JUMPS:
            out[i] = (op, (*arg[:-1], at[arg[-1]] - i) if op > O_RET else at[arg] - i)
    return tuple(out)


def _lower_on_first_call(vm: VM, thread: VMThread, args: tuple):
    """A compiled method's ``lowered_code`` until its first call: lower, replace, run.

    ``_dispatch``, the one caller of ``lowered_code``, has pushed the frame that
    names the record, so the prestub holds nothing: a closure over the record
    would make a cycle. Racing first calls each lower a correct function, and
    the last store wins.
    """
    record = vm._records[thread.frames[-1].key]
    function = record.lowered_code = lower_method(record)[0]
    return function(vm, thread, args)


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

    Construction changes one process-wide limit through
    ``_ensure_stack_headroom``: every ``VM`` raises the recursion limit to fit
    its ``max_stack_depth``, and never lowers it again.
    """

    def __init__(self, registry: ClassRegistry, *, max_stack_depth: int = DEFAULT_MAX_STACK_DEPTH):
        if max_stack_depth < 1:
            raise ValueError("max_stack_depth must be positive")
        self.registry = registry
        self._records = registry._records  # the registry never replaces these dicts
        self._shared = registry._shared
        self.max_stack_depth = max_stack_depth
        self.instrumentation = Instrumentation(registry)
        self.interpreted_calls = 0
        self.compiled_calls = 0
        _ensure_stack_headroom(max_stack_depth)

    def new_thread(self, name: str = "main") -> VMThread:
        return VMThread(name)

    def invoke(self, thread: VMThread, target: "MethodRef | str", args=()):
        """Public entry: resolve, arity-check and dispatch a call.

        Names resolve as in ``ClassRegistry.lookup``, and both a key string
        and a ``MethodRef``'s key go the way of ``call_ref``. ``args`` becomes
        the call's one argument tuple, the same object when it is a tuple
        already, which every tier and listener receives.
        """
        key = target if isinstance(target, str) else target.key
        record = self._records.get(key) or self._shared.get(key) or self.registry.callee(target)
        if len(args) != record.arity:
            raise ArityMismatchError(
                f"{record.method_ref.key} takes {record.arity} args, got {len(args)}")
        return self._dispatch(thread, record, tuple(args))

    def call_ref(self, thread: VMThread, key: str, args: tuple):
        """Internal call edge used by bytecode and lowered code.

        Both tiers pass the callee's key and ``args`` as an exact tuple. A
        private record wins, then the program's shared one; a miss on both, a
        method's first call in the program or a missing method, goes to
        ``ClassRegistry.callee``, which builds the shared record or raises.
        """
        record = self._records.get(key) or self._shared.get(key) or self.registry.callee(key)
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
        """Move a method's entry to the compiled tier; its first call lowers it.

        The body waits behind the shared prestub ``_lower_on_first_call``, so
        nothing here walks or hashes ``code``. An installed stub stays in the
        slot and the entry it saved moves. Twice is a no-op.
        """
        record = self.registry.lookup(ref)
        if record.lowered_code is not None:
            return record
        record.lowered_code = _lower_on_first_call
        if record.entry_point is _BRIDGE:
            record.entry_point = _COMPILED
        elif record.original_entry_point is _BRIDGE:
            record.original_entry_point = _COMPILED
            log.info("%s was compiled while traced; restores to the compiled tier",
                     record.method_ref.key)
        return record

    def interpret(self, thread: VMThread, record: MethodRecord, args: tuple):
        """Interpreter tier: the bytecode loop over the quickened body, one Python frame per call.

        It fires no event; ``_dispatch`` does that around it. An ``IndexError``
        out of the loop is turned into ``VMInternalError``.
        """
        self.interpreted_calls += 1
        code = record.quickened or self._quicken(record)
        stack: list = []
        push = stack.append
        pop = stack.pop
        loc = [0] * record.n_locals if record.n_locals else None
        call = self.call_ref
        lo, hi, wrap = I64_MIN, I64_MAX, wrap_i64
        (O_PUSH, O_LARG, O_LLOC, O_SLOC, O_ADD, O_SUB, O_MUL, O_JZ, O_JMP,
         O_CALL, O_RET) = _OPCODES
        (Q_ADDK, Q_SUBK, Q_MULK, Q_ADDA, Q_SUBA, Q_MULA, Q_ADDL, Q_SETK, Q_SETA, Q_JZL,
         Q_JZA, Q_RETL) = _FUSED
        pc = 0
        try:
            while True:
                op, arg = code[pc]
                if op > O_RET:
                    if op == Q_SUBK:
                        a, k, b = arg
                        r = loc[a] - k
                        loc[b] = r if lo <= r <= hi else wrap(r)
                        pc += 1
                    elif op == Q_ADDK:
                        a, k, b = arg
                        r = loc[a] + k
                        loc[b] = r if lo <= r <= hi else wrap(r)
                        pc += 1
                    elif op == Q_MULK:
                        a, k, b = arg
                        r = loc[a] * k
                        loc[b] = r if lo <= r <= hi else wrap(r)
                        pc += 1
                    elif op == Q_JZL:
                        a, off = arg
                        pc = pc + off if loc[a] == 0 else pc + 1
                    elif op == Q_SETA:
                        i, b = arg
                        loc[b] = args[i]
                        pc += 1
                    elif op == Q_RETL:
                        return loc[arg]
                    elif op == Q_ADDA:
                        a, i, b = arg
                        r = loc[a] + args[i]
                        loc[b] = r if lo <= r <= hi else wrap(r)
                        pc += 1
                    elif op == Q_SUBA:
                        a, i, b = arg
                        r = loc[a] - args[i]
                        loc[b] = r if lo <= r <= hi else wrap(r)
                        pc += 1
                    elif op == Q_ADDL:
                        a, b = arg
                        r = pop() + loc[a]
                        loc[b] = r if lo <= r <= hi else wrap(r)
                        pc += 1
                    elif op == Q_MULA:
                        a, i, b = arg
                        r = loc[a] * args[i]
                        loc[b] = r if lo <= r <= hi else wrap(r)
                        pc += 1
                    elif op == Q_JZA:
                        i, off = arg
                        pc = pc + off if args[i] == 0 else pc + 1
                    elif op == Q_SETK:
                        k, b = arg
                        loc[b] = k
                        pc += 1
                    else:  # pragma: no cover - quicken emits only known opcodes
                        raise VMInternalError(f"unknown opcode {op} at pc {pc}")
                elif op == O_JMP:
                    pc += arg
                elif op == O_CALL:
                    n = arg.arity
                    if n:
                        cargs = tuple(stack[-n:])
                        del stack[-n:]
                    else:
                        cargs = ()
                    push(call(thread, arg.key, cargs))
                    pc += 1
                elif op == O_LARG:
                    push(args[arg])
                    pc += 1
                elif op == O_PUSH:
                    push(arg)
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
                elif op == O_RET:
                    return pop()
                elif op == O_LLOC:
                    push(loc[arg])
                    pc += 1
                elif op == O_SLOC:
                    loc[arg] = pop()
                    pc += 1
                elif op == O_JZ:
                    pc = pc + arg if pop() == 0 else pc + 1
                else:  # pragma: no cover - quicken emits only known opcodes
                    raise VMInternalError(f"unknown opcode {op} at pc {pc}")
        except IndexError as exc:
            # The validator proves stack depths, so underflow here means a bug
            # in this VM, not in the program. Abort with diagnostics.
            raise VMInternalError(
                f"operand stack corruption in {record.method_ref.key} at pc {pc}: {exc}"
            ) from exc

    def _quicken(self, record: MethodRecord) -> tuple:
        """Fill ``record.quickened`` on the record's first interpretation.

        A record built from its program's spec, with the spec's own ``code``,
        shares the program's table, so every registry of the program quickens
        a method once between them. A loaded record, or one built by hand,
        quickens its own body.
        """
        code = record.code
        key = record.method_ref.key
        spec = self.registry._specs.get(key)
        if spec is None or spec.code is not code:
            quick = quicken(code)
        else:
            table = self.registry._quickened
            quick = table.get(key)
            if quick is None:
                quick = table.setdefault(key, quicken(code))
        record.quickened = quick
        return quick
