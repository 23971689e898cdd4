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
``_RUNS`` into one op whose arg holds the run's operands: ``loadlocal a;
add; storelocal b``, ``pushconst | loadarg; storelocal``, ``loadlocal |
loadarg; jz`` and ``loadlocal; ret``. The four-op ``loadlocal a; pushconst k
| loadarg i; add | sub | mul; storelocal b``, ``loc[b] = loc[a] OP k`` (or
``OP args[i]``), becomes a step of an accumulator chain, ``Q_CHAIN``: the
steps after it join its chain while each reads and writes the local ``b``
and no jump lands on it. The loop keeps the running value in a Python local
and writes ``loc[b]`` once, so a straight-line run of arithmetic on one
local pays one dispatch in all, not one per step. A counted loop, ``Q_JZL
c`` to the exit, a chain on a local ``a`` other than ``c``, ``loc[c] -= 1``
and a ``jmp`` back, becomes one ``Q_LOOP`` when no jump lands inside it: it
runs the chain ``loc[c] mod 2**64`` times, as the stored loop does, writes
``loc[a]`` once, sets ``loc[c]`` to 0 and jumps to the exit. A call site,
``(loadarg i | pushconst k) * arity; call M; loadlocal a; add; storelocal
b``, the one call shape ``gen_workload`` emits, becomes one ``Q_CALLADD``
whose arg is ``(key, take, consts, a, b)``: ``take(consts + args)`` builds
the callee's argument tuple in C, and the op stores ``call_ref(...) +
loc[a]`` in ``loc[b]``. The callee is still reached through ``call_ref`` and
``_dispatch``, so events, frames and results are those of the stored ops.
Each fused op but ``Q_ADDL``, which runs only at a call site that does
not fuse, lowers the opcodes of fleet traffic; dropping any one raises them.
Jumps stay relative, counted in the quickened form, and a jump target inside
a run ends the run. A body with nothing to fuse, such as a late ``leaf`` of
pure stack ops, is its own quickened form. The form is built on a method's
first interpretation, never at parse time, and kept in
``MethodRecord.quickened``: the program's shared record holds the one copy,
which every registry of the program takes, on a private record too. Both
forms are exact ``(int_op, arg)`` tuples: CPython 3.11 specialises
``code[pc]`` (``BINARY_SUBSCR_TUPLE_INT``), ``op, arg = ...``
(``UNPACK_SEQUENCE_TWO_TUPLE``) and ``op == O_X`` only on exact tuples and
ints. The loop reads the opcode names as module globals and asks first
whether an op is fused (every op fleet traffic runs); each branch, and a
loop's steps, test their ops by their share of that traffic, and a chain
keeps the step order the latency probe was measured with. The latency probe
runs only the first three fused branches, ``Q_CHAIN``, ``Q_SETA`` and
``Q_RETL``; ``Q_CALLADD``, the next most common, comes right after them, so
the probe's cost does not move with the call sites. Arithmetic calls
``core.wrap_i64`` only when a result leaves the signed 64-bit range; the
lowered code defers that check to where a value is observed. The call edge
``call_ref`` takes the callee's key, which both tiers read off the ``call``
instruction, and resolves it with one dict get on the registry's private
records, then one on the program's shared ones, so a fresh VM builds nothing
for a method another VM of its program has called.
"""

from __future__ import annotations

import logging
import sys
import threading
from operator import itemgetter

from .core import (
    _BRIDGE,
    _COMPILED,
    _MASK,
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
# loop's one ``op > O_RET`` test tells the two kinds apart. The six
# arithmetic ones, ``_STEPS``, run only as the steps of a ``Q_CHAIN`` or a
# ``Q_LOOP``.
_FUSED = tuple(range(O_RET + 1, O_RET + 16))
(Q_ADDK, Q_SUBK, Q_MULK, Q_ADDA, Q_SUBA, Q_MULA, Q_ADDL, Q_SETK, Q_SETA, Q_JZL, Q_JZA,
 Q_RETL, Q_CHAIN, Q_LOOP, Q_CALLADD) = _FUSED
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
_STEPS = frozenset((Q_ADDK, Q_SUBK, Q_MULK, Q_ADDA, Q_SUBA, Q_MULA))
_JUMPS = (O_JZ, O_JMP, Q_JZL, Q_JZA)  # each one's target is its last operand
_SITE_TAIL = [O_LLOC, O_ADD, O_SLOC]  # what follows the ``call`` of a fusible call site
# One getter per index tuple, so that two quickenings of one body compare equal:
# an ``itemgetter`` compares by identity. It holds one entry per operand layout
# the loaded programs' call sites use.
_TAKERS: dict[tuple, itemgetter] = {}


def _taker(idx: tuple) -> itemgetter:
    """The getter whose result on a tuple ``row`` is ``tuple(row[i] for i in idx)``.

    A run of consecutive indices, such as every site of arity 0 or 1, takes a
    slice, which is ``row`` itself when it spans all of it.
    """
    take = _TAKERS.get(idx)
    if take is None:
        start = idx[0] if idx else 0
        if idx == tuple(range(start, start + len(idx))):
            take = itemgetter(slice(start, start + len(idx)))
        else:
            take = itemgetter(*idx)
        take = _TAKERS.setdefault(idx, take)  # racing first quickenings share one getter
    return take


def _call_sites(code: tuple, ops: list) -> dict:
    """Stored pc of each fusible call site's first op -> (stored pc past it, its fused arg).

    A site is ``(loadarg i | pushconst k) * arity; call M; loadlocal a; add;
    storelocal b``, and its ``Q_CALLADD`` arg is ``(key, take, consts, a, b)``:
    ``consts`` holds the site's constants in order, an ``args[i]`` operand is
    at ``len(consts) + i`` of ``consts + args``, and ``take`` picks the
    callee's argument tuple out of that.
    """
    sites = {}
    for pc, (op, arg) in enumerate(code):
        if op == O_CALL and ops[pc + 1:pc + 4] == _SITE_TAIL:
            start = pc - arg.arity
            if start >= 0 and all(o == O_PUSH or o == O_LARG for o in ops[start:pc]):
                operands = code[start:pc]
                consts = tuple(k for o, k in operands if o == O_PUSH)
                nth = iter(range(len(consts)))
                idx = tuple(next(nth) if o == O_PUSH else len(consts) + i for o, i in operands)
                sites[start] = pc + 4, (arg.key, _taker(idx), consts, code[pc + 1][1],
                                        code[pc + 3][1])
    return sites


def quicken(code: tuple) -> tuple:
    """The body ``VM.interpret`` runs: ``code`` with its fusible runs fused.

    At each op the longest run in ``_RUNS`` wins, and a jump target inside a
    run ends it, so every target starts an op. Each run fused to one of
    ``_STEPS`` becomes a step of a ``Q_CHAIN`` op, ``(a, steps, b)``, whose
    ``steps`` hold each one's ``(fused op, k or i)``: it joins the chain just
    before it when it reads and writes that chain's ``b`` and is no jump
    target, and starts a chain of its own otherwise. A ``Q_JZL c`` followed
    by a chain ``(a, steps, a)`` with ``a != c``, the chain ``(c, ((Q_SUBK,
    1),), c)`` and an ``O_JMP`` back to it becomes ``Q_LOOP (c, a, steps,
    exit offset)`` when no jump lands on the three ops after it, which stay
    in place and never run. Jumps stay relative, counted in the quickened
    form. A call site ``(loadarg i | pushconst k) * arity; call M;
    loadlocal a; add; storelocal b`` that no jump enters past its first op
    becomes ``Q_CALLADD (key, take, consts, a, b)``; no run of ``_RUNS``
    can overlap a site, so a site is tried first. ``take`` is the process's
    one getter for the site's operand layout, so two quickenings of one
    body compare equal. A body with nothing to fuse is its own quickened
    form: ``code`` itself, not a copy.
    """
    ops = [op for op, _ in code]
    # A body with no adjacent pair that starts a run returns here: about 1 us,
    # not 8, for the six-op leaf that session_churn loads on every cycle. A
    # fusible call site holds ``loadlocal; add``, the head of Q_ADDL's run, so
    # no body with one returns here.
    if _HEADS.isdisjoint(zip(ops, ops[1:])):
        return code
    targets = {pc + arg for pc, (op, arg) in enumerate(code) if op == O_JZ or op == O_JMP}
    sites = _call_sites(code, ops)
    out, at, pc = [], {}, 0  # ``at``: stored pc -> quickened pc, where an op starts
    while pc < len(code):
        at[pc] = len(out)
        if pc in sites and targets.isdisjoint(range(pc + 1, sites[pc][0])):
            pc, arg = sites[pc]
            out.append((Q_CALLADD, arg))
            continue
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
            if fused in _STEPS:
                a, x, b = operands
                last, chain = out[-1] if out else (None, None)
                if last == Q_CHAIN and chain[2] == a == b and pc not in targets:
                    # the next step of a chain: no jump lands here, so ``at[pc]`` is never read
                    chain[1].append((fused, x))
                else:  # a list of steps until the chain is whole
                    out.append((Q_CHAIN, (a, [(fused, x)], b)))
            else:
                out.append((fused, operands[0] if len(operands) == 1 else tuple(operands)))
        pc += width
    if len(out) == len(code):
        return code
    for i, (op, arg) in enumerate(out):
        if op in _JUMPS:
            out[i] = (op, (*arg[:-1], at[arg[-1]] - i) if op > O_RET else at[arg] - i)
        elif op == Q_CHAIN:
            out[i] = (op, (arg[0], tuple(arg[1]), arg[2]))
    landed = {at[target] for target in targets}
    for i, (op, arg) in enumerate(out[:-3]):
        if op == Q_JZL:
            c, off = arg
            (body_op, body), decrement, back = out[i + 1:i + 4]
            if (body_op == Q_CHAIN and body[0] == body[2] != c
                    and decrement == (Q_CHAIN, (c, ((Q_SUBK, 1),), c)) and back == (O_JMP, -3)
                    and landed.isdisjoint((i + 1, i + 2, i + 3))):
                # the loop's three ops stay in place, dead, so no jump offset moves
                out[i] = (Q_LOOP, (c, body[0], body[1], off))
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
        if len(args) != record.method_ref.arity:
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
        slot and the entry it saved moves. Twice is a no-op. It holds the
        instrumentation lock, as stub install and restore do, so no stub lands
        between the tier test and the write.
        """
        record = self.registry.lookup(ref)
        with self.instrumentation._lock:
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
        pc = 0
        try:
            while True:
                op, arg = code[pc]
                if op > O_RET:
                    if op == Q_CHAIN:
                        a, steps, b = arg
                        r = loc[a]
                        for step, x in steps:
                            if step == Q_SUBK:
                                r -= x
                            elif step == Q_ADDK:
                                r += x
                            elif step == Q_ADDA:
                                r += args[x]
                            elif step == Q_MULK:
                                r *= x
                            elif step == Q_SUBA:
                                r -= args[x]
                            else:
                                r *= args[x]
                            if r < lo or r > hi:
                                r = wrap(r)
                        loc[b] = r
                        pc += 1
                    elif op == Q_SETA:
                        i, b = arg
                        loc[b] = args[i]
                        pc += 1
                    elif op == Q_RETL:
                        return loc[arg]
                    elif op == Q_CALLADD:
                        key, take, consts, a, b = arg
                        r = call(thread, key, take(consts + args)) + loc[a]
                        loc[b] = r if lo <= r <= hi else wrap(r)
                        pc += 1
                    elif op == Q_JZA:
                        i, off = arg
                        pc = pc + off if args[i] == 0 else pc + 1
                    elif op == Q_LOOP:
                        # the trips of the chain on ``loc[a]`` that the stored loop
                        # makes, counting ``loc[c]`` down by 1 and wrapping to 0
                        c, a, steps, off = arg
                        r = loc[a]
                        for _ in range(loc[c] & _MASK):
                            for step, x in steps:
                                if step == Q_ADDK:
                                    r += x
                                elif step == Q_ADDA:
                                    r += args[x]
                                elif step == Q_MULK:
                                    r *= x
                                elif step == Q_SUBK:
                                    r -= x
                                elif step == Q_MULA:
                                    r *= args[x]
                                else:
                                    r -= args[x]
                                if r < lo or r > hi:
                                    r = wrap(r)
                        loc[a] = r
                        loc[c] = 0
                        pc += off
                    elif op == Q_SETK:
                        k, b = arg
                        loc[b] = k
                        pc += 1
                    elif op == Q_ADDL:
                        a, b = arg
                        r = pop() + loc[a]
                        loc[b] = r if lo <= r <= hi else wrap(r)
                        pc += 1
                    elif op == Q_JZL:
                        a, off = arg
                        pc = pc + off if loc[a] == 0 else pc + 1
                    else:  # pragma: no cover - quicken emits only known opcodes
                        raise VMInternalError(f"unknown opcode {op} at pc {pc}")
                elif op == O_PUSH:
                    push(arg)
                    pc += 1
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
                elif op == O_JMP:
                    pc += arg
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

        A record with its program spec's own ``code`` takes the body on the
        program's shared record, quickened there by the first VM of the
        program to run the method (racing first runs store equal bodies). A
        loaded record, or one built by hand, quickens its own body.
        """
        code = record.code
        key = record.method_ref.key
        spec = self.registry._specs.get(key)
        if spec is None or spec.code is not code:
            quick = quicken(code)
        else:
            shared = self._shared.get(key) or self.registry.callee(key)
            quick = shared.quickened
            if quick is None:
                quick = shared.quickened = quicken(code)
        record.quickened = quick
        return quick
