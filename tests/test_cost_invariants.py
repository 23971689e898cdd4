"""The cost claims as exact counts of CPython opcodes.

Tracing a few methods should cost per traced call, nothing for the code
around them, and nothing once the session is rolled back. Wall time on a
shared machine is too noisy to show that exactly; the number of bytecodes a
call runs is not: it repeats across processes and hash seeds. Every assertion
here compares counts taken in the same run, so none pins the absolute numbers
of one CPython version.
"""

import gc
import sys
import weakref
from collections import Counter

from tracevm import (EntryPoint, EventSink, MethodRef, TargetSet, TraceAction, TraceEngine, VM,
                     load_program)


def opcode_split(fn, *args) -> Counter:
    """The opcodes ``fn(*args)`` runs in each Python function, keyed by its qualified name.

    Every frame it enters counts. The collector is off meanwhile: a collection
    would count the bytecode of whatever finalizers it runs, such as a dropped
    generator's ``close``.
    """
    counts = Counter()

    def on_opcode(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code.co_qualname] += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    previous = sys.gettrace()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return counts


def opcodes(fn, *args) -> int:
    """The number of opcodes ``fn(*args)`` runs, over every Python frame it enters."""
    return sum(opcode_split(fn, *args).values())


def _body(n_ops: int) -> str:
    ops = []
    for i in range(n_ops):
        ops += [f"    pushconst {i % 7 + 2}", "    mul" if i % 2 else "    add"]
    return "\n".join(["    loadarg 0", *ops, "    ret"])


SRC = f"""
class cost.C
  method short(int)
{_body(2)}
  method long(int)
{_body(120)}
  method bystander(int)
{_body(8)}
"""

SHORT, LONG, BYSTANDER = (MethodRef.parse(f"cost.C.{name}(int)")
                          for name in ("short", "long", "bystander"))


def compiled_vm():
    vm = VM(load_program(SRC))
    for ref in (SHORT, LONG, BYSTANDER):
        vm.jit_compile(ref)
    return vm, vm.new_thread()


def call_counts(vm, thread, refs) -> dict:
    """Opcodes per call of each ref, after a warm-up; checked to repeat."""
    counts = {}
    for ref in refs:
        for _ in range(3):
            vm.invoke(thread, ref, (5,))
        first = opcodes(vm.invoke, thread, ref, (5,))
        assert opcodes(vm.invoke, thread, ref, (5,)) == first
        counts[ref.key] = first
    return counts


def time_session(vm):
    engine = TraceEngine(vm, EventSink())
    engine.apply(TargetSet([(SHORT, (TraceAction.TIME_METHOD,)),
                            (LONG, (TraceAction.TIME_METHOD,))]))
    for ref in (SHORT, LONG):
        assert vm.registry.lookup(ref).entry_point is EntryPoint.INSTRUMENTATION_QUICK_STUB
    return engine


def test_untargeted_compiled_call_costs_nothing_while_a_session_is_up():
    vm, thread = compiled_vm()
    before = call_counts(vm, thread, [BYSTANDER])
    time_session(vm)
    assert call_counts(vm, thread, [BYSTANDER]) == before


def test_tracing_costs_per_call_not_per_instruction():
    vm, thread = compiled_vm()
    untraced = call_counts(vm, thread, [SHORT, LONG])
    engine = time_session(vm)
    traced = call_counts(vm, thread, [SHORT, LONG])
    added = {key: traced[key] - untraced[key] for key in traced}
    assert added[SHORT.key] > 0
    assert added[SHORT.key] == added[LONG.key]
    # the bodies differ by more than tracing adds, so a cost that grew with
    # the body would show
    assert untraced[LONG.key] - untraced[SHORT.key] > added[SHORT.key]
    assert len(engine.drain().events) == 2 * 5


def test_rollback_restores_the_untraced_count():
    vm, thread = compiled_vm()
    refs = [SHORT, LONG, BYSTANDER]
    before = call_counts(vm, thread, refs)
    engine = time_session(vm)
    traced = call_counts(vm, thread, refs)
    assert traced[SHORT.key] > before[SHORT.key]
    engine.rollback()
    assert call_counts(vm, thread, refs) == before


def _watch_at_rest(bring_up) -> list:
    """Weakrefs to a VM's registry, instrumentation and a compiled function,
    after an optional session was brought up, called through and rolled back."""
    vm, thread = compiled_vm()
    engine = TraceEngine(vm, EventSink())
    if bring_up is not None:
        bring_up(engine)
        vm.invoke(thread, SHORT, (5,))
        engine.rollback()
    return [weakref.ref(vm.registry), weakref.ref(vm.instrumentation),
            weakref.ref(vm.registry.lookup(SHORT).lowered_code)]


def test_nothing_at_rest_holds_a_reference_cycle():
    targets = TargetSet([(SHORT, (TraceAction.TIME_METHOD, TraceAction.CAPTURE_ARGS))])
    sessions = {"idle": None,
                "targeted": lambda engine: engine.apply(targets),
                "global": lambda engine: engine.apply_global(targets),
                "suppressed": TraceEngine.suppress_global_tracing}
    collecting = gc.isenabled()
    gc.disable()  # only reference counting may free them
    try:
        watched = {kind: _watch_at_rest(bring_up) for kind, bring_up in sessions.items()}
        alive = {kind: [ref() is not None for ref in refs] for kind, refs in watched.items()}
    finally:
        if collecting:
            gc.enable()
    # registry, instrumentation, compiled function: each freed once the last
    # reference to its VM is dropped
    assert alive == {kind: [False, False, False] for kind in sessions}


def scaled_program(n_methods: int):
    """``n_methods`` one-instruction methods, fifty to a class."""
    lines = []
    for i in range(n_methods):
        if i % 50 == 0:
            lines.append(f"class scale.C{i // 50}")
        lines += [f"  method m{i}(int)", "    loadarg 0", "    ret"]
    return load_program("\n".join(lines))


SIZES = (122, 1_002, 3_002)
FIVE = TargetSet([(MethodRef.parse(f"scale.C0.m{i}(int)"), (TraceAction.TIME_METHOD,))
                  for i in range(5)])


def test_targeted_bring_up_and_rollback_do_not_grow_with_the_program():
    applies, rollbacks = [], []
    for n in SIZES:
        engine = TraceEngine(VM(scaled_program(n)), EventSink())
        applies.append(opcodes(engine.apply, FIVE))
        rollbacks.append(opcodes(engine.rollback))
    # a walk over the registry would add at least one opcode per method
    assert max(applies) - min(applies) <= 16
    assert max(rollbacks) - min(rollbacks) <= 16


def test_targeted_bring_up_and_rollback_read_the_target_table_once():
    engine = TraceEngine(VM(scaled_program(SIZES[1])), EventSink())
    applied = opcode_split(engine.apply, FIVE)
    assert applied["TraceEngine._stub_loaded"] > 0  # the split sees the stub walk
    # without pending entries the given set is used as it is, and stub kinds
    # are tested by identity, not through Enum.__hash__
    assert applied["TargetSet.__init__"] == 0
    assert applied["Enum.__hash__"] == 0
    rolled_back = opcode_split(engine.rollback)
    assert rolled_back["Instrumentation.restore_entry_point_for_method"] > 0
    # each target's record is one registry get, with no membership test first
    assert rolled_back["ClassRegistry.__contains__"] == 0


def test_stock_walk_grows_at_least_linearly_with_the_program():
    counts = []
    for n in SIZES:
        engine = TraceEngine(VM(scaled_program(n)), EventSink())
        counts.append(opcodes(engine.apply_global, FIVE))
        engine.rollback()
    slopes = [(counts[i + 1] - counts[i]) / (SIZES[i + 1] - SIZES[i]) for i in range(2)]
    # each method costs the walk Python work to build and stub it, and a
    # larger program costs no less per method than a smaller one
    assert slopes[0] >= 10
    assert slopes[1] >= 0.95 * slopes[0]


def test_targeted_apply_counts_what_its_stub_walk_found():
    engine = TraceEngine(VM(scaled_program(SIZES[1])), EventSink())
    reports = []
    applied = opcode_split(lambda: reports.append(engine.apply(FIVE)))
    assert applied["TraceEngine._stub_loaded"] > 0
    # injected and pending come from the one walk that stubbed the targets,
    # not from a second pass over the target table
    assert [name for name in applied if name.startswith("TraceEngine._counts")] == []
    assert (reports[0].injected, reports[0].pending) == (5, 0)
