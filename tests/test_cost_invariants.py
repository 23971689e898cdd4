"""The cost claims as exact counts of CPython opcodes.

Tracing a few methods should cost per traced call, nothing for the code
around them, and nothing once the session is rolled back. Wall time on a
shared machine is too noisy to show that exactly; the number of bytecodes a
call runs is not: it repeats across processes and hash seeds. Every assertion
here compares counts taken in the same run, so none pins the absolute numbers
of one CPython version.
"""

import sys

from tracevm import (EntryPoint, EventSink, MethodRef, TargetSet, TraceAction, TraceEngine, VM,
                     load_program)


def opcodes(fn, *args) -> int:
    """The number of opcodes ``fn(*args)`` runs, over every Python frame it enters."""
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


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
