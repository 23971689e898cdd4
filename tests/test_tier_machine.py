"""Tier changes interleaved with trace sessions keep results and restore tiers.

A hypothesis state machine interleaves targeted bring-up (adaptive or not),
global bring-up, rollback, JIT compiles, a late class load that carries a
pending target, and invokes on a small program. Every result and every trace
event must equal the prediction of ``perfbench/refeval.py``, an evaluator
written apart from ``vm`` and ``jit``: a session's targets trace in both modes,
through any tier change, until rollback. After every rollback each loaded
method must enter through
its tier's entry with no saved original, so no method is left on a slower
tier than it would be on untraced.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, precondition, rule,
                                 run_state_machine_as_test)

from tracevm import (VM, CompilationState, EntryPoint, MethodRef, TargetSet, TraceAction,
                     TraceEngine, TracePhase, parse_program)
from tracevm import vm as vm_module
from tracevm.jit import lower_method

MAIN = parse_program("""
class app.Main
  method leaf(int)
    loadarg 0
    pushconst 3
    mul
    ret
  method loop(int)
    pushconst 3
    storelocal 0
    loadarg 0
    storelocal 1
    loadlocal 0
    jz +11
    loadlocal 1
    loadlocal 0
    call app.Main.leaf(int)
    add
    storelocal 1
    loadlocal 0
    pushconst 1
    sub
    storelocal 0
    jmp -11
    loadlocal 1
    ret
  method top(int)
    loadarg 0
    call app.Main.loop(int)
    loadarg 0
    call app.Main.leaf(int)
    sub
    ret
""")
LATE = parse_program("""
class late.Plugin
  method hook(int)
    loadarg 0
    call app.Main.top(int)
    pushconst 7
    add
    ret
  method twin(int)
    loadarg 0
    pushconst 3
    mul
    ret
""")
KEYS = MAIN.method_keys() + LATE.method_keys()

targets = st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(list(TraceAction))),
                   min_size=1, max_size=4)
i64 = st.integers(-(2**63), 2**63 - 1)


class TierMachine(RuleBasedStateMachine):
    """Subclassed by the test with ``oracle`` set to the ``refeval`` module."""

    oracle = None

    @initialize()
    def start(self):
        self.vm = VM(MAIN.instantiate())
        self.engine = TraceEngine(self.vm)
        self.thread = self.vm.new_thread()
        self.expected = self.oracle.RefEval(MAIN)
        self.traced: dict[str, set[int]] = {}  # the session's targets and their actions

    def idle(self):
        return self.engine.phase is TracePhase.IDLE

    def loaded(self):
        return [key for key in KEYS if key in self.vm.registry]

    def trace(self, chosen):
        for key, action in chosen:
            self.traced.setdefault(key, set()).add(int(action))

    @precondition(idle)
    @rule(chosen=targets, adaptive=st.booleans())
    def apply(self, chosen, adaptive):
        loaded, pending = [], []
        for key, action in chosen:
            (loaded if key in self.vm.registry else pending).append(
                (MethodRef.parse(key), (action,)))
        self.engine.apply(TargetSet(loaded), adaptive=adaptive, pending=pending)
        self.trace(chosen)

    @precondition(idle)
    @rule(chosen=targets)
    def apply_global(self, chosen):
        self.engine.apply_global(TargetSet((MethodRef.parse(k), (a,)) for k, a in chosen))
        self.trace(chosen)

    @rule()
    def rollback(self):
        self.engine.rollback()
        self.traced = {}
        for record in self.vm.registry.records():
            compiled = record.compilation_state is CompilationState.COMPILED
            tier_entry = EntryPoint.COMPILED_DIRECT if compiled else EntryPoint.INTERPRETER_BRIDGE
            assert record.entry_point is tier_entry, record
            assert record.original_entry_point is None, record

    @rule(data=st.data())
    def jit_compile(self, data):
        self.vm.jit_compile(data.draw(st.sampled_from(self.loaded())))

    @precondition(lambda self: LATE.method_keys()[0] not in self.vm.registry)
    @rule()
    def load_late(self):
        self.vm.registry.load(LATE)
        self.expected.add(LATE)

    @rule(data=st.data(), arg=i64)
    def invoke(self, data, arg):
        key = data.draw(st.sampled_from(self.loaded()))
        events = []
        assert self.vm.invoke(self.thread, key, (arg,)) == self.expected.run(
            key, [arg], self.traced, events)
        assert [self.oracle.normalise_event(e) for e in self.engine.drain().events] == events

    def teardown(self):
        self.rollback()


def test_tier_machine_matches_the_reference(refeval):
    class Machine(TierMachine):
        oracle = refeval

    run_state_machine_as_test(Machine, settings=settings(stateful_step_count=50))


def test_a_late_target_compiled_while_traced_lowers_on_first_compiled_call(monkeypatch):
    # session_churn's step 4: a late target, stubbed on arrival, compiled
    # while traced; its body equals app.Main.leaf's, compiled and called before
    vm = VM(MAIN.instantiate())
    leaf = vm.jit_compile("app.Main.leaf(int)")
    assert vm.invoke(vm.new_thread(), leaf.method_ref, (2,)) == 6
    engine = TraceEngine(vm)
    twin_ref = MethodRef.parse("late.Plugin.twin(int)")
    engine.apply(TargetSet([]), pending=[(twin_ref, (TraceAction.TIME_METHOD,))])
    vm.registry.load(LATE)
    twin = vm.registry.lookup(twin_ref)
    assert twin.code == leaf.code and twin.code is not leaf.code
    assert twin.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    lowered = []

    def counting(record):
        lowered.append(record.method_ref.key)
        return lower_method(record)

    monkeypatch.setattr(vm_module, "lower_method", counting)
    assert vm.jit_compile(twin_ref) is twin
    assert twin.compilation_state is CompilationState.COMPILED
    assert twin.entry_point is EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
    assert twin.original_entry_point is EntryPoint.COMPILED_DIRECT
    thread = vm.new_thread()
    # the interpreter stub runs the traced call, so nothing lowers yet
    assert vm.invoke(thread, twin_ref, (5,)) == 15
    assert [e.method_ref.key for e in engine.drain().events] == [twin_ref.key]
    assert lowered == []
    engine.rollback()
    assert twin.entry_point is EntryPoint.COMPILED_DIRECT
    assert twin.original_entry_point is None
    before = vm.compiled_calls
    assert vm.invoke(thread, twin_ref, (-4,)) == -12
    assert vm.compiled_calls == before + 1
    assert lowered == [twin_ref.key]
    assert twin.lowered_code.__name__ == "_lowered_late_Plugin_twin_int_"
