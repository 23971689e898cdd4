"""The cost claims as exact counts of CPython opcodes and traced heap bytes.

Tracing a few methods should cost per traced call, nothing for the code
around them, and nothing once the session is rolled back. Wall time on a
shared machine is too noisy to show that exactly; the number of bytecodes a
call runs is not: it repeats across processes and hash seeds. Bringing a
program up should peak near what it keeps, not at a multiple of it. Every
assertion here compares counts taken in the same run, so none pins the
absolute numbers of one CPython version.
"""

import functools
import gc
import sys
import tracemalloc
import weakref
from collections import Counter

import pytest

from tracevm import (EntryPoint, EventSink, MethodRef, TargetSet, TraceAction, TraceEngine, VM,
                     gen_workload, load_program, parse_program)
from tracevm import vm as vm_module
from tracevm.jit import lower_method


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
    """A VM with the three methods compiled and called once, so each body is lowered."""
    vm = VM(load_program(SRC))
    thread = vm.new_thread()
    for ref in (SHORT, LONG, BYSTANDER):
        vm.jit_compile(ref)
        vm.invoke(thread, ref, (5,))
    return vm, thread


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


TWIN_SHORT, TWIN_LONG = (MethodRef.parse(f"cost.Twin.{name}(int)") for name in ("short", "long"))


def test_compiling_an_unseen_body_costs_the_same_for_any_length():
    vm = VM(load_program(SRC))
    splits = {ref.key: opcode_split(vm.jit_compile, ref) for ref in (SHORT, LONG)}
    for split in splits.values():
        assert split["VM.jit_compile"] > 0  # the split sees the compile
        assert split["lower_method.<locals>.emit_block"] == 0
    # the tier moves now and the body lowers on the first call: nothing walks it here
    assert sum(splits[SHORT.key].values()) == sum(splits[LONG.key].values())


def test_compiling_an_equal_body_again_costs_the_same_for_any_length():
    twins = f"""
class cost.Twin
  method short(int)
{_body(2)}
  method long(int)
{_body(120)}
"""
    vm, thread = compiled_vm()
    vm.registry.load(parse_program(twins))
    for ref in (TWIN_SHORT, TWIN_LONG):
        vm.registry.lookup(ref)  # build each record before the count
    splits = {ref.key: opcode_split(vm.jit_compile, ref) for ref in (TWIN_SHORT, TWIN_LONG)}
    for split in splits.values():
        assert split["VM.jit_compile"] > 0  # the split sees the compile
        assert split["lower_method.<locals>.emit_block"] == 0
    # a twin of a lowered body compiles like any unseen body: nothing walks it here
    assert sum(splits[TWIN_SHORT.key].values()) == sum(splits[TWIN_LONG.key].values())
    for twin, ref in ((TWIN_SHORT, SHORT), (TWIN_LONG, LONG)):
        assert vm.invoke(thread, twin, (9,)) == vm.invoke(thread, ref, (9,))


def call_split(fn, *args) -> Counter:
    """The calls ``fn(*args)`` makes of each Python function, keyed by its qualified name."""
    counts = Counter()

    def on_call(frame, event, arg):
        counts[frame.f_code.co_qualname] += 1

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return counts


@pytest.mark.parametrize("k", [1, 20])
def test_compiling_a_twin_reads_none_of_its_call_refs(k):
    body = "\n".join(["    loadarg 0", *["    call cost.K.leaf(int)"] * k, "    ret"])
    vm = VM(load_program(f"class cost.K\n  method leaf(int)\n    loadarg 0\n    ret\n"
                         f"  method f(int)\n{body}\n"))
    vm.jit_compile("cost.K.f(int)")
    assert vm.invoke(vm.new_thread(), "cost.K.f(int)", (9,)) == 9  # lowers f's body
    vm.registry.load(parse_program(f"class cost.Twin\n  method f(int)\n{body}\n"))
    twin = vm.registry.lookup("cost.Twin.f(int)")
    assert call_split(hash, twin.method_ref)["MethodRef.__hash__"] == 1  # the split sees a hash
    calls = call_split(vm.jit_compile, twin.method_ref)
    # no table is looked up: nothing hashes the body's call refs or walks the body
    assert calls["MethodRef.__hash__"] == 0
    assert calls["lower_method.<locals>.emit_block"] == 0
    assert vm.invoke(vm.new_thread(), twin.method_ref, (9,)) == 9


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
    # the prestub a compiled method holds until its first call is shared, and holds no VM
    prestub = vm_module._lower_on_first_call
    assert prestub.__closure__ is None and prestub.__defaults__ is None
    assert not [ref for ref in gc.get_referents(prestub) if isinstance(ref, VM)]


def scaled_source(n_methods: int) -> str:
    """``n_methods`` one-instruction methods, fifty to a class."""
    lines = []
    for i in range(n_methods):
        if i % 50 == 0:
            lines.append(f"class scale.C{i // 50}")
        lines += [f"  method m{i}(int)", "    loadarg 0", "    ret"]
    return "\n".join(lines)


def scaled_program(n_methods: int):
    return load_program(scaled_source(n_methods))


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


def load_count(n_methods: int, session=None) -> int:
    """Opcodes a late load of ``n_methods`` untargeted methods runs, with ``session`` up."""
    vm, _thread = compiled_vm()
    if session is not None:
        session(vm)
    return opcodes(vm.registry.load, parse_program(scaled_source(n_methods)))


def test_a_late_load_of_untargeted_methods_costs_the_session_a_constant():
    added = [load_count(n, time_session) - load_count(n) for n in (100, 1_000)]
    # the session's load hook runs, but picks the targets out of the load in
    # C: one Python test per loaded key would add at least 900 here
    assert added[0] > 0
    assert added[0] == added[1]


def test_targeted_apply_counts_what_its_stub_walk_found():
    engine = TraceEngine(VM(scaled_program(SIZES[1])), EventSink())
    reports = []
    applied = opcode_split(lambda: reports.append(engine.apply(FIVE)))
    assert applied["TraceEngine._stub_loaded"] > 0
    # injected and pending come from the one walk that stubbed the targets,
    # not from a second pass over the target table
    assert [name for name in applied if name.startswith("TraceEngine._counts")] == []
    assert (reports[0].injected, reports[0].pending) == (5, 0)


def heap_growth(fn, *args) -> tuple[int, int]:
    """Bytes of traced heap that ``fn(*args)`` peaks at and keeps, over what was there before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)  # noqa: F841 - held until the heap is read
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base, kept - base


def test_parsing_peaks_near_what_it_keeps():
    # about 2,000 methods; holding every line of the text at once peaks at
    # well over twice what the parse keeps
    peak, kept = heap_growth(parse_program, gen_workload(n_classes=200).source)
    assert 0 < peak <= 1.5 * kept


def test_generating_a_workload_peaks_near_what_it_keeps():
    # about 1,000 methods, a size that traces in well under a second; the
    # generator's own lines held through the parse peak at about 3x
    peak, kept = heap_growth(gen_workload, 100)
    assert 0 < peak <= 2 * kept


def test_compiling_keeps_little_more_than_the_functions():
    work = gen_workload(n_classes=100)

    def call_hot(vm):
        thread = vm.new_thread()
        for key in work.hot_keys:
            vm.invoke(thread, key, (1,) * vm.registry.lookup(key).arity)

    def touched_vm():
        # an interpreted call builds and quickens every record it reaches
        vm = VM(work.program.instantiate())
        call_hot(vm)
        return vm

    def compile_and_call(vm):
        for key in work.hot_keys:
            vm.jit_compile(key)
        call_hot(vm)  # each first call lowers its body

    # compile() interns each name once per process; a live first compile
    # keeps those strings out of both counts below
    compile_and_call(touched_vm())
    bare_vm, vm = touched_vm(), touched_vm()
    records = [bare_vm.registry.lookup(key) for key in work.hot_keys]
    _, bare = heap_growth(lambda: [lower_method(record)[0] for record in records])
    _, kept = heap_growth(compile_and_call, vm)
    # a compiled method keeps its function and nothing else: no source text,
    # no per-method namespace and no VM-wide table of bodies
    assert 0 < kept <= 1.1 * bare


def test_an_interpreted_probe_call_runs_at_most_ten_times_its_compiled_opcodes():
    work = gen_workload(n_classes=12)
    probe = work.latency_untraced
    interpreted, compiled = VM(work.program.instantiate()), VM(work.program.instantiate())
    compiled.jit_compile(probe)
    ratio = (call_counts(interpreted, interpreted.new_thread(), [probe])[probe.key]
             / call_counts(compiled, compiled.new_thread(), [probe])[probe.key])
    # one dispatch per stored instruction runs the probe at over 20x
    assert ratio <= 10, ratio


def _probe_shaped(n_steps: int) -> str:
    """``cost.Chain.f(int)``: the latency probe's shape, ``n_steps`` arithmetic runs on one local."""
    steps = []
    for i in range(n_steps):
        steps += ["loadlocal 0", f"pushconst {i % 9 + 3}", ("add", "mul", "sub")[i % 3],
                  "storelocal 0"]
    lines = ["loadarg 0", "storelocal 0", *steps, "loadlocal 0", "ret"]
    return "class cost.Chain\n  method f(int)\n" + "\n".join(f"    {line}" for line in lines)


def test_each_step_of_a_straight_line_chain_costs_the_interpreter_at_most_35_opcodes():
    chain = MethodRef.parse("cost.Chain.f(int)")
    short, long = 3, 93
    counts = []
    for n_steps in (short, long):
        vm = VM(load_program(_probe_shaped(n_steps)))
        counts.append(call_counts(vm, vm.new_thread(), [chain])[chain.key])
    per_step = (counts[1] - counts[0]) / (long - short)
    # a dispatch for each step, with its own local read and write, costs about 50
    assert per_step <= 35, (counts, per_step)


def _counted_loop(trips: int) -> str:
    """``cost.Loop.f(int)``: ``trips`` trips of ``loc[0] += 3``, the shape of a generated loop."""
    lines = ["loadarg 0", "storelocal 0", f"pushconst {trips}", "storelocal 1", "loadlocal 1",
             "jz +10", "loadlocal 0", "pushconst 3", "add", "storelocal 0", "loadlocal 1",
             "pushconst 1", "sub", "storelocal 1", "jmp -10", "loadlocal 0", "ret"]
    return "class cost.Loop\n  method f(int)\n" + "\n".join(f"    {line}" for line in lines)


def test_each_trip_of_a_counted_loop_costs_the_interpreter_at_most_40_opcodes():
    loop = MethodRef.parse("cost.Loop.f(int)")
    short, long = 2, 12
    counts = []
    for trips in (short, long):
        vm = VM(load_program(_counted_loop(trips)))
        assert vm.invoke(vm.new_thread(), loop, (5,)) == 5 + 3 * trips
        counts.append(call_counts(vm, vm.new_thread(), [loop])[loop.key])
    per_trip = (counts[1] - counts[0]) / (long - short)
    # four dispatches a trip (test, body, decrement, jump back) cost about 180
    assert per_trip <= 40, (counts, per_trip)


def _call_sites(arity: int, n_sites: int) -> str:
    """``cost.Site.f(int,int,int)``: ``n_sites`` call sites of ``cost.Site.g``, of ``arity``,
    each site's operands alternately a constant and an argument."""
    params = ",".join(["int"] * arity)
    operands = [f"loadarg {j}" if j % 2 else f"pushconst {j + 5}" for j in range(arity)]
    site = [*operands, f"call cost.Site.g({params})", "loadlocal 0", "add", "storelocal 0"]
    lines = ["loadarg 0", "storelocal 0", *site * n_sites, "loadlocal 0", "ret"]
    return "\n".join(["class cost.Site", f"  method g({params})", "    pushconst 1", "    ret",
                      "  method f(int,int,int)", *(f"    {line}" for line in lines)])


def test_a_fused_call_site_costs_its_caller_the_same_for_any_arity():
    caller = {}  # (arity, sites) -> opcodes of the caller's own interpreter frame
    for arity in range(4):
        for n_sites in (1, 2, 3):
            vm = VM(load_program(_call_sites(arity, n_sites)))
            vm.jit_compile(f"cost.Site.g({','.join(['int'] * arity)})")  # runs no VM.interpret
            thread = vm.new_thread()
            assert vm.invoke(thread, "cost.Site.f(int,int,int)", (5, 6, 7)) == 5 + n_sites
            split = opcode_split(vm.invoke, thread, "cost.Site.f(int,int,int)", (5, 6, 7))
            caller[arity, n_sites] = split["VM.interpret"]
    added = {caller[arity, n + 1] - caller[arity, n] for arity in range(4) for n in (1, 2)}
    # a dispatch for each operand would add about 35 per argument
    assert len({caller[arity, 1] for arity in range(4)}) == 1, caller
    assert len(added) == 1 and added.pop() > 0, caller


@functools.cache
def _fleet_traffic_opcodes() -> int:
    """Opcodes of 300 root calls of fleet traffic, once every record they reach is quickened.

    Both fleet-traffic guards read this one measurement; it prints the one
    ``COUNT fleet-traffic`` line.
    """
    work = gen_workload(n_classes=100, methods_per_class=10, seed=1234)
    calls = work.traffic(300, seed=5)
    vm = VM(work.program.instantiate())
    thread = vm.new_thread()

    def run():
        for key, args in calls:
            vm.invoke(thread, key, args)

    run()  # builds and quickens every record the traffic reaches
    count = opcodes(run)
    assert opcodes(run) == count
    print(f"COUNT fleet-traffic {count:,} opcodes for 300 interpreted root calls (<= 255,000)")
    return count


def test_interpreted_fleet_traffic_runs_at_most_300000_opcodes():
    count = _fleet_traffic_opcodes()
    # a dispatch for each op of a loop's every trip ran 339,973
    assert count <= 300_000, count


def test_interpreted_fleet_traffic_with_fused_call_sites_runs_at_most_255000_opcodes():
    count = _fleet_traffic_opcodes()
    # four or five dispatches for each of the traffic's 291 call sites ran 280,147
    assert count <= 255_000, count


def _call_chain(depth: int) -> str:
    """``cost.Deep.m0(int)``: a chain of ``depth`` methods, each but the last calling the
    next at a fused call site, ``loc[0] = m<i+1>(args[0]) + loc[0]``."""
    lines = ["class cost.Deep"]
    for i in range(depth - 1):
        lines += [f"  method m{i}(int)", "    pushconst 0", "    storelocal 0", "    loadarg 0",
                  f"    call cost.Deep.m{i + 1}(int)", "    loadlocal 0", "    add",
                  "    storelocal 0", "    loadlocal 0", "    ret"]
    lines += [f"  method m{depth - 1}(int)", "    loadarg 0", "    ret"]
    return "\n".join(lines)


def call_peak(fn, *args) -> int:
    """Bytes of traced heap that one ``fn(*args)`` peaks at, over what was there before.

    The collector is off, and a call after the last collection refills the free
    lists a collection empties, so the count shows what a call builds, not what
    the collection dropped.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        fn(*args)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        if collecting:
            gc.enable()
    return peak - base


def _call_heap_per_level() -> dict:
    """Transient heap bytes per level of a call chain on each tier; prints ``COUNT call-heap``."""
    short, long = 11, 21
    per_level = {}
    for tier in ("interpreted", "compiled"):
        peaks = []
        for depth in (short, long):
            vm = VM(load_program(_call_chain(depth)))
            if tier == "compiled":
                for i in range(depth):
                    vm.jit_compile(f"cost.Deep.m{i}(int)")
            thread = vm.new_thread()
            assert vm.invoke(thread, "cost.Deep.m0(int)", (5,)) == 5  # quickens or lowers each body
            peaks.append(call_peak(vm.invoke, thread, "cost.Deep.m0(int)", (5,)))
        per_level[tier] = (peaks[1] - peaks[0]) / (long - short)
    print(f"COUNT call-heap {per_level['interpreted']:.1f} B/level interpreted (<= 48), "
          f"{per_level['compiled']:.1f} B/level compiled (<= 24)")
    return per_level


def test_a_call_builds_no_object_per_frame_on_either_tier():
    per_level = _call_heap_per_level()
    assert per_level["interpreted"] > 0  # the frame stack's growth shows
    if sys.version_info[:2] == (3, 11):  # the figures are CPython 3.11's
        # a bound method built per call, such as ``call = self.call_ref``, is
        # 64 bytes: three in the interpreter's prologue ran 222 a level, one
        # in a lowered body 70
        assert per_level["interpreted"] <= 48, per_level
        assert per_level["compiled"] <= 24, per_level


CALLER = """
class cost.Call
  method leaf(int)
    loadarg 0
    storelocal 0
    loadlocal 0
    pushconst 3
    mul
    storelocal 0
    loadlocal 0
    ret
  method top(int)
    loadarg 0
    call cost.Call.leaf(int)
    loadarg 0
    call cost.Call.leaf(int)
    add
    ret
"""
CALL_TOP = MethodRef.parse("cost.Call.top(int)")


@pytest.mark.parametrize("target", [CALL_TOP, CALL_TOP.key], ids=["ref", "key"])
def test_a_fresh_registry_runs_a_method_the_program_ran_at_its_second_call_cost(target):
    program = parse_program(CALLER)
    seasoned = VM(program.instantiate())
    assert seasoned.invoke(seasoned.new_thread(), target, (5,)) == 30
    fresh = VM(program.instantiate())
    thread = fresh.new_thread()
    first, second = (opcodes(fresh.invoke, thread, target, (5,)) for _ in range(2))
    # both calls of each method run on the program's shared record, built and
    # quickened already: no lookup, no record to build, no body to quicken
    assert first - second <= 0, (first, second)


def test_a_fresh_registry_runs_a_method_the_program_ran_privately_without_quickening_it(
        monkeypatch):
    program = parse_program(CALLER)

    def stubbed():
        """A VM of ``program`` with ``CALL_TOP`` on the interpreter stub: a private record."""
        vm = VM(program.instantiate())
        assert vm.instrumentation.install_stubs_for_method(
            vm.registry.get(CALL_TOP.key), EntryPoint.INSTRUMENTATION_INTERPRETER_STUB)
        return vm

    seasoned = stubbed()
    assert seasoned.invoke(seasoned.new_thread(), CALL_TOP, (5,)) == 30
    quickens = []
    quicken = vm_module.quicken
    monkeypatch.setattr(vm_module, "quicken", lambda code: quickens.append(code) or quicken(code))
    fresh = stubbed()
    thread = fresh.new_thread()
    first, second = (opcodes(fresh.invoke, thread, CALL_TOP, (5,)) for _ in range(2))
    # the private record takes the body the program's shared record holds
    assert quickens == []
    # the one-time price of reading it there: 45 opcodes on CPython 3.11
    assert first - second <= 60, (first, second)
