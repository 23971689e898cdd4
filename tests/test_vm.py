import itertools
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tracevm
from tracevm import (
    ArityMismatchError,
    EntryPoint,
    EventKind,
    ListenerRegistration,
    MethodNotFoundError,
    MethodRef,
    Opcode,
    ProgramParseError,
    StackDepthError,
    TargetSet,
    TraceAction,
    TraceEngine,
    VM,
    VMInternalError,
    gen_workload,
    load_program,
)
from tracevm import vm as vm_module
from tracevm.core import _OPCODE_TABLE, I64_MAX, I64_MIN, MethodRecord, wrap_i64
from tracevm.vm import (_FUSED, _RUNS, _STEPS, Q_ADDK, Q_CALLADD, Q_CHAIN, Q_LOOP, Q_MULA,
                        quicken)

COUNTDOWN = """
class r.R
  method down(int)
    loadarg 0
    jz +6
    loadarg 0
    pushconst 1
    sub
    call r.R.down(int)
    ret
    pushconst 0
    ret
"""


def test_invoke_errors(fib_source):
    vm = VM(load_program(fib_source))
    thread = vm.new_thread()
    with pytest.raises(MethodNotFoundError):
        vm.invoke(thread, "demo.Math.nope()", ())
    with pytest.raises(ArityMismatchError):
        vm.invoke(thread, "demo.Math.fib(int)", (1, 2))


@pytest.mark.parametrize("compiled", [False, True], ids=["interpreted", "compiled"])
def test_call_edge_to_an_unloaded_method(compiled):
    from tracevm import parse_program

    vm = VM(load_program("class a.A\n  method f()\n    call b.B.g()\n    ret"))
    if compiled:
        vm.jit_compile("a.A.f()")
    thread = vm.new_thread()
    with pytest.raises(MethodNotFoundError, match=r"b\.B\.g\(\)"):
        vm.invoke(thread, "a.A.f()", ())
    assert thread.frames == []
    # a class loaded later is found by the same call site
    vm.registry.load(parse_program("class b.B\n  method g()\n    pushconst 7\n    ret"))
    assert vm.invoke(thread, "a.A.f()", ()) == 7


def test_invoke_by_non_canonical_key_parses_on_miss(fib_source):
    vm = VM(load_program(fib_source))
    thread = vm.new_thread()
    assert vm.invoke(thread, "demo.Math.fib(int)", (10,)) == 55
    assert vm.invoke(thread, "  demo.Math.fib( int ) ", (10,)) == 55
    vm2 = VM(load_program("class a.A\n  method f()\n    pushconst 1\n    ret"))
    assert vm2.invoke(vm2.new_thread(), " a.A.f( ) ", ()) == 1
    for bad in ("demo.Math.fib", "fib(int)", "demo.Math.fib(in t)", "demo.Math.9fib(int)"):
        with pytest.raises(ProgramParseError):
            vm.invoke(thread, bad, (1,))


def test_invoke_jit_compile_and_lookup_resolve_names_alike():
    vm = VM(load_program("class a.A\n  method f(int,int)\n    loadarg 0\n    ret"))
    thread = vm.new_thread()
    record = vm.registry.lookup("a.A.f(int,int)")
    assert vm.registry.lookup("a.A.f( int , int )") is record
    assert vm.jit_compile(" a.A.f( int , int ) ") is record
    assert record.entry_point is EntryPoint.COMPILED_DIRECT
    assert vm.invoke(thread, "a.A.f( int , int )", (4, 5)) == 4
    resolvers = (vm.registry.lookup, vm.jit_compile,
                 lambda name: vm.invoke(thread, name, (4, 5)))
    for resolve in resolvers:
        for bad in ("a.A.f", "f(int,int)", "a.A.f(in t,int)", "a.A.9f(int,int)"):
            with pytest.raises(ProgramParseError):
                resolve(bad)
        for missing in ("a.A.g(int,int)", "a.A.f( int )", "b.B.f(int,int)"):
            with pytest.raises(MethodNotFoundError):
                resolve(missing)
    assert thread.frames == []


def test_locals_zero_initialized():
    vm = VM(load_program("class a.A\n  method f()\n    loadlocal 5\n    ret"))
    assert vm.invoke(vm.new_thread(), "a.A.f()", ()) == 0


def test_jz_only_on_zero():
    src = """
class a.A
  method f(int)
    loadarg 0
    jz +3
    pushconst 10
    ret
    pushconst 20
    ret
"""
    vm = VM(load_program(src))
    thread = vm.new_thread()
    assert vm.invoke(thread, "a.A.f(int)", (0,)) == 20
    assert vm.invoke(thread, "a.A.f(int)", (1,)) == 10
    assert vm.invoke(thread, "a.A.f(int)", (-1,)) == 10


def test_depth_limit_enforced():
    vm = VM(load_program(COUNTDOWN), max_stack_depth=50)
    thread = vm.new_thread()
    assert vm.invoke(thread, "r.R.down(int)", (49,)) == 0
    with pytest.raises(StackDepthError):
        vm.invoke(thread, "r.R.down(int)", (50,))
    # the failed call must not leak frames
    assert thread.frames == []


def test_default_depth_limit_supports_deep_chains():
    vm = VM(load_program(COUNTDOWN))
    assert vm.max_stack_depth == 10_000
    thread = vm.new_thread()
    assert vm.invoke(thread, "r.R.down(int)", (9_999,)) == 0
    with pytest.raises(StackDepthError):
        vm.invoke(thread, "r.R.down(int)", (10_000,))
    assert thread.frames == []


def test_deep_chain_also_works_compiled():
    vm = VM(load_program(COUNTDOWN))
    vm.jit_compile("r.R.down(int)")
    assert vm.invoke(vm.new_thread(), "r.R.down(int)", (9_999,)) == 0


def _on_a_thread(fn):
    """``fn()`` run on a fresh ``threading.Thread``: its result, or its exception re-raised."""
    box = {}

    def body():
        try:
            box["result"] = fn()
        except BaseException as exc:
            box["error"] = exc

    worker = threading.Thread(target=body)
    worker.start()
    worker.join()
    if "error" in box:
        raise box["error"]
    return box["result"]


@pytest.mark.parametrize("compiled", [False, True], ids=["interpreted", "compiled"])
def test_deep_chain_on_a_thread_under_a_targeted_session(compiled):
    vm = VM(load_program(COUNTDOWN))
    if compiled:
        vm.jit_compile("r.R.down(int)")
    engine = TraceEngine(vm)
    engine.apply(TargetSet([(MethodRef.parse("r.R.down(int)"), (TraceAction.TIME_METHOD,))]))
    thread = vm.new_thread("deep")
    assert _on_a_thread(lambda: vm.invoke(thread, "r.R.down(int)", (9_999,))) == 0
    assert len(engine.drain().events) == 10_000
    with pytest.raises(StackDepthError):
        _on_a_thread(lambda: vm.invoke(thread, "r.R.down(int)", (10_000,)))
    assert thread.frames == []
    engine.rollback()


_RLIMIT_PROBE = """
import resource
from tracevm import VM, load_program

# Start with the soft limit below the hard one, as a login shell does, even if
# the process that spawned this one raised its own.
hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
if hard == resource.RLIM_INFINITY or hard > 8 << 20:
    resource.setrlimit(resource.RLIMIT_STACK, (8 << 20, hard))
before = resource.getrlimit(resource.RLIMIT_STACK)
VM(load_program("class a.A\\n  method f()\\n    pushconst 1\\n    ret"))
after = resource.getrlimit(resource.RLIMIT_STACK)
print(before == after, before, after)
"""


def test_building_a_vm_leaves_the_stack_rlimit_alone():
    src = str(Path(tracevm.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _RLIMIT_PROBE], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.startswith("True "), out.stdout


def test_thread_frames_outermost_first():
    src = """
class s.S
  method inner()
    pushconst 1
    ret
  method outer()
    call s.S.inner()
    ret
"""
    vm = VM(load_program(src))
    seen = []

    from tracevm import EventKind, ListenerRegistration

    def listener(thread, ref, kind, args, value, abrupt):
        if ref.method_name == "inner":
            seen.append(list(thread.frames))

    vm.instrumentation.add_listener(ListenerRegistration(
        "t", frozenset({EventKind.METHOD_ENTERED}), listener))
    vm.invoke(vm.new_thread(), "s.S.outer()", ())
    inner, outer = MethodRef.parse("s.S.inner()"), MethodRef.parse("s.S.outer()")
    [frames] = seen
    assert frames == [outer, inner]
    assert all(type(f) is MethodRef for f in frames)


def test_tier_counters(fib_source):
    vm = VM(load_program(fib_source))
    thread = vm.new_thread()
    vm.invoke(thread, "demo.Math.fib(int)", (5,))
    assert vm.compiled_calls == 0
    interp_n = vm.interpreted_calls
    assert interp_n > 0
    vm.jit_compile("demo.Math.fib(int)")
    vm.invoke(thread, "demo.Math.fib(int)", (5,))
    assert vm.interpreted_calls == interp_n
    assert vm.compiled_calls == interp_n
    assert len(vm.registry) == 1


def test_corrupt_bytecode_aborts_with_internal_error():
    vm = VM(load_program("class a.A\n  method f()\n    pushconst 1\n    ret"))
    # Bypass the loader: underflowing bytecode must abort, not wrap around.
    broken = MethodRecord(MethodRef("a.A", "g", ()),
                          ((Opcode.ADD.value, None), (Opcode.RETURN.value, None)),
                          0, (0, None))
    vm.registry._records["a.A.g()"] = broken
    with pytest.raises(VMInternalError) as info:
        vm.invoke(vm.new_thread(), "a.A.g()", ())
    assert "a.A.g()" in str(info.value)


def test_corrupt_bytecode_fires_one_abrupt_exit():
    vm = VM(load_program("class a.A\n  method f()\n    pushconst 1\n    ret"))
    g = MethodRef("a.A", "g", ())
    vm.registry._records[g.key] = MethodRecord(
        g, ((Opcode.ADD.value, None), (Opcode.RETURN.value, None)), 0, (0, None))
    seen = []

    def listener(thread, ref, kind, args, value, abrupt):
        seen.append((ref.key, kind, value, abrupt))

    vm.instrumentation.add_listener(ListenerRegistration(
        "t", frozenset({EventKind.METHOD_ENTERED, EventKind.METHOD_EXITED}), listener))
    thread = vm.new_thread()
    with pytest.raises(VMInternalError, match="a.A.g()") as info:
        vm.invoke(thread, g, ())
    assert isinstance(info.value.__cause__, IndexError)
    assert seen == [(g.key, EventKind.METHOD_ENTERED, None, False),
                    (g.key, EventKind.METHOD_EXITED, None, True)]
    assert thread.frames == []


TWO_TIER = """
class t.T
  method leaf(int)
    loadarg 0
    pushconst 1
    add
    ret
  method mid(int)
    loadarg 0
    call t.T.leaf(int)
    loadarg 0
    call t.T.leaf(int)
    add
    ret
  method top(int)
    loadarg 0
    call t.T.mid(int)
    loadarg 0
    call t.T.leaf(int)
    add
    ret
"""


def test_tier_counters_exact_on_a_two_tier_program():
    # top and leaf are interpreted, mid is compiled: one top call runs top and
    # leaf x3 interpreted and mid once compiled.
    vm = VM(load_program(TWO_TIER))
    vm.jit_compile("t.T.mid(int)")
    thread = vm.new_thread()
    for n in (1, 2, 3):
        assert vm.invoke(thread, "t.T.top(int)", (n,)) == 3 * n + 3
    assert (vm.interpreted_calls, vm.compiled_calls) == (12, 3)
    assert vm.instrumentation.events_dispatched == 0

    # With no listener, the quick stub on mid dispatches no event either.
    vm.instrumentation.install_stubs_for_method(
        vm.registry.lookup("t.T.mid(int)"), EntryPoint.INSTRUMENTATION_QUICK_STUB)
    for n in (1, 2, 3):
        assert vm.invoke(thread, "t.T.top(int)", (n,)) == 3 * n + 3
    assert vm.instrumentation.events_dispatched == 0

    # A listener makes each interpreted call dispatch an entry and an exit;
    # the quick stub on mid adds a pair per mid call.
    vm.instrumentation.add_listener(ListenerRegistration(
        "t", frozenset({EventKind.METHOD_ENTERED, EventKind.METHOD_EXITED}),
        lambda *event: None))
    for n in (1, 2, 3):
        assert vm.invoke(thread, "t.T.top(int)", (n,)) == 3 * n + 3
    assert (vm.interpreted_calls, vm.compiled_calls) == (36, 9)
    assert vm.instrumentation.events_dispatched == 3 * (2 * 4 + 2)
    assert thread.frames == []


def test_string_constants_flow_as_intern_ids():
    src = 'class a.A\n  method f()\n    pushconst "x@y.zz"\n    ret'
    vm = VM(load_program(src))
    value = vm.invoke(vm.new_thread(), "a.A.f()", ())
    assert isinstance(value, int)
    assert vm.registry.value_to_payload(value) == "x@y.zz"


def test_vm_rejects_bad_depth_limit(fib_source):
    with pytest.raises(ValueError):
        VM(load_program(fib_source), max_stack_depth=0)


# The quickened form. ``_run_method`` builds ``f(int,int,int)``: arg 0 seeds
# local 0, arg 1 is the run's ``loadarg`` operand, and when arg 2 is 0 a jump
# enters the run at its op ``j`` instead of at its start.
K = 2**62 + 3
EDGES = (2**63 - 1, -(2**63), 2**62, -(2**62) + 1, 2**63 - 2, -1, 0)  # sample_args' extremes
_EFFECT = {int(op): row for op, row in _OPCODE_TABLE.items()}
RUN_IDS = ["-".join(_EFFECT[op][0] for op in run) for run in _RUNS]


def _run_method(run: tuple, j: int) -> str:
    before, depth, low = [], 0, 0
    for op in run:
        pops, pushes = _EFFECT[op][2:]
        before.append(depth)
        low = min(low, depth - pops)
        depth += pushes - pops
    start, extra = -low, before[j]  # the run's own start depth; what the jump path adds
    body = ["loadarg 0", "pushconst 0", "add", "storelocal 0",
            *["loadarg 1"] * (start + extra), "loadarg 2", "pushconst 0", "add"]
    p = len(body) + 1 + extra  # the run's first op
    body += [f"jz {p + j - len(body):+d}", *["storelocal 1"] * extra]
    t = p + len(run) + 3  # the tail that a jz in the run jumps to
    operand = {"loadlocal": " 0", "pushconst": f" {K}", "loadarg": " 1", "storelocal": " 0"}
    for i, op in enumerate(run):
        name = _EFFECT[op][0]
        body.append(name + (f" {t - p - i:+d}" if name == "jz" else operand.get(name, "")))
    # returns local 0 as it is: the jump keeps this loadlocal and ret apart
    body += ["loadlocal 0", "jmp +1", "ret", "pushconst 77", "ret"]
    return "class q.Q\n  method f(int,int,int)\n" + "\n".join(f"    {line}" for line in body)


def _three_ways(src: str, refeval, arg_sets) -> list:
    """``q.Q.f`` over ``arg_sets``, interpreted; checked against compiled and the reference."""
    vm_i, vm_c = VM(load_program(src)), VM(load_program(src))
    vm_c.jit_compile("q.Q.f(int,int,int)")
    ref = refeval.RefEval(tracevm.parse_program(src))
    ti, tc = vm_i.new_thread(), vm_c.new_thread()
    results = []
    for args in arg_sets:
        got = vm_i.invoke(ti, "q.Q.f(int,int,int)", args)
        assert got == vm_c.invoke(tc, "q.Q.f(int,int,int)", args) == ref.run(
            "q.Q.f(int,int,int)", args), (args, got)
        results.append(got)
    return results


Q_KEY = "q.Q.f(int,int,int)"


def _quickened(src: str) -> tuple:
    return quicken(load_program(src).lookup(Q_KEY).code)


def _fused_ops(src: str) -> list:
    """The ops of ``q.Q.f``'s quickened form, each chain's step ops in place of the chain."""
    return [step for op, arg in _quickened(src)
            for step in ([step for step, _ in arg[1]] if op == Q_CHAIN else [op])]


@pytest.mark.parametrize("run", _RUNS, ids=RUN_IDS)
def test_a_jump_into_a_fusible_run_ends_the_run(run, refeval):
    for j in range(len(run)):
        src = _run_method(run, j)
        # a jump to the run's first op leaves it whole; one to a later op splits it
        assert (_RUNS[run] in _fused_ops(src)) == (j == 0), j
        _three_ways(src, refeval, [(x, y, c) for x, y in [(5, 3), (0, -7), (EDGES[0], 2)]
                                   for c in (0, 1)])


ARITH_RUNS = [run for run in _RUNS if {Opcode.ADD, Opcode.SUB, Opcode.MUL} & set(run)]


@pytest.mark.parametrize("run", ARITH_RUNS,
                         ids=[RUN_IDS[list(_RUNS).index(run)] for run in ARITH_RUNS])
def test_every_fused_op_wraps_at_the_64_bit_edges(run, refeval):
    src = _run_method(run, 0)
    assert _RUNS[run] in _fused_ops(src)
    arg_sets = [(x, y, 1) for x, y in itertools.product(EDGES, repeat=2)]
    results = _three_ways(src, refeval, arg_sets)
    assert all(I64_MIN <= value <= I64_MAX for value in results)
    # the unbounded result leaves the range for some edge pair, so the wrap runs
    op = next(op for op in run if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL))
    exact = {Opcode.ADD: int.__add__, Opcode.SUB: int.__sub__, Opcode.MUL: int.__mul__}[op]
    assert any(not I64_MIN <= exact(x, K if Opcode.PUSH_CONST in run else y) <= I64_MAX
               for x, y, _ in arg_sets)


def test_every_fused_op_appears_in_the_fleet_canary_program():
    # a fused op that no body of fleet_canary's program quickens to never runs there
    program = gen_workload(n_classes=100, methods_per_class=10, seed=1234).program
    seen = set()
    for spec in program.specs.values():
        for op, arg in quicken(spec.code):
            steps = arg[1] if op == Q_CHAIN else arg[2] if op == Q_LOOP else ()
            seen.update([op, *(step for step, _ in steps)])
    assert set(_FUSED) - seen == set()


# Accumulator chains. Each fused arithmetic run is a step of a ``Q_CHAIN`` op,
# ``(a, steps, b)``. The runs after it join its chain while each reads and
# writes the chain's local ``b`` and no jump lands on it, so a straight-line
# run of arithmetic on one local reads and writes a local once in all.
def _q(lines) -> str:
    return "class q.Q\n  method f(int,int,int)\n" + "\n".join(f"    {line}" for line in lines)


def _step(op: str, operand: str, a: int = 0, b: int = 0) -> list:
    """The stored run ``loc[b] = loc[a] OP operand``; ``operand`` is a pushconst or loadarg."""
    return [f"loadlocal {a}", operand, op, f"storelocal {b}"]


def _chains(src: str, n_steps: int) -> list:
    """``(a, steps, b)`` of each chain in ``q.Q.f``'s quickened form, with the step count.

    Checks that the form keeps all ``n_steps`` steps of the source, chained or not.
    """
    chains = [arg for op, arg in _quickened(src) if op == Q_CHAIN]
    assert sum(len(steps) for _, steps, _ in chains) == n_steps
    return [(a, len(steps), b) for a, steps, b in chains]


CHAIN_STEPS = [("add", "pushconst 3"), ("mul", "loadarg 1"), ("sub", "pushconst 7"),
               ("mul", f"pushconst {K}"), ("add", "loadarg 0")]
CHAIN_ARGS = [(x, y, c) for x, y in [(5, 3), (0, -7), (EDGES[0], 2), (EDGES[1], -1)]
              for c in (0, 1)]


@pytest.mark.parametrize("j", range(len(CHAIN_STEPS) + 1))
def test_a_jump_into_a_chain_splits_it(j, refeval):
    # the jz lands on step j: 0 is the chain's first step, len(CHAIN_STEPS) the op after it
    body = ["loadarg 0", "storelocal 0", "loadarg 2", f"jz {1 + 4 * j:+d}"]
    for op, operand in CHAIN_STEPS:
        body += _step(op, operand)
    src = _q([*body, "loadlocal 0", "ret"])
    n = len(CHAIN_STEPS)
    # each side of the landing spot holding a step is a chain of its own
    assert [steps for _, steps, _ in _chains(src, n)] == [part for part in (j, n - j) if part]
    _three_ways(src, refeval, CHAIN_ARGS)


def test_a_chain_may_first_read_a_local_it_does_not_write(refeval):
    body = ["loadarg 0", "storelocal 1", *_step("add", "pushconst 5", a=1),
            *_step("mul", "loadarg 1"), *_step("sub", "pushconst 9")]
    # local 1 keeps arg 0: the chain writes only local 0
    src = _q([*body, "loadlocal 1", "loadlocal 0", "sub", "ret"])
    assert _chains(src, 3) == [(1, 3, 0)]
    results = _three_ways(src, refeval, CHAIN_ARGS)
    assert results == [wrap_i64(x - ((x + 5) * y - 9)) for x, y, _ in CHAIN_ARGS]


@pytest.mark.parametrize("switch, chains", [
    # reads local 0, the chain's local, but writes local 1: a new chain on local 1 starts
    ((0, 1), [(0, 2, 0), (0, 3, 1)]),
    # reads local 1 and writes local 0: a new chain on local 0 starts
    ((1, 0), [(0, 2, 0), (1, 3, 0)]),
], ids=["writes-another", "reads-another"])
def test_a_step_that_switches_locals_ends_the_chain(switch, chains, refeval):
    a, b = switch
    body = ["loadarg 0", "storelocal 0", "loadarg 1", "storelocal 1",
            *_step("add", "pushconst 3"), *_step("mul", "loadarg 2"),
            *_step("sub", "loadarg 1", a=a, b=b),
            *_step("mul", "pushconst 5", a=b, b=b), *_step("add", "loadarg 0", a=b, b=b)]
    src = _q([*body, "loadlocal 0", "loadlocal 1", "sub", "ret"])
    assert _chains(src, 5) == chains
    _three_ways(src, refeval, CHAIN_ARGS)


def test_a_chain_wraps_out_of_range_and_back_at_every_edge(refeval):
    # x + y - y is x again and -K + K undoes itself, however far a step leaves the range
    body = ["loadarg 0", "storelocal 0", *_step("add", "loadarg 1"), *_step("sub", "loadarg 1"),
            *_step("mul", f"pushconst {K}"), *_step("sub", f"pushconst {K}"),
            *_step("add", f"pushconst {K}")]
    src = _q([*body, "loadlocal 0", "ret"])
    assert _chains(src, 5) == [(0, 5, 0)]
    arg_sets = [(x, y, 1) for x, y in itertools.product(EDGES, repeat=2)]
    assert _three_ways(src, refeval, arg_sets) == [wrap_i64(x * K) for x, _, _ in arg_sets]
    # the first step leaves the range for some pairs, so the wrap runs mid-chain
    assert any(not I64_MIN <= x + y <= I64_MAX for x, y, _ in arg_sets)


def test_a_chain_runs_every_step_kind_with_loadarg_operands(refeval):
    body = ["loadarg 0", "storelocal 0", *_step("add", "loadarg 1"), *_step("sub", "loadarg 2"),
            *_step("mul", "loadarg 1"), *_step("add", "pushconst 11"),
            *_step("sub", "pushconst -4"), *_step("mul", "pushconst 3"),
            *_step("mul", "loadarg 0")]
    src = _q([*body, "loadlocal 0", "ret"])
    assert _chains(src, 7) == [(0, 7, 0)]
    assert set(_fused_ops(src)) >= _STEPS
    _three_ways(src, refeval, [(x, y, c) for x, y, c in itertools.product(EDGES[::2], repeat=3)])


_I64_ARG = st.one_of(st.sampled_from(EDGES), st.integers(I64_MIN, I64_MAX))
_CHAIN_STEP = st.tuples(
    st.sampled_from([0, 0, 0, 1]), st.sampled_from(["add", "sub", "mul"]),
    st.one_of(st.builds("loadarg {}".format, st.integers(0, 2)),
              st.builds("pushconst {}".format, _I64_ARG)),
    st.sampled_from([0, 0, 0, 1]))


def test_random_straight_line_chains_run_alike_three_ways(refeval):
    VM(load_program(COUNTDOWN))  # raises the recursion limit before hypothesis holds it

    @given(steps=st.lists(_CHAIN_STEP, min_size=1, max_size=12),
           args=st.tuples(_I64_ARG, _I64_ARG, _I64_ARG), result=st.sampled_from([0, 1]))
    def check(steps, args, result):
        body = ["loadarg 0", "storelocal 0", "loadarg 1", "storelocal 1"]
        for a, op, operand, b in steps:
            body += _step(op, operand, a=a, b=b)
        # a local returned as it is: no later op wraps a step's value
        src = _q([*body, f"loadlocal {result}", "ret"])
        _chains(src, len(steps))
        _three_ways(src, refeval, [args])

    check()


# Counted loops. ``loadlocal c; jz exit``, a chain on a local ``a`` other than
# ``c``, ``loc[c] -= 1`` and a ``jmp`` back fuse to one ``Q_LOOP`` op when no
# jump lands inside the loop: it runs the chain ``loc[c] mod 2**64`` times,
# exactly as many trips as the stored loop makes, and leaves ``loc[c]`` at 0.
# A loop's exit: 77 unless the loop left its counter, local 1, at 0, then
# local 0 as it is, so no later op wraps a value the loop left out of range.
_EXIT = ["loadlocal 1", "jz +3", "pushconst 77", "ret", "loadlocal 0", "ret"]


def _loop(count: str, steps, *, enter_at: int | None = None) -> str:
    """``q.Q.f``: local 0 = arg 0, local 1 = ``count``, the loop over ``steps``, ``_EXIT``.

    ``steps`` are ``(op, operand)`` pairs on local 0. With ``enter_at``, a
    ``jz`` taken when arg 2 is 0 jumps to that op of the loop's six: its
    head's ``loadlocal`` or ``jz``, body, decrement, ``jmp`` or exit. A jump
    to the ``jz`` carries the counter, which it pops.
    """
    body = [line for op, operand in steps for line in _step(op, operand)]
    n = len(body)
    lines = ["loadarg 0", "storelocal 0", count, "storelocal 1"]
    if enter_at is not None:
        carry = ["loadlocal 1"] if enter_at == 1 else []
        offset = (0, 1, 2, 2 + n, 6 + n, 7 + n)[enter_at] + 1 + len(carry)
        lines += [*carry, "loadarg 2", f"jz {offset:+d}", *["storelocal 1"] * len(carry)]
    lines += ["loadlocal 1", f"jz {n + 6:+d}", *body,
              *_step("sub", "pushconst 1", a=1, b=1), f"jmp {-(n + 6):+d}"]
    return _q([*lines, *_EXIT])


def _loops(src: str) -> list:
    """``(c, a, steps)`` of each ``Q_LOOP`` in ``q.Q.f``'s quickened form."""
    return [arg[:3] for op, arg in _quickened(src) if op == Q_LOOP]


def _trips(steps, x: int, y: int, z: int, n: int) -> int:
    """Python's own run of ``n`` trips of ``steps`` on ``x``, wrapped at each step."""
    apply, args = {"add": int.__add__, "sub": int.__sub__, "mul": int.__mul__}, (x, y, z)
    for _ in range(n):
        for op, operand in steps:
            name, value = operand.split()
            x = wrap_i64(apply[op](x, args[int(value)] if name == "loadarg" else int(value)))
    return x


LOOP_STEPS = [("add", "pushconst 3"), ("mul", "loadarg 1")]


@pytest.mark.parametrize("count", ["pushconst 0", "pushconst 1", "pushconst 7", "loadarg 2"])
def test_a_counted_loop_runs_its_count_in_one_op_three_ways(count, refeval):
    src = _loop(count, LOOP_STEPS)
    assert _loops(src) == [(1, 0, ((Q_ADDK, 3), (Q_MULA, 1)))]
    arg_sets = [(x, y, c) for x, y in [(5, 3), (0, -7), (EDGES[0], 2)] for c in (0, 1, 4)]
    results = _three_ways(src, refeval, arg_sets)
    trips = [int(count.split()[1]) if count.startswith("push") else c for _, _, c in arg_sets]
    assert results == [_trips(LOOP_STEPS, *args, n) for args, n in zip(arg_sets, trips)]


def test_a_counted_loop_wraps_at_every_edge(refeval):
    steps = [("add", "loadarg 1"), ("mul", f"pushconst {K}"), ("sub", "loadarg 0")]
    src = _loop("pushconst 3", steps)
    assert len(_loops(src)) == 1
    arg_sets = [(x, y, 1) for x, y in itertools.product(EDGES, repeat=2)]
    results = _three_ways(src, refeval, arg_sets)
    assert results == [_trips(steps, *args, 3) for args in arg_sets]
    # the first step leaves the range for some pairs, so the wrap runs inside the loop
    assert any(not I64_MIN <= x + y <= I64_MAX for x, y, _ in arg_sets)


@pytest.mark.parametrize("count", [-1, I64_MIN, 5])
def test_a_counted_loop_takes_its_count_mod_2_64(count, monkeypatch):
    trips = []

    def first_two(*bounds):  # the loop's count is the one ``range`` of one argument
        if len(bounds) == 1:
            trips.append(bounds[0])
            return range(min(bounds[0], 2))
        return range(*bounds)

    src = _loop(f"pushconst {count}", [("add", "pushconst 3")])
    assert len(_loops(src)) == 1
    monkeypatch.setattr(vm_module, "range", first_two, raising=False)
    vm = VM(load_program(src))
    assert vm.invoke(vm.new_thread(), Q_KEY, (10, 0, 1)) == 16
    # as many trips as the stored loop makes before ``loc[1]`` counts down to 0
    assert trips == [count % 2**64]


@pytest.mark.parametrize("enter_at, fused", [(0, True), (1, False), (2, False), (3, False),
                                             (4, False), (5, True)],
                         ids=["head", "jz", "body", "decrement", "jmp", "exit"])
def test_a_jump_into_a_counted_loop_keeps_its_stored_ops(enter_at, fused, refeval):
    src = _loop("pushconst 3", LOOP_STEPS, enter_at=enter_at)
    assert bool(_loops(src)) == fused
    # arg 2 == 0 takes the jump into the loop, so each stored op runs as stored
    _three_ways(src, refeval, [(x, y, c) for x, y in [(5, 3), (EDGES[1], -1)] for c in (0, 1)])


_DOWN_1 = _step("sub", "pushconst 1", a=1, b=1)


@pytest.mark.parametrize("body, decrement", [
    # the body counts down too: its chain and the decrement are one chain on local 1
    (_DOWN_1, _DOWN_1),
    # the body sets the counter to 1 from local 0: no trip after the first
    ([*_step("mul", "pushconst 0", a=0, b=1), *_step("add", "pushconst 1", a=1, b=1)],
     _DOWN_1),
    # the body's chain reads local 1 and writes local 0
    (_step("add", "loadarg 1", a=1, b=0), _DOWN_1),
    # the counter steps down by 2
    (_step("add", "loadarg 1"), _step("sub", "pushconst 2", a=1, b=1)),
], ids=["counts-down", "resets-counter", "reads-counter", "steps-by-2"])
def test_a_loop_of_another_shape_keeps_its_stored_ops(body, decrement, refeval):
    lines = ["loadarg 0", "storelocal 0", "pushconst 4", "storelocal 1", "loadlocal 1",
             f"jz {len(body) + 6:+d}", *body, *decrement, f"jmp {-(len(body) + 6):+d}",
             *_EXIT]
    src = _q(lines)
    assert not _loops(src)
    _three_ways(src, refeval, [(5, 3, 1), (EDGES[0], EDGES[1], 0)])


def test_random_counted_loops_run_alike_three_ways(refeval):
    VM(load_program(COUNTDOWN))  # raises the recursion limit before hypothesis holds it
    step = st.tuples(st.sampled_from(["add", "sub", "mul"]),
                     st.one_of(st.builds("loadarg {}".format, st.integers(0, 2)),
                               st.builds("pushconst {}".format, _I64_ARG)))

    @given(steps=st.lists(step, min_size=1, max_size=6),
           count=st.one_of(st.builds("pushconst {}".format, st.integers(0, 6)),
                           st.just("loadarg 2")),
           args=st.tuples(_I64_ARG, _I64_ARG, st.integers(0, 6)))
    def check(steps, count, args):
        src = _loop(count, steps)
        assert len(_loops(src)) == 1
        _three_ways(src, refeval, [args])

    check()


# Call sites. ``(loadarg i | pushconst k) * arity; call M; loadlocal a; add;
# storelocal b`` fuses to one ``Q_CALLADD`` op when no jump lands inside it:
# it builds the callee's argument tuple, calls through ``call_ref`` and stores
# the result plus ``loc[a]`` in ``loc[b]``. Each callee reads its arguments
# in an order that shows a swap.
_CALLEES = {
    0: ["pushconst 7"],
    1: ["loadarg 0"],
    2: ["loadarg 0", "pushconst 2", "mul", "loadarg 1", "sub"],
    3: ["loadarg 0", "loadarg 1", "sub", "loadarg 2", "pushconst 3", "mul", "add"],
}


def _callee(arity: int) -> str:
    return f"q.Q.g{arity}({','.join(['int'] * arity)})"


def _operands(kind: str, arity: int) -> list:
    """The site's operand ops: every constant, every argument (out of order) or both."""
    const = [f"pushconst {K + j}" for j in range(arity)]
    arg = [f"loadarg {(2 - j) % 3}" for j in range(arity)]
    return {"const": const, "arg": arg,
            "mixed": [(arg if j % 2 else const)[j] for j in range(arity)]}[kind]


def _site(operands: list, arity: int, a: int = 0, b: int = 0) -> list:
    return [*operands, f"call {_callee(arity)}", f"loadlocal {a}", "add", f"storelocal {b}"]


def _caller(lines: list) -> str:
    """``q.Q.f``: ``loc[0] = args[0]``, ``lines``, return ``loc[0]``; then ``g0`` to ``g3``."""
    methods = [_q(["loadarg 0", "storelocal 0", *lines, "loadlocal 0", "ret"])]
    for arity, body in _CALLEES.items():
        methods.append(f"  method {_callee(arity).removeprefix('q.Q.')}")
        methods += [f"    {line}" for line in [*body, "ret"]]
    return "\n".join(methods)


SITE_ARGS = [(5, 3, -2), (0, -7, 1), (EDGES[0], EDGES[1], 4), (EDGES[1], 2, EDGES[0])]


@pytest.mark.parametrize("kind", ["const", "arg", "mixed"])
@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_a_call_site_fuses_to_one_op_three_ways(arity, kind, refeval):
    # a value pushed before the site's own operands stays on the stack below them
    lines = ["pushconst 11", *_site(_operands(kind, arity), arity), "storelocal 1",
             *_site(_operands(kind, arity), arity, a=1, b=0)]
    src = _caller(lines)
    assert _fused_ops(src).count(Q_CALLADD) == 2 and Opcode.CALL not in _fused_ops(src)
    _three_ways(src, refeval, SITE_ARGS)


@pytest.mark.parametrize("kind", ["const", "arg", "mixed"])
def test_two_quickenings_of_a_call_site_compare_equal(kind):
    src = _caller([*_site(_operands(kind, 3), 3), *_site(_operands(kind, 1), 1)])
    first, second = _quickened(src), _quickened(src)
    # racing first runs and the shared-record tests compare bodies with ``==``
    assert first == second and first is not second
    assert [op for op, _ in first].count(Q_CALLADD) == 2


@pytest.mark.parametrize("j", range(7), ids=["operand-0", "operand-1", "call", "loadlocal",
                                             "add", "storelocal", "after"])
def test_a_jump_into_a_call_site_splits_it(j, refeval):
    ops = _site(_operands("mixed", 2), 2)
    depth = [0, 1, 2, 1, 2, 1, 0]  # the stack depth before each op of the site, and after it
    # when arg 2 is 0, a jz enters the site at its op ``j`` with the stack
    # depth that op expects, made of copies of arg 1
    lines = [*["loadarg 1"] * depth[j], "loadarg 2", f"jz {depth[j] + 1 + j:+d}",
             *["storelocal 1"] * depth[j], *ops]
    src = _caller(lines)
    # a jump to the site's first op, or past its last, leaves it whole
    assert (Q_CALLADD in _fused_ops(src)) == (j in (0, 6)), j
    _three_ways(src, refeval, [(x, y, c) for x, y in [(5, 3), (EDGES[0], -1)] for c in (0, 1)])


def test_a_fused_call_site_wraps_at_the_64_bit_edges(refeval):
    src = _caller(_site(["loadarg 1"], 1))  # loc[0] = g1(args[1]) + args[0]
    assert Q_CALLADD in _fused_ops(src)
    arg_sets = [(x, y, 1) for x, y in itertools.product(EDGES, repeat=2)]
    results = _three_ways(src, refeval, arg_sets)
    assert results == [wrap_i64(x + y) for x, y, _ in arg_sets]
    assert any(not I64_MIN <= x + y <= I64_MAX for x, y, _ in arg_sets)


@pytest.mark.parametrize("tail", [
    ["storelocal 0"],
    ["loadlocal 0", "sub", "storelocal 0"],
    ["loadlocal 0", "add", "loadlocal 1", "add", "storelocal 0"],
    ["loadlocal 0", "add", "ret"],
], ids=["store", "sub", "add-twice", "add-ret"])
def test_a_call_of_another_shape_stays_unfused(tail, refeval):
    src = _caller(["loadarg 1", "storelocal 1", "loadarg 2", f"call {_callee(1)}", *tail])
    assert Q_CALLADD not in _fused_ops(src) and Opcode.CALL in _fused_ops(src)
    _three_ways(src, refeval, SITE_ARGS)


def test_a_body_whose_only_fusible_shape_is_a_call_site_fuses_it(refeval):
    # no pair of adjacent ops starts a run: the early exit must see ``call; loadlocal``
    lines = ["loadarg 0", f"call {_callee(1)}", "loadlocal 0", "add", "storelocal 0",
             "pushconst 0", "ret"]
    src = "\n".join([_q(lines), "  method g1(int)", "    loadarg 0", "    ret"])
    assert [op for op, _ in _quickened(src)] == [Q_CALLADD, Opcode.PUSH_CONST, Opcode.RETURN]
    assert _three_ways(src, refeval, SITE_ARGS) == [0] * len(SITE_ARGS)


def test_a_call_whose_operand_is_no_constant_or_argument_stays_unfused(refeval):
    src = _caller(["loadlocal 0", f"call {_callee(1)}", "loadlocal 0", "add", "storelocal 0"])
    assert Q_CALLADD not in _fused_ops(src) and Opcode.CALL in _fused_ops(src)
    _three_ways(src, refeval, SITE_ARGS)


def _late(op: str) -> str:
    """``late.L.f(int)``, whose body fuses to three ops: ``arg 0 OP 5``."""
    lines = ["loadarg 0", "storelocal 0", "loadlocal 0", "pushconst 5", op, "storelocal 0",
             "loadlocal 0", "ret"]
    return "class late.L\n  method f(int)\n" + "\n".join(f"    {line}" for line in lines)


def test_two_registries_each_run_their_own_body_under_one_late_key():
    program = tracevm.parse_program(COUNTDOWN)
    vms = [VM(program.instantiate()) for _ in range(2)]
    for vm, op in zip(vms, ("add", "mul")):
        vm.registry.load(tracevm.parse_program(_late(op)))
    threads = [vm.new_thread() for vm in vms]
    for _ in range(2):
        assert [vm.invoke(t, "late.L.f(int)", (3,)) for vm, t in zip(vms, threads)] == [8, 15]
    # a loaded record quickens its own body; the shared records are the program's own methods
    assert "late.L.f(int)" not in program.shared


def test_registries_of_one_program_quicken_a_method_once_between_them(monkeypatch):
    seen = []

    def counting(code):
        seen.append(code)
        return quicken(code)

    monkeypatch.setattr(vm_module, "quicken", counting)
    program = tracevm.parse_program(_late("sub"))
    for _ in range(3):
        vm = VM(program.instantiate())
        for _ in range(2):
            assert vm.invoke(vm.new_thread(), "late.L.f(int)", (3,)) == -2
    private = vm.registry.lookup("late.L.f(int)")
    assert vm.invoke(vm.new_thread(), "late.L.f(int)", (3,)) == -2
    assert seen == [program.specs["late.L.f(int)"].code]
    assert private.quickened is program.shared["late.L.f(int)"].quickened


@pytest.mark.parametrize("body, value", [
    # the shape of the late class that session_churn loads each cycle
    (("loadarg 0", "pushconst 4", "mul", "pushconst 11", "add", "ret"), 31),
    # starts like a fusible run at its loadlocal, but no run is whole
    (("loadarg 0", "loadlocal 0", "pushconst 4", "add", "mul", "ret"), 20),
], ids=["late-leaf", "no-whole-run"])
def test_a_body_with_nothing_to_fuse_is_its_own_quickened_form(body, value):
    late = "class app.Late1\n  method leaf(int)\n" + "\n".join(f"    {line}" for line in body)
    vm = VM(load_program(COUNTDOWN))
    vm.registry.load(tracevm.parse_program(late))
    assert vm.invoke(vm.new_thread(), "app.Late1.leaf(int)", (5,)) == value
    record = vm.registry.lookup("app.Late1.leaf(int)")
    assert record.quickened is record.code and quicken(record.code) is record.code


@pytest.mark.parametrize("shared_vm", [True, False], ids=["one-vm", "two-registries"])
def test_threads_that_first_interpret_a_method_at_once_both_get_it_right(monkeypatch, shared_vm):
    program = tracevm.parse_program(_late("mul"))
    vms = [VM(program.instantiate())] * 2 if shared_vm else [
        VM(program.instantiate()) for _ in range(2)]
    inside = threading.Barrier(2, timeout=10)

    def meeting(code):
        inside.wait()  # both threads are quickening the method at this point
        return quicken(code)

    monkeypatch.setattr(vm_module, "quicken", meeting)
    results = [None, None]

    def first_call(i):
        results[i] = vms[i].invoke(vms[i].new_thread(), "late.L.f(int)", (i + 2,))

    workers = [threading.Thread(target=first_call, args=(i,)) for i in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
    assert not any(worker.is_alive() for worker in workers)
    assert results == [10, 15]
    shared = program.shared["late.L.f(int)"]  # both threads ran on it
    assert shared.quickened == quicken(shared.code)


def _count_quickens(monkeypatch) -> list:
    """Patch ``vm.quicken`` to append each body it quickens to the list returned."""
    seen = []
    monkeypatch.setattr(vm_module, "quicken", lambda code: seen.append(code) or quicken(code))
    return seen


def test_a_loaded_record_quickens_its_own_body_and_adds_no_shared_record(monkeypatch):
    seen = _count_quickens(monkeypatch)
    program = tracevm.parse_program(COUNTDOWN)
    late = tracevm.parse_program(_late("add"))
    for _ in range(2):
        vm = VM(program.instantiate())
        vm.registry.load(late)
        for _ in range(2):
            assert vm.invoke(vm.new_thread(), "late.L.f(int)", (3,)) == 8
    # once per registry: each one's loaded record holds its own body
    assert seen == [late.specs["late.L.f(int)"].code] * 2
    assert program.shared == {} and late.shared == {}


def test_a_hand_built_record_with_other_code_quickens_its_own_body():
    key = "late.L.f(int)"
    program = tracevm.parse_program(_late("add"))
    other = tracevm.parse_program(_late("mul")).specs[key]
    vm, bystander = VM(program.instantiate()), VM(program.instantiate())
    for _ in range(2):  # before the program has quickened the method, then after
        vm.registry._records[key] = record = MethodRecord(*other[:4])
        assert vm.invoke(vm.new_thread(), key, (3,)) == 15
        assert record.quickened == quicken(other.code)
        assert bystander.invoke(bystander.new_thread(), key, (3,)) == 8
    assert program.shared[key].quickened == quicken(program.specs[key].code)


def test_a_method_first_interpreted_privately_leaves_its_body_on_the_shared_record(
        monkeypatch):
    seen = _count_quickens(monkeypatch)
    key = "late.L.f(int)"
    program = tracevm.parse_program(_late("sub"))
    vm = VM(program.instantiate())
    private = vm.registry.get(key)
    assert vm.invoke(vm.new_thread(), key, (3,)) == -2
    assert program.shared[key].quickened is private.quickened == quicken(private.code)
    fresh, other = VM(program.instantiate()), VM(program.instantiate())
    other.registry.get(key)
    for each in (fresh, other):  # on the shared record, then on a private one
        assert each.invoke(each.new_thread(), key, (3,)) == -2
    assert seen == [private.code]


# Copy on write. Every registry of a program calls an untouched method through
# the program's one shared record; whatever writes a method's state goes
# through the registry and gets a private record, so the shared one stays
# pristine for every other VM.
SHARED = """
class s.S
  method leaf(int)
    loadarg 0
    storelocal 0
    loadlocal 0
    pushconst 1
    add
    storelocal 0
    loadlocal 0
    ret
  method top(int)
    loadarg 0
    call s.S.leaf(int)
    loadarg 0
    call s.S.leaf(int)
    mul
    ret
"""
LEAF, TOP = "s.S.leaf(int)", "s.S.top(int)"
LATE = "class late.L\n  method f(int)\n    loadarg 0\n    call s.S.top(int)\n    ret"
TIMED = (TraceAction.TIME_METHOD,)


def _top(n):
    return (n + 1) * (n + 1)


def _assert_pristine(record):
    assert record.entry_point is EntryPoint.INTERPRETER_BRIDGE
    assert record.original_entry_point is None and record.lowered_code is None


def _compile_and_call(vm, thread):
    vm.jit_compile(TOP)
    vm.jit_compile(LEAF)
    assert vm.invoke(thread, TOP, (4,)) == _top(4)


def _targeted(vm, thread):
    engine = TraceEngine(vm)
    engine.apply(TargetSet([(MethodRef.parse(LEAF), TIMED)]))
    assert vm.invoke(thread, TOP, (4,)) == _top(4)
    assert len(engine.drain().events) == 2
    return engine.rollback


def _global(vm, thread):
    engine = TraceEngine(vm)
    engine.apply_global(TargetSet([(MethodRef.parse(TOP), TIMED)]))
    assert vm.invoke(thread, TOP, (4,)) == _top(4)
    assert len(engine.drain().events) == 1
    return engine.rollback


def _late_load(vm, thread):
    engine = TraceEngine(vm)
    engine.apply(TargetSet([(MethodRef.parse(TOP), TIMED)]),
                 pending=[(MethodRef.parse("late.L.f(int)"), TIMED)])
    vm.registry.load(tracevm.parse_program(LATE))
    assert vm.invoke(thread, "late.L.f(int)", (4,)) == _top(4)
    assert len(engine.drain().events) == 2
    return engine.rollback


def _manual_stub(vm, thread):
    record = vm.registry.get(LEAF)
    assert vm.instrumentation.install_stubs_for_method(
        record, EntryPoint.INSTRUMENTATION_INTERPRETER_STUB)
    assert vm.invoke(thread, TOP, (4,)) == _top(4)
    return lambda: vm.instrumentation.restore_entry_point_for_method(record)


@pytest.mark.parametrize("write", [_compile_and_call, _targeted, _global, _late_load,
                                   _manual_stub],
                         ids=["jit", "targeted", "global", "late-load", "manual-stub"])
def test_every_write_lands_on_a_private_record(write):
    program = tracevm.parse_program(SHARED)
    bystander, writer = VM(program.instantiate()), VM(program.instantiate())
    thread = writer.new_thread()
    assert writer.invoke(thread, TOP, (2,)) == _top(2)  # first reached by a call edge
    shared = dict(program.shared)
    assert list(shared) == [TOP, LEAF] and writer.registry._records == {}

    def check():
        assert program.shared == shared  # no record replaced, none added
        for key, record in shared.items():
            _assert_pristine(record)
            assert writer.registry.get(key) is not record
        assert all(rec is not shared.get(key) for key, rec in writer.registry._records.items())
        # another VM of the program runs on the shared records and sees no stub
        assert bystander.invoke(bystander.new_thread(), TOP, (3,)) == _top(3)
        assert bystander.compiled_calls == 0 and bystander.registry._records == {}
        assert writer.invoke(thread, TOP, (5,)) == _top(5)

    undo = write(writer, thread)
    check()
    if undo is not None:
        undo()
        check()

    fresh = VM(program.instantiate())
    thread = fresh.new_thread()
    assert fresh.invoke(thread, TOP, (6,)) == _top(6)
    records = [fresh.registry.get(key) for key in (TOP, LEAF)]  # private from here on
    assert fresh.invoke(thread, TOP, (7,)) == _top(7)
    for key, record in zip((TOP, LEAF), records):
        # run on the program's quickened body
        assert record is not shared[key] and record.quickened is program.shared[key].quickened
        _assert_pristine(record)
    assert program.shared[LEAF].quickened != program.specs[LEAF].code  # the body fused


def test_a_fresh_registry_driven_only_by_calls_builds_no_record(monkeypatch):
    program = tracevm.parse_program(SHARED)
    first = VM(program.instantiate())
    assert first.invoke(first.new_thread(), TOP, (2,)) == _top(2)
    built = []
    init = MethodRecord.__init__

    def counting_init(self, *args):
        built.append(args[0].key)
        init(self, *args)

    monkeypatch.setattr(MethodRecord, "__init__", counting_init)
    for target in (TOP, MethodRef.parse(TOP)):
        vm = VM(program.instantiate())
        thread = vm.new_thread()
        assert [vm.invoke(thread, target, (n,)) for n in (1, 2)] == [_top(1), _top(2)]
        assert built == [] and vm.registry._records == {}
    # a program method no VM called yet gets its shared record once
    other = tracevm.parse_program(SHARED)
    for _ in range(2):
        vm = VM(other.instantiate())
        assert vm.invoke(vm.new_thread(), LEAF, (1,)) == 2
    assert built == [LEAF] and vm.registry._records == {}


def test_vms_of_one_program_first_call_at_once_while_another_traces():
    """Eight VMs of one program make their first calls at once while a ninth compiles and traces."""

    def program():
        return tracevm.gen_workload(n_classes=12, methods_per_class=10, target_count=4, seed=778)

    work = program()
    calls = work.traffic(60, seed=5)
    oracle = VM(work.program.instantiate())
    expected = [oracle.invoke(oracle.new_thread(), key, args) for key, args in calls]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(10):
            work = program()  # a program no VM has called yet
            readers = [VM(work.program.instantiate()) for _ in range(8)]
            writer = VM(work.program.instantiate())
            engine = TraceEngine(writer)
            barrier = threading.Barrier(9, timeout=10)
            done = threading.Event()
            results, errors = {}, []

            def read(i):
                order = list(enumerate(calls))
                random.Random(round_no * 8 + i).shuffle(order)
                thread = readers[i].new_thread()
                barrier.wait()
                results[i] = {n: readers[i].invoke(thread, key, args) for n, (key, args) in order}

            def write():
                thread = writer.new_thread()
                barrier.wait()
                try:
                    for key, _ in calls[:6]:
                        writer.jit_compile(key)
                    # at least one whole cycle, however soon the readers finish
                    while True:
                        engine.apply(TargetSet(work.target_entries))
                        for n, (key, args) in enumerate(calls[:6]):
                            assert writer.invoke(thread, key, args) == expected[n]
                        engine.rollback()
                        if done.is_set():
                            break
                except Exception as exc:  # pragma: no cover - the failure being tested
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            threads.append(threading.Thread(target=write))
            for t in threads:
                t.start()
            for t in threads[:8]:
                t.join(timeout=30)
            done.set()
            threads[8].join(timeout=30)
            assert not any(t.is_alive() for t in threads) and errors == []
            assert sorted(results) == list(range(8))
            for per_reader in results.values():
                assert [per_reader[n] for n in range(len(calls))] == expected
            assert all(vm.registry._records == {} and vm.compiled_calls == 0 for vm in readers)
            for record in work.program.shared.values():
                _assert_pristine(record)
            for record in writer.registry._records.values():  # rolled back
                compiled = record.lowered_code is not None
                assert record.original_entry_point is None
                assert record.entry_point is (EntryPoint.COMPILED_DIRECT if compiled
                                              else EntryPoint.INTERPRETER_BRIDGE)
            assert writer.compiled_calls > 0
    finally:
        sys.setswitchinterval(old_interval)
