"""session_churn: the control plane, one operator cycling configs on one VM.

The registry holds about 10,000 methods, about 30% of them compiled. Each
cycle parses a config from wire JSON with a fresh ``config_id``, resolves and
applies it, loads one new small class whose method is a pending target
configured with two actions in two wire entries, JIT-compiles that method
while it is traced, runs a short burst of calls through the targets, times
the traced probe (a target of every config) against its untraced twin,
drains, rolls back and checks the restored state. The cycle writes entry points beside
the dispatch that reads them, so a dispatch cache that speeds calls but slows
``apply`` or ``rollback`` shows here.

Two steps fail on every cycle because of faults in the program, and stay in
the workload, counted as failed, until a change mends them:

- ``compile_while_traced``: a method compiled while traced is restored to the
  interpreter bridge by ``rollback``, although it is compiled.
- ``late_second_action``: when a class loads late, only the first pending
  entry for a method joins the target set, so the second action emits nothing.
"""

from __future__ import annotations

import random

import checks
from common import (APP_SEED, PROBE_ARGS, Round, counters_of, delta, end_to_end, probe_blocks,
                    send, split_key, wire_config)
from machine import Pairer, median
from refeval import ARGS, STACK, TIME, RefEval, wrap64

import tracevm as tv

PROGRAM = {"n_classes": 1000, "methods_per_class": 10, "target_count": 5, "seed": APP_SEED}
GROUPS = 64          # distinct target groups; cycle i uses group i % GROUPS
BURST_EACH = 2       # calls per loaded target in a burst
LATE_CALLS = 3       # calls to the late-loaded target in a burst
PROBE_CALLS = 25     # calls to each of the probe twins per cycle
LATE_ACTIONS = (TIME, ARGS)
ACTIVATION_REPS = 3  # targeted and global activations timed before the cycles
LATE_SOURCE = """class app.Late{n}
  method leaf(int)
    loadarg 0
    pushconst {k}
    mul
    pushconst 11
    add
    ret
"""


def _arity(key: str) -> int:
    sign = split_key(key)[2]
    return len(sign.split(",")) if sign else 0


def _load(registry, source: str):
    return registry.load(tv.parse_program(source))


def late_value(n: int, arg: int) -> int:
    return wrap64(arg * (3 + n % 5) + 11)


class SessionChurn:
    name = "session_churn"
    known_faults = ("compile_while_traced", "late_second_action")
    pass_len = GROUPS
    def __init__(self, seed: int, rec):
        self.seed = seed
        self.rec = rec
        self.groups = None
        self.compiled_while_traced: set[str] = set()
        self.activation: dict[str, list] = {"targeted": [], "global": []}

    def setup(self, watch) -> None:
        with watch:
            work = tv.gen_workload(**PROGRAM)
            registry = work.program.instantiate()
            vm = tv.VM(registry)
            for key in work.hot_keys:
                vm.jit_compile(key)
            engine = tv.TraceEngine(vm)
        if self.groups is None:
            self._make_plan(work)
        self.vm, self.engine = vm, engine
        self.thread = vm.new_thread("operator")
        self.refs = {key: vm.registry.get(key).method_ref for g in self.groups
                     for key in g["targets"]}
        self.traced_ref = work.latency_traced
        self.untraced_ref = work.latency_untraced

    def _make_plan(self, work) -> None:
        """GROUPS target groups: two compiled and two interpreted methods with
        all three actions, plus the traced probe with ``TIME_METHOD``; burst
        arguments; and the reference expectations."""
        ref = RefEval(work.program)
        rng = random.Random(self.seed)
        probes = {work.latency_traced.key, work.latency_untraced.key}
        hot = set(work.hot_keys)
        compiled = sorted(k for k in hot if k not in probes)
        interpreted = sorted(k for k in work.program.method_keys()
                             if k not in hot and k not in probes)
        self.groups = []
        for _ in range(GROUPS):
            c = rng.sample(compiled, 2)
            p = rng.sample(interpreted, 2)
            targets = {c[0]: {STACK}, c[1]: {TIME}, p[0]: {ARGS}, p[1]: {TIME, STACK}}
            burst = [(key, tuple(rng.randint(-50, 50) for _ in range(_arity(key))))
                     for key in targets for _ in range(BURST_EACH)]
            events: list = []
            results = [ref.run(key, args, targets, events) for key, args in burst]
            targets[work.latency_traced.key] = {TIME}
            events += [("time", work.latency_traced.key)] * PROBE_CALLS
            self.groups.append({"targets": targets, "burst": burst, "results": results,
                                "events": events,
                                "late_args": [rng.randint(-1000, 1000)
                                              for _ in range(LATE_CALLS)]})
        self.expected_probe = ref.run(work.latency_traced.key, PROBE_ARGS)
        if ref.run(work.latency_untraced.key, PROBE_ARGS) != self.expected_probe:
            self.rec.harness("plan", ["probe twins compute different values"])

    def round(self, i: int, pair) -> Round:
        group = self.groups[i % GROUPS]
        vm, engine, registry, rec = self.vm, self.engine, self.vm.registry, self.rec
        late_key = f"app.Late{i}.leaf(int)"
        targets = dict(group["targets"])
        targets[late_key] = set(LATE_ACTIONS)
        text = wire_config(f"churn-{self.seed}-{i}", targets)
        source = LATE_SOURCE.format(n=i, k=3 + i % 5)
        loaded_keys = set(group["targets"])
        blocks = {}
        before_counters = counters_of(vm, engine)

        # 1. parse the config
        blocks["parse_config"], config = pair.time(tv.parse_config, text)
        wire = {(e.class_name, e.method_name, ",".join(e.signature), int(e.action))
                for e in config.entries}
        want = {split_key(k) + (a,) for k, acts in targets.items() for a in acts}
        rec.op("config_parsed", [] if wire == want and config.config_id.endswith(f"-{i}")
               else [f"parsed entries {sorted(wire)} differ from {sorted(want)}"])

        # 2. resolve and apply
        blocks["resolve"], (target_set, _warnings, pending) = pair.time(
            tv.resolve_targets, config, registry)
        # The whole-registry checks walk all 10,002 methods, which leaves the
        # next timed block running on cold caches; they run on the first
        # cycle of each pass, and the other cycles check the targets alone.
        full = i % GROUPS == 0
        if full:
            before = registry.snapshot_entry_points()
        else:
            before = {key: registry.get(key).entry_point for key in loaded_keys}
        blocks["apply"], _report = pair.time(engine.apply, target_set, pending=pending)
        problems = checks.apply_changed_exactly(before, registry, loaded_keys)
        if set(target_set.members) != loaded_keys:
            problems.append(f"resolved {sorted(target_set.members)}")
        if len(pending) != len(LATE_ACTIONS):
            problems.append(f"{len(pending)} pending entries")
        if engine.phase is not tv.TracePhase.ACTIVE:
            problems.append(f"engine phase {engine.phase.value}")
        rec.op("apply", problems)

        # 3. load the late class: its pending target is injected on arrival
        blocks["load"], _keys = pair.time(_load, registry, source)
        late = registry.get(late_key)
        problems = []
        if late is None:
            problems.append(f"{late_key} not loaded")
        elif late.entry_point is not tv.EntryPoint.INSTRUMENTATION_INTERPRETER_STUB:
            problems.append(f"late target enters through {late.entry_point.value}")
        if engine.status()["pending"]:
            problems.append("pending entries left after the class loaded")
        rec.op("late_load", problems)

        # 4. compile the late target while it is traced
        blocks["jit"], _record = pair.time(vm.jit_compile, late_key)
        self.compiled_while_traced.add(late_key)
        problems = []
        if late.compilation_state is not tv.CompilationState.COMPILED:
            problems.append("late target not compiled")
        if not late.entry_point.is_instrumentation_stub:
            problems.append(f"compiling dropped the stub: {late.entry_point.value}")
        rec.op("compile_traced", problems)

        # 5. a burst of calls through the targets
        refs = self.refs
        burst = [(refs[key], args) for key, args in group["burst"]]
        burst += [(late.method_ref, (a,)) for a in group["late_args"]]
        blocks["traffic"], results = pair.time(send, vm.invoke, self.thread, burst)
        expected_late = [late_value(i, a) for a in group["late_args"]]
        bad = checks.results_match(group["results"] + expected_late, results)
        rec.op("burst_results", [f"{bad} wrong results"] if bad else [])

        # 6. the probe twins, while the config is live
        probes, values = probe_blocks(pair, vm.invoke, self.thread, self.traced_ref,
                                      self.untraced_ref, PROBE_CALLS, i)
        blocks.update(probes)
        for block, value in values.items():
            rec.op(f"probe_{block}", [f"probe returned {value}, expected "
                                      f"{self.expected_probe}"]
                   if value != self.expected_probe else [])

        # 7. drain, and check the events per target
        blocks["drain"], drain = pair.time(engine.drain)
        rec.op("loaded_events", checks.events_match(group["events"], drain.events,
                                                    keys=loaded_keys))
        late_events = []
        for a, value in zip(group["late_args"], expected_late):
            late_events.append(("time", late_key))
            late_events.append(("args", late_key, (a,), value))
        rec.op("late_second_action", checks.events_match(late_events, drain.events,
                                                         keys={late_key}))
        rec.op("sink_accounting", checks.sink_accounting(drain))

        # 8. roll back and check the restored state
        blocks["rollback"], _summary = pair.time(engine.rollback)
        rec.op("rollback_restore", checks.restored(vm, skip=self.compiled_while_traced,
                                                   keys=None if full else loaded_keys))
        rec.op("compile_while_traced", checks.method_restored(late))
        return Round(blocks, len(burst), delta(counters_of(vm, engine), before_counters))

    def finish(self, pair) -> None:
        pass

    def compare_activation(self) -> None:
        """The paper's activation comparison on the fresh 10,002-method
        registry, before the first cycle: the stock global walk against
        targeted ``apply``, for one target group. Its checks are harness
        checks, so the failed share of a run stays exact."""
        vm, engine = self.vm, self.engine
        config = tv.parse_config(wire_config(f"churn-{self.seed}-global",
                                             self.groups[0]["targets"]))
        target_set, _warnings, _pending = tv.resolve_targets(config, vm.registry)
        pair = Pairer()
        for _ in range(ACTIVATION_REPS):
            block, _report = pair.time(engine.apply, target_set)
            self.activation["targeted"].append(block)
            engine.rollback()
            block, report = pair.time(engine.apply_global, target_set)
            self.activation["global"].append(block)
            problems = []
            if report.entry_points_changed != len(vm.registry):
                problems.append(f"global walk changed {report.entry_points_changed} of "
                                f"{len(vm.registry)} entry points")
            engine.rollback()
            self.rec.harness("global_activation", problems + checks.restored(vm))
        pair.close()

    def figures(self, rounds, sc) -> dict:
        out = end_to_end(rounds, sc, self.pass_len, PROBE_CALLS)
        if not self.activation["targeted"]:
            return out
        targeted = median([sc(b) for b in self.activation["targeted"]])
        walk = median([sc(b) for b in self.activation["global"]])
        out["global_activate_us"] = walk * 1e6
        out["global_over_targeted"] = walk / targeted
        return out
