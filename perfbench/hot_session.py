"""hot_session: the data plane under one live targeted session.

One session stays live for the whole workload; the control plane works only in
set-up (one ``apply``) and at the end (one ``rollback``). Each round sends a
block of hot-biased root traffic invoked by key string, times the traced probe
and its untraced twin by ``MethodRef`` (plus the twin against itself, the A/A
self-check) in alternating order, then drains the sink and serialises the
events to NDJSON.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import checks
from common import (APP_SEED, PROBE_ARGS, Round, counters_of, delta, end_to_end, probe_blocks,
                    probe_times, send, wire_config)
from machine import median
from refeval import ARGS, STACK, TIME, RefEval

import tracevm as tv

PROGRAM = {"n_classes": 100, "methods_per_class": 10, "target_count": 5, "seed": APP_SEED}
TRAFFIC_CALLS = 300
TRAFFIC_BLOCKS = 10  # round i sends block i % TRAFFIC_BLOCKS
PROBE_CALLS = 200
# Targets are picked among methods the traffic pool reaches a number of times
# within these bands, so every seed's session emits about as many events.
COMPILED_HITS = (20, 40)
INTERPRETED_HITS = (3, 8)


class HotSession:
    name = "hot_session"
    known_faults = ()
    pass_len = TRAFFIC_BLOCKS
    def __init__(self, seed: int, rec):
        self.seed = seed
        self.rec = rec
        self.traffic = None

    # -- set-up -------------------------------------------------------------

    def setup(self, watch) -> None:
        with watch:
            work = tv.gen_workload(**PROGRAM)
        if self.traffic is None:
            self._make_plan(work)
        with watch:
            registry = work.program.instantiate()
            vm = tv.VM(registry)
            for key in work.hot_keys:
                vm.jit_compile(key)
            config = tv.parse_config(self.config_text)
            targets, _warnings, pending = tv.resolve_targets(config, registry)
            engine = tv.TraceEngine(vm)
        before = registry.snapshot_entry_points()
        with watch:
            report = engine.apply(targets, pending=pending)
        self.rec.harness("setup_apply", checks.apply_changed_exactly(
            before, registry, self.targets))
        if report.injected != len(self.targets):
            self.rec.harness("setup_apply", [f"injected {report.injected} targets"])
        self.vm, self.engine = vm, engine
        self.thread = vm.new_thread("app")
        self.traced_ref = work.latency_traced
        self.untraced_ref = work.latency_untraced

    def _make_plan(self, work) -> None:
        """Inputs and expectations, from the reference evaluator alone."""
        ref = RefEval(work.program)
        pool = work.traffic(TRAFFIC_CALLS * TRAFFIC_BLOCKS, seed=self.seed * 1_000_003 + 11)
        self.traffic = [pool[b * TRAFFIC_CALLS:(b + 1) * TRAFFIC_CALLS]
                        for b in range(TRAFFIC_BLOCKS)]
        reached = Counter()
        for key, args in pool:
            ref.run(key, args, calls=reached)
        probes = {work.latency_traced.key, work.latency_untraced.key}
        hot = set(work.hot_keys)

        def band(keys, hits):
            return sorted(k for k in keys
                          if k not in probes and hits[0] <= reached[k] <= hits[1])

        rng = random.Random(self.seed)
        compiled = rng.sample(band(hot & reached.keys(), COMPILED_HITS), 2)
        interpreted = rng.sample(band(reached.keys() - hot, INTERPRETED_HITS), 2)
        # Both tiers, all three actions; one method carries two actions.
        self.targets = {
            work.latency_traced.key: {TIME},
            compiled[0]: {ARGS},
            compiled[1]: {STACK},
            interpreted[0]: {TIME, ARGS},
            interpreted[1]: {STACK},
        }
        self.config_text = wire_config(f"hot-{self.seed}", self.targets)
        self.expected_results, self.expected_events = [], []
        probe_events = [("time", work.latency_traced.key)] * PROBE_CALLS
        for block in self.traffic:
            events: list = []
            self.expected_results.append([ref.run(k, a, self.targets, events) for k, a in block])
            self.expected_events.append(events + probe_events)
        self.expected_probe = ref.run(work.latency_traced.key, PROBE_ARGS)
        twin = ref.run(work.latency_untraced.key, PROBE_ARGS)
        if twin != self.expected_probe:
            self.rec.harness("plan", ["probe twins compute different values"])

    # -- rounds --------------------------------------------------------------

    def round(self, i: int, pair) -> Round:
        vm, engine, thread, rec = self.vm, self.engine, self.thread, self.rec
        invoke = vm.invoke
        b = i % TRAFFIC_BLOCKS
        traffic = self.traffic[b]
        before = counters_of(vm, engine)
        blocks = {}
        blocks["traffic"], results = pair.time(send, invoke, thread, traffic)
        probes, values = probe_blocks(pair, invoke, thread, self.traced_ref,
                                      self.untraced_ref, PROBE_CALLS, i, twin=True)
        blocks.update(probes)
        drain = engine.drain()
        lines = [event.to_json_line() for event in drain.events]
        counters = delta(counters_of(vm, engine), before)

        bad = checks.results_match(self.expected_results[b], results)
        rec.op("traffic_results", [f"{bad} wrong results"] if bad else [],
               n=len(traffic), failed=bad)
        for block, value in values.items():
            rec.op(f"probe_{block}", [f"probe returned {value}, expected "
                                      f"{self.expected_probe}"]
                   if value != self.expected_probe else [], n=PROBE_CALLS)
        rec.op("events", checks.events_match(self.expected_events[b], drain.events))
        rec.op("sink_accounting", checks.sink_accounting(drain))
        rec.op("ndjson", _ndjson_problems(lines, drain.events))
        return Round(blocks, len(traffic), counters)

    def finish(self, pair) -> None:
        self.engine.rollback()
        self.rec.op("rollback_restore", checks.restored(self.vm))

    # -- figures --------------------------------------------------------------

    def figures(self, rounds, sc) -> dict:
        """End-to-end figures; ``sc(block)`` gives a block's seconds."""
        out = end_to_end(rounds, sc, self.pass_len, PROBE_CALLS)
        untraced = probe_times(rounds, sc, "untraced", PROBE_CALLS)
        twin = probe_times(rounds, sc, "aa", PROBE_CALLS)
        out["aa_difference_us"] = median([u - a for u, a in zip(untraced, twin)])
        return out

    def self_check(self, figures: dict, bounds: dict) -> list[str]:
        """A/A: the twin timed against itself must read 0 within the bound
        the benchmark gives ``trace_overhead_us``."""
        limit = bounds["trace_overhead_us"] * figures["trace_overhead_us"]
        if abs(figures["aa_difference_us"]) > limit:
            return [f"A/A difference {figures['aa_difference_us']:.4f} us exceeds "
                    f"{limit:.4f} us"]
        return []


def _ndjson_problems(lines, events) -> list[str]:
    seq = None
    for line, event in zip(lines, events):
        obj = json.loads(line)
        if (obj["seq"] != event.sequence_no or obj["method"] != event.method_ref.key
                or obj["action"] != int(event.action) or obj["payload"] != event.payload):
            return [f"line does not match its event: {line}"]
        if seq is not None and obj["seq"] != seq + 1:
            return [f"sequence jumps from {seq} to {obj['seq']}"]
        seq = obj["seq"]
    return []
