"""fleet_canary: many short-lived VMs through whole canary rounds.

Each round brings a canary up on a fresh ``FleetManager``, so memory stays
bounded: it parses the config and instantiates every session from one parsed
program of about 1,000 methods, and a gate fraction admits a subset of
sessions, which apply the config. The config's targets are methods the session
traffic reaches, so admitted sessions emit events, plus the traced probe. The
round drives its calls by key, times the probe twins (interpreted, as on a fresh
device) on one admitted session, drains, and advances the lifecycle. Crash
rates alternate between rounds, so even rounds promote and odd rounds roll
back.

Every seed's canary has the same size: config ids are drawn until the gate
admits exactly ``FRACTION`` of the sessions (and, for a round that should roll
back, until the fault draw crashes at least one of them), call lists until
each enters a similar number of methods, and the traced methods among those
the call lists reach a similar number of times.
"""

from __future__ import annotations

import gc
import random
from collections import Counter

import checks
from common import APP_SEED, PROBE_ARGS, Round, end_to_end, probe_blocks, wire_config
from refeval import ARGS, STACK, TIME, RefEval

import tracevm as tv

PROGRAM = {"n_classes": 100, "methods_per_class": 10, "target_count": 5, "seed": APP_SEED}
SESSIONS = 32
CALLS_PER_SESSION = 60
# Calls to each of the probe twins per block, and traced/untraced block pairs
# per round: short adjacent pairs, so the machine's speed changes little
# between the two blocks of a pair.
PROBE_CALLS = 25
PROBE_PAIRS = 8
FRACTION = 0.25      # exact in binary, so the gate threshold has no rounding
CRASH_RATES = (0.0, 0.5)   # round i uses CRASH_RATES[i % 2]
# Round i uses config id and call list i % CONFIG_IDS, so rounds repeat with
# that period and a run's figures average over CONFIG_IDS call lists.
CONFIG_IDS = 8
DEVICE_PREFIX = "device-"
# Call lists are drawn until each enters this many methods in all (30-call
# lists of this program enter 36-74, median 55; 60-call lists about twice
# that), so every seed's traffic does about as much work; targets are drawn
# among methods the CONFIG_IDS lists reach TARGET_HITS times in all, so every
# seed's sessions emit about as many events.
LIST_ENTRIES = (105, 115)
TARGET_HITS = (2, 4)


class FleetCanary:
    name = "fleet_canary"
    known_faults = ()
    pass_len = CONFIG_IDS

    def __init__(self, seed: int, rec):
        self.seed = seed
        self.rec = rec
        self.program = None
        self.texts = None

    def setup(self, watch) -> None:
        with watch:
            work = tv.gen_workload(**PROGRAM)
        if self.texts is None:
            self._make_plan(work)
        self.program = work.program
        self.traced_ref = work.latency_traced
        self.untraced_ref = work.latency_untraced

    def _make_plan(self, work) -> None:
        ref = RefEval(work.program)
        rng = random.Random(self.seed)
        self.calls, reached = [], []
        for _ in range(10_000):
            calls = work.traffic(CALLS_PER_SESSION, seed=rng.randrange(1 << 30))
            counts = Counter()
            for key, args in calls:
                ref.run(key, args, calls=counts)
            if LIST_ENTRIES[0] <= sum(counts.values()) <= LIST_ENTRIES[1]:
                self.calls.append(calls)
                reached.append(counts)
                if len(self.calls) == CONFIG_IDS:
                    break
        else:
            raise RuntimeError(f"too few call lists enter {LIST_ENTRIES} methods")
        probes = {work.latency_traced.key, work.latency_untraced.key}
        total = sum(reached, Counter())
        usable = sorted(k for k in total.keys() - probes
                        if TARGET_HITS[0] <= total[k] <= TARGET_HITS[1])
        picks = rng.sample(usable, 3)
        targets = {picks[0]: {TIME}, picks[1]: {ARGS}, picks[2]: {STACK}}
        self.events_per_session = [sum(counts[k] * len(a) for k, a in targets.items())
                                   for counts in reached]
        targets[work.latency_traced.key] = {TIME}
        self.texts = []
        self.admitted = []
        self.probe_session = []
        size = int(SESSIONS * FRACTION)
        for j in range(CONFIG_IDS):
            for k in range(10_000):
                config_id = f"canary-{self.seed}-{j}.{k}"
                admitted = [s for s in range(SESSIONS)
                            if checks.gate_admits(self.device(s), config_id, FRACTION)]
                crashes = sum(checks.fault_drawn(self.device(s), f"crash:{config_id}",
                                                 CRASH_RATES[j % 2]) for s in admitted)
                if len(admitted) == size and (crashes > 0) == (CRASH_RATES[j % 2] > 0):
                    break
            else:
                raise RuntimeError(f"no config id admits {size} sessions")
            self.texts.append(wire_config(config_id, targets, FRACTION))
            self.admitted.append({self.device(s) for s in admitted})
            self.probe_session.append(admitted[0])
        self.expected_probe = ref.run(work.latency_traced.key, PROBE_ARGS)
        if ref.run(work.latency_untraced.key, PROBE_ARGS) != self.expected_probe:
            self.rec.harness("plan", ["probe twins compute different values"])

    @staticmethod
    def device(s: int) -> str:
        return f"{DEVICE_PREFIX}{s:06d}"

    def _bring_up(self, j: int):
        config = tv.parse_config(self.texts[j])
        tv.begin_canary(config)
        manager = tv.FleetManager(min_sessions=SESSIONS)
        manager.register(config)
        sessions = manager.build_sessions(config.config_id, SESSIONS, self.program,
                                          device_prefix=DEVICE_PREFIX)
        return config, manager, sessions

    def round(self, i: int, pair) -> Round:
        j = i % CONFIG_IDS
        crash_rate = CRASH_RATES[i % 2]
        rec = self.rec
        blocks = {}
        blocks["apply"], (config, manager, sessions) = pair.time(self._bring_up, j)
        blocks["traffic"], health = pair.time(manager.run_workload, config.config_id,
                                              self.calls[j], crash_rate=crash_rate)
        probe = sessions[self.probe_session[j]]
        probes, values = probe_blocks(pair, probe.vm.invoke, probe.vm.new_thread("probe"),
                                      self.traced_ref, self.untraced_ref, PROBE_CALLS, i,
                                      pairs=PROBE_PAIRS)
        blocks.update(probes)
        for block, value in values.items():
            rec.op(f"probe_{block}", [f"probe returned {value}, expected "
                                      f"{self.expected_probe}"]
                   if value != self.expected_probe else [])

        admitted = self.admitted[j]
        crash_salt = f"crash:{config.config_id}"
        counters = Counter()
        for session in sessions:
            sink = session.engine.sink
            problems = []
            if session.admitted != (session.device_id in admitted):
                problems.append(f"{session.device_id} admitted={session.admitted} breaks "
                                f"the gate rule")
            want_events = self.events_per_session[j] if session.admitted else 0
            if session is probe:
                want_events += PROBE_CALLS * PROBE_PAIRS
            if sink.emitted_count != want_events or len(sink) != want_events:
                problems.append(f"{session.device_id} emitted {sink.emitted_count} events, "
                                f"expected {want_events}")
            if session.calls_made != CALLS_PER_SESSION:
                problems.append(f"{session.device_id} made {session.calls_made} calls")
            crashed = session.admitted and checks.fault_drawn(
                session.device_id, crash_salt, crash_rate)
            if session.crashed != crashed:
                problems.append(f"{session.device_id} crashed={session.crashed}")
            rec.op("session", problems)
            vm = session.vm
            counters["interpreted_calls"] += vm.interpreted_calls
            counters["compiled_calls"] += vm.compiled_calls
            counters["events_dispatched"] += vm.instrumentation.events_dispatched
            counters["events_filtered"] += session.engine.spurious_filtered
            counters["events_emitted"] += sink.emitted_count
            counters["events_dropped"] += sink.dropped_count

        blocks["drain"], drained = pair.time(manager.drain_events, config.config_id)
        advance, status = pair.time(manager.advance, config.config_id, health)
        blocks["rollback" if status is tv.ConfigStatus.ROLLED_BACK else "advance"] = advance

        rec.op("lifecycle", self._lifecycle_problems(
            sessions, health, drained - PROBE_CALLS * PROBE_PAIRS, status, self.events_per_session[j]))

        # The round's sessions are garbage now, and only the cyclic collector
        # frees them: each engine's load hook ties its VM, registry and engine
        # in a cycle. Collecting here, timed as part of the round, puts that
        # cost in the same place in every round rather than in whichever
        # block the collector's thresholds fall.
        del config, manager, sessions, session, probe, health
        blocks["collect"], _ = pair.time(gc.collect)
        return Round(blocks, SESSIONS * CALLS_PER_SESSION, dict(counters))

    def _lifecycle_problems(self, sessions, health, drained, status, events) -> list[str]:
        problems = []
        admitted = [s for s in sessions if s.admitted]
        crashes = sum(1 for s in admitted if s.crashed)
        if drained != len(admitted) * events:
            problems.append(f"drained {drained} events")
        if health.sessions != SESSIONS or health.crashes != crashes or health.anrs:
            problems.append(f"health {health.sessions}/{health.crashes}/{health.anrs}")
        healthy = crashes / SESSIONS <= tv.Thresholds().crash_rate_max
        want = tv.ConfigStatus.FULL_ROLLOUT if healthy else tv.ConfigStatus.ROLLED_BACK
        if status is not want:
            problems.append(f"status {status.value}, expected {want.value}")
        for session in admitted:
            sink = session.engine.sink
            if sink.emitted_count != sink.drained_count + sink.dropped_count \
                    or sink.dropped_count:
                problems.append(f"{session.device_id} sink lost events")
            if healthy:
                if not session.tracing_active():
                    problems.append(f"{session.device_id} stopped tracing on promotion")
            else:
                if session.engine.phase is not tv.TracePhase.IDLE:
                    problems.append(f"{session.device_id} still traced after rollback")
                problems += checks.restored(session.vm)
        return problems

    def finish(self, pair) -> None:
        pass

    def figures(self, rounds, sc) -> dict:
        return end_to_end(rounds, sc, self.pass_len, PROBE_CALLS)
