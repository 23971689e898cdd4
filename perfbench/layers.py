"""Per-layer metrics of the traced run, derived from span aggregates.

Times per call come from every traced span (set-up, rounds and the end of the
run); counts are per traced round and come from the rounds alone, where the
program's own counters (``VM`` and engine attributes, sink totals) are
summed by the workload.
"""

from __future__ import annotations

from spans import Stat

US = 1e3
MS = 1e6

_ENTRY_EXIT = ("instrumentation.enter_event", "instrumentation.exit_event")
_BUILDERS = ("actions.stack_event", "actions.args_event", "actions.time_event")


class LayerFigures:
    def __init__(self, tracer, rounds: int, counters: dict):
        self.all = tracer.merged()
        self.rounds_only = tracer.merged({"round"})
        self.tracer = tracer
        self.rounds = max(rounds, 1)
        self.counters = counters

    def _stats(self, table, names):
        out = Stat()
        for name in names:
            s = table.get(name)
            if s is not None:
                out.count += s.count
                out.self_ns += s.self_ns
                out.total_ns += s.total_ns
                out.truthy += s.truthy
                out.size += s.size
        return out

    def self_per_call(self, *names, unit=US):
        s = self._stats(self.all, names)
        return s.self_ns / s.count / unit if s.count else 0.0

    def total_per_call(self, *names, unit=US):
        s = self._stats(self.all, names)
        return s.total_ns / s.count / unit if s.count else 0.0

    def count_per_round(self, *names):
        return self._stats(self.rounds_only, names).count / self.rounds

    def truthy_per_round(self, *names):
        return self._stats(self.rounds_only, names).truthy / self.rounds

    def counter_per_round(self, name):
        return self.counters.get(name, 0) / self.rounds

    def event_build_us(self):
        built = self._stats(self.all, _BUILDERS)
        payload = self._stats(self.all, ("actions.args_payload",))
        return (built.total_ns + payload.total_ns) / built.count / US if built.count else 0.0

    def drain_us_per_event(self):
        s = self._stats(self.all, ("actions.drain",))
        return s.total_ns / s.size / US if s.size else 0.0

    def parse_ms_per_kline(self):
        s = self._stats(self.all, ("loader.parse_program",))
        return s.total_ns / MS / (s.size / 1000) if s.size else 0.0

    def target_hit_ratio(self):
        dispatched = self.counters.get("events_dispatched", 0)
        if not dispatched:
            return 0.0
        return (dispatched - self.counters.get("events_filtered", 0)) / dispatched

    def deferred_injections(self):
        return self.tracer.edge_count(
            "engine.on_load", "instrumentation.install", "round") / self.rounds


# name: (unit, better, figure)
METRICS = {
    "vm.invoke_self_us": ("us", "lower", lambda f: f.self_per_call("vm.invoke")),
    "vm.call_ref_self_us": ("us", "lower", lambda f: f.self_per_call("vm.call_ref")),
    "vm.call_edges": ("count/round", "lower", lambda f: f.count_per_round("vm.call_ref")),
    "vm.interpret_self_us": ("us", "lower", lambda f: f.self_per_call("vm.interpret")),
    "vm.interpreted_calls": ("count/round", "lower",
                             lambda f: f.counter_per_round("interpreted_calls")),
    "vm.compiled_calls": ("count/round", "higher",
                          lambda f: f.counter_per_round("compiled_calls")),
    "core.methodref_parse_us": ("us", "lower",
                                lambda f: f.self_per_call("core.methodref_parse")),
    "core.methodref_parses": ("count/round", "lower",
                              lambda f: f.count_per_round("core.methodref_parse")),
    "core.lookup_us": ("us", "lower", lambda f: f.self_per_call("core.lookup")),
    "core.lookups": ("count/round", "lower", lambda f: f.count_per_round("core.lookup")),
    "core.instantiate_ms": ("ms", "lower",
                            lambda f: f.total_per_call("core.instantiate", unit=MS)),
    "core.load_us": ("us", "lower", lambda f: f.total_per_call("core.load")),
    "loader.parse_ms_per_kline": ("ms/kline", "lower", lambda f: f.parse_ms_per_kline()),
    "jit.compile_us": ("us", "lower", lambda f: f.total_per_call("jit.compile")),
    "instrumentation.events_dispatched": (
        "count/round", "lower", lambda f: f.counter_per_round("events_dispatched")),
    "instrumentation.event_self_us": ("us", "lower", lambda f: f.self_per_call(*_ENTRY_EXIT)),
    "instrumentation.install_us": (
        "us", "lower", lambda f: f.total_per_call("instrumentation.install")),
    "instrumentation.restore_us": (
        "us", "lower", lambda f: f.total_per_call("instrumentation.restore")),
    "instrumentation.stubs_changed": (
        "count/round", "lower",
        lambda f: f.truthy_per_round("instrumentation.install", "instrumentation.restore")),
    "engine.proxy_us": ("us", "lower", lambda f: f.self_per_call("engine.proxy")),
    "engine.events_filtered": ("count/round", "lower",
                               lambda f: f.counter_per_round("events_filtered")),
    "engine.target_hit_ratio": ("ratio", "higher", lambda f: f.target_hit_ratio()),
    "engine.apply_self_us": ("us", "lower", lambda f: f.self_per_call("engine.apply")),
    "engine.rollback_self_us": ("us", "lower", lambda f: f.self_per_call("engine.rollback")),
    "engine.deferred_injections": ("count/round", "higher",
                                   lambda f: f.deferred_injections()),
    "actions.events_emitted": ("count/round", "higher",
                               lambda f: f.counter_per_round("events_emitted")),
    "actions.events_dropped": ("count/round", "lower",
                               lambda f: f.counter_per_round("events_dropped")),
    "actions.event_build_us": ("us", "lower", lambda f: f.event_build_us()),
    "actions.append_us": ("us", "lower", lambda f: f.total_per_call("actions.append")),
    "actions.drain_us": ("us", "lower", lambda f: f.drain_us_per_event()),
    "actions.serialize_us": ("us", "lower", lambda f: f.total_per_call("actions.serialize")),
    "config.parse_config_us": ("us", "lower",
                               lambda f: f.total_per_call("config.parse_config")),
    "config.resolve_targets_us": ("us", "lower",
                                  lambda f: f.total_per_call("config.resolve_targets")),
    "config.session_gate_us": ("us", "lower",
                               lambda f: f.total_per_call("config.session_gate")),
    "fleet.build_sessions_self_ms": (
        "ms", "lower", lambda f: f.self_per_call("fleet.build_sessions", unit=MS)),
    "fleet.run_workload_self_ms": (
        "ms", "lower", lambda f: f.self_per_call("fleet.run_workload", unit=MS)),
    "fleet.drain_ms": ("ms", "lower", lambda f: f.total_per_call("fleet.drain_events", unit=MS)),
    "fleet.advance_ms": ("ms", "lower", lambda f: f.total_per_call("fleet.advance", unit=MS)),
}

# Reported by the traced run of every workload: its own slowdown.
SLOWDOWN = "bench.trace_slowdown"
SLOWDOWN_UNIT = ("x", "lower")
