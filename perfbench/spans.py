"""Span tracing for the traced run: wraps each layer's public functions at run
time, from the benchmark's files only, and keeps everything in memory.

A span holds its name, start, end, parent span and an operation id shared by
every span under one top-level call. Aggregates (count, self time, total time)
cover every span; the first ``max_spans`` spans are also kept whole and
written out when the run ends. A layer's self time is its span's time minus
the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import tracevm as tv
import tracevm.actions
import tracevm.config
import tracevm.engine
import tracevm.fleet
import tracevm.loader
import tracevm.workload

_MODULES = (tv, tracevm.actions, tracevm.config, tracevm.engine, tracevm.fleet,
            tracevm.loader, tracevm.workload)


def _drained_events(_args, result):
    return len(result.events)


def _text_lines(args, _result):
    return args[0].count("\n") + 1


# (span name, owner, attribute, size function). An owner that is a class is
# patched on the class; a function name is replaced in every tracevm module
# that binds it, because modules import each other's functions by name.
_POINTS = [
    ("vm.invoke", tv.VM, "invoke", None),
    ("vm.call_ref", tv.VM, "call_ref", None),
    ("vm.interpret", tv.VM, "interpret", None),
    ("jit.compile", tv.VM, "jit_compile", None),
    ("core.methodref_parse", tv.MethodRef, "parse", None),
    ("core.lookup", tv.ClassRegistry, "lookup", None),
    ("core.instantiate", tv.Program, "instantiate", None),
    ("core.load", tv.ClassRegistry, "load", None),
    ("loader.parse_program", None, "parse_program", _text_lines),
    ("instrumentation.enter_event", tv.Instrumentation, "method_enter_event", None),
    ("instrumentation.exit_event", tv.Instrumentation, "method_exit_event", None),
    ("instrumentation.install", tv.Instrumentation, "install_stubs_for_method", None),
    ("instrumentation.restore", tv.Instrumentation, "restore_entry_point_for_method", None),
    ("engine.proxy", tv.TraceEngine, "_on_event", None),
    ("engine.apply", tv.TraceEngine, "apply", None),
    ("engine.rollback", tv.TraceEngine, "rollback", None),
    ("engine.on_load", tv.TraceEngine, "_on_classes_loaded", None),
    ("actions.stack_event", None, "capture_stack_event", None),
    ("actions.args_event", None, "capture_args_event", None),
    ("actions.time_event", None, "time_method_event", None),
    ("actions.args_payload", None, "capture_args_payload", None),
    ("actions.append", tv.EventSink, "append", None),
    ("actions.drain", tv.EventSink, "drain", _drained_events),
    ("actions.serialize", tv.TraceEvent, "to_json_line", None),
    ("config.parse_config", None, "parse_config", None),
    ("config.resolve_targets", None, "resolve_targets", None),
    ("config.session_gate", None, "session_gate", None),
    ("fleet.build_sessions", tv.FleetManager, "build_sessions", None),
    ("fleet.run_workload", tv.FleetManager, "run_workload", None),
    ("fleet.drain_events", tv.FleetManager, "drain_events", None),
    ("fleet.advance", tv.FleetManager, "advance", None),
]


class Stat:
    __slots__ = ("count", "self_ns", "total_ns", "truthy", "size")

    def __init__(self):
        self.count = 0
        self.self_ns = 0
        self.total_ns = 0
        self.truthy = 0
        self.size = 0


class Tracer:
    """Records spans while ``on``; ``enable``/``disable`` patch and unpatch."""

    def __init__(self, max_spans: int = 50_000):
        self.on = False
        self.phase = "setup"
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.stats: dict[str, dict[str, Stat]] = {}
        self.edges: dict[str, Counter] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        for name, owner, attr, size in _POINTS:
            if owner is not None:
                raw = owner.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapper = self._wrap(name, fn, size)
                self._patches.append(
                    (owner, attr, raw, staticmethod(wrapper) if is_static else wrapper))
            else:
                fn = getattr(tracevm.actions, attr, None) or getattr(tracevm.config, attr, None) \
                    or getattr(tracevm.loader, attr)
                wrapper = self._wrap(name, fn, size)
                for module in _MODULES:
                    if getattr(module, attr, None) is fn:
                        self._patches.append((module, attr, fn, wrapper))

    def enable(self, phase: str) -> None:
        self.phase = phase
        for owner, attr, _raw, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.on = True

    def disable(self) -> None:
        self.on = False
        for owner, attr, raw, _wrapper in self._patches:
            setattr(owner, attr, raw)

    def _wrap(self, name: str, fn, size):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            # Callbacks bound while patched (the proxy listener, the load
            # hook) keep this wrapper after ``disable``; they pass through.
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            if stack:
                parent = stack[-1]
                pid, pname, op = parent[0], parent[1], parent[3]
            else:
                pid, pname, op = None, None, sid
            frame = [sid, name, 0, op]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, t0, clock(), pid, pname, None, None, args)
                raise
            tracer._close(frame, t0, clock(), pid, pname, result, size, args)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _close(self, frame, t0, t1, pid, pname, result, size, args) -> None:
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][2] += dur
        phase_stats = self.stats.get(self.phase)
        if phase_stats is None:
            phase_stats = self.stats[self.phase] = {}
            self.edges[self.phase] = Counter()
        name = frame[1]
        stat = phase_stats.get(name)
        if stat is None:
            stat = phase_stats[name] = Stat()
        stat.count += 1
        stat.total_ns += dur
        stat.self_ns += dur - frame[2]
        if result:
            stat.truthy += 1
        if size is not None and result is not None:
            stat.size += size(args, result)
        if pname is not None:
            self.edges[self.phase][(pname, name)] += 1
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[0], pid, frame[3], name, self.phase, t0, t1))
        else:
            self.spans_dropped += 1

    def merged(self, phases=None) -> dict[str, Stat]:
        out: dict[str, Stat] = {}
        for phase, table in self.stats.items():
            if phases is not None and phase not in phases:
                continue
            for name, s in table.items():
                m = out.get(name)
                if m is None:
                    m = out[name] = Stat()
                m.count += s.count
                m.self_ns += s.self_ns
                m.total_ns += s.total_ns
                m.truthy += s.truthy
                m.size += s.size
        return out

    def edge_count(self, parent: str, child: str, phase: str) -> int:
        return self.edges.get(phase, Counter())[(parent, child)]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, pid, op, name, phase, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": pid, "op": op, "name": name,
                                     "phase": phase, "start_ns": t0, "end_ns": t1},
                                    separators=(",", ":")) + "\n")
