"""Targeted tracing engine: per-method stubs instead of a global walk.

Bring-up runs in three phases. First the activation handler is swapped for a
no-op so the built-in trace start cannot degrade the whole runtime. Then each
configured target gets a stub picked to match its tier: compiled methods keep
compiled speed through the quick stub, interpreted methods get the interpreter
stub. Last, tracing starts through the normal entry point, which now only
registers the event proxy.

The proxy sees every dispatched event, filters to the target set, runs the
configured actions and appends raw records to a bounded sink, which builds the
events when it is drained. Captured stacks start with the synthetic
``INTERCEPT_REF``, which the VM's frame stack never holds. One session runs per
VM. Rollback undoes everything in reverse order and is idempotent.

The target set and the registry are the only record of what is stubbed: a
target is injected when its record holds a stub and pending otherwise. A
registry hook, held only while a session is up, stubs what a later class load
brings: its targets in targeted mode, and every new method on the interpreter
stub in global mode, as the stock walk would have. A stub install that fails
there is counted, leaves its method unstubbed and never raises into the app's
loader.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .actions import (_CAPTURE_ARGS, _CAPTURE_STACK, _TIME_METHOD, EventSink, TraceAction,
                      capture_args_payload, redact_value)
from .core import _INTERP_STUB, _QUICK, MethodRef
from .errors import PhaseError, UnknownListenerError
from .instrumentation import METHOD_ENTERED, EventKind, ListenerRegistration

log = logging.getLogger(__name__)

_clock = time.perf_counter_ns

# Synthetic innermost frame of every captured stack: the interception point.
INTERCEPT_REF = MethodRef("XTrace", "intercept", ())

PROXY_LISTENER_ID = "xtrace-proxy"
_BOTH_KINDS = frozenset(EventKind)  # the proxy's event mask, hashed once


class TracePhase(Enum):
    IDLE = "idle"
    SUPPRESSED = "suppressed"
    INJECTED = "injected"
    ACTIVE = "active"


class TargetSet:
    """Immutable set of traced methods with their configured actions.

    Updates replace the whole object, so a dispatch that grabbed a reference
    keeps a consistent view. ``table`` maps each member key to one exact tuple
    ``(ref, actions, stack, args, time)``, whose flags are precomputed so the
    proxy never scans ``actions``; a key missing from it is not a target.
    Duplicate entries for one method keep the first ref and merge their
    actions in first-seen order.
    """

    __slots__ = ("members", "table")

    def __init__(self, entries: Iterable[tuple[MethodRef, Iterable[TraceAction]]] = ()):
        table: dict[str, tuple[MethodRef, tuple, bool, bool, bool]] = {}
        for ref, acts in entries:
            acts = tuple(acts)
            if not acts:
                raise ValueError(f"target {ref.key} has no actions")
            first = table.get(ref.key)
            if first is not None:
                ref, seen = first[:2]
                acts = seen + tuple(a for a in acts if a not in seen)
            table[ref.key] = (ref, acts, _CAPTURE_STACK in acts, _CAPTURE_ARGS in acts,
                              _TIME_METHOD in acts)
        self.table = table
        self.members = table.keys()  # a read-only view, not a copy

    def entries(self) -> list[tuple[MethodRef, tuple]]:
        return [entry[:2] for entry in self.table.values()]

    def __len__(self) -> int:
        return len(self.table)


@dataclass
class ApplyReport:
    """What a bring-up actually touched."""

    mode: str
    targets: int
    injected: int
    entry_points_changed: int
    pending: int = 0


class TraceEngine:
    """Owns one VM's trace session: phases, injection bookkeeping and the sink."""

    def __init__(self, vm, sink: EventSink | None = None):
        self.vm = vm
        self.instrumentation = vm.instrumentation
        self.sink = sink if sink is not None else EventSink()
        self.phase = TracePhase.IDLE
        self.mode: str | None = None
        self._lock = threading.RLock()
        self._targets = TargetSet()
        self._registration: ListenerRegistration | None = None
        self._load_hook = None
        self._adaptive = True
        self.spurious_filtered = 0
        self.unmatched_exits = 0
        self.action_errors = 0
        self.load_hook_errors = 0
        self._failed_keys: set[str] = set()

    # -- phase operations ---------------------------------------------------

    def suppress_global_tracing(self) -> None:
        """Phase 1: make the built-in activation a no-op before anything else."""
        with self._lock:
            self._open("suppress_global_tracing", "targeted")
            self.instrumentation.set_activation_handler(_noop_activation)
            self.phase = TracePhase.SUPPRESSED

    def inject_targets(self, target_set: TargetSet, *, adaptive: bool = True) -> ApplyReport:
        """Phase 2: install per-target stubs matched to each method's tier.

        A target whose class is not loaded yet stays in the target set without
        a stub; the load hook stubs it when its class arrives.
        """
        with self._lock:
            self._require_phase(TracePhase.SUPPRESSED, "inject_targets")
            self._adaptive = adaptive
            self._targets = target_set
            table = target_set.table
            changed, missing = self._stub_loaded(table)
            self.phase = TracePhase.INJECTED
            pending = sum(len(table[key][1]) for key in missing)
            return ApplyReport("targeted", len(table), len(table) - len(missing), changed, pending)

    def install_dispatcher(self) -> ListenerRegistration:
        """Phase 3a: build the filtering proxy listener. Not yet registered."""
        with self._lock:
            self._require_phase(TracePhase.INJECTED, "install_dispatcher")
            return self._build_registration()

    def activate(self):
        """Phase 3b: start tracing through the normal entry point.

        With the activation handler suppressed this registers the proxy and
        changes no entry points.
        """
        with self._lock:
            self._require_phase(TracePhase.INJECTED, "activate")
            if self._registration is None:
                raise PhaseError("activate before install_dispatcher")
            result = self.instrumentation.native_trace_start(self._registration)
            self.phase = TracePhase.ACTIVE
            return result

    def apply(self, target_set: TargetSet, *, adaptive: bool = True,
              pending: Iterable[tuple[MethodRef, tuple]] = ()) -> ApplyReport:
        """Full targeted bring-up: suppress, inject, mount proxy, activate.

        ``pending`` entries join the target set like any other target, so one
        whose class loaded after it was resolved is stubbed right here. The set
        is merged first, so a bad entry raises before anything has changed. If
        a phase after suppression raises, ``apply`` rolls back and re-raises.
        """
        with self._lock:
            if pending:
                target_set = TargetSet(target_set.entries() + list(pending))
            self.suppress_global_tracing()
            try:
                report = self.inject_targets(target_set, adaptive=adaptive)
                self.install_dispatcher()
                self.activate()
            except BaseException:
                self.rollback()
                raise
            return report

    def apply_global(self, target_set: TargetSet) -> ApplyReport:
        """Bring-up without suppression or injection: the stock global walk runs.

        The proxy still filters to the target set, so the trace output matches
        the targeted mode; only the cost differs. The load hook puts every
        method that loads during the session on the interpreter stub too. If
        the walk raises, ``apply_global`` rolls back and re-raises.
        """
        with self._lock:
            self._open("apply_global", "global")
            self._targets = target_set
            self.phase = TracePhase.ACTIVE
            self._adaptive = False
            try:
                changed = self.instrumentation.native_trace_start(self._build_registration())
            except BaseException:
                self.rollback()
                raise
            return ApplyReport(self.mode, len(target_set), 0, changed)

    def rollback(self) -> dict:
        """Undo everything this engine changed, in reverse order. Idempotent."""
        with self._lock:
            summary = {"listener_removed": False, "entry_points_restored": 0,
                       "handler_restored": False}
            if self.phase is TracePhase.IDLE:
                return summary
            ins = self.instrumentation
            if self.phase is TracePhase.ACTIVE:
                with suppress(UnknownListenerError):  # a proxy already gone counts as removed
                    ins.remove_listener(PROXY_LISTENER_ID)
                summary["listener_removed"] = True
            self._registration = None

            if self.mode == "global":
                summary["entry_points_restored"] = ins.restore_all_entry_points()
            else:
                records = filter(None, map(self.vm.registry.get, self._targets.table))
                summary["entry_points_restored"] = sum(
                    map(ins.restore_entry_point_for_method, records))
            self._failed_keys.clear()
            self._targets = TargetSet()
            if self._load_hook is not None:
                self.vm.registry.remove_on_load(self._load_hook)
                self._load_hook = None

            if self.mode == "targeted":  # _open admits a session only on the stock handler
                ins.set_activation_handler(ins.enable_method_tracing_native)
                summary["handler_restored"] = True
            self.phase = TracePhase.IDLE
            self.mode = None
            return summary

    def drain(self):
        return self.sink.drain()

    def status(self) -> dict:
        with self._lock:
            injected, pending = self._counts()
            return {
                "phase": self.phase.value,
                "mode": self.mode,
                "targets": sorted(self._targets.members),
                "injected": injected,
                "pending": pending,
                "events_buffered": len(self.sink),
                "events_emitted": self.sink.emitted_count,
                "events_dropped": self.sink.dropped_count,
                "spurious_filtered": self.spurious_filtered,
                "unmatched_exits": self.unmatched_exits,
                "action_errors": self.action_errors,
                "load_hook_errors": self.load_hook_errors,
                "callback_errors": self.instrumentation.callback_errors,
            }

    # -- internals ------------------------------------------------------------

    def _require_phase(self, expected: TracePhase, op: str) -> None:
        if self.phase is not expected:
            raise PhaseError(f"{op} requires phase {expected.value}, engine is "
                             f"{self.phase.value}")

    def _open(self, op: str, mode: str) -> None:
        """Start a session from idle, and only while no other one holds the VM."""
        self._require_phase(TracePhase.IDLE, op)
        ins = self.instrumentation
        if not ins.is_default_activation or PROXY_LISTENER_ID in ins.listener_ids():
            raise PhaseError(f"{op}: another trace session is up on this VM")
        self.mode = mode
        # Keep the exact callable: rollback must remove what was registered.
        self._load_hook = self._on_classes_loaded
        self.vm.registry.on_load(self._load_hook)

    def _counts(self) -> tuple[int, int]:
        """Stubbed targets, and the actions of the unstubbed rest; 0s unless targeted."""
        if self.mode != "targeted":
            return 0, 0
        table, get = self._targets.table, self.vm.registry.get
        waiting = [entry[1] for key, entry in table.items()
                   if (rec := get(key)) is None or not rec.entry_point.is_instrumentation_stub]
        return len(table) - len(waiting), sum(map(len, waiting))

    def _stub_loaded(self, keys: Iterable[str]) -> tuple[int, list[str]]:
        """Stub each loaded key to match its tier; return slots changed and keys not loaded."""
        registry = self.vm.registry
        changed, missing = 0, []
        for key in keys:
            record = registry.get(key)
            if record is None:
                missing.append(key)
            else:
                compiled = self._adaptive and record.lowered_code is not None
                changed += self.instrumentation.install_stubs_for_method(
                    record, _QUICK if compiled else _INTERP_STUB)
        return changed, missing

    def _build_registration(self) -> ListenerRegistration:
        self._registration = ListenerRegistration(
            listener_id=PROXY_LISTENER_ID,
            event_mask=_BOTH_KINDS,
            callback=self._on_event,
        )
        return self._registration

    def _on_classes_loaded(self, new_keys: list[str]) -> None:
        """Stub what just loaded: the targets, or every method in global mode.

        In targeted mode the loop visits only the loaded targets, picked out of
        the load in C, so an untargeted method costs the hook no bytecode.
        Before ``INJECTED`` the target set is empty, so nothing is. It runs
        inside the app's ``ClassRegistry.load``, so a failed install is logged
        and counted, never raised, and leaves its method unstubbed.
        """
        with self._lock:
            members = self._targets.members
            if self.mode != "global":
                new_keys = filter(members.__contains__, new_keys)
            for key in new_keys:
                if key in members:
                    log.info("deferred injection of %s", key)
                try:
                    self._stub_loaded([key])
                except Exception:
                    self.load_hook_errors += 1
                    log.exception("deferred injection of %s failed; it stays pending", key)

    def _on_event(self, thread, ref: MethodRef, kind: EventKind, args: tuple, value,
                  abrupt: bool) -> None:
        """Proxy listener: filter to targets, run actions, never re-enter.

        ``in_interceptor`` is set only around code the tracer does not own:
        the registry's payload conversion and the logging of a failed action.
        A call they make into a traced method emits nothing.
        """
        if thread.in_interceptor:
            return
        entry = self._targets.table.get(ref.key)
        if entry is None:
            self.spurious_filtered += 1
            return
        _ref, _acts, stack, capture, timed = entry
        try:
            if kind is METHOD_ENTERED:
                if stack:
                    self.sink.append((_clock(), ref, _CAPTURE_STACK,
                                      [INTERCEPT_REF, *reversed(thread.frames)], False))
                if capture:
                    thread.in_interceptor = True
                    try:
                        args_payload = capture_args_payload(
                            args, self.vm.registry.value_to_payload)
                    except Exception:
                        # Still push the entry, so the exit times the call
                        # and skips only the argument event.
                        args_payload = None
                        self._action_failed(thread, ref)
                    finally:
                        thread.in_interceptor = False
                    thread.trace_pending.append((ref.key, _clock(), args_payload))
                elif timed:
                    thread.trace_pending.append((ref.key, _clock(), None))
            elif capture or timed:
                pending = thread.trace_pending
                if not (pending and pending[-1][0] == ref.key):
                    # Exit with no matching entry: listener attached mid-call.
                    self.unmatched_exits += 1
                    return
                _key, t0, args_payload = pending.pop()
                now = _clock()
                if timed:
                    self.sink.append((now, ref, _TIME_METHOD, now - t0, abrupt))
                if capture and args_payload is not None:
                    # Serialize and redact now: the sink never holds a raw value.
                    thread.in_interceptor = True
                    try:
                        ret = None if abrupt else redact_value(
                            self.vm.registry.value_to_payload(value))
                    finally:
                        thread.in_interceptor = False
                    self.sink.append((now, ref, _CAPTURE_ARGS, (args_payload, ret), abrupt))
        except Exception:
            self._action_failed(thread, ref)

    def _action_failed(self, thread, ref: MethodRef) -> None:
        """Count a failed action; log the traceback once per target per session.

        A logging handler is foreign code, so it runs under the re-entry guard.
        """
        self.action_errors += 1
        if ref.key not in self._failed_keys:
            self._failed_keys.add(ref.key)
            thread.in_interceptor = True
            try:
                log.exception("trace action failed for %s", ref.key)
            finally:
                thread.in_interceptor = False


def _noop_activation():
    """Replacement activation handler: deliberately changes nothing."""
    return None
