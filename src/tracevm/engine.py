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

Targets configured before their class is loaded are injected the moment the
class arrives, via a registry load hook that the engine holds only while a
targeted session is up.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .actions import EventSink, TraceAction, capture_args_payload, redact_value
from .core import CompilationState, EntryPoint, MethodRef
from .errors import PhaseError
from .instrumentation import METHOD_ENTERED, EventKind, ListenerRegistration

log = logging.getLogger(__name__)

_clock = time.perf_counter_ns

_CAPTURE_STACK = TraceAction.CAPTURE_STACK
_CAPTURE_ARGS = TraceAction.CAPTURE_ARGS
_TIME_METHOD = TraceAction.TIME_METHOD
_STATE_COMPILED = CompilationState.COMPILED
_QUICK = EntryPoint.INSTRUMENTATION_QUICK_STUB
_INTERP_STUB = EntryPoint.INSTRUMENTATION_INTERPRETER_STUB

# Synthetic innermost frame of every captured stack: the interception point.
INTERCEPT_REF = MethodRef("XTrace", "intercept", ())

PROXY_LISTENER_ID = "xtrace-proxy"


class TracePhase(Enum):
    IDLE = "idle"
    SUPPRESSED = "suppressed"
    INJECTED = "injected"
    ACTIVE = "active"


class ActionFlags(NamedTuple):
    """Which actions a target runs, precomputed so the proxy never scans them."""

    capture_stack: bool
    capture_args: bool
    time_method: bool

    @classmethod
    def of(cls, acts: tuple) -> "ActionFlags":
        return cls(_CAPTURE_STACK in acts, _CAPTURE_ARGS in acts, _TIME_METHOD in acts)


class TargetSet:
    """Immutable set of traced methods with their configured actions.

    Updates replace the whole object, so a dispatch that grabbed a reference
    keeps a consistent view. Duplicate entries for one method merge their
    actions in first-seen order. ``flags`` maps each member key to its
    ``ActionFlags``; a key missing from it is not a target.
    """

    __slots__ = ("members", "flags", "_actions", "_refs")

    def __init__(self, entries: Iterable[tuple[MethodRef, Iterable[TraceAction]]] = ()):
        actions: dict[str, tuple] = {}
        refs: dict[str, MethodRef] = {}
        for ref, acts in entries:
            acts = tuple(acts)
            if not acts:
                raise ValueError(f"target {ref.key} has no actions")
            key = ref.key
            if key in actions:
                merged = actions[key] + tuple(a for a in acts if a not in actions[key])
                actions[key] = merged
            else:
                actions[key] = acts
                refs[key] = ref
        self._actions = actions
        self._refs = refs
        self.members = frozenset(actions)
        self.flags = {key: ActionFlags.of(acts) for key, acts in actions.items()}

    def actions_for(self, key: str) -> tuple:
        return self._actions.get(key, ())

    def entries(self) -> list[tuple[MethodRef, tuple]]:
        return [(ref, self._actions[key]) for key, ref in self._refs.items()]

    def with_target(self, ref: MethodRef, acts: Iterable[TraceAction]) -> "TargetSet":
        return TargetSet(self.entries() + [(ref, tuple(acts))])

    def __contains__(self, key: str) -> bool:
        return key in self.members

    def __len__(self) -> int:
        return len(self._actions)

    def __iter__(self):
        return iter(self._refs.values())


@dataclass
class ApplyReport:
    """What a bring-up actually touched."""

    mode: str
    targets: int
    injected: int
    entry_points_changed: int
    warnings: tuple = ()
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
        self._injected: list[str] = []
        self._registration: ListenerRegistration | None = None
        self._saved_handler = None
        self._load_hook = None
        self._adaptive = True
        self.spurious_filtered = 0
        self.unmatched_exits = 0
        self.action_errors = 0
        self._failed_keys: set[str] = set()

    # -- phase operations ---------------------------------------------------

    def suppress_global_tracing(self) -> None:
        """Phase 1: make the built-in activation a no-op before anything else."""
        with self._lock:
            self._require_free_vm("suppress_global_tracing")
            self.mode = "targeted"
            self._saved_handler = self.instrumentation.set_activation_handler(_noop_activation)
            # Keep the exact callable: rollback must remove what was registered.
            self._load_hook = self._on_classes_loaded
            self.vm.registry.on_load(self._load_hook)
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
            changed = 0
            warnings = []
            registry = self.vm.registry
            for ref in target_set:
                record = registry.get(ref.key)
                if record is None:
                    warnings.append(f"target not loaded yet, deferred: {ref.key}")
                    continue
                if self._install_target_stub(record):
                    changed += 1
                self._injected.append(ref.key)
            self.phase = TracePhase.INJECTED
            return ApplyReport("targeted", len(target_set), len(self._injected), changed,
                               tuple(warnings), self._pending_actions())

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
        whose class loaded after it was resolved is stubbed right here.
        """
        with self._lock:
            self.suppress_global_tracing()
            report = self.inject_targets(TargetSet(target_set.entries() + list(pending)),
                                         adaptive=adaptive)
            self.install_dispatcher()
            self.activate()
            return report

    def apply_global(self, target_set: TargetSet) -> ApplyReport:
        """Bring-up without suppression or injection: the stock global walk runs.

        The proxy still filters to the target set, so the trace output matches
        the targeted mode; only the cost differs.
        """
        with self._lock:
            self._require_free_vm("apply_global")
            self._targets = target_set
            self._build_registration()
            report = self.instrumentation.native_trace_start(self._registration)
            self.phase = TracePhase.ACTIVE
            self.mode = "global"
            return ApplyReport(self.mode, len(target_set), 0, report.entry_points_replaced)

    def rollback(self) -> dict:
        """Undo everything this engine changed, in reverse order. Idempotent."""
        with self._lock:
            summary = {"listener_removed": False, "entry_points_restored": 0,
                       "handler_restored": False}
            if self.phase is TracePhase.IDLE:
                return summary
            if self.phase is TracePhase.ACTIVE:
                self.instrumentation.remove_listener(self._registration.listener_id)
                summary["listener_removed"] = True
            self._registration = None

            if self.mode == "global":
                summary["entry_points_restored"] = (
                    self.instrumentation.restore_all_entry_points())
            else:
                restored = 0
                for key in reversed(self._injected):
                    if self.instrumentation.restore_entry_point_for_method(
                            self.vm.registry.get(key)):
                        restored += 1
                summary["entry_points_restored"] = restored
            self._injected.clear()
            self._failed_keys.clear()
            self._targets = TargetSet()
            if self._load_hook is not None:
                self.vm.registry.remove_on_load(self._load_hook)
                self._load_hook = None

            if self._saved_handler is not None:
                self.instrumentation.set_activation_handler(self._saved_handler)
                self._saved_handler = None
                summary["handler_restored"] = True
            self.phase = TracePhase.IDLE
            self.mode = None
            return summary

    def drain(self):
        return self.sink.drain()

    def status(self) -> dict:
        with self._lock:
            return {
                "phase": self.phase.value,
                "mode": self.mode,
                "targets": sorted(self._targets.members),
                "injected": len(self._injected),
                "pending": self._pending_actions(),
                "listener_active": self.phase is TracePhase.ACTIVE,
                "events_buffered": len(self.sink),
                "events_emitted": self.sink.emitted_count,
                "events_dropped": self.sink.dropped_count,
                "spurious_filtered": self.spurious_filtered,
                "unmatched_exits": self.unmatched_exits,
                "action_errors": self.action_errors,
                "callback_errors": self.instrumentation.callback_errors,
            }

    # -- internals ------------------------------------------------------------

    def _require_phase(self, expected: TracePhase, op: str) -> None:
        if self.phase is not expected:
            raise PhaseError(f"{op} requires phase {expected.value}, engine is "
                             f"{self.phase.value}")

    def _require_free_vm(self, op: str) -> None:
        """A session starts only from idle, and only while no other one holds the VM."""
        self._require_phase(TracePhase.IDLE, op)
        ins = self.instrumentation
        if not ins.is_default_activation or PROXY_LISTENER_ID in ins.listener_ids():
            raise PhaseError(f"{op}: another trace session is up on this VM")

    def _pending_actions(self) -> int:
        """Actions of targets still waiting for their class; 0 outside a targeted session."""
        if self.mode == "global" or self.phase not in (TracePhase.INJECTED, TracePhase.ACTIVE):
            return 0
        injected = set(self._injected)
        return sum(len(self._targets.actions_for(key))
                   for key in self._targets.members if key not in injected)

    def _install_target_stub(self, record) -> bool:
        compiled = self._adaptive and record.compilation_state is _STATE_COMPILED
        return self.instrumentation.install_stubs_for_method(
            record, _QUICK if compiled else _INTERP_STUB)

    def _build_registration(self) -> ListenerRegistration:
        self._registration = ListenerRegistration(
            listener_id=PROXY_LISTENER_ID,
            event_mask=frozenset({EventKind.METHOD_ENTERED, EventKind.METHOD_EXITED}),
            callback=self._on_event,
        )
        return self._registration

    def _on_classes_loaded(self, new_keys: list[str]) -> None:
        """Deferred injection: stub targets whose class just arrived.

        The registry rejects a key it already holds, so a newly loaded target
        cannot have been injected before.
        """
        with self._lock:
            if self.phase not in (TracePhase.INJECTED, TracePhase.ACTIVE):
                return
            if len(self._injected) == len(self._targets):
                return
            registry = self.vm.registry
            for key in new_keys:
                if key in self._targets:
                    self._install_target_stub(registry.get(key))
                    self._injected.append(key)
                    log.info("deferred injection of %s", key)

    def _on_event(self, thread, ref: MethodRef, kind: EventKind, args: tuple, value,
                  abrupt: bool) -> None:
        """Proxy listener: filter to targets, run actions, never re-enter."""
        if thread.in_interceptor:
            return
        flags = self._targets.flags.get(ref.key)
        if flags is None:
            self.spurious_filtered += 1
            return
        stack, capture, timed = flags
        thread.in_interceptor = True
        try:
            if kind is METHOD_ENTERED:
                if stack:
                    self.sink.append((_clock(), ref, _CAPTURE_STACK,
                                      [INTERCEPT_REF, *reversed(thread.frames)], False))
                if capture or timed:
                    args_payload = None
                    if capture:
                        try:
                            args_payload = capture_args_payload(
                                args, self.vm.registry.value_to_payload)
                        except Exception:
                            # Still push the entry, so the exit times the call
                            # and skips only the argument event.
                            self._action_failed(ref)
                    thread.trace_pending.append((ref.key, _clock(), args_payload))
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
                    ret = None if abrupt else redact_value(
                        self.vm.registry.value_to_payload(value))
                    self.sink.append((now, ref, _CAPTURE_ARGS, (args_payload, ret), abrupt))
        except Exception:
            self._action_failed(ref)
        finally:
            thread.in_interceptor = False

    def _action_failed(self, ref: MethodRef) -> None:
        """Count a failed action; log the traceback once per target per session."""
        self.action_errors += 1
        if ref.key not in self._failed_keys:
            self._failed_keys.add(ref.key)
            log.exception("trace action failed for %s", ref.key)


def _noop_activation():
    """Replacement activation handler: deliberately changes nothing."""
    return None
