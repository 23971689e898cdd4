"""Runtime instrumentation: listeners, event dispatch and entry-point stubs.

Listeners subscribe to method entry and exit events and are called as
``callback(thread, ref, kind, args, value, abrupt)``: entry events pass the
call's own argument tuple, the one the body reads, with ``value=None,
abrupt=False``; exit events pass
``args=()`` with the return value, or ``None`` and ``abrupt=True`` when the
call raised.

The VM fires an event only when its kind's callback tuple is non-empty, the
same tuple dispatch then walks. Each is an immutable snapshot, so
registration changes never mutate a list another thread is iterating; in-flight
dispatch just finishes on the old snapshot. A listener that raises is logged and
counted, never propagated into the traced call.

Starting tracing the built-in way registers the listener and then hands
control to the activation handler. The stock handler walks every loaded
method and installs the interpreter stub on all of them, which is exactly the
whole-runtime slowdown the targeted engine exists to avoid. The handler slot
is swappable so the engine can suppress the global walk, and empty, with no
reference back, for the stock walk. A stub install saves the entry it replaces,
which ``VM.jit_compile`` keeps on the method's tier; restore puts it back as is.
The stock walk and its restore are one pass each and return how many entry
points they changed.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable

from .core import _INTERP_STUB, _QUICK, ClassRegistry, EntryPoint, MethodRecord, MethodRef
from .errors import DuplicateListenerError, InvalidStubError, UnknownListenerError

log = logging.getLogger(__name__)


class EventKind(Enum):
    METHOD_ENTERED = "method_entered"
    METHOD_EXITED = "method_exited"


# Module-level aliases: dispatch runs on every traced call, and a global load
# is cheaper than an enum class-attribute lookup.
METHOD_ENTERED = EventKind.METHOD_ENTERED
METHOD_EXITED = EventKind.METHOD_EXITED
_ENTERED, _EXITED = frozenset({METHOD_ENTERED}), frozenset({METHOD_EXITED})


@dataclass(frozen=True)
class ListenerRegistration:
    listener_id: str
    event_mask: frozenset
    callback: Callable


class Instrumentation:
    """Listener registry and stub installer for one VM."""

    def __init__(self, registry: ClassRegistry):
        self.registry = registry
        self._lock = threading.Lock()
        self._registrations: dict[str, ListenerRegistration] = {}
        self._entry_callbacks: tuple = ()
        self._exit_callbacks: tuple = ()
        self.events_dispatched = 0
        self.callback_errors = 0
        self._activation_handler: Callable | None = None  # None: the stock walk

    # -- listener registry ------------------------------------------------

    def add_listener(self, registration: ListenerRegistration) -> None:
        if not registration.event_mask:
            raise ValueError("listener must subscribe to at least one event kind")
        with self._lock:
            if registration.listener_id in self._registrations:
                raise DuplicateListenerError(
                    f"listener {registration.listener_id!r} already registered")
            self._registrations[registration.listener_id] = registration
            self._rebuild_snapshots()

    def remove_listener(self, listener_id: str) -> None:
        with self._lock:
            if listener_id not in self._registrations:
                raise UnknownListenerError(f"listener {listener_id!r} not registered")
            del self._registrations[listener_id]
            self._rebuild_snapshots()

    def _rebuild_snapshots(self) -> None:
        # A subset test reuses the masks' stored hashes; ``in`` would run Enum.__hash__.
        regs = self._registrations.values()
        self._entry_callbacks = tuple(r.callback for r in regs if _ENTERED <= r.event_mask)
        self._exit_callbacks = tuple(r.callback for r in regs if _EXITED <= r.event_mask)

    def listener_ids(self) -> list[str]:
        with self._lock:
            return list(self._registrations.keys())

    # -- event dispatch ----------------------------------------------------

    def method_enter_event(self, thread, ref: MethodRef, args: tuple) -> None:
        self.events_dispatched += 1
        for callback in self._entry_callbacks:
            try:
                callback(thread, ref, METHOD_ENTERED, args, None, False)
            except Exception:
                self.callback_errors += 1
                log.exception("method-entry listener failed for %s", ref.key)

    def method_exit_event(self, thread, ref: MethodRef, value, abrupt: bool = False) -> None:
        self.events_dispatched += 1
        for callback in self._exit_callbacks:
            try:
                callback(thread, ref, METHOD_EXITED, (), value, abrupt)
            except Exception:
                self.callback_errors += 1
                log.exception("method-exit listener failed for %s", ref.key)

    # -- entry-point stubs ---------------------------------------------------

    def install_stubs_for_method(self, record: MethodRecord, stub: EntryPoint) -> bool:
        """Swap a method's entry point to an instrumentation stub.

        Saves the original entry point the first time so it can be restored
        exactly. Returns True when the slot actually changed. The quick stub
        is only valid for compiled methods.
        """
        if not stub.is_instrumentation_stub:
            raise InvalidStubError(f"{stub.value} is not an instrumentation stub")
        if stub is _QUICK and record.lowered_code is None:
            raise InvalidStubError(
                f"quick stub needs a compiled method: {record.method_ref.key}")
        if record.original_entry_point is None:
            if record.entry_point.is_instrumentation_stub:  # pragma: no cover - defensive
                raise InvalidStubError(
                    f"{record.method_ref.key} has a stub installed but no saved original")
            record.original_entry_point = record.entry_point
        if record.entry_point is stub:
            return False
        record.entry_point = stub
        return True

    def restore_entry_point_for_method(self, record: MethodRecord) -> bool:
        """Put back the saved original entry point. No-op without one."""
        original = record.original_entry_point
        if original is None:
            return False
        record.entry_point = original
        record.original_entry_point = None
        return True

    def restore_all_entry_points(self) -> int:
        """Restore every method; returns how many entry points changed."""
        return sum(map(self.restore_entry_point_for_method, self.registry.records()))

    def enable_method_tracing_native(self) -> int:
        """Stock activation: walk every class and stub every method.

        Each method is degraded to the interpreter stub regardless of its
        compilation state, so the entire runtime pays interpreter cost while
        tracing is on. Returns how many entry points changed.
        """
        return sum(map(self.install_stubs_for_method, self.registry.records(),
                       repeat(_INTERP_STUB)))

    # -- activation handler slot ----------------------------------------------

    @property
    def is_default_activation(self) -> bool:
        return self._activation_handler is None

    def set_activation_handler(self, handler: Callable) -> Callable:
        """Swap the activation handler; returns the previous one. The stock walk is
        the empty slot, which holds no reference back to this ``Instrumentation``."""
        if handler is None:
            raise ValueError("activation handler must be callable")
        stock = self.enable_method_tracing_native
        previous = self._activation_handler or stock
        self._activation_handler = None if handler == stock else handler
        return previous

    def native_trace_start(self, registration: ListenerRegistration):
        """Built-in trace start: register the listener, then run activation.

        With the stock handler in place this performs the global stub walk.
        With a replaced handler only the listener registration happens plus
        whatever the replacement does.
        """
        self.add_listener(registration)
        return (self._activation_handler or self.enable_method_tracing_native)()
