"""Trace actions, payload redaction and the bounded event sink.

Action codes are part of the wire format shared with the config layer:
1 captures the live call stack, 2 captures arguments plus the return value,
3 times the call. Every payload string passes through redaction before it is
stored, so emails and long digit runs never reach the sink.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

from .core import CallFrame, MethodRef


class TraceAction(IntEnum):
    CAPTURE_STACK = 1
    CAPTURE_ARGS = 2
    TIME_METHOD = 3


EMAIL_TOKEN = "[REDACTED:email]"
DIGITS_TOKEN = "[REDACTED:digits]"

_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
_DIGITS_RE = re.compile(r"\d{9,}")


def redact_text(text: str) -> str:
    """Mask email-shaped substrings, then digit runs of nine or more."""
    # Email first: a digit-only local part must become the email token, not
    # leave a digits token that could glue onto the domain.
    text = _EMAIL_RE.sub(EMAIL_TOKEN, text)
    return _DIGITS_RE.sub(DIGITS_TOKEN, text)


def redact_value(value):
    """Redact strings; other payload values pass through unchanged."""
    if isinstance(value, str):
        return redact_text(value)
    return value


def redact_args(values: Iterable) -> list:
    return [redact_value(v) for v in values]


@dataclass(slots=True)
class TraceEvent:
    """One captured observation, serialized as a single NDJSON line."""

    sequence_no: int | None
    timestamp_ns: int
    method_ref: MethodRef
    action: TraceAction
    payload: dict

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "seq": self.sequence_no,
                "ts_ns": self.timestamp_ns,
                "method": self.method_ref.key,
                "action": int(self.action),
                "payload": self.payload,
            },
            sort_keys=False,
            separators=(",", ":"),
        )


@dataclass
class DrainResult:
    events: tuple
    emitted_total: int
    drained_total: int
    dropped_total: int

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)


class EventSink:
    """Bounded in-memory buffer. Append never blocks; overflow drops and counts."""

    DEFAULT_CAPACITY = 65_536

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("sink capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self._next_seq = 0
        self.emitted_count = 0
        self.drained_count = 0
        self.dropped_count = 0

    def append(self, event: TraceEvent) -> bool:
        """Assign a sequence number and buffer the event; False when dropped."""
        with self._lock:
            self.emitted_count += 1
            if len(self._events) >= self.capacity:
                self.dropped_count += 1
                return False
            event.sequence_no = self._next_seq
            self._next_seq += 1
            self._events.append(event)
            return True

    def drain(self) -> DrainResult:
        """Remove and return everything buffered, with counter snapshots."""
        with self._lock:
            events = tuple(self._events)
            self._events.clear()
            self.drained_count += len(events)
            return DrainResult(events, self.emitted_count, self.drained_count,
                               self.dropped_count)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def frame_label(frame: CallFrame) -> str:
    return frame.method_ref.key


def capture_stack_event(frames: Sequence[CallFrame], ref: MethodRef,
                        timestamp_ns: int | None = None) -> TraceEvent:
    """Build a stack snapshot event; frames are expected innermost first."""
    payload = {"stack": [frame_label(f) for f in frames]}
    return TraceEvent(None, timestamp_ns if timestamp_ns is not None else time.time_ns(),
                      ref, TraceAction.CAPTURE_STACK, payload)


def capture_args_payload(args: Sequence, value_to_payload) -> list:
    """Serialize and redact call arguments at entry time."""
    return redact_args(value_to_payload(v) for v in args)


def capture_args_event(ref: MethodRef, args_payload: list, value, abrupt: bool,
                       value_to_payload, timestamp_ns: int | None = None) -> TraceEvent:
    """Finish the argument capture at exit, folding in the return value."""
    payload: dict = {"args": args_payload}
    if abrupt:
        payload["abrupt"] = True
    else:
        payload["return"] = redact_value(value_to_payload(value))
    return TraceEvent(None, timestamp_ns if timestamp_ns is not None else time.time_ns(),
                      ref, TraceAction.CAPTURE_ARGS, payload)


def time_method_event(ref: MethodRef, duration_ns: int, abrupt: bool,
                      timestamp_ns: int | None = None) -> TraceEvent:
    payload: dict = {"duration_ns": duration_ns}
    if abrupt:
        payload["abrupt"] = True
    return TraceEvent(None, timestamp_ns if timestamp_ns is not None else time.time_ns(),
                      ref, TraceAction.TIME_METHOD, payload)
