"""Trace actions, payload redaction and the bounded event sink.

Action codes are part of the wire format shared with the config layer:
1 captures the live call stack, 2 captures arguments plus the return value,
3 times the call.

The probe side records raw: the sink stores one tuple per observation,
``(t_perf_ns, ref, action, data, abrupt)``, where ``data`` is the duration for
``TIME_METHOD``, the innermost-first frame snapshot for ``CAPTURE_STACK`` and
the ``(args_payload, return_payload)`` pair for ``CAPTURE_ARGS``. ``drain``
turns the records into ``TraceEvent``s, numbers them in append order and
stamps each with ``wall0 + (t_perf_ns - perf0)``, where ``(wall0, perf0)`` is
one wall-clock/perf-counter anchor taken when the sink is built.

Redaction still happens before storage: argument and return values are
serialized and every payload string is redacted at capture time, so emails and
long digit runs never reach the sink, not even as raw records.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

from .core import MethodRef


class TraceAction(IntEnum):
    CAPTURE_STACK = 1
    CAPTURE_ARGS = 2
    TIME_METHOD = 3


# Bound once, as read for every drained event: an Enum member read off its class is slow.
_CAPTURE_STACK = TraceAction.CAPTURE_STACK
_CAPTURE_ARGS = TraceAction.CAPTURE_ARGS
_TIME_METHOD = TraceAction.TIME_METHOD


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
    """Bounded in-memory buffer of raw records. Append never blocks; overflow
    drops and counts. ``drain`` builds the events."""

    DEFAULT_CAPACITY = 65_536

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("sink capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: list[tuple] = []
        # Perf-counter readings become wall-clock stamps through this anchor.
        self._wall_offset = time.time_ns() - time.perf_counter_ns()
        self.emitted_count = 0
        self.drained_count = 0
        self.dropped_count = 0

    def append(self, record: tuple) -> bool:
        """Buffer one ``(t_perf_ns, ref, action, data, abrupt)`` record; False when dropped."""
        with self._lock:
            self.emitted_count += 1
            if len(self._records) >= self.capacity:
                self.dropped_count += 1
                return False
            self._records.append(record)
            return True

    def drain(self) -> DrainResult:
        """Remove everything buffered and return it as numbered events, with
        counter snapshots. Sequence numbers continue across drains."""
        with self._lock:
            records = self._records
            self._records = []
            first_seq = self.drained_count
            self.drained_count += len(records)
            emitted, drained, dropped = (self.emitted_count, self.drained_count,
                                         self.dropped_count)
        offset = self._wall_offset
        events = []
        for seq, (t_perf, ref, action, data, abrupt) in enumerate(records, first_seq):
            if action is _TIME_METHOD:
                event = time_method_event(ref, data, abrupt, offset + t_perf)
            elif action is _CAPTURE_STACK:
                event = capture_stack_event(data, ref, offset + t_perf)
            else:
                event = capture_args_event(ref, data[0], data[1], abrupt, offset + t_perf)
            event.sequence_no = seq
            events.append(event)
        return DrainResult(tuple(events), emitted, drained, dropped)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def capture_stack_event(frames: Sequence[MethodRef], ref: MethodRef,
                        timestamp_ns: int) -> TraceEvent:
    """Build a stack snapshot event; frames are expected innermost first."""
    payload = {"stack": [f.key for f in frames]}
    return TraceEvent(None, timestamp_ns, ref, _CAPTURE_STACK, payload)


def capture_args_payload(args: Sequence, value_to_payload) -> list:
    """Serialize and redact call arguments at entry time."""
    return redact_args(value_to_payload(v) for v in args)


def capture_args_event(ref: MethodRef, args_payload: list, return_payload, abrupt: bool,
                       timestamp_ns: int) -> TraceEvent:
    """Build an argument capture from payloads already serialized and redacted."""
    payload: dict = {"args": args_payload}
    if abrupt:
        payload["abrupt"] = True
    else:
        payload["return"] = return_payload
    return TraceEvent(None, timestamp_ns, ref, _CAPTURE_ARGS, payload)


def time_method_event(ref: MethodRef, duration_ns: int, abrupt: bool,
                      timestamp_ns: int) -> TraceEvent:
    payload: dict = {"duration_ns": duration_ns}
    if abrupt:
        payload["abrupt"] = True
    return TraceEvent(None, timestamp_ns, ref, _TIME_METHOD, payload)
