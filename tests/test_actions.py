import json
import re
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracevm import EventSink, TraceAction, TraceEvent, redact_text
from tracevm.actions import (
    DIGITS_TOKEN,
    EMAIL_TOKEN,
    capture_args_event,
    capture_stack_event,
    redact_args,
    redact_value,
    time_method_event,
)
from tracevm.core import MethodRef

EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
DIGITS_RE = re.compile(r"\d{9,}")


def fully_redacted(text: str) -> bool:
    return not EMAIL_RE.search(text) and not DIGITS_RE.search(text)


# -- redaction ---------------------------------------------------------------

def test_redaction_examples():
    assert redact_text("mail me at jo.doe+x@example.org now") == \
        f"mail me at {EMAIL_TOKEN} now"
    assert redact_text("card 4111111111111111 on file") == \
        f"card {DIGITS_TOKEN} on file"
    assert redact_text("order 12345678") == "order 12345678"
    assert redact_text("order 123456789") == f"order {DIGITS_TOKEN}"
    assert redact_text("plain text") == "plain text"
    # digit-only local part must collapse into the email token, not leave a
    # digits token glued to a domain remnant
    assert redact_text("123456789@mail.com") == EMAIL_TOKEN


def test_redaction_multiple_hits():
    out = redact_text("a@b.co and c@d.org plus 999999999 and 111111111111")
    assert out == f"{EMAIL_TOKEN} and {EMAIL_TOKEN} plus {DIGITS_TOKEN} and {DIGITS_TOKEN}"


def test_redact_value_passes_numbers_through():
    assert redact_value(41111111111111) == 41111111111111
    assert redact_value("41111111111111") == DIGITS_TOKEN
    assert redact_args(["a@b.co", 7]) == [EMAIL_TOKEN, 7]


@given(st.text(max_size=200))
def test_redaction_is_sound(text):
    assert fully_redacted(redact_text(text))


@given(st.text(max_size=200))
def test_redaction_is_idempotent(text):
    once = redact_text(text)
    assert redact_text(once) == once


_local = st.text(alphabet="abcXYZ019._%+-", min_size=1, max_size=20)
_domain = st.text(alphabet="abcXYZ019", min_size=1, max_size=10)
_tld = st.text(alphabet="abcXYZ", min_size=2, max_size=6)


@given(_local, _domain, _tld)
def test_every_email_shape_is_caught(local, domain, tld):
    out = redact_text(f"x {local}@{domain}.{tld} y")
    assert "@" not in out.replace(EMAIL_TOKEN, "")


@given(st.integers(min_value=0, max_value=10**18))
def test_long_digit_runs_always_masked(n):
    out = redact_text(str(n))
    if len(str(n)) >= 9:
        assert out == DIGITS_TOKEN
    else:
        assert out == str(n)


# -- events ------------------------------------------------------------------

def test_event_json_line_shape():
    ref = MethodRef("a.A", "f", ("int",))
    event = TraceEvent(7, 123, ref, TraceAction.TIME_METHOD, {"duration_ns": 5})
    parsed = json.loads(event.to_json_line())
    assert parsed == {"seq": 7, "ts_ns": 123, "method": "a.A.f(int)",
                      "action": 3, "payload": {"duration_ns": 5}}


def test_capture_stack_event_labels_frames():
    ref = MethodRef("a.A", "f", ())
    frames = [MethodRef("x.X", "inner", ()), MethodRef("y.Y", "outer", ("int",))]
    event = capture_stack_event(frames, ref, timestamp_ns=1)
    assert event.payload == {"stack": ["x.X.inner()", "y.Y.outer(int)"]}
    assert event.action is TraceAction.CAPTURE_STACK


def test_capture_args_event_normal_and_abrupt():
    ref = MethodRef("a.A", "f", ("int",))
    event = capture_args_event(ref, ["a@b.co"], 9, False, lambda v: v, timestamp_ns=1)
    assert event.payload == {"args": ["a@b.co"], "return": 9}
    abrupt = capture_args_event(ref, [1], None, True, lambda v: v, timestamp_ns=1)
    assert abrupt.payload == {"args": [1], "abrupt": True}


def test_time_method_event_payload():
    ref = MethodRef("a.A", "f", ())
    assert time_method_event(ref, 55, False, timestamp_ns=1).payload == {"duration_ns": 55}
    assert time_method_event(ref, 55, True, timestamp_ns=1).payload == \
        {"duration_ns": 55, "abrupt": True}


# -- sink --------------------------------------------------------------------

def make_event(i=0):
    return TraceEvent(None, i, MethodRef("a.A", "f", ()), TraceAction.TIME_METHOD,
                      {"duration_ns": i})


def test_sink_sequence_and_drain():
    sink = EventSink(capacity=10)
    for i in range(3):
        assert sink.append(make_event(i))
    assert len(sink) == 3
    result = sink.drain()
    assert [e.sequence_no for e in result] == [0, 1, 2]
    assert result.emitted_total == 3
    assert result.drained_total == 3
    assert result.dropped_total == 0
    assert len(sink) == 0
    # sequence numbers keep counting across drains
    sink.append(make_event())
    assert sink.drain().events[0].sequence_no == 3


def test_sink_bounded_drops_and_counts():
    sink = EventSink(capacity=4)
    outcomes = [sink.append(make_event(i)) for i in range(9)]
    assert outcomes == [True] * 4 + [False] * 5
    assert sink.emitted_count == 9
    assert sink.dropped_count == 5
    result = sink.drain()
    assert len(result) == 4
    assert result.emitted_total == result.drained_total + result.dropped_total
    # capacity frees up after the drain
    assert sink.append(make_event())


def test_sink_default_capacity():
    assert EventSink().capacity == 65_536
    with pytest.raises(ValueError):
        EventSink(capacity=0)


def test_sink_thread_safety():
    sink = EventSink(capacity=100_000)
    n_threads, per_thread = 8, 2_000

    def run():
        for i in range(per_thread):
            sink.append(make_event(i))

    threads = [threading.Thread(target=run) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result = sink.drain()
    assert result.emitted_total == n_threads * per_thread
    assert result.drained_total + result.dropped_total == result.emitted_total
    seqs = [e.sequence_no for e in result]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
