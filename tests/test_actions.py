import json
import re
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracevm import (EventSink, MethodRef, TargetSet, TraceAction, TraceEngine, TraceEvent, VM,
                     load_program, redact_text)
from tracevm.actions import (
    DIGITS_TOKEN,
    EMAIL_TOKEN,
    capture_args_event,
    capture_stack_event,
    redact_args,
    redact_value,
    time_method_event,
)

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
    event = capture_args_event(ref, ["a@b.co"], 9, False, timestamp_ns=1)
    assert event.payload == {"args": ["a@b.co"], "return": 9}
    abrupt = capture_args_event(ref, [1], None, True, timestamp_ns=1)
    assert abrupt.payload == {"args": [1], "abrupt": True}


def test_time_method_event_payload():
    ref = MethodRef("a.A", "f", ())
    assert time_method_event(ref, 55, False, timestamp_ns=1).payload == {"duration_ns": 55}
    assert time_method_event(ref, 55, True, timestamp_ns=1).payload == \
        {"duration_ns": 55, "abrupt": True}


# Text heavy in what JSON must escape, non-ASCII and PII shapes, some of it redacted.
_wild_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é中😀@.'),
                               st.characters()), max_size=20)
_text = st.one_of(_wild_text, _wild_text.map(redact_text),
                  st.builds("{}@{}.org {}".format, _wild_text, _wild_text,
                            st.integers(10**8, 10**12)).map(redact_text),
                  st.sampled_from([EMAIL_TOKEN, DIGITS_TOKEN]))
_i64 = st.one_of(st.sampled_from([-2**63, -1, 0, 1, 2**63 - 1]),
                 st.integers(-2**63, 2**63 - 1))
_values = st.recursive(st.one_of(st.none(), st.booleans(), _i64, _text),
                       lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(_text, inner, max_size=3), max_leaves=8)
_refs = st.builds(MethodRef, _text, _text, st.lists(_text, max_size=3))
_events = st.one_of(
    st.builds(capture_stack_event, st.lists(_refs, max_size=4), _refs, _i64),
    st.builds(capture_args_event, _refs, st.lists(_values, max_size=4), _values,
              st.booleans(), _i64),
    st.builds(time_method_event, _refs, _i64, st.booleans(), _i64))


@given(_events, st.one_of(st.none(), _i64))
def test_event_json_line_is_byte_identical_to_compact_dumps(event, seq):
    event.sequence_no = seq
    expected = json.dumps({"seq": seq, "ts_ns": event.timestamp_ns,
                           "method": event.method_ref.key, "action": int(event.action),
                           "payload": event.payload}, separators=(",", ":"))
    assert event.to_json_line() == expected


# -- sink --------------------------------------------------------------------

def make_record(i=0):
    """A raw ``TIME_METHOD`` record of duration ``i``, as the proxy appends it."""
    return (time.perf_counter_ns(), MethodRef("a.A", "f", ()), TraceAction.TIME_METHOD, i,
            False)


def test_sink_sequence_and_drain():
    sink = EventSink(capacity=10)
    for i in range(3):
        assert sink.append(make_record(i))
    assert len(sink) == 3
    result = sink.drain()
    assert [e.sequence_no for e in result] == [0, 1, 2]
    assert result.emitted_total == 3
    assert result.drained_total == 3
    assert result.dropped_total == 0
    assert len(sink) == 0
    # sequence numbers keep counting across drains
    sink.append(make_record())
    assert sink.drain().events[0].sequence_no == 3


def test_sink_bounded_drops_and_counts():
    sink = EventSink(capacity=4)
    outcomes = [sink.append(make_record(i)) for i in range(9)]
    assert outcomes == [True] * 4 + [False] * 5
    assert sink.emitted_count == 9
    assert sink.dropped_count == 5
    result = sink.drain()
    assert len(result) == 4
    assert result.emitted_total == result.drained_total + result.dropped_total
    # capacity frees up after the drain
    assert sink.append(make_record())


def test_sink_default_capacity():
    assert EventSink().capacity == 65_536
    with pytest.raises(ValueError):
        EventSink(capacity=0)


def test_sink_thread_safety():
    sink = EventSink(capacity=100_000)
    n_threads, per_thread = 8, 2_000

    def run():
        for i in range(per_thread):
            sink.append(make_record(i))

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


def test_sink_refill_admits_exactly_the_drained_room():
    capacity = 4
    sink = EventSink(capacity=capacity)
    assert [sink.append(make_record(i)) for i in range(capacity + 3)] == \
        [True] * capacity + [False] * 3
    k = len(sink.drain())
    assert k == capacity
    assert [sink.append(make_record(i)) for i in range(k + 1)] == [True] * k + [False]
    assert len(sink.drain()) == capacity
    # a partial drain frees its slots on top of the admissions still unused
    assert sink.append(make_record())
    assert len(sink.drain()) == 1
    assert [sink.append(make_record(i)) for i in range(capacity + 1)] == \
        [True] * capacity + [False]
    assert (sink.emitted_count, sink.drained_count, sink.dropped_count) == (18, 9, 5)


def test_sink_bound_is_exact_under_threads():
    # A tiny capacity refills the admissions after almost every drain, so a
    # refill that raced another would show as an over-full buffer.
    capacity, n_threads, per_thread = 2, 8, 10_000
    sink = EventSink(capacity=capacity)
    admitted = [0] * n_threads
    drains, over = [], []
    appending = threading.Event()
    appending.set()

    def append(t):
        for i in range(per_thread):
            # data numbers each record in its thread's append order
            admitted[t] += sink.append(make_record(t * per_thread + i))

    def drain():
        while appending.is_set():
            drains.append(sink.drain().events)

    def sample():
        while appending.is_set():
            if len(sink) > capacity:
                over.append(len(sink))

    appenders = [threading.Thread(target=append, args=(t,)) for t in range(n_threads)]
    watchers = [threading.Thread(target=drain), threading.Thread(target=sample)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in watchers + appenders:
            t.start()
        for t in appenders:
            t.join(timeout=60)
    finally:
        appending.clear()
        for t in watchers:
            t.join(timeout=60)
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in watchers + appenders)
    last = sink.drain()
    drains.append(last.events)

    assert over == []
    assert max(map(len, drains)) <= capacity
    events = [e for batch in drains for e in batch]
    appends = n_threads * per_thread
    assert last.emitted_total == last.drained_total + last.dropped_total == appends
    assert sink.emitted_count == appends
    assert len(events) == last.drained_total == sum(admitted)
    assert last.dropped_total == appends - sum(admitted)
    assert [e.sequence_no for e in events] == list(range(len(events)))
    # sequence numbers follow each thread's append order
    for t in range(n_threads):
        mine = [e.payload["duration_ns"] for e in events
                if e.payload["duration_ns"] // per_thread == t]
        assert mine == sorted(mine)


# -- sink fed by the trace proxy ----------------------------------------------

SINK_SRC = """
class s.S
  method work(int)
    loadarg 0
    pushconst 2
    mul
    ret
  method echo(java.lang.String)
    loadarg 0
    ret
  method submit()
    pushconst "reach me at pat.lee@example.com"
    call s.S.echo(java.lang.String)
    pushconst "acct 123456789012"
    call s.S.echo(java.lang.String)
    add
    ret
"""

ALL_ACTIONS = (TraceAction.CAPTURE_STACK, TraceAction.CAPTURE_ARGS, TraceAction.TIME_METHOD)


def traced_session(key, acts, capacity=EventSink.DEFAULT_CAPACITY):
    vm = VM(load_program(SINK_SRC))
    engine = TraceEngine(vm, EventSink(capacity=capacity))
    engine.apply(TargetSet([(MethodRef.parse(key), acts)]))
    return vm, engine


def test_sink_counts_exact_under_threads_and_overflow():
    n_threads, per_thread = 8, 300
    total = n_threads * per_thread * len(ALL_ACTIONS)
    # At most four drains of a tenth each: the rest must drop.
    vm, engine = traced_session("s.S.work(int)", ALL_ACTIONS, capacity=total // 10)
    sink = engine.sink
    drained = []
    wrong = []

    def work():
        thread = vm.new_thread()
        for i in range(per_thread):
            if vm.invoke(thread, "s.S.work(int)", (i,)) != 2 * i:
                wrong.append(i)

    def drain_while_running():
        for _ in range(3):
            time.sleep(0.001)
            drained.extend(sink.drain().events)

    threads = [threading.Thread(target=drain_while_running)]
    threads += [threading.Thread(target=work) for _ in range(n_threads)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    last = sink.drain()
    drained.extend(last.events)

    assert wrong == []
    assert last.emitted_total == total
    assert last.emitted_total == last.drained_total + last.dropped_total
    assert last.dropped_total > 0
    assert (sink.emitted_count, sink.drained_count, sink.dropped_count) == \
        (last.emitted_total, last.drained_total, last.dropped_total)
    assert len(drained) == last.drained_total
    assert sorted(e.sequence_no for e in drained) == list(range(len(drained)))


class CountingLock:
    """A lock that counts its acquires."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquires = 0

    def acquire(self, *args, **kwargs):
        self.acquires += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc):
        self.release()


def test_traced_calls_take_no_sink_lock_while_the_sink_has_room():
    calls = 1_000
    vm, engine = traced_session("s.S.work(int)", (TraceAction.TIME_METHOD,), capacity=calls)
    sink = engine.sink
    sink._lock = lock = CountingLock()
    thread = vm.new_thread()
    for i in range(calls):
        assert vm.invoke(thread, "s.S.work(int)", (i,)) == 2 * i
    assert lock.acquires == 0
    # full: each dropped append takes the lock exactly once
    for i in range(5):
        assert vm.invoke(thread, "s.S.work(int)", (i,)) == 2 * i
        assert lock.acquires == i + 1
    assert sink.dropped_count == 5
    assert len(sink.drain()) == calls


def test_drained_timestamps_follow_sequence_and_wall_clock():
    vm, engine = traced_session("s.S.work(int)", ALL_ACTIONS)
    thread = vm.new_thread()
    for rounds in (1, 5, 20):
        for i in range(rounds):
            vm.invoke(thread, "s.S.work(int)", (i,))
        now = time.time_ns()
        events = engine.drain().events
        assert len(events) == 3 * rounds
        stamps = [e.timestamp_ns for e in events]
        assert stamps == sorted(stamps)
        assert all(abs(ts - now) < 1_000_000_000 for ts in stamps)
        seqs = [e.sequence_no for e in events]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))


def test_sink_never_holds_unredacted_text():
    email, digits = "pat.lee@example.com", "123456789012"
    vm, engine = traced_session("s.S.echo(java.lang.String)", (TraceAction.CAPTURE_ARGS,))
    for _ in range(3):
        vm.invoke(vm.new_thread(), "s.S.submit()", ())
    records = list(engine.sink._records)
    assert len(records) == 6
    for record in records:
        assert email not in repr(record) and digits not in repr(record)
    events = engine.drain().events
    assert len(events) == 6
    for event in events:
        shown = (repr(event.payload), event.to_json_line())
        for text in shown:
            assert email not in text and digits not in text
        assert event.payload["return"] in (f"reach me at {EMAIL_TOKEN}", f"acct {DIGITS_TOKEN}")
        assert event.payload["args"] == [event.payload["return"]]
