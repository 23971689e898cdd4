"""Property checks run outside the timed blocks.

Each check returns a list of problems; an empty list means it passed. The
workloads count one operation per check and fail it when a problem is found.
"""

from __future__ import annotations

import hashlib

from refeval import normalise_event

import tracevm as tv

_EP = tv.EntryPoint
_COMPILED = tv.CompilationState.COMPILED
_GATE_SPAN = 1 << 64


def tier_entry(record) -> "tv.EntryPoint":
    """The entry point a method has with no tracing: it follows the tier."""
    if record.compilation_state is _COMPILED:
        return _EP.COMPILED_DIRECT
    return _EP.INTERPRETER_BRIDGE


def stub_for(record) -> "tv.EntryPoint":
    """The stub a targeted bring-up installs: matched to the method's tier."""
    if record.compilation_state is _COMPILED:
        return _EP.INSTRUMENTATION_QUICK_STUB
    return _EP.INSTRUMENTATION_INTERPRETER_STUB


def restored(vm, skip=frozenset(), keys=None) -> list[str]:
    """After a rollback: every entry point fits its tier (of the methods in
    ``keys`` when given), nothing is saved, no listener is registered and
    the activation handler is the default."""
    problems = []
    ins = vm.instrumentation
    if ins.listener_ids():
        problems.append(f"listeners still registered: {ins.listener_ids()}")
    if not ins.is_default_activation:
        problems.append("activation handler is not the default")
    records = vm.registry.records() if keys is None else [vm.registry.get(k) for k in keys]
    for record in records:
        key = record.method_ref.key
        if record.original_entry_point is not None:
            problems.append(f"{key} keeps a saved original entry point")
        if key not in skip and record.entry_point is not tier_entry(record):
            problems.append(
                f"{key} is {record.compilation_state.value} but enters through "
                f"{record.entry_point.value}")
        if len(problems) > 5:
            break
    return problems


def method_restored(record) -> list[str]:
    if record.entry_point is not tier_entry(record):
        return [f"{record.method_ref.key} is {record.compilation_state.value} but was "
                f"restored to {record.entry_point.value}"]
    return []


def apply_changed_exactly(before: dict, registry, target_keys) -> list[str]:
    """``apply`` changed the entry points of the loaded targets and nothing else,
    each to the stub that matches its tier."""
    problems = []
    target_keys = set(target_keys)
    for key, entry in before.items():
        record = registry.get(key)
        if key in target_keys:
            if record.entry_point is not stub_for(record):
                problems.append(f"target {key} enters through {record.entry_point.value}")
        elif record.entry_point is not entry:
            problems.append(f"non-target {key} changed to {record.entry_point.value}")
        if len(problems) > 5:
            break
    return problems


def sink_accounting(drain) -> list[str]:
    """Everything emitted was drained or dropped, and nothing was dropped."""
    problems = []
    if drain.emitted_total != drain.drained_total + drain.dropped_total:
        problems.append(f"emitted {drain.emitted_total} != drained {drain.drained_total}"
                        f" + dropped {drain.dropped_total}")
    if drain.dropped_total:
        problems.append(f"{drain.dropped_total} events dropped")
    return problems


def events_match(expected: list, events, keys=None) -> list[str]:
    """The drained events, restricted to ``keys`` when given, equal the
    reference evaluator's prediction in order."""
    actual = []
    for event in events:
        if keys is not None and event.method_ref.key not in keys:
            continue
        try:
            actual.append(normalise_event(event))
        except (KeyError, ValueError) as exc:
            return [f"malformed event: {exc}"]
    if keys is not None:
        expected = [e for e in expected if e[1] in keys]
    if actual == expected:
        return []
    for i, (a, e) in enumerate(zip(actual, expected)):
        if a != e:
            return [f"event {i}: got {a!r}, expected {e!r}"]
    return [f"got {len(actual)} events, expected {len(expected)}"]


def results_match(expected: list, actual: list) -> int:
    """Number of results that differ from the reference."""
    if len(expected) != len(actual):
        return max(len(expected), len(actual))
    return sum(1 for e, a in zip(expected, actual) if e != a)


def gate_admits(device_id: str, config_id: str, fraction: float) -> bool:
    """The documented gate rule, computed apart from ``tracevm.config``:
    blake2b-64 of ``"<device>:<config_id>"`` below fraction * 2**64."""
    digest = hashlib.blake2b(f"{device_id}:{config_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") < fraction * _GATE_SPAN


def fault_drawn(device_id: str, salt: str, rate: float) -> bool:
    """The fleet's documented deterministic fault draw, for the health check."""
    if rate <= 0.0:
        return False
    digest = hashlib.blake2b(f"{salt}:{device_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") < rate * _GATE_SPAN
