"""Shared pieces of the workloads: operation accounting, round results and the
wire format of the inputs they send."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from machine import median, percentile

# The application is fixed: ``--seed`` draws what users and the operator send
# it (traffic, arguments, targets, config ids), not the program itself, so a
# run's cost does not hinge on one random program's shape.
APP_SEED = 1234
# Every workload times its traced probe and the untraced twin with this argument.
PROBE_ARGS = (7,)


class Recorder:
    """Counts checked operations.

    An operation fails when its check finds a problem. Failures of the steps
    named in ``known_faults`` are faults of the program that the benchmark
    keeps on purpose; any other failure, or a failed harness check, makes the
    run incorrect.
    """

    def __init__(self, known_faults=()):
        self.known_faults = frozenset(known_faults)
        self.attempted = 0
        self.failed = 0
        self.failed_by_step: Counter = Counter()
        self.unexpected: list[str] = []

    def op(self, step: str, problems: list, n: int = 1, failed: int | None = None) -> None:
        self.attempted += n
        if not problems:
            return
        bad = n if failed is None else failed
        self.failed += bad
        self.failed_by_step[step] += bad
        if step not in self.known_faults and len(self.unexpected) < 20:
            self.unexpected.append(f"{step}: {problems[0]}")

    def harness(self, check: str, problems: list) -> None:
        if problems and len(self.unexpected) < 20:
            self.unexpected.append(f"{check}: {problems[0]}")

    @property
    def correct(self) -> bool:
        return not self.unexpected


@dataclass
class Round:
    """The timed blocks of one round by name (``machine.Block``), the number
    of app root calls in its ``traffic`` block, and the program counters the
    round moved.

    Every workload's round has the blocks ``traffic`` and the probe blocks
    ``traced<k>`` and ``untraced<k>`` for k = 0, 1, ... A round that brings a
    config up has ``apply`` (and ``parse_config`` and ``resolve`` when it
    parses and resolves the config apart from ``apply``); one that rolls its
    session back has ``rollback``.
    """

    blocks: dict
    calls: int
    counters: dict = field(default_factory=dict)

    def total(self, sc) -> float:
        """Seconds of all blocks, each passed through ``sc``."""
        return sum(sc(block) for block in self.blocks.values())


def counters_of(vm, engine) -> dict:
    """Cumulative program counters of one session."""
    sink = engine.sink
    return {
        "interpreted_calls": vm.interpreted_calls,
        "compiled_calls": vm.compiled_calls,
        "events_dispatched": vm.instrumentation.events_dispatched,
        "events_filtered": engine.spurious_filtered,
        "events_emitted": sink.emitted_count,
        "events_dropped": sink.dropped_count,
    }


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def split_key(key: str) -> tuple[str, str, str]:
    """``pkg.Cls.m(int,int)`` -> (``pkg.Cls``, ``m``, ``int,int``)."""
    lparen = key.index("(")
    cls, method = key[:lparen].rsplit(".", 1)
    return cls, method, key[lparen + 1:-1]


def wire_config(config_id: str, targets: dict, fraction: float = 1.0) -> str:
    """Wire JSON with one entry per (method, action): the format allows one
    action per entry."""
    entries = []
    for key, acts in targets.items():
        cls, method, sign = split_key(key)
        for action in sorted(acts):
            entries.append({"action": action, "className": cls, "methodName": method,
                            "methodSign": sign})
    return json.dumps({"config_id": config_id, "rollout_fraction": fraction,
                       "approved": True, "dynamic_trace_config": entries})


def send(invoke, thread, calls):
    return [invoke(thread, key, args) for key, args in calls]


def probe_block(invoke, thread, ref, args, n):
    for _ in range(n):
        value = invoke(thread, ref, args)
    return value


def probe_blocks(pair, invoke, thread, traced, untraced, n: int, i: int, twin: bool = False,
                 pairs: int = 1):
    """Time ``n`` calls to the traced probe and ``n`` to its untraced twin by
    ``MethodRef``, ``pairs`` times; with ``twin``, ``n`` more to the twin
    each time (the A/A block). Every other pair runs its blocks in reverse
    order, so neither side keeps the first slot. Returns ``(blocks,
    values)`` keyed by block name: ``traced<k>``, ``untraced<k>``,
    ``aa<k>`` for pair k."""
    names = ("traced", "untraced", "aa") if twin else ("traced", "untraced")
    blocks, values = {}, {}
    for k in range(pairs):
        for name in (names if (i + k) % 2 == 0 else names[::-1]):
            ref = traced if name == "traced" else untraced
            key = f"{name}{k}"
            blocks[key], values[key] = pair.time(probe_block, invoke, thread, ref,
                                                 PROBE_ARGS, n)
    return blocks, values


def probe_times(rounds, sc, name: str, n: int) -> list:
    """Per-call microseconds of every ``name<k>`` probe block of ``n`` calls,
    round by round and pair by pair."""
    out = []
    for r in rounds:
        k = 0
        while f"{name}{k}" in r.blocks:
            out.append(sc(r.blocks[f"{name}{k}"]) * 1e6 / n)
            k += 1
    return out


BRING_UP = ("parse_config", "resolve", "apply")


def end_to_end(rounds, sc, pass_len: int, probe_calls: int) -> dict:
    """The end-to-end figures every workload reports; ``sc(block)`` gives a
    block's seconds. Rates are taken over whole passes (``pass_len`` rounds,
    after which the inputs repeat), so every rate covers the same work."""
    us = 1e6
    passes = [rounds[k:k + pass_len] for k in range(0, len(rounds) - pass_len + 1, pass_len)]
    app = [sum(r.calls for r in p) / sum(sc(r.blocks["traffic"]) for r in p) for p in passes]
    cycles = [len(p) / sum(r.total(sc) for r in p) for p in passes]
    traced = probe_times(rounds, sc, "traced", probe_calls)
    untraced = probe_times(rounds, sc, "untraced", probe_calls)
    out = {
        "app_calls_per_s": median(app),
        "traced_call_us": median(traced),
        "traced_call_p90_us": percentile(traced, 90),
        "untraced_call_us": median(untraced),
        "trace_overhead_us": median([t - u for t, u in zip(traced, untraced)]),
        "traced_over_untraced": median(traced) / median(untraced),
        "session_cycles_per_s": median(cycles),
    }
    # Bringing a config up (parse, resolve and apply) and taking it down, in
    # the workloads whose rounds do.
    activate = [sum(sc(r.blocks[b]) for b in BRING_UP if b in r.blocks) * us
                for r in rounds if "apply" in r.blocks]
    rollback = [sc(r.blocks["rollback"]) * us for r in rounds if "rollback" in r.blocks]
    if activate:
        out.update(activate_us=median(activate), activate_p90_us=percentile(activate, 90))
    if rollback:
        out["rollback_us"] = median(rollback)
    return out
