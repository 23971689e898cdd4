"""Ablation benchmark: targeted tracing against its degraded variants.

Four modes run the same workload. ``baseline`` never activates tracing.
``full`` is the complete mechanism: suppressed global activation, per-target
stubs matched to tier, filtering proxy. ``global`` skips suppression and
injection, so activation walks every loaded method. ``interpreter`` keeps
suppression but forces interpreter stubs even on compiled targets.

Costs reported per mode: activation wall time and entry points touched,
per-call latency of a traced and an untraced probe (medians over individual
call timings, taken in batches that alternate over every mode's two probes),
dispatched-event count during mixed traffic as the CPU proxy, and trace-event
volume. After every run the harness verifies the registry is bit-identical to
its pre-trace snapshot.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from enum import Enum

from .engine import ApplyReport, TargetSet, TraceEngine
from .errors import BenchmarkError
from .vm import VM
from .workload import GeneratedWorkload


class AblationMode(Enum):
    BASELINE = "baseline"
    FULL = "full"
    GLOBAL = "global"
    INTERPRETER = "interpreter"


def bring_up(engine: TraceEngine, mode: AblationMode, targets: TargetSet,
             pending=()) -> ApplyReport | None:
    """Start ``mode``'s session on ``engine``: the one map from a mode to its bring-up.

    ``baseline`` starts none. Every other mode traces ``targets`` and the
    ``pending`` entries alike, so a target whose class loads later is traced
    in each of them; ``global`` also walks every loaded method.
    """
    if mode is AblationMode.BASELINE:
        return None
    if pending:
        targets = TargetSet(targets.entries() + list(pending))
    if mode is AblationMode.GLOBAL:
        return engine.apply_global(targets)
    return engine.apply(targets, adaptive=mode is AblationMode.FULL)


@dataclass
class AblationMetrics:
    mode: AblationMode
    fingerprint: str
    targets: int
    startup_time_ns: int
    startup_times_ns: tuple
    startup_entry_points_modified: int
    per_call_traced_ns: int
    per_call_untraced_ns: int
    cpu_proxy_events: int
    traffic_calls: int
    trace_events_emitted: int
    latency_calls: int

    @property
    def traced_overhead_ratio(self) -> float:
        if self.per_call_untraced_ns <= 0:
            return float("nan")
        return self.per_call_traced_ns / self.per_call_untraced_ns

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "fingerprint": self.fingerprint,
            "targets": self.targets,
            "startup_time_ns": self.startup_time_ns,
            "startup_entry_points_modified": self.startup_entry_points_modified,
            "per_call_traced_ns": self.per_call_traced_ns,
            "per_call_untraced_ns": self.per_call_untraced_ns,
            "traced_overhead_ratio": round(self.traced_overhead_ratio, 3),
            "cpu_proxy_events": self.cpu_proxy_events,
            "traffic_calls": self.traffic_calls,
            "trace_events_emitted": self.trace_events_emitted,
            "latency_calls": self.latency_calls,
        }


def _median_ns(samples: list) -> int:
    return int(statistics.median(samples))


def _measure_batches(sides: list, n_calls: int, batch: int = 1024) -> None:
    """Time each call individually, ``n_calls`` per side, in rounds of one batch per side.

    A side is ``(vm, thread, ref, args, samples, sink)``. The order of the
    sides flips every round (first to last, then last to first, ...), so
    drift of the machine and warm-up order fall on every side alike. Each
    side's sink is drained after its batch.
    """
    clock = time.perf_counter_ns
    done = 0
    while done < n_calls:
        step = min(batch, n_calls - done)
        for vm, thread, ref, args, samples, sink in sides:
            invoke, append = vm.invoke, samples.append
            for _ in range(step):
                t0 = clock()
                invoke(thread, ref, args)
                append(clock() - t0)
            sink.drain()
        done += step
        sides = sides[::-1]


def _ablation(mode: AblationMode, workload: GeneratedWorkload, *, latency_calls: int,
              warmup_calls: int = 2_000, startup_reps: int = 5, traffic_calls: int = 2_000):
    """Run one mode against a fresh VM built from the workload, in two steps.

    The first ``next`` brings the session up, runs the traffic and warm-up and
    yields the two latency probes as ``_measure_batches`` sides; the second
    rolls the session back, checks the registry, and yields the metrics.
    """
    if startup_reps < 1:
        raise BenchmarkError("startup_reps must be at least 1")
    if latency_calls < 1:
        raise BenchmarkError("latency_calls must be at least 1")
    registry = workload.program.instantiate()
    vm = VM(registry)
    for key in workload.hot_keys:
        vm.jit_compile(key)
    pristine = registry.snapshot_state()  # builds every record before any timed bring-up

    engine = TraceEngine(vm)
    targets = TargetSet(workload.target_entries)
    startup_times = []
    modified = 0
    clock = time.perf_counter_ns
    for rep in range(startup_reps):
        before = registry.snapshot_entry_points()
        t0 = clock()
        bring_up(engine, mode, targets)
        startup_times.append(clock() - t0)
        after = registry.snapshot_entry_points()
        modified = sum(1 for key, entry in after.items() if before[key] is not entry)
        if rep < startup_reps - 1:
            engine.rollback()
            _check_pristine(registry, pristine, mode)

    thread = vm.new_thread("bench")
    sink = engine.sink

    ev_before = vm.instrumentation.events_dispatched
    for key, args in workload.traffic(traffic_calls):
        vm.invoke(thread, key, args)
    cpu_proxy_events = vm.instrumentation.events_dispatched - ev_before
    sink.drain()

    traced_ref = workload.latency_traced
    untraced_ref = workload.latency_untraced
    probe_args = (7,)
    for _ in range(warmup_calls):
        vm.invoke(thread, traced_ref, probe_args)
        vm.invoke(thread, untraced_ref, probe_args)
    sink.drain()

    traced_samples: list[int] = []
    untraced_samples: list[int] = []
    yield [(vm, thread, traced_ref, probe_args, traced_samples, sink),
           (vm, thread, untraced_ref, probe_args, untraced_samples, sink)]

    trace_events_emitted = sink.emitted_count
    engine.rollback()
    _check_pristine(registry, pristine, mode)

    yield AblationMetrics(
        mode=mode,
        fingerprint=workload.fingerprint,
        targets=len(targets),
        startup_time_ns=_median_ns(startup_times),
        startup_times_ns=tuple(startup_times),
        startup_entry_points_modified=modified,
        per_call_traced_ns=_median_ns(traced_samples),
        per_call_untraced_ns=_median_ns(untraced_samples),
        cpu_proxy_events=cpu_proxy_events,
        traffic_calls=traffic_calls,
        trace_events_emitted=trace_events_emitted,
        latency_calls=latency_calls,
    )


def run_ablation(mode: AblationMode, workload: GeneratedWorkload, **kwargs) -> AblationMetrics:
    """Run one mode against a fresh VM built from the workload."""
    return run_modes(workload, [mode], **kwargs).metrics[0]


def _check_pristine(registry, pristine: dict, mode: AblationMode) -> None:
    current = registry.snapshot_state()
    if current != pristine:
        diffs = [key for key in pristine if current.get(key) != pristine[key]]
        raise BenchmarkError(
            f"{mode.value}: teardown left {len(diffs)} methods modified, "
            f"first: {diffs[:3]}")


@dataclass
class AblationReport:
    """Collected per-mode metrics over a single workload fingerprint."""

    metrics: list = field(default_factory=list)

    def __post_init__(self):
        prints = {m.fingerprint for m in self.metrics}
        if len(prints) > 1:
            raise BenchmarkError(f"mixed workload fingerprints: {sorted(prints)}")
        modes = [m.mode for m in self.metrics]
        if len(set(modes)) != len(modes):
            raise BenchmarkError("duplicate mode in report")

    def by_mode(self, mode: AblationMode) -> AblationMetrics:
        for m in self.metrics:
            if m.mode is mode:
                return m
        raise BenchmarkError(f"no metrics for mode {mode.value}")

    def has_mode(self, mode: AblationMode) -> bool:
        return any(m.mode is mode for m in self.metrics)

    def ratio(self, attribute: str, numerator: AblationMode,
              denominator: AblationMode) -> float:
        num = getattr(self.by_mode(numerator), attribute)
        den = getattr(self.by_mode(denominator), attribute)
        if den == 0:
            return float("inf") if num else float("nan")
        return num / den

    def to_json(self) -> str:
        doc = {"modes": [m.to_dict() for m in self.metrics]}
        if self.has_mode(AblationMode.FULL):
            ratios = {}
            for mode in (AblationMode.GLOBAL, AblationMode.INTERPRETER):
                if self.has_mode(mode):
                    ratios[f"startup_{mode.value}_over_full"] = round(
                        self.ratio("startup_time_ns", mode, AblationMode.FULL), 3)
                    ratios[f"traced_latency_{mode.value}_over_full"] = round(
                        self.ratio("per_call_traced_ns", mode, AblationMode.FULL), 3)
            doc["ratios"] = ratios
        return json.dumps(doc, indent=2)

    def render_text(self) -> str:
        headers = ("mode", "startup_ms", "entries_changed", "traced_ns",
                   "untraced_ns", "overhead", "cpu_events", "trace_events")
        rows = [headers]
        for m in self.metrics:
            rows.append((
                m.mode.value,
                f"{m.startup_time_ns / 1e6:.3f}",
                str(m.startup_entry_points_modified),
                str(m.per_call_traced_ns),
                str(m.per_call_untraced_ns),
                f"{m.traced_overhead_ratio:.2f}x",
                str(m.cpu_proxy_events),
                str(m.trace_events_emitted),
            ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
        lines = []
        for r, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def run_modes(workload: GeneratedWorkload, modes=None, *, latency_calls: int = 100_000,
              **kwargs) -> AblationReport:
    """Run several modes over one workload, each on its own VM, and collect a report.

    Each mode brings its session up and runs its traffic in turn. Then the
    traced and untraced probes of every mode take their latency batches in
    one interleaved sequence, so a latency ratio between two modes compares
    calls timed under the same machine state. A repeated mode raises
    ``BenchmarkError`` before any mode runs.
    """
    modes = list(AblationMode) if modes is None else list(modes)
    if len(set(modes)) < len(modes):
        raise BenchmarkError(f"duplicate mode in {[m.value for m in modes]}")
    runs = [_ablation(m, workload, latency_calls=latency_calls, **kwargs) for m in modes]
    _measure_batches([side for run in runs for side in next(run)], latency_calls)
    return AblationReport([next(run) for run in runs])
