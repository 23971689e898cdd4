"""Simulated device fleet for exercising config rollout end to end.

Each session owns a private VM, an engine and a sink. The VM's registry shares
the parsed program and its method records, and builds only those it writes. The
gate decides which sessions apply the config; faults are injected
deterministically so runs reproduce. Rolling a config back stops tracing in
every session that applied it and restores their entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import (
    MIN_CANARY_SESSIONS,
    ConfigStatus,
    HealthMetrics,
    Thresholds,
    TraceConfig,
    _hash_admits,
    lifecycle_advance,
    resolve_targets,
    session_gate,
    transition,
)
from .core import Program
from .engine import TraceEngine, TracePhase
from .errors import ConfigError
from .vm import VM


@dataclass
class FleetSession:
    device_id: str
    vm: VM
    engine: TraceEngine
    admitted: bool
    crashed: bool = False
    anr: bool = False
    calls_made: int = 0

    def tracing_active(self) -> bool:
        return self.engine.phase is TracePhase.ACTIVE


@dataclass
class FleetReport:
    config_id: str
    sessions: int
    admitted: int
    metrics: HealthMetrics
    trace_events: int
    status_after: ConfigStatus
    rolled_back_sessions: int = 0


@dataclass
class _Deployment:
    config: TraceConfig
    sessions: list = field(default_factory=list)


class FleetManager:
    """Owns configs and their session populations."""

    def __init__(self, *, thresholds: Thresholds | None = None,
                 min_sessions: int = MIN_CANARY_SESSIONS):
        if min_sessions < 1:
            raise ConfigError(f"min_sessions must be at least 1, got {min_sessions}")
        self.thresholds = thresholds if thresholds is not None else Thresholds()
        self.min_sessions = min_sessions
        self._deployments: dict[str, _Deployment] = {}

    def register(self, config: TraceConfig) -> None:
        if config.config_id in self._deployments:
            raise ConfigError(f"config {config.config_id} already registered")
        self._deployments[config.config_id] = _Deployment(config)

    def _deployment(self, config_id: str) -> _Deployment:
        dep = self._deployments.get(config_id)
        if dep is None:
            raise ConfigError(f"unknown config {config_id}")
        return dep

    def build_sessions(self, config_id: str, n_sessions: int, program: Program,
                       *, device_prefix: str = "device-") -> list[FleetSession]:
        """Create sessions, gate each one, and apply the config to admitted ones."""
        dep = self._deployment(config_id)
        config = dep.config
        sessions = []
        for i in range(n_sessions):
            device_id = f"{device_prefix}{i:06d}"
            vm = VM(program.instantiate())
            engine = TraceEngine(vm)
            admitted = session_gate(device_id, config)
            if admitted:
                targets, _warnings, pending = resolve_targets(config, vm.registry)
                engine.apply(targets, pending=pending)
            session = FleetSession(device_id, vm, engine, admitted)
            sessions.append(session)
        dep.sessions.extend(sessions)
        return sessions

    def run_workload(self, config_id: str, calls: list,
                     *, crash_rate: float = 0.0, anr_rate: float = 0.0) -> HealthMetrics:
        """Drive every session through the call list and collect health counts.

        ``calls`` is a list of (method key, args) pairs. Fault injection is a
        deterministic per-device hash draw, only against sessions that
        actually applied the config.
        """
        dep = self._deployment(config_id)
        metrics = HealthMetrics(thresholds=self.thresholds)
        for session in dep.sessions:
            thread = session.vm.new_thread(session.device_id)
            for key, args in calls:
                session.vm.invoke(thread, key, args)
                session.calls_made += 1
            session.crashed = session.admitted and _hash_admits(
                f"crash:{config_id}:{session.device_id}", crash_rate)
            session.anr = session.admitted and _hash_admits(
                f"anr:{config_id}:{session.device_id}", anr_rate)
            metrics.sessions += 1
            metrics.crashes += int(session.crashed)
            metrics.anrs += int(session.anr)
        return metrics

    def advance(self, config_id: str, metrics: HealthMetrics) -> ConfigStatus:
        """Run the lifecycle gate; a threshold breach rolls back the whole fleet.

        A canary that admitted no session ran nowhere, so it has no evidence to
        promote or roll back on: it stays in canary and no gate runs.
        """
        dep = self._deployment(config_id)
        if dep.config.status is ConfigStatus.CANARY and not any(
                session.admitted for session in dep.sessions):
            return dep.config.status
        status = lifecycle_advance(dep.config, metrics, min_sessions=self.min_sessions)
        if status is ConfigStatus.ROLLED_BACK:
            self.rollback(config_id)
        return status

    def rollback(self, config_id: str) -> int:
        """Force the config to rolled-back and stop tracing in every session."""
        dep = self._deployment(config_id)
        transition(dep.config, ConfigStatus.ROLLED_BACK)
        count = 0
        for session in dep.sessions:
            if session.engine.phase is not TracePhase.IDLE:
                session.engine.rollback()
                count += 1
        return count

    def drain_events(self, config_id: str) -> int:
        """Drain every session sink; returns the total drained event count."""
        total = 0
        for session in self._deployment(config_id).sessions:
            total += len(session.engine.drain().events)
        return total

    def simulate(self, config: TraceConfig, n_sessions: int, program: Program,
                 calls: list, *, crash_rate: float = 0.0, anr_rate: float = 0.0) -> FleetReport:
        """One full canary round: build, run, aggregate, advance or roll back."""
        self.register(config)
        sessions = self.build_sessions(config.config_id, n_sessions, program)
        metrics = self.run_workload(config.config_id, calls,
                                    crash_rate=crash_rate, anr_rate=anr_rate)
        trace_events = self.drain_events(config.config_id)
        rolled_back = 0
        if config.status is ConfigStatus.CANARY:
            self.advance(config.config_id, metrics)
            if config.status is ConfigStatus.ROLLED_BACK:
                rolled_back = sum(
                    1 for s in sessions if s.engine.phase is TracePhase.IDLE and s.admitted)
        return FleetReport(
            config_id=config.config_id,
            sessions=len(sessions),
            admitted=sum(1 for s in sessions if s.admitted),
            metrics=metrics,
            trace_events=trace_events,
            status_after=config.status,
            rolled_back_sessions=rolled_back,
        )
