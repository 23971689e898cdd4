"""Trace configuration: wire format, target resolution, gating and lifecycle.

The wire format is a JSON object whose ``dynamic_trace_config`` list holds one
entry per traced method::

    {
      "config_id": "cfg-001",
      "rollout_fraction": 0.001,
      "approved": true,
      "dynamic_trace_config": [
        {"action": 1, "className": "a.b.C", "methodName": "m", "methodSign": "int,int"}
      ]
    }

Session admission is a deterministic hash gate: a device either sees a config
always or never, and raising the fraction only ever adds devices. Lifecycle is
draft, canary, full rollout, with rollback reachable from every state and
gated advancement on fleet health.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .actions import TraceAction
from .core import _DOTTED_RE, _NAME_RE, ClassRegistry, MethodRef, _blake2b_64, parse_signature
from .engine import TargetSet
from .errors import ConfigError, ProgramParseError

DEFAULT_ROLLOUT_FRACTION = 0.001
MIN_CANARY_SESSIONS = 1_000

_GATE_SPAN = 2**64


class ConfigStatus(Enum):
    DRAFT = "draft"
    CANARY = "canary"
    FULL_ROLLOUT = "full_rollout"
    ROLLED_BACK = "rolled_back"


_ALLOWED_TRANSITIONS = {
    (ConfigStatus.DRAFT, ConfigStatus.CANARY),
    (ConfigStatus.CANARY, ConfigStatus.FULL_ROLLOUT),
    (ConfigStatus.DRAFT, ConfigStatus.ROLLED_BACK),
    (ConfigStatus.CANARY, ConfigStatus.ROLLED_BACK),
    (ConfigStatus.FULL_ROLLOUT, ConfigStatus.ROLLED_BACK),
    (ConfigStatus.ROLLED_BACK, ConfigStatus.ROLLED_BACK),
}


@dataclass(frozen=True)
class ConfigEntry:
    """One traced method in the wire format."""

    action: TraceAction
    class_name: str
    method_name: str
    signature: tuple[str, ...]

    def method_ref(self) -> MethodRef:
        return MethodRef(self.class_name, self.method_name, self.signature)

    def to_wire(self) -> dict:
        return {
            "action": int(self.action),
            "className": self.class_name,
            "methodName": self.method_name,
            "methodSign": ",".join(self.signature),
        }


@dataclass
class TraceConfig:
    config_id: str
    entries: tuple[ConfigEntry, ...]
    rollout_fraction: float = DEFAULT_ROLLOUT_FRACTION
    approved: bool = False
    status: ConfigStatus = ConfigStatus.DRAFT


@dataclass
class Thresholds:
    crash_rate_max: float = 0.01
    anr_rate_max: float = 0.01


@dataclass
class HealthMetrics:
    """Aggregated canary-population health."""

    sessions: int = 0
    crashes: int = 0
    anrs: int = 0
    thresholds: Thresholds = field(default_factory=Thresholds)

    @property
    def crash_rate(self) -> float:
        return self.crashes / self.sessions if self.sessions else 0.0

    @property
    def anr_rate(self) -> float:
        return self.anrs / self.sessions if self.sessions else 0.0

    def healthy(self) -> bool:
        return (self.crash_rate <= self.thresholds.crash_rate_max
                and self.anr_rate <= self.thresholds.anr_rate_max)


def parse_config(text: str) -> TraceConfig:
    """Parse wire-format JSON into a validated TraceConfig."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_obj(obj)


def config_from_obj(obj) -> TraceConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    config_id = obj.get("config_id")
    if not isinstance(config_id, str) or not config_id:
        raise ConfigError("config_id must be a non-empty string")
    raw_entries = obj.get("dynamic_trace_config")
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ConfigError("dynamic_trace_config must be a non-empty list")
    fraction = obj.get("rollout_fraction", DEFAULT_ROLLOUT_FRACTION)
    if not isinstance(fraction, (int, float)) or isinstance(fraction, bool):
        raise ConfigError("rollout_fraction must be a number")
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"rollout_fraction {fraction} outside [0, 1]")
    approved = obj.get("approved", False)
    if not isinstance(approved, bool):
        raise ConfigError("approved must be a boolean")

    entries = []
    for i, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise ConfigError(f"entry {i} must be an object")
        if "action" not in raw:
            raise ConfigError(f"entry {i} is missing 'action'")
        code = raw["action"]
        try:
            if type(code) is not int:  # ``TraceAction`` would take ``True`` or ``2.0``
                raise ValueError(code)
            action = TraceAction(code)
        except ValueError:
            raise ConfigError(f"entry {i} has unknown action code {code!r}") from None
        class_name = raw.get("className")
        method_name = raw.get("methodName")
        # The program grammar's names: any other key could never resolve.
        if not isinstance(class_name, str) or not _DOTTED_RE.fullmatch(class_name):
            raise ConfigError(f"entry {i} needs a dotted className, got {class_name!r}")
        if not isinstance(method_name, str) or not _NAME_RE.fullmatch(method_name):
            raise ConfigError(f"entry {i} needs an identifier methodName, got {method_name!r}")
        sign = raw.get("methodSign", "")
        if not isinstance(sign, str):
            raise ConfigError(f"entry {i} methodSign must be a string")
        try:
            signature = parse_signature(sign)
        except ProgramParseError as exc:
            raise ConfigError(f"entry {i} has a bad methodSign: {exc}") from exc
        entries.append(ConfigEntry(action, class_name, method_name, signature))

    return TraceConfig(config_id, tuple(entries), float(fraction), approved)


def format_config(config: TraceConfig) -> str:
    """Serialize back to canonical wire JSON (round-trips through parse)."""
    return json.dumps(
        {
            "config_id": config.config_id,
            "rollout_fraction": config.rollout_fraction,
            "approved": config.approved,
            "dynamic_trace_config": [e.to_wire() for e in config.entries],
        },
        indent=2,
    )


def resolve_targets(config: TraceConfig, registry: ClassRegistry):
    """Match config entries against loaded methods.

    Returns ``(target_set, warnings, pending)``. Matching is exact on class
    name, method name and canonical signature. Unmatched entries produce a
    warning and a pending record for injection when the class loads later.
    """
    found: list[tuple[MethodRef, tuple]] = []
    warnings: list[str] = []
    pending: list[tuple[MethodRef, tuple]] = []
    for entry in config.entries:
        ref = entry.method_ref()
        if ref.key in registry:
            found.append((ref, (entry.action,)))
        else:
            warnings.append(f"no loaded method matches {ref.key}")
            pending.append((ref, (entry.action,)))
    return TargetSet(found), warnings, pending


def _hash_admits(text: str, fraction: float) -> bool:
    """Whether blake2b-64 of ``text`` is below ``fraction`` of 2**64."""
    if fraction <= 0.0:
        return False
    return _blake2b_64(text) < int(fraction * _GATE_SPAN)


def session_gate(device_id: str, config: TraceConfig) -> bool:
    """Deterministic admission: hash(device, config) under the fraction cut."""
    if config.status is ConfigStatus.ROLLED_BACK:
        return False
    return _hash_admits(f"{device_id}:{config.config_id}", config.rollout_fraction)


def transition(config: TraceConfig, new_status: ConfigStatus) -> ConfigStatus:
    """Apply a lifecycle transition, enforcing the allowed edges."""
    edge = (config.status, new_status)
    if edge not in _ALLOWED_TRANSITIONS:
        raise ConfigError(
            f"illegal transition {config.status.value} -> {new_status.value}")
    config.status = new_status
    return config.status


def begin_canary(config: TraceConfig) -> ConfigStatus:
    """Draft to canary; requires explicit approval."""
    if config.status is not ConfigStatus.DRAFT:
        raise ConfigError(f"begin_canary requires draft, config is {config.status.value}")
    if not config.approved:
        raise ConfigError(f"config {config.config_id} is not approved for canary")
    return transition(config, ConfigStatus.CANARY)


def lifecycle_advance(config: TraceConfig, metrics: HealthMetrics,
                      *, min_sessions: int = MIN_CANARY_SESSIONS) -> ConfigStatus:
    """Advance a canary on healthy metrics, roll it back on a threshold breach.

    Below ``min_sessions`` the canary keeps gathering data and the status is
    returned unchanged. ``min_sessions`` below 1 is a ``ConfigError``: it would
    let a canary advance on metrics from no session.
    """
    if min_sessions < 1:
        raise ConfigError(f"min_sessions must be at least 1, got {min_sessions}")
    if config.status is not ConfigStatus.CANARY:
        raise ConfigError(
            f"lifecycle_advance requires canary, config is {config.status.value}")
    if metrics.sessions < min_sessions:
        return config.status
    if metrics.healthy():
        transition(config, ConfigStatus.FULL_ROLLOUT)
        config.rollout_fraction = 1.0
    else:
        transition(config, ConfigStatus.ROLLED_BACK)
    return config.status
