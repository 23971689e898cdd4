import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracevm import (
    ConfigError,
    ConfigStatus,
    HealthMetrics,
    Thresholds,
    TraceAction,
    TraceConfig,
    begin_canary,
    format_config,
    lifecycle_advance,
    load_program,
    parse_config,
    session_gate,
    transition,
)
from tracevm.config import ConfigEntry, resolve_targets

WIRE = """
{
  "config_id": "cfg-001",
  "rollout_fraction": 0.5,
  "approved": true,
  "dynamic_trace_config": [
    {"action": 1, "className": "a.b.C", "methodName": "m", "methodSign": "int,int"},
    {"action": 2, "className": "a.b.C", "methodName": "n", "methodSign": ""},
    {"action": 3, "className": "d.E", "methodName": "p", "methodSign": "long"}
  ]
}
"""


def make_config(**kw):
    defaults = dict(
        config_id="cfg-x",
        entries=(ConfigEntry(TraceAction.TIME_METHOD, "a.A", "f", ("int",)),),
        rollout_fraction=0.001,
        approved=True,
    )
    defaults.update(kw)
    return TraceConfig(**defaults)


# -- wire format -------------------------------------------------------------

def test_parse_wire_golden():
    config = parse_config(WIRE)
    assert config.config_id == "cfg-001"
    assert config.rollout_fraction == 0.5
    assert config.approved is True
    assert config.status is ConfigStatus.DRAFT
    assert len(config.entries) == 3
    first = config.entries[0]
    assert first.action is TraceAction.CAPTURE_STACK
    assert first.method_ref().key == "a.b.C.m(int,int)"
    assert config.entries[1].method_ref().key == "a.b.C.n()"
    assert config.entries[2].action is TraceAction.TIME_METHOD


def test_parse_defaults():
    config = parse_config(json.dumps({
        "config_id": "c",
        "dynamic_trace_config": [{"action": 1, "className": "a.A", "methodName": "f"}],
    }))
    assert config.rollout_fraction == 0.001
    assert config.approved is False
    assert config.entries[0].signature == ()


@pytest.mark.parametrize("mutate,fragment", [
    (lambda o: o.pop("config_id"), "config_id"),
    (lambda o: o.update(config_id=""), "config_id"),
    (lambda o: o.update(config_id=7), "config_id"),
    (lambda o: o.pop("dynamic_trace_config"), "dynamic_trace_config"),
    (lambda o: o.update(dynamic_trace_config=[]), "dynamic_trace_config"),
    (lambda o: o.update(rollout_fraction="high"), "number"),
    (lambda o: o.update(rollout_fraction=1.5), "outside"),
    (lambda o: o.update(rollout_fraction=-0.1), "outside"),
    (lambda o: o.update(approved="yes"), "approved"),
    (lambda o: o["dynamic_trace_config"].__setitem__(0, "x"), "object"),
    (lambda o: o["dynamic_trace_config"][0].pop("action"), "action"),
    (lambda o: o["dynamic_trace_config"][0].update(action=9), "action"),
    (lambda o: o["dynamic_trace_config"][0].update(action=True), "unknown action code"),
    (lambda o: o["dynamic_trace_config"][0].update(action=2.0), "unknown action code"),
    (lambda o: o["dynamic_trace_config"][0].pop("className"), "className"),
    (lambda o: o["dynamic_trace_config"][0].update(methodName=""), "methodName"),
    *(pytest.param(lambda o, v=v: o["dynamic_trace_config"][0].update(className=v),
                   "className", id=f"className={v!r}") for v in ("a b", "a..b", "a.b\n")),
    *(pytest.param(lambda o, v=v: o["dynamic_trace_config"][0].update(methodName=v),
                   "methodName", id=f"methodName={v!r}") for v in ("f(int)", "a.f")),
    (lambda o: o["dynamic_trace_config"][0].update(methodSign="int int"), "methodSign"),
    (lambda o: o["dynamic_trace_config"][0].update(methodSign=3), "methodSign"),
])
def test_parse_rejects_bad_wire(mutate, fragment):
    obj = json.loads(WIRE)
    mutate(obj)
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(obj))
    assert fragment in str(info.value)


def test_parse_rejects_non_json_and_non_object():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


def test_format_round_trips():
    config = parse_config(WIRE)
    again = parse_config(format_config(config))
    assert again == config


# -- target resolution ---------------------------------------------------------

def test_resolve_targets_exact_match_and_pending():
    registry = load_program("""
class a.A
  method f(int)
    loadarg 0
    ret
  method f(int,int)
    loadarg 0
    ret
""")
    config = make_config(entries=(
        ConfigEntry(TraceAction.TIME_METHOD, "a.A", "f", ("int",)),
        ConfigEntry(TraceAction.CAPTURE_ARGS, "a.A", "f", ("int", "int")),
        ConfigEntry(TraceAction.CAPTURE_STACK, "ghost.G", "h", ()),
    ))
    target_set, warnings, pending = resolve_targets(config, registry)
    assert target_set.members == {"a.A.f(int)", "a.A.f(int,int)"}
    assert target_set.table["a.A.f(int)"][1] == (TraceAction.TIME_METHOD,)
    assert target_set.table["a.A.f(int,int)"][1] == (TraceAction.CAPTURE_ARGS,)
    assert warnings == ["no loaded method matches ghost.G.h()"]
    assert [ref.key for ref, _ in pending] == ["ghost.G.h()"]


# -- session gate ----------------------------------------------------------------

def test_gate_determinism_and_rate():
    config = make_config(rollout_fraction=0.001)
    admitted = [d for d in (f"device-{i}" for i in range(100_000))
                if session_gate(d, config)]
    # 0.1% of 100k with hash spread: around 100
    assert 60 <= len(admitted) <= 140
    for d in admitted[:50]:
        assert session_gate(d, config)


def test_gate_edges():
    assert not session_gate("d", make_config(rollout_fraction=0.0))
    config = make_config(rollout_fraction=1.0)
    assert all(session_gate(f"d{i}", config) for i in range(100))
    rolled = make_config(rollout_fraction=1.0)
    rolled.status = ConfigStatus.ROLLED_BACK
    assert not session_gate("d0", rolled)


@given(st.text(min_size=1, max_size=30))
def test_gate_is_deterministic(device_id):
    config = make_config(rollout_fraction=0.5)
    assert session_gate(device_id, config) == session_gate(device_id, config)


@given(st.text(min_size=1, max_size=30),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_gate_is_monotone_in_fraction(device_id, f1, f2):
    lo, hi = sorted((f1, f2))
    in_lo = session_gate(device_id, make_config(rollout_fraction=lo))
    in_hi = session_gate(device_id, make_config(rollout_fraction=hi))
    if in_lo:
        assert in_hi


def test_gate_depends_on_config_id():
    a = make_config(config_id="cfg-a", rollout_fraction=0.5)
    b = make_config(config_id="cfg-b", rollout_fraction=0.5)
    devices = [f"device-{i}" for i in range(2_000)]
    picks_a = {d for d in devices if session_gate(d, a)}
    picks_b = {d for d in devices if session_gate(d, b)}
    assert picks_a != picks_b


# -- lifecycle ---------------------------------------------------------------------

def test_transition_matrix():
    legal = {
        (ConfigStatus.DRAFT, ConfigStatus.CANARY),
        (ConfigStatus.CANARY, ConfigStatus.FULL_ROLLOUT),
        (ConfigStatus.DRAFT, ConfigStatus.ROLLED_BACK),
        (ConfigStatus.CANARY, ConfigStatus.ROLLED_BACK),
        (ConfigStatus.FULL_ROLLOUT, ConfigStatus.ROLLED_BACK),
        (ConfigStatus.ROLLED_BACK, ConfigStatus.ROLLED_BACK),
    }
    for src in ConfigStatus:
        for dst in ConfigStatus:
            config = make_config()
            config.status = src
            if (src, dst) in legal:
                assert transition(config, dst) is dst
            else:
                with pytest.raises(ConfigError):
                    transition(config, dst)
                assert config.status is src


def test_begin_canary_requires_approval():
    config = make_config(approved=False)
    with pytest.raises(ConfigError):
        begin_canary(config)
    assert config.status is ConfigStatus.DRAFT
    config.approved = True
    assert begin_canary(config) is ConfigStatus.CANARY
    with pytest.raises(ConfigError):
        begin_canary(config)


def test_advance_waits_for_min_sessions():
    config = make_config()
    begin_canary(config)
    metrics = HealthMetrics(sessions=999, crashes=999)
    assert lifecycle_advance(config, metrics) is ConfigStatus.CANARY


@pytest.mark.parametrize("min_sessions", [0, -5])
def test_advance_rejects_a_min_sessions_below_one(min_sessions):
    config = make_config()
    begin_canary(config)
    # with no session admitted, a gate of 0 would promote on no evidence
    with pytest.raises(ConfigError, match="min_sessions must be at least 1"):
        lifecycle_advance(config, HealthMetrics(sessions=0), min_sessions=min_sessions)
    assert config.status is ConfigStatus.CANARY


def test_advance_promotes_healthy_canary():
    config = make_config()
    begin_canary(config)
    metrics = HealthMetrics(sessions=5_000, crashes=10, anrs=0)
    assert lifecycle_advance(config, metrics) is ConfigStatus.FULL_ROLLOUT
    assert config.rollout_fraction == 1.0


def test_advance_rolls_back_on_breach():
    for bad in (HealthMetrics(sessions=2_000, crashes=100),
                HealthMetrics(sessions=2_000, anrs=100)):
        config = make_config()
        begin_canary(config)
        status = lifecycle_advance(config, bad)
        assert status is ConfigStatus.ROLLED_BACK and config.status is ConfigStatus.ROLLED_BACK
        assert not session_gate("any-device", config)
        with pytest.raises(ConfigError):
            lifecycle_advance(config, HealthMetrics(sessions=5_000))


def test_advance_requires_canary():
    config = make_config()
    with pytest.raises(ConfigError):
        lifecycle_advance(config, HealthMetrics(sessions=5_000))


def test_health_metrics_thresholds():
    m = HealthMetrics(sessions=1_000, crashes=10, anrs=10)
    assert m.crash_rate == 0.01
    assert m.healthy()
    assert not HealthMetrics(sessions=1_000, crashes=11).healthy()
    tight = HealthMetrics(sessions=1_000, crashes=5,
                          thresholds=Thresholds(crash_rate_max=0.001))
    assert not tight.healthy()
    assert HealthMetrics().healthy()
