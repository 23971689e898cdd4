import pytest

from tracevm import (
    ConfigError,
    ConfigStatus,
    FleetManager,
    Thresholds,
    TracePhase,
    begin_canary,
    session_gate,
)

N_SESSIONS = 120


def canary_config(workload, config_id="cfg-fleet", fraction=0.25):
    config = workload.build_config(config_id=config_id, rollout_fraction=fraction)
    begin_canary(config)
    return config


def test_admission_matches_gate_exactly(small_workload):
    manager = FleetManager(min_sessions=50)
    config = canary_config(small_workload)
    manager.register(config)
    sessions = manager.build_sessions(config.config_id, N_SESSIONS,
                                      small_workload.program)
    for session in sessions:
        assert session.admitted == session_gate(session.device_id, config)
        assert session.tracing_active() == session.admitted
    assert 0 < sum(s.admitted for s in sessions) < N_SESSIONS


def test_gated_out_sessions_emit_nothing(small_workload):
    manager = FleetManager(min_sessions=50)
    config = canary_config(small_workload)
    manager.register(config)
    sessions = manager.build_sessions(config.config_id, N_SESSIONS,
                                      small_workload.program)
    calls = small_workload.traffic(60)
    manager.run_workload(config.config_id, calls)
    for session in sessions:
        drained = session.engine.drain().events
        if session.admitted:
            assert session.calls_made == 60
        else:
            assert drained == ()
            assert session.engine.sink.emitted_count == 0


def test_healthy_canary_promotes(small_workload):
    manager = FleetManager(min_sessions=50)
    config = canary_config(small_workload)
    manager.register(config)
    manager.build_sessions(config.config_id, N_SESSIONS, small_workload.program)
    metrics = manager.run_workload(config.config_id, small_workload.traffic(20))
    assert metrics.sessions == N_SESSIONS
    status = manager.advance(config.config_id, metrics)
    assert status is ConfigStatus.FULL_ROLLOUT
    assert config.rollout_fraction == 1.0


def test_a_canary_that_admitted_nobody_stays_in_canary(small_workload):
    manager = FleetManager(min_sessions=1, thresholds=Thresholds(crash_rate_max=0.01))
    config = canary_config(small_workload, fraction=0.0)
    report = manager.simulate(config, 20, small_workload.program, small_workload.traffic(3),
                              crash_rate=1.0)
    # every session ran the traffic, but none ran the config: no evidence either way
    assert (report.sessions, report.admitted, report.metrics.sessions) == (20, 0, 20)
    assert report.status_after is ConfigStatus.CANARY
    assert config.rollout_fraction == 0.0 and report.rolled_back_sessions == 0


def test_breach_rolls_back_every_session(small_workload):
    manager = FleetManager(min_sessions=50,
                           thresholds=Thresholds(crash_rate_max=0.01))
    config = canary_config(small_workload)
    manager.register(config)
    sessions = manager.build_sessions(config.config_id, N_SESSIONS,
                                      small_workload.program)
    pristine = {
        s.device_id: s.vm.registry.snapshot_state()
        for s in sessions if not s.admitted
    }
    metrics = manager.run_workload(config.config_id, small_workload.traffic(20),
                                   crash_rate=0.5)
    assert metrics.crash_rate > 0.01 or metrics.crashes == 0
    status = manager.advance(config.config_id, metrics)
    assert status is ConfigStatus.ROLLED_BACK
    for session in sessions:
        assert session.engine.phase is TracePhase.IDLE
        assert session.vm.instrumentation.listener_ids() == []
        expected = pristine.get(session.device_id)
        if expected is not None:
            assert session.vm.registry.snapshot_state() == expected
    # admitted sessions must match an untouched instantiation of the program
    reference = small_workload.program.instantiate().snapshot_state()
    for session in sessions:
        if session.admitted:
            assert session.vm.registry.snapshot_state() == reference
    assert not session_gate(sessions[0].device_id, config)


def test_post_rollback_calls_emit_no_events(small_workload):
    manager = FleetManager(min_sessions=10)
    config = canary_config(small_workload)
    manager.register(config)
    sessions = manager.build_sessions(config.config_id, 20, small_workload.program)
    manager.run_workload(config.config_id, small_workload.traffic(10))
    manager.rollback(config.config_id)
    manager.drain_events(config.config_id)
    calls = small_workload.traffic(30)
    for session in sessions:
        thread = session.vm.new_thread()
        for key, args in calls:
            session.vm.invoke(thread, key, args)
    assert manager.drain_events(config.config_id) == 0


def test_rollback_is_idempotent_per_fleet(small_workload):
    manager = FleetManager()
    config = canary_config(small_workload)
    manager.register(config)
    sessions = manager.build_sessions(config.config_id, 10, small_workload.program)
    first = manager.rollback(config.config_id)
    assert first == sum(1 for s in sessions if s.admitted)
    assert manager.rollback(config.config_id) == 0


def test_fault_injection_is_deterministic(small_workload):
    outcomes = []
    for _ in range(2):
        manager = FleetManager(min_sessions=50)
        config = canary_config(small_workload, config_id="cfg-det")
        manager.register(config)
        manager.build_sessions(config.config_id, 60, small_workload.program)
        metrics = manager.run_workload(config.config_id, small_workload.traffic(5),
                                       crash_rate=0.3, anr_rate=0.2)
        outcomes.append((metrics.crashes, metrics.anrs))
    assert outcomes[0] == outcomes[1]


def test_simulate_full_round(small_workload):
    manager = FleetManager(min_sessions=20)
    config = canary_config(small_workload, config_id="cfg-round")
    report = manager.simulate(config, 80, small_workload.program,
                              small_workload.traffic(25))
    assert report.sessions == 80
    assert 0 < report.admitted < 80
    assert report.trace_events > 0
    assert report.status_after is ConfigStatus.FULL_ROLLOUT

    breach = FleetManager(min_sessions=20)
    config2 = canary_config(small_workload, config_id="cfg-round-bad")
    report2 = breach.simulate(config2, 80, small_workload.program,
                              small_workload.traffic(25), crash_rate=0.6)
    assert report2.status_after is ConfigStatus.ROLLED_BACK
    assert report2.rolled_back_sessions == report2.admitted


def test_manager_registration_errors(small_workload):
    manager = FleetManager()
    config = canary_config(small_workload)
    manager.register(config)
    with pytest.raises(ConfigError):
        manager.register(config)
    with pytest.raises(ConfigError):
        manager.build_sessions("nope", 5, small_workload.program)


@pytest.mark.parametrize("min_sessions", [0, -5])
def test_manager_rejects_a_min_sessions_below_one(min_sessions):
    with pytest.raises(ConfigError, match="min_sessions must be at least 1"):
        FleetManager(min_sessions=min_sessions)

