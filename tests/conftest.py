import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from tracevm import gen_workload

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

FIB_SOURCE = """
class demo.Math
  method fib(int)
    loadarg 0
    jz +15
    loadarg 0
    pushconst 1
    sub
    jz +13
    loadarg 0
    pushconst 1
    sub
    call demo.Math.fib(int)
    loadarg 0
    pushconst 2
    sub
    call demo.Math.fib(int)
    add
    ret
    pushconst 0
    ret
    pushconst 1
    ret
"""


@pytest.fixture
def fib_source():
    return FIB_SOURCE


@pytest.fixture
def refeval(monkeypatch):
    """``perfbench/refeval.py``, an evaluator written apart from ``vm`` and ``jit``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.delitem(sys.modules, "refeval", raising=False)
    import refeval

    return refeval


@pytest.fixture(scope="session")
def small_workload():
    return gen_workload(n_classes=12, methods_per_class=10, target_count=4, seed=777)


@pytest.fixture(scope="session")
def big_workload():
    # 4,999 classes x 2 methods + the 2 latency probes = exactly 10,000.
    return gen_workload(n_classes=4999, methods_per_class=2, target_count=5, seed=2024)


def pytest_terminal_summary(terminalreporter):
    # Acceptance verdicts print here so they survive output capture.
    module = sys.modules.get("tests.test_acceptance") or sys.modules.get(
        "test_acceptance"
    )
    verdicts = getattr(module, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
