"""The benchmark's span tracer (``perfbench/spans.py``) patches tracevm by name.

A rename or deletion of a patched name in ``src/`` must fail here rather than
crash ``perfbench/run.py --trace 1``.
"""

import sys
from pathlib import Path

import tracevm  # noqa: F401 - the bindings below are read from sys.modules

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings():
    """Every attribute of every tracevm module and of every tracevm class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "tracevm" or name.startswith("tracevm."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("tracevm"):
                    for cattr, cvalue in vars(value).items():
                        out[(f"{name}:{attr}", cattr)] = cvalue
    return out


def test_span_tracer_patches_and_restores_every_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    before = _bindings()
    tracer = spans.Tracer()
    patched = {(owner, attr) for owner, attr, _raw, _wrapper in tracer._patches}
    assert {attr for _owner, attr in patched} == {p[2] for p in spans._POINTS}
    tracer.enable("guard")
    try:
        for owner, attr, raw, _wrapper in tracer._patches:
            assert vars(owner)[attr] is not raw, f"{attr} not patched"
    finally:
        tracer.disable()
    after = _bindings()
    changed = sorted(str(k) for k in before if after.get(k) is not before[k])
    assert changed == []
