"""The benchmark's span tracer (``perfbench/spans.py``) patches tracevm by name.

A rename or deletion of a patched name in ``src/`` must fail here rather than
crash ``perfbench/run.py --trace 1``.
"""

import sys
from pathlib import Path

import pytest

import tracevm  # noqa: F401 - the bindings below are read from sys.modules
from tracevm import VM, load_program

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


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    return spans


def test_span_tracer_patches_and_restores_every_point(spans):
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


TWO_TIER = """
class t.T
  method leaf(int)
    loadarg 0
    pushconst 1
    add
    ret
  method mid(int)
    loadarg 0
    call t.T.leaf(int)
    loadarg 0
    call t.T.leaf(int)
    add
    ret
  method top(int)
    loadarg 0
    call t.T.mid(int)
    loadarg 0
    call t.T.leaf(int)
    add
    ret
"""


def test_every_call_passes_the_vm_span_points(spans):
    """Interpreted calls and call edges must go through ``VM.interpret`` and
    ``VM.call_ref`` as looked up on the class, or the per-layer figures
    ``vm.interpret_*`` and ``vm.call_edges`` silently read zero."""
    vm = VM(load_program(TWO_TIER))
    vm.jit_compile("t.T.mid(int)")   # top and leaf stay interpreted
    thread = vm.new_thread()
    tracer = spans.Tracer()
    interpreted0 = vm.interpreted_calls
    tracer.enable("guard")
    try:
        for n in range(5):
            assert vm.invoke(thread, "t.T.top(int)", (n,)) == 3 * n + 3
    finally:
        tracer.disable()
    stats = tracer.merged()
    assert vm.interpreted_calls - interpreted0 == 5 * 4
    assert stats["vm.interpret"].count == vm.interpreted_calls - interpreted0
    # per top call: top -> mid and top -> leaf from the interpreter, and
    # mid -> leaf twice from the compiled body
    assert stats["vm.call_ref"].count == 5 * 4
    assert tracer.edge_count("vm.interpret", "vm.call_ref", "guard") == 5 * 2
    assert stats["vm.invoke"].count == 5
