"""Deterministic workload generation for benchmarks and differential tests.

Programs are layered: methods in one layer only call the next layer, so call
trees stay shallow and bounded while still exercising nested dispatch. Two
standalone probe methods with identical straight-line shapes support per-call
latency comparisons; one is traced, its twin is not. The same seed always
yields byte-identical program text.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .actions import TraceAction
from .config import ConfigEntry, TraceConfig
from .core import MethodRef, Program
from .errors import WorkloadError
from .loader import parse_program

_LAYERS = 4
_BODY_OPS = (8, 28)  # instructions per generated method body, inclusive range
_PROBE_OPS = 192
_CALL_CHANCE = 0.35  # share of methods that call into the next layer
_HOT_FRACTION = 0.3  # share of generated methods that are hot
_HOT_BIAS = 0.8      # share of traffic calls that go to hot roots

PROBE_CLASS = "load.Probe"
PROBE_TRACED = MethodRef(PROBE_CLASS, "hotTraced", ("int",))
PROBE_UNTRACED = MethodRef(PROBE_CLASS, "hotPlain", ("int",))


class _Asm:
    """Tiny label-based assembler over the line format."""

    def __init__(self):
        self._items: list[tuple] = []

    def ins(self, mnemonic: str, operand=None):
        self._items.append(("ins", mnemonic, operand))

    def label(self, name: str):
        self._items.append(("label", name, None))

    def render(self, indent: str = "    ") -> list[str]:
        positions: dict[str, int] = {}
        pc = 0
        for kind, a, _ in self._items:
            if kind == "label":
                positions[a] = pc
            else:
                pc += 1
        lines: list[str] = []
        pc = 0
        for kind, a, operand in self._items:
            if kind == "label":
                continue
            if a in ("jz", "jmp") and isinstance(operand, str):
                offset = positions[operand] - pc
                lines.append(f"{indent}{a} {offset:+d}")
            elif operand is None:
                lines.append(f"{indent}{a}")
            else:
                lines.append(f"{indent}{a} {operand}")
            pc += 1
        return lines


def _push_operand(asm: _Asm, rng: random.Random, arity: int) -> None:
    if arity and rng.random() < 0.5:
        asm.ins("loadarg", rng.randrange(arity))
    else:
        asm.ins("pushconst", rng.randint(-9, 97))


def _arith_chunk(asm: _Asm, rng: random.Random, arity: int) -> None:
    """Net-zero stack effect: fold one operand into the accumulator local."""
    asm.ins("loadlocal", 0)
    _push_operand(asm, rng, arity)
    asm.ins(rng.choice(("add", "add", "sub", "mul")))
    asm.ins("storelocal", 0)


def _emit_body(asm: _Asm, rng: random.Random, arity: int,
               callees: list[MethodRef], n_ops: int) -> None:
    if arity:
        asm.ins("loadarg", 0)
    else:
        asm.ins("pushconst", rng.randint(1, 50))
    asm.ins("storelocal", 0)
    budget = n_ops

    if budget >= 16 and rng.random() < 0.3:
        head = f"loop{rng.randrange(1 << 30)}"
        done = f"done{rng.randrange(1 << 30)}"
        asm.ins("pushconst", rng.randint(2, 6))
        asm.ins("storelocal", 1)
        asm.label(head)
        asm.ins("loadlocal", 1)
        asm.ins("jz", done)
        _arith_chunk(asm, rng, arity)
        asm.ins("loadlocal", 1)
        asm.ins("pushconst", 1)
        asm.ins("sub")
        asm.ins("storelocal", 1)
        asm.ins("jmp", head)
        asm.label(done)
        budget -= 16

    if budget >= 8 and rng.random() < 0.35:
        skip = f"skip{rng.randrange(1 << 30)}"
        if arity:
            asm.ins("loadarg", rng.randrange(arity))
        else:
            asm.ins("pushconst", rng.randint(0, 1))
        asm.ins("jz", skip)
        _arith_chunk(asm, rng, arity)
        asm.label(skip)
        budget -= 6

    for callee in callees:
        for _ in range(callee.arity):
            _push_operand(asm, rng, arity)
        asm.ins("call", callee.key)
        asm.ins("loadlocal", 0)
        asm.ins("add")
        asm.ins("storelocal", 0)
        budget -= callee.arity + 4

    while budget >= 4:
        _arith_chunk(asm, rng, arity)
        budget -= 4

    asm.ins("loadlocal", 0)
    asm.ins("ret")


def _emit_probe_body(asm: _Asm, rng: random.Random, n_ops: int) -> None:
    """Straight-line body with no branches or calls, for latency probes."""
    asm.ins("loadarg", 0)
    asm.ins("storelocal", 0)
    for _ in range(max(1, n_ops // 4)):
        asm.ins("loadlocal", 0)
        asm.ins("pushconst", rng.randint(3, 11))
        asm.ins(rng.choice(("add", "mul", "sub")))
        asm.ins("storelocal", 0)
    asm.ins("loadlocal", 0)
    asm.ins("ret")


@dataclass
class GeneratedWorkload:
    """A generated program plus everything a benchmark run needs to drive it."""

    seed: int
    source: str
    program: Program
    fingerprint: str
    hot_keys: tuple[str, ...]
    target_entries: tuple
    latency_traced: MethodRef
    latency_untraced: MethodRef
    interp_traced: MethodRef
    root_keys: tuple[str, ...]
    hot_root_keys: tuple[str, ...]

    def traffic(self, n_calls: int, *, seed: int | None = None) -> list[tuple[str, tuple]]:
        """Deterministic call mix over root methods, biased toward hot ones."""
        rng = random.Random(self.seed + 0x5EED if seed is None else seed)
        hot = set(self.hot_root_keys)
        cold_roots = tuple(k for k in self.root_keys if k not in hot)
        specs = self.program.specs
        calls = []
        for _ in range(n_calls):
            if self.hot_root_keys and (not cold_roots or rng.random() < _HOT_BIAS):
                key = rng.choice(self.hot_root_keys)
            else:
                key = rng.choice(cold_roots)
            calls.append((key, tuple(rng.randint(-50, 50) for _ in range(specs[key].ref.arity))))
        return calls

    def build_config(self, config_id: str = "cfg-bench",
                     rollout_fraction: float = 1.0, approved: bool = True) -> TraceConfig:
        entries = tuple(
            ConfigEntry(action, ref.class_name, ref.method_name, ref.params)
            for ref, actions in self.target_entries
            for action in actions
        )
        return TraceConfig(config_id, entries, rollout_fraction, approved)


def gen_workload(n_classes: int = 12, methods_per_class: int = 10,
                 target_count: int = 5, seed: int = 1234) -> GeneratedWorkload:
    """Generate a layered program with hot methods, targets and latency probes."""
    if n_classes < 2:
        raise WorkloadError("need at least 2 classes")
    if methods_per_class < 1:
        raise WorkloadError("need at least 1 method per class")
    total = n_classes * methods_per_class
    if not 2 <= target_count <= total // 2:
        raise WorkloadError(f"target_count {target_count} out of range for {total} methods")

    rng = random.Random(seed)
    layer_of = lambda ci: min(ci * _LAYERS // n_classes, _LAYERS - 1)

    refs_by_class: dict[str, list[MethodRef]] = {}
    layer_methods: dict[int, list[MethodRef]] = {i: [] for i in range(_LAYERS)}
    for ci in range(n_classes):
        cls = f"load.C{ci}"
        methods = []
        for mi in range(methods_per_class):
            arity = rng.randint(1, 3)
            ref = MethodRef(cls, f"m{mi}", ("int",) * arity)
            methods.append(ref)
            layer_methods[layer_of(ci)].append(ref)
        refs_by_class[cls] = methods

    lines: list[str] = ["# generated workload", ""]
    for ci in range(n_classes):
        cls = f"load.C{ci}"
        lines.append(f"class {cls}")
        layer = layer_of(ci)
        next_layer = layer_methods.get(layer + 1, [])
        for ref in refs_by_class[cls]:
            lines.append(f"  method {ref.method_name}({ref.signature_text})")
            callees = []
            if next_layer and rng.random() < _CALL_CHANCE:
                callees = rng.sample(next_layer, k=min(rng.randint(1, 2), len(next_layer)))
            asm = _Asm()
            _emit_body(asm, rng, ref.arity, callees, rng.randint(*_BODY_OPS))
            lines.extend(asm.render())
        lines.append("")

    lines.append(f"class {PROBE_CLASS}")
    for probe in (PROBE_TRACED, PROBE_UNTRACED):
        lines.append(f"  method {probe.method_name}({probe.signature_text})")
        asm = _Asm()
        _emit_probe_body(asm, random.Random(seed + 99), _PROBE_OPS)
        lines.extend(asm.render())
    lines.append("")

    source = "\n".join(lines)
    del lines  # the parse below peaks with the text alone, not its lines too
    program = parse_program(source)

    all_refs = [ref for methods in refs_by_class.values() for ref in methods]
    hot_count = max(1, int(len(all_refs) * _HOT_FRACTION))
    hot_refs = rng.sample(all_refs, k=hot_count)
    hot_keys = {ref.key for ref in hot_refs}
    hot_keys.add(PROBE_TRACED.key)
    hot_keys.add(PROBE_UNTRACED.key)

    # Targets: the traced probe plus a mix of deeper-layer methods, at least
    # one of which stays interpreted. With at least 2 methods, some are cold.
    deeper = [r for r in all_refs if r.class_name != PROBE_CLASS]
    rng.shuffle(deeper)
    cold_pick = next(r for r in deeper if r.key not in hot_keys)
    target_refs = [PROBE_TRACED, cold_pick]
    for ref in deeper:
        if len(target_refs) >= target_count:
            break
        if ref.key in (PROBE_TRACED.key, cold_pick.key):
            continue
        target_refs.append(ref)
    target_entries = tuple((ref, (TraceAction.TIME_METHOD,)) for ref in target_refs)

    root_keys = tuple(ref.key for ref in layer_methods[0])
    hot_root_keys = tuple(k for k in root_keys if k in hot_keys)
    fingerprint = hashlib.blake2b(
        f"{seed}:{source}".encode("utf-8"), digest_size=8).hexdigest()

    return GeneratedWorkload(
        seed=seed,
        source=source,
        program=program,
        fingerprint=fingerprint,
        hot_keys=tuple(sorted(hot_keys)),
        target_entries=target_entries,
        latency_traced=PROBE_TRACED,
        latency_untraced=PROBE_UNTRACED,
        interp_traced=cold_pick,
        root_keys=root_keys,
        hot_root_keys=hot_root_keys,
    )


def gen_random_program(seed: int, *,
                       n_methods: int | None = None) -> tuple[Program, list[MethodRef]]:
    """Small random program for differential testing; returns entry refs too.

    Methods may only call higher-numbered methods, so call graphs are acyclic
    and every generated program terminates.
    """
    rng = random.Random(seed)
    n = n_methods if n_methods is not None else rng.randint(2, 5)
    cls = "gen.P"
    refs = [MethodRef(cls, f"f{i}", ("int",) * rng.randint(0, 3)) for i in range(n)]

    lines = [f"class {cls}"]
    for i, ref in enumerate(refs):
        lines.append(f"  method {ref.method_name}({ref.signature_text})")
        later = refs[i + 1:]
        callees = []
        if later and rng.random() < 0.5:
            callees = rng.sample(later, k=min(rng.randint(1, 2), len(later)))
        asm = _Asm()
        _emit_body(asm, rng, ref.arity, callees, rng.randint(6, 40))
        lines.extend(asm.render())
    source = "\n".join(lines)
    return parse_program(source), refs


def sample_args(rng: random.Random, arity: int) -> tuple:
    """Argument vector mixing small values with 64-bit extremes."""
    out = []
    for _ in range(arity):
        roll = rng.random()
        if roll < 0.70:
            out.append(rng.randint(-1000, 1000))
        elif roll < 0.85:
            out.append(rng.randint(-(2**31), 2**31 - 1))
        else:
            out.append(rng.choice((
                2**63 - 1, -(2**63), 2**62, -(2**62) + 1, 2**63 - 2, -1, 0)))
    return tuple(out)
