"""Core data model: method references, bytecode, method records and the class registry.

Values are 64-bit signed integers with wrap-around arithmetic. String constants
exist only as interned ids taken from a reserved band far below zero, so the
arg-capture path can map them back to text.
"""

from __future__ import annotations

import hashlib
import re
from enum import Enum, IntEnum
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import MethodNotFoundError, ProgramParseError, ProgramValidationError

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1
_BIAS = 2**63
_MASK = 2**64 - 1

# Interned string ids live near -2**62, far outside anything demo arithmetic
# produces, and are derived from the text so two programs agree on ids.
INTERN_BASE = -(2**62)
_INTERN_SPAN = 2**48


def wrap_i64(value: int) -> int:
    """Wrap an unbounded int into signed 64-bit two's-complement range."""
    return ((value + _BIAS) & _MASK) - _BIAS


def intern_id(text: str) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return INTERN_BASE + int.from_bytes(digest, "big") % _INTERN_SPAN


_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"
_DOTTED_RE = re.compile(rf"{_IDENT}(\.{_IDENT})*$")
_NAME_RE = re.compile(rf"{_IDENT}$")


class EntryPoint(Enum):
    """What a call dispatches through. One mutable slot per method."""

    INTERPRETER_BRIDGE = "InterpreterBridge"
    COMPILED_DIRECT = "CompiledDirect"
    INSTRUMENTATION_INTERPRETER_STUB = "InstrumentationInterpreterStub"
    INSTRUMENTATION_QUICK_STUB = "InstrumentationQuickStub"

    @property
    def is_instrumentation_stub(self) -> bool:
        return self in _INSTRUMENTATION_STUBS


_INSTRUMENTATION_STUBS = frozenset(
    {EntryPoint.INSTRUMENTATION_INTERPRETER_STUB, EntryPoint.INSTRUMENTATION_QUICK_STUB}
)


class CompilationState(Enum):
    INTERPRETED = "interpreted"
    COMPILED = "compiled"


class Opcode(IntEnum):
    PUSH_CONST = 1
    LOAD_ARG = 2
    LOAD_LOCAL = 3
    STORE_LOCAL = 4
    ADD = 5
    SUB = 6
    MUL = 7
    JUMP_IF_ZERO = 8
    JUMP = 9
    CALL = 10
    RETURN = 11


MNEMONIC_TO_OPCODE = {
    "pushconst": Opcode.PUSH_CONST,
    "loadarg": Opcode.LOAD_ARG,
    "loadlocal": Opcode.LOAD_LOCAL,
    "storelocal": Opcode.STORE_LOCAL,
    "add": Opcode.ADD,
    "sub": Opcode.SUB,
    "mul": Opcode.MUL,
    "jz": Opcode.JUMP_IF_ZERO,
    "jmp": Opcode.JUMP,
    "call": Opcode.CALL,
    "ret": Opcode.RETURN,
}


class Instruction(NamedTuple):
    op: Opcode
    arg: object = None


class MethodRef:
    """Immutable (class, method, parameter signature) triple with a canonical key."""

    __slots__ = ("class_name", "method_name", "params", "key", "arity", "_hash")

    def __init__(self, class_name: str, method_name: str, params: Iterable[str] = ()):
        self.class_name = class_name
        self.method_name = method_name
        self.params = tuple(params)
        self.key = f"{class_name}.{method_name}({','.join(self.params)})"
        self.arity = len(self.params)
        self._hash = hash(self.key)

    @staticmethod
    def parse(text: str) -> "MethodRef":
        """Parse a canonical key such as ``pkg.Cls.m(int,int)``."""
        text = text.strip()
        lparen = text.find("(")
        if lparen < 0 or not text.endswith(")"):
            raise ProgramParseError(f"bad method reference {text!r}: missing parameter list")
        path = text[:lparen].strip()
        sig = text[lparen + 1 : -1]
        dot = path.rfind(".")
        if dot <= 0:
            raise ProgramParseError(f"bad method reference {text!r}: need class and method name")
        class_name, method_name = path[:dot], path[dot + 1 :]
        if not _DOTTED_RE.match(class_name):
            raise ProgramParseError(f"bad class name {class_name!r}")
        if not _NAME_RE.match(method_name):
            raise ProgramParseError(f"bad method name {method_name!r}")
        return MethodRef(class_name, method_name, parse_signature(sig))

    @property
    def signature_text(self) -> str:
        return ",".join(self.params)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MethodRef) and other.key == self.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MethodRef({self.key!r})"

    def __str__(self) -> str:
        return self.key


def parse_signature(sig: str) -> tuple[str, ...]:
    """Split a comma-separated parameter list. Type names are opaque tokens."""
    sig = sig.strip()
    if not sig:
        return ()
    params = []
    for raw in sig.split(","):
        token = raw.strip()
        if not token or any(ch.isspace() for ch in token):
            raise ProgramParseError(f"bad signature token {raw!r}")
        params.append(token)
    return tuple(params)


class MethodRecord:
    """Mutable per-method runtime state attached to immutable bytecode."""

    __slots__ = (
        "method_ref",
        "bytecode",
        "n_locals",
        "stack_depths",
        "compilation_state",
        "entry_point",
        "original_entry_point",
        "lowered_code",
        "lowered_source",
    )

    def __init__(self, method_ref: MethodRef, bytecode: tuple[Instruction, ...],
                 n_locals: int, stack_depths: tuple):
        self.method_ref = method_ref
        self.bytecode = bytecode
        self.n_locals = n_locals
        self.stack_depths = stack_depths
        self.compilation_state = CompilationState.INTERPRETED
        self.entry_point = EntryPoint.INTERPRETER_BRIDGE
        self.original_entry_point: EntryPoint | None = None
        self.lowered_code = None
        self.lowered_source: str | None = None

    @property
    def arity(self) -> int:
        return self.method_ref.arity

    def __repr__(self) -> str:
        return (f"MethodRecord({self.method_ref.key!r}, {self.compilation_state.value}, "
                f"entry={self.entry_point.value})")


class MethodSpec(NamedTuple):
    """Parsed, validated method shape shared by every registry instantiation."""

    ref: MethodRef
    bytecode: tuple[Instruction, ...]
    n_locals: int
    stack_depths: tuple
    decl_line: int


class Program(NamedTuple):
    """Immutable parse result. ``instantiate`` builds a fresh mutable registry."""

    methods: tuple[MethodSpec, ...]
    class_order: tuple[str, ...]
    interned: tuple[str, ...]

    def instantiate(self) -> "ClassRegistry":
        registry = ClassRegistry()
        registry._merge(self)
        return registry

    def method_keys(self) -> list[str]:
        return [spec.ref.key for spec in self.methods]


class ClassRegistry:
    """All loaded methods keyed by canonical reference, plus the intern pool."""

    def __init__(self):
        self._records: dict[str, MethodRecord] = {}
        self._intern_by_value: dict[int, str] = {}
        self._on_load: list[Callable[[list[str]], None]] = []

    def _merge(self, program: Program) -> list[str]:
        new_keys = []
        for text in program.interned:
            value = intern_id(text)
            existing = self._intern_by_value.get(value)
            if existing is not None and existing != text:
                raise ProgramValidationError(
                    f"intern id collision between {existing!r} and {text!r}")
            self._intern_by_value[value] = text
        for spec in program.methods:
            key = spec.ref.key
            if key in self._records:
                raise ProgramValidationError(f"duplicate method {key}", line=spec.decl_line)
            record = MethodRecord(spec.ref, spec.bytecode, spec.n_locals, spec.stack_depths)
            self._records[key] = record
            new_keys.append(key)
        return new_keys

    def load(self, program: Program) -> list[str]:
        """Merge another parsed program and notify load hooks."""
        new_keys = self._merge(program)
        if new_keys:
            for hook in list(self._on_load):
                hook(new_keys)
        return new_keys

    def on_load(self, hook: Callable[[list[str]], None]) -> None:
        """Register a callback invoked with new method keys after each load."""
        self._on_load.append(hook)

    def remove_on_load(self, hook: Callable[[list[str]], None]) -> None:
        """Unregister a hook passed to ``on_load``; ValueError if it is not registered."""
        self._on_load.remove(hook)

    def lookup(self, ref: "MethodRef | str") -> MethodRecord:
        key = ref if isinstance(ref, str) else ref.key
        record = self._records.get(key)
        if record is None:
            raise MethodNotFoundError(f"method not found: {key}")
        return record

    def get(self, key: str) -> MethodRecord | None:
        return self._records.get(key)

    def records(self) -> Iterator[MethodRecord]:
        return iter(self._records.values())

    def value_to_payload(self, value: int):
        """Map an interned id back to its string; plain ints pass through."""
        return self._intern_by_value.get(value, value)

    def snapshot_entry_points(self) -> dict[str, EntryPoint]:
        return {key: rec.entry_point for key, rec in self._records.items()}

    def snapshot_state(self) -> dict[str, tuple]:
        """Entry point, saved original and compilation state for every method."""
        return {
            key: (rec.entry_point, rec.original_entry_point, rec.compilation_state)
            for key, rec in self._records.items()
        }

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)
