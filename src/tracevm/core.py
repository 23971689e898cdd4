"""Core data model: method references, bytecode, method records and the class registry.

Values are 64-bit signed integers with wrap-around arithmetic. String constants
exist only as interned ids taken from a reserved band far below zero, so the
arg-capture path can map them back to text. A parsed ``Program`` is shared, and
so is each untouched method's ``MethodRecord``: a registry builds its own only
to write it.

A method's ``code``, exact ``(int_op, arg)`` tuples, is its only stored form;
``bytecode`` views it as ``Instruction``s, and ``quickened``, on the record and
in ``Program.quickened``, is a cache derived from it that ``VM.interpret``
fills. Its tier is its ``lowered_code``, which ``VM.jit_compile`` sets to a
shared prestub; the method's first call lowers its own body and puts the
function there.
The Enum members that other modules test by identity are bound here, once.
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


def _blake2b_64(text: str) -> int:
    """blake2b of ``text`` with an 8-byte digest, read as a big-endian int."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def intern_id(text: str) -> int:
    return INTERN_BASE + _blake2b_64(text) % _INTERN_SPAN


_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"
_DOTTED_RE = re.compile(rf"{_IDENT}(\.{_IDENT})*")
_NAME_RE = re.compile(_IDENT)


class EntryPoint(Enum):
    """What a call dispatches through. One mutable slot per method."""

    INTERPRETER_BRIDGE = "InterpreterBridge"
    COMPILED_DIRECT = "CompiledDirect"
    INSTRUMENTATION_INTERPRETER_STUB = "InstrumentationInterpreterStub"
    INSTRUMENTATION_QUICK_STUB = "InstrumentationQuickStub"

    @property
    def is_instrumentation_stub(self) -> bool:
        return self in _INSTRUMENTATION_STUBS


class CompilationState(Enum):
    INTERPRETED = "interpreted"
    COMPILED = "compiled"


# The members every module tests by identity, bound once here: an Enum member
# read off its class costs ~0.1 us on CPython 3.11.
_BRIDGE, _COMPILED = EntryPoint.INTERPRETER_BRIDGE, EntryPoint.COMPILED_DIRECT
_INTERP_STUB = EntryPoint.INSTRUMENTATION_INTERPRETER_STUB
_QUICK = EntryPoint.INSTRUMENTATION_QUICK_STUB
_STATE_INTERPRETED, _STATE_COMPILED = CompilationState.INTERPRETED, CompilationState.COMPILED
_INSTRUMENTATION_STUBS = (_INTERP_STUB, _QUICK)  # a tuple: ``in`` runs no Enum.__hash__


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


# The one opcode table: mnemonic, operand kind (None, "const", "slot", "offset"
# or "method") and the fixed (pops, pushes). ``call`` pops its callee's arity.
_OPCODE_TABLE = {
    Opcode.PUSH_CONST: ("pushconst", "const", 0, 1),
    Opcode.LOAD_ARG: ("loadarg", "slot", 0, 1),
    Opcode.LOAD_LOCAL: ("loadlocal", "slot", 0, 1),
    Opcode.STORE_LOCAL: ("storelocal", "slot", 1, 0),
    Opcode.ADD: ("add", None, 2, 1),
    Opcode.SUB: ("sub", None, 2, 1),
    Opcode.MUL: ("mul", None, 2, 1),
    Opcode.JUMP_IF_ZERO: ("jz", "offset", 1, 0),
    Opcode.JUMP: ("jmp", "offset", 0, 0),
    Opcode.CALL: ("call", "method", None, 1),
    Opcode.RETURN: ("ret", None, 1, 0),
}
MNEMONIC_TO_OPCODE = {row[0]: op for op, row in _OPCODE_TABLE.items()}


# Opcode values as plain ints in definition order: what stored code holds,
# unpacked into named ints by the interpreter, the validator and the lowering pass.
_OPCODES = tuple(op.value for op in Opcode)
_OPCODE_BY_VALUE = {op.value: op for op in Opcode}


class Instruction(tuple):
    """Introspection view of one stored ``(op, arg)`` pair; ``op`` gives the ``Opcode``.

    Stored code holds exact tuples: CPython 3.11 specialises the interpreter's
    ``op, arg = code[pc]`` only on an exact ``tuple``, and its ``op == <const>``
    only on two exact ``int``s, so a subclass or an ``IntEnum`` runs generic.
    """

    __slots__ = ()

    def __new__(cls, op: Opcode, arg: object = None):
        return tuple.__new__(cls, (int(op), arg))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def op(self) -> Opcode:
        return _OPCODE_BY_VALUE[self[0]]

    @property
    def arg(self) -> object:
        return self[1]

    def __repr__(self) -> str:
        return f"Instruction({self.op!r}, {self[1]!r})"


class MethodRef:
    """Immutable (class, method, parameter signature) triple with a canonical key."""

    __slots__ = ("class_name", "method_name", "params", "key", "arity")

    def __init__(self, class_name: str, method_name: str, params: Iterable[str] = ()):
        self.class_name = class_name
        self.method_name = method_name
        self.params = tuple(params)
        self.key = f"{class_name}.{method_name}({','.join(self.params)})"
        self.arity = len(self.params)

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
        if not _DOTTED_RE.fullmatch(class_name):
            raise ProgramParseError(f"bad class name {class_name!r}")
        if not _NAME_RE.fullmatch(method_name):
            raise ProgramParseError(f"bad method name {method_name!r}")
        return MethodRef(class_name, method_name, parse_signature(sig))

    @property
    def signature_text(self) -> str:
        return ",".join(self.params)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MethodRef) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)  # str caches its own hash

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
        # a stripped token holds whitespace iff ``split`` cuts it: the test runs in C
        if not token or len(token.split()) > 1:
            raise ProgramParseError(f"bad signature token {raw!r}")
        params.append(token)
    return tuple(params)


# ``bytecode`` on ``MethodSpec`` and ``MethodRecord``: read-only, a fresh tuple per read.
_BYTECODE_VIEW = property(lambda self: tuple(Instruction(*pair) for pair in self.code))


class MethodRecord:
    """Mutable per-method runtime state attached to immutable ``code``."""

    __slots__ = (
        "method_ref",
        "code",
        "n_locals",
        "stack_depths",
        "entry_point",
        "original_entry_point",
        "lowered_code",
        "quickened",
    )

    bytecode = _BYTECODE_VIEW

    def __init__(self, method_ref: MethodRef, code: tuple[tuple[int, object], ...],
                 n_locals: int, stack_depths: tuple, quickened: tuple | None = None):
        self.method_ref = method_ref
        self.code = code
        self.n_locals = n_locals
        self.stack_depths = stack_depths
        self.entry_point = _BRIDGE
        self.original_entry_point: EntryPoint | None = None
        self.lowered_code = None
        self.quickened = quickened

    @property
    def arity(self) -> int:
        return self.method_ref.arity

    @property
    def compilation_state(self) -> CompilationState:
        """Read off ``lowered_code``, the one record of the tier."""
        return _STATE_INTERPRETED if self.lowered_code is None else _STATE_COMPILED

    def __repr__(self) -> str:
        return (f"MethodRecord({self.method_ref.key!r}, {self.compilation_state.value}, "
                f"entry={self.entry_point.value})")


class MethodSpec(NamedTuple):
    """Parsed, validated method shape shared by every registry instantiation."""

    ref: MethodRef
    code: tuple[tuple[int, object], ...]
    n_locals: int
    stack_depths: tuple
    decl_line: int

    bytecode = _BYTECODE_VIEW


class Program:
    """Parse result, shared read-only by every registry made from it.

    ``parse_program`` builds both tables once: ``specs`` maps each key, in
    program order, to its ``MethodSpec``, whose first four fields are the
    ``MethodRecord`` arguments, and ``intern_map`` maps each interned id to
    its text. ``instantiate`` is O(1). Two derived caches fill as the program
    runs: ``shared``, each called method's pristine record, which every
    registry calls through until it builds a private one, and ``quickened``,
    each method's quickened body, built on its first interpretation in any
    registry. ``quickened`` is the one field ever written on a shared record.
    """

    __slots__ = ("specs", "intern_map", "quickened", "shared")

    def __init__(self, specs: dict[str, MethodSpec], intern_map: dict[int, str]):
        self.specs = specs
        self.intern_map = intern_map
        self.quickened: dict[str, tuple] = {}
        self.shared: dict[str, MethodRecord] = {}

    def __eq__(self, other: object) -> bool:
        """Equal parse results; the derived caches take no part."""
        return (isinstance(other, Program) and self.specs == other.specs
                and self.intern_map == other.intern_map)

    @property
    def methods(self) -> tuple[MethodSpec, ...]:
        return tuple(self.specs.values())

    def instantiate(self) -> "ClassRegistry":
        return ClassRegistry(self)

    def method_keys(self) -> list[str]:
        return list(self.specs)


class ClassRegistry:
    """All methods keyed by canonical reference, plus the intern pool.

    Copy on write: a call runs an untouched method on its program's shared
    record (``callee``). ``get``, and so ``lookup`` and ``records``, which
    every writer goes through, builds a private one into ``_records`` with
    ``setdefault``, so threads that touch one method at once get one record.
    ``load`` builds the records of a later program at once and appends its
    keys to ``_loaded``.
    """

    def __init__(self, program: Program):
        self._specs = program.specs
        self._quickened = program.quickened
        self._shared = program.shared
        self._records: dict[str, MethodRecord] = {}
        self._loaded: list[str] = []
        self._intern_by_value = dict(program.intern_map)  # ``load`` may add strings
        self._on_load: list[Callable[[list[str]], None]] = []

    def load(self, program: Program) -> list[str]:
        """Merge another parsed program and notify load hooks."""
        for key, spec in program.specs.items():
            if key in self:
                raise ProgramValidationError(f"duplicate method {key}", line=spec.decl_line)
        pool = self._intern_by_value
        for value, text in program.intern_map.items():  # check all before writing any
            if pool.get(value, text) != text:
                raise ProgramValidationError(f"intern id collision: {pool[value]!r}, {text!r}")
        pool.update(program.intern_map)
        self._records.update({key: MethodRecord(*spec[:4]) for key, spec in program.specs.items()})
        new_keys = list(program.specs)
        self._loaded += new_keys  # after the records, for ``records``
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
        """The one name resolver: the record, or ``MethodNotFoundError``.

        A key string is tried as given, since keys are canonical, and parsed
        only on a miss, which canonicalises it or raises ``ProgramParseError``.
        """
        key = ref if isinstance(ref, str) else ref.key
        record = self._records.get(key) or self.get(key)
        if record is None:
            if isinstance(ref, str):
                return self.lookup(MethodRef.parse(ref))
            raise MethodNotFoundError(f"method not found: {key}")
        return record

    def get(self, key: str) -> MethodRecord | None:
        record = self._records.get(key)
        if record is None:
            spec = self._specs.get(key)
            if spec is not None:
                record = self._records.setdefault(
                    key, MethodRecord(*spec[:4], self._quickened.get(key)))
        return record

    def callee(self, ref: "MethodRef | str") -> MethodRecord:
        """A call's record on a miss in ``_records`` and ``_shared``: shared, or ``lookup``'s."""
        spec = self._specs.get(ref if isinstance(ref, str) else ref.key)
        if spec is None:
            return self.lookup(ref)
        return self._shared.setdefault(spec.ref.key, MethodRecord(*spec[:4]))

    def records(self) -> Iterator[MethodRecord]:
        """Every method, untouched ones built: program order, then load order.

        Never iterates ``_records``, which a first touch elsewhere may grow.
        """
        get = self.get
        for key in self._specs:
            yield get(key)
        records = self._records
        for key in self._loaded:
            yield records[key]

    def value_to_payload(self, value: int):
        """Map an interned id back to its string; plain ints pass through."""
        return self._intern_by_value.get(value, value)

    def snapshot_entry_points(self) -> dict[str, EntryPoint]:
        return {rec.method_ref.key: rec.entry_point for rec in self.records()}

    def snapshot_state(self) -> dict[str, tuple]:
        """Entry point, saved original and compilation state for every method."""
        return {
            rec.method_ref.key: (rec.entry_point, rec.original_entry_point,
                                 rec.compilation_state)
            for rec in self.records()
        }

    def __contains__(self, key: str) -> bool:
        return key in self._specs or key in self._records

    def __len__(self) -> int:
        return len(self._specs) + len(self._loaded)
