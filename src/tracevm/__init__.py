"""Tiered bytecode VM with built-in instrumentation and targeted dynamic tracing."""

from .actions import (
    DIGITS_TOKEN,
    EMAIL_TOKEN,
    EventSink,
    TraceAction,
    TraceEvent,
    redact_args,
    redact_text,
    redact_value,
)
from .bench import AblationMetrics, AblationMode, AblationReport, run_ablation, run_modes
from .config import (
    ConfigEntry,
    ConfigStatus,
    HealthMetrics,
    Thresholds,
    TraceConfig,
    begin_canary,
    config_from_obj,
    format_config,
    lifecycle_advance,
    parse_config,
    resolve_targets,
    session_gate,
    transition,
)
from .core import (
    ClassRegistry,
    CompilationState,
    EntryPoint,
    Instruction,
    MethodRecord,
    MethodRef,
    Opcode,
    Program,
    wrap_i64,
)
from .engine import INTERCEPT_REF, TargetSet, TraceEngine, TracePhase
from .errors import (
    ArityMismatchError,
    BenchmarkError,
    ConfigError,
    DuplicateListenerError,
    InvalidStubError,
    MethodNotFoundError,
    PhaseError,
    ProgramParseError,
    ProgramValidationError,
    StackDepthError,
    TraceVMError,
    UnknownListenerError,
    VMInternalError,
    WorkloadError,
)
from .fleet import FleetManager, FleetReport, FleetSession
from .instrumentation import EventKind, Instrumentation, ListenerRegistration
from .loader import load_program, parse_program
from .vm import VM, VMThread
from .workload import GeneratedWorkload, gen_random_program, gen_workload, sample_args

__version__ = "0.1.0"
