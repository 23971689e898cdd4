"""Command line interface.

Subcommands: ``run`` executes a program, ``trace`` runs one under a trace
config and prints NDJSON events, ``ablate`` reproduces the mode comparison,
``fleet`` simulates a gated rollout, ``demo`` runs the packaged scenario.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import AblationMode, bring_up, run_modes
from .config import (DEFAULT_ROLLOUT_FRACTION, MIN_CANARY_SESSIONS, ConfigStatus,
                     begin_canary, parse_config, resolve_targets)
from .core import I64_MAX, I64_MIN
from .engine import TraceEngine
from .errors import TraceVMError
from .fleet import FleetManager
from .loader import load_program
from .vm import VM
from .workload import gen_workload
from . import demo as demo_pkg


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _rate(text: str) -> float:
    """A probability flag: NaN or a value outside ``[0, 1]`` is a usage error."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is outside [0, 1]")
    return value


def _at_least(minimum: int):
    """An integer flag type: a value below ``minimum`` is a usage error."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{text} is below {minimum}")
        return value
    return count


def _i64(text: str) -> int:
    """A VM integer flag: a value outside the signed 64-bit range is a usage error."""
    value = int(text)
    if not I64_MIN <= value <= I64_MAX:
        raise argparse.ArgumentTypeError(f"{text} is outside 64-bit range")
    return value


def cmd_run(args) -> int:
    vm = VM(load_program(_read_file(args.program)))
    thread = vm.new_thread("cli")
    result = vm.invoke(thread, args.entry, tuple(args.args))
    print(result)
    return 0


def cmd_trace(args) -> int:
    vm = VM(load_program(_read_file(args.program)))
    engine = TraceEngine(vm)
    config = parse_config(_read_file(args.config))
    targets, warnings, pending = resolve_targets(config, vm.registry)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    bring_up(engine, AblationMode(args.mode), targets, pending)
    thread = vm.new_thread("cli")
    result = vm.invoke(thread, args.entry, tuple(args.args))
    engine.rollback()
    drained = engine.drain()

    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        for event in drained.events:
            out.write(event.to_json_line() + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"result: {result}", file=sys.stderr)
    print(f"events: {len(drained.events)} drained, {drained.dropped_total} dropped, "
          f"{engine.action_errors} action errors", file=sys.stderr)
    return 0


def cmd_ablate(args) -> int:
    workload = gen_workload(
        n_classes=args.classes, methods_per_class=args.methods,
        target_count=args.targets, seed=args.seed)
    modes = [AblationMode(name) for name in args.modes]
    report = run_modes(
        workload, modes,
        latency_calls=args.calls, warmup_calls=args.warmup,
        startup_reps=args.reps, traffic_calls=args.traffic)
    print(report.render_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_fleet(args) -> int:
    workload = gen_workload(seed=args.seed)
    if args.config:
        config = parse_config(_read_file(args.config))
    else:
        config = workload.build_config(
            "cfg-fleet-demo", rollout_fraction=args.fraction, approved=True)
    manager = FleetManager(min_sessions=args.min_sessions)
    if config.status is ConfigStatus.DRAFT:
        begin_canary(config)
    report = manager.simulate(
        config, args.sessions, workload.program, workload.traffic(args.calls),
        crash_rate=args.crash_rate, anr_rate=args.anr_rate)
    print(json.dumps({
        "config_id": report.config_id,
        "sessions": report.sessions,
        "admitted": report.admitted,
        "crash_rate": round(report.metrics.crash_rate, 6),
        "anr_rate": round(report.metrics.anr_rate, 6),
        "trace_events": report.trace_events,
        "status_after": report.status_after.value,
        "rolled_back_sessions": report.rolled_back_sessions,
    }, indent=2))
    return 0


def cmd_demo(args) -> int:
    if args.scenario == "ghost-bug":
        stack, events, result = demo_pkg.run_ghost_bug()
        print(f"ghost-bug trace captured {len(events)} events, result {result}")
        print("stack at listener registration:")
        for frame in stack:
            print(f"  at {frame}")
        for event in events:
            if event.action.name == "CAPTURE_ARGS":
                print(f"args of {event.method_ref.key}: {event.payload}")
        return 0
    raise TraceVMError(f"unknown scenario {args.scenario}")  # pragma: no cover


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracevm",
        description="Tiered bytecode VM with targeted dynamic tracing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program")
    p_run.add_argument("program", help="program text file")
    p_run.add_argument("--entry", required=True, help="method key, e.g. a.b.C.m(int)")
    p_run.add_argument("--args", nargs="*", type=_i64, default=[])
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser("trace", help="run a program under a trace config")
    p_trace.add_argument("program")
    p_trace.add_argument("--config", required=True, help="trace config JSON file")
    p_trace.add_argument("--entry", required=True)
    p_trace.add_argument("--args", nargs="*", type=_i64, default=[])
    p_trace.add_argument("--mode", choices=[m.value for m in AblationMode], default="full")
    p_trace.add_argument("--out", default="-", help="NDJSON output path, - for stdout")
    p_trace.set_defaults(func=cmd_trace)

    p_ablate = sub.add_parser("ablate", help="compare tracing modes on one workload")
    p_ablate.add_argument("--classes", type=_at_least(2), default=40)
    p_ablate.add_argument("--methods", type=_at_least(1), default=25)
    p_ablate.add_argument("--targets", type=int, default=5)
    p_ablate.add_argument("--seed", type=int, default=1234)
    p_ablate.add_argument("--calls", type=_at_least(1), default=20_000,
                          help="timed calls per latency probe")
    p_ablate.add_argument("--warmup", type=_at_least(0), default=2_000)
    p_ablate.add_argument("--traffic", type=_at_least(0), default=2_000)
    p_ablate.add_argument("--reps", type=_at_least(1), default=5,
                          help="activation repetitions for the startup median")
    p_ablate.add_argument("--modes", nargs="+",
                          default=[m.value for m in AblationMode],
                          choices=[m.value for m in AblationMode])
    p_ablate.add_argument("--json", help="also write a JSON report to this path")
    p_ablate.set_defaults(func=cmd_ablate)

    p_fleet = sub.add_parser("fleet", help="simulate a gated config rollout")
    p_fleet.add_argument("--config", help="config JSON; default derives one")
    p_fleet.add_argument("--sessions", type=_at_least(0), default=2_000)
    p_fleet.add_argument("--fraction", type=_rate, default=DEFAULT_ROLLOUT_FRACTION)
    p_fleet.add_argument("--calls", type=_at_least(0), default=30,
                         help="workload calls per session")
    p_fleet.add_argument("--crash-rate", type=_rate, default=0.0)
    p_fleet.add_argument("--anr-rate", type=_rate, default=0.0)
    p_fleet.add_argument("--min-sessions", type=_at_least(1), default=MIN_CANARY_SESSIONS)
    p_fleet.add_argument("--seed", type=int, default=1234)
    p_fleet.set_defaults(func=cmd_fleet)

    p_demo = sub.add_parser("demo", help="run a packaged scenario")
    p_demo.add_argument("scenario", choices=["ghost-bug"])
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ablate" and not 2 <= args.targets <= args.classes * args.methods // 2:
        parser.error(f"argument --targets: {args.targets} is outside "
                     f"2..{args.classes * args.methods // 2}, half of --classes x --methods")
    try:
        return args.func(args)
    except (TraceVMError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
