"""tracevm benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload hot_session --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``tracevm`` from its
``src``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines above it
give every figure raw and scaled to the nominal machine speed, and a full
result file is written under ``perfbench/out/``.

A run is ``PROCESSES`` measuring processes started one after another, each
for an equal share of ``--seconds``; every figure is the median of theirs.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WARMUP_ROUNDS = {"hot_session": 20, "session_churn": 20, "fleet_canary": 2}
# Processes of one code differ in speed by up to a third on some blocks and
# hold their speed for their whole life (memory layout, the machine's state
# when they start), so the figures of a single process move between runs by
# that much. The median over several processes moves less.
PROCESSES = 5
PROCESS_TIMEOUT_S = 150
HASH_SEED = "0"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WARMUP_ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as the measuring process with this index.
    p.add_argument("--process", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def check_sources() -> None:
    src = ROOT / "src"
    if not (src / "tracevm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tracevm sources under {src}; run from a checkout")


def traced_round(i: int) -> bool:
    # Pairs of rounds on, pairs off: a period of four, so a workload whose
    # rounds alternate two kinds has both kinds traced.
    return (i // 2) % 2 == 0


def main(argv=None) -> int:
    args = parse_args(argv)
    check_sources()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.process is None:
        return run(args, bench)
    print(json.dumps(measure(args, bench)))
    return 0


# -- the run: measuring processes one after another ----------------------------

def run(args, bench) -> int:
    """Start the measuring processes one at a time, wait for each, and combine
    their figures."""
    # A fixed string-hash seed: with a random one, dict and set layouts, and
    # so their speeds, differ from process to process.
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    parts = []
    for k in range(PROCESSES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / PROCESSES),
               "--trace", str(args.trace), "--process", str(k)]
        # run() kills and waits for the process on a timeout or any error.
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=PROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: measuring process {k} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode if proc.returncode > 0 else 1
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "processes": PROCESSES,
        "rounds": sum(p["rounds"] for p in parts),
        "warmup_rounds": WARMUP_ROUNDS[args.workload],
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failed_by_step": _sum_counts(p["failed_by_step"] for p in parts),
        "reference_loop_us": {"median": _median([p["loop_median_s"] for p in parts]) * 1e6,
                              "speed": [p["speed"] for p in parts]},
        "problems": [q for p in parts for q in p["problems"]],
        "per_process": parts,
    }
    report["correct"] = all(p["correct"] for p in parts)
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        layer = {name: {"value": _median([p["layer"][name]["value"] for p in parts]),
                        "unit": p0["unit"]}
                 for name, p0 in parts[0]["layer"].items()}
        report["layer_figures"] = layer
        metrics = {name: {"value": layer[name]["value"], "unit": units[name]} for name in names}
        rows = [(n, m["value"], None, m["unit"]) for n, m in layer.items()]
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        figures = {}
        for name, f0 in parts[0]["figures"].items():
            figures[name] = {"raw": _median([p["figures"][name]["raw"] for p in parts]),
                             "scaled": _median([p["figures"][name]["scaled"] for p in parts]),
                             "unit": units.get(name, f0["unit"])}
        figures["setup_s"] = {"raw": _median([p["setup_raw_s"] for p in parts]),
                              "scaled": _median([p["setup_scaled_s"] for p in parts]),
                              "unit": "s"}
        peak = max(p["peak_rss_mb"] for p in parts)
        figures["peak_rss_mb"] = {"raw": peak, "scaled": peak, "unit": "MB"}
        report["figures"] = figures
        metrics = {name: {"value": figures[name]["scaled"], "unit": unit}
                   for name, unit in units.items()}
        rows = [(n, f["raw"], f["scaled"], f["unit"]) for n, f in figures.items()]
    report["metrics"] = metrics

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    _print_table(report, rows)
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def _median(values) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def _sum_counts(dicts) -> dict:
    total: dict = {}
    for d in dicts:
        for k, v in d.items():
            total[k] = total.get(k, 0) + v
    return total


def _print_table(report, rows) -> None:
    loop = report["reference_loop_us"]
    speeds = " ".join(f"{s:.3f}" for s in loop["speed"])
    print(f"{report['workload']} seed={report['seed']} processes={report['processes']} "
          f"rounds={report['rounds']} attempted={report['attempted']} "
          f"failed={report['failed']} {report['failed_by_step']}")
    print(f"reference loop: median of process medians {loop['median']:.2f} us; "
          f"speed of each process against nominal: {speeds}")
    print(f"{'metric':36} {'raw':>16} {'scaled':>16}  unit")
    for name, raw, scaled, unit in rows:
        scaled_text = f"{scaled:16.6g}" if scaled is not None else f"{'':16}"
        print(f"{name:36} {raw:16.6g} {scaled_text}  {unit}")


# -- one measuring process -------------------------------------------------------

def measure(args, bench) -> dict:
    """Set up once, warm up, run whole passes for ``--seconds``; return the
    process's figures and accounting."""
    sys.path.insert(0, str(ROOT / "src"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    # The engine warns once per method compiled while traced; session_churn
    # does that every cycle. A handler keeps the records off stderr, which
    # would otherwise get one line per cycle from logging's last resort.
    logging.getLogger("tracevm").addHandler(logging.NullHandler())

    import machine
    from common import Recorder
    from fleet_canary import FleetCanary
    from hot_session import HotSession
    from session_churn import SessionChurn

    kinds = {k.name: k for k in (HotSession, SessionChurn, FleetCanary)}
    kind = kinds[args.workload]
    rec = Recorder(kind.known_faults)
    workload = kind(args.seed, rec)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.enable("setup")

    _, setup_raw, setup_loop = machine.timed_with_reference(workload.setup)
    if hasattr(workload, "compare_activation"):
        # Untraced even in the traced run: the global walk's ten thousand
        # stub installs and restores would swamp the per-layer figures.
        if tracer is not None:
            tracer.disable()
        workload.compare_activation()
        if tracer is not None:
            tracer.enable("setup")

    # The set-up heap (program, registry, inputs and expectations) lives for
    # the whole run. Frozen, it is left out of the cyclic collector's passes,
    # whose length would otherwise depend on it; what the rounds allocate is
    # collected as usual.
    gc.collect()
    gc.freeze()
    index = 0
    for _ in range(WARMUP_ROUNDS[args.workload]):
        workload.round(index, machine.Pairer())
        index += 1

    pair = machine.Pairer()
    rounds, traced_flags = [], []
    counters: dict = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        on = tracer is not None and traced_round(len(rounds))
        if tracer is not None:
            tracer.enable("round") if on else tracer.disable()
        result = workload.round(index, pair)
        index += 1
        rounds.append(result)
        traced_flags.append(on)
        if on:
            for k, v in result.counters.items():
                counters[k] = counters.get(k, 0) + v
        # Whole passes only: every run attempts the same operations in the
        # same proportions, whatever its length.
        if len(rounds) % workload.pass_len == 0 and time.perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.enable("finish")
    workload.finish(pair)
    if tracer is not None:
        tracer.disable()
    pair.close()

    loop_median = machine.median(pair.loops)
    part = {
        "process": args.process, "rounds": len(rounds),
        "attempted": rec.attempted, "failed": rec.failed,
        "failed_by_step": dict(rec.failed_by_step),
        "loop_median_s": loop_median, "speed": machine.NOMINAL_LOOP_S / loop_median,
        "setup_raw_s": setup_raw, "setup_scaled_s": machine.scale(setup_raw, setup_loop),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is None:
        scaled = workload.figures(rounds, machine.Block.scaled)
        raw = workload.figures(rounds, machine.Block.raw)
        if hasattr(workload, "self_check"):
            rec.harness("aa_self_check", workload.self_check(scaled, bounds))
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        part["figures"] = {name: {"raw": raw[name], "scaled": scaled[name],
                                  "unit": _unit(name, units)} for name in scaled}
    else:
        from layers import METRICS, SLOWDOWN, LayerFigures
        traced_rounds = sum(traced_flags)
        figures = LayerFigures(tracer, traced_rounds, counters)
        on_t = [r.total(machine.Block.scaled) for r, on in zip(rounds, traced_flags) if on]
        off_t = [r.total(machine.Block.scaled) for r, on in zip(rounds, traced_flags) if not on]
        # Every layer figure goes to the table and the result file; the result
        # line holds the manifest's, which every workload exercises.
        layer = {name: {"value": fn(figures), "unit": unit}
                 for name, (unit, _better, fn) in METRICS.items()}
        layer[SLOWDOWN] = {"value": machine.median(on_t) / machine.median(off_t), "unit": "x"}
        part["layer"] = layer
        part.update(spans_kept=len(tracer.spans), spans_dropped=tracer.spans_dropped,
                    traced_rounds=traced_rounds)
        if args.process == 0:
            # One span file per run is enough to follow operations; the
            # aggregates above cover every process's spans.
            span_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.ndjson"
            span_file.parent.mkdir(exist_ok=True)
            tracer.write_spans(span_file)
            part["span_file"] = str(span_file.relative_to(ROOT))
    part["correct"] = rec.correct
    part["problems"] = rec.unexpected
    return part


def _unit(name: str, units: dict) -> str:
    """Units of the figures printed beside the metrics: ratios and times."""
    if name in units:
        return units[name]
    return "x" if name.endswith(("_over_untraced", "_over_targeted")) else "us"


if __name__ == "__main__":
    sys.exit(main())
