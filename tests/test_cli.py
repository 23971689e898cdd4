import glob
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracevm
from tracevm import EntryPoint, cli, demo
from tracevm.bench import AblationMode, bring_up
from tracevm.cli import main
from tracevm.core import I64_MAX, I64_MIN

# The checkout under test: the src/ directory holding the imported package,
# and the pyproject.toml beside it.
SRC_DIR = Path(tracevm.__file__).resolve().parent.parent
PYPROJECT = SRC_DIR.parent / "pyproject.toml"

PROGRAM = """
class cli.Demo
  method twice(int)
    loadarg 0
    pushconst 2
    mul
    ret
  method run(int)
    loadarg 0
    call cli.Demo.twice(int)
    ret
"""

CONFIG = {
    "config_id": "cfg-cli",
    "rollout_fraction": 1.0,
    "approved": True,
    "dynamic_trace_config": [
        {"action": 2, "className": "cli.Demo", "methodName": "twice",
         "methodSign": "int"},
        {"action": 3, "className": "cli.Demo", "methodName": "twice",
         "methodSign": "int"},
    ],
}


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "demo.prog"
    path.write_text(PROGRAM, encoding="utf-8")
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return str(path)


def test_run_prints_result(program_file, capsys):
    code = main(["run", program_file, "--entry", "cli.Demo.run(int)", "--args", "21"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "42"


def test_run_unknown_entry_fails_cleanly(program_file, capsys):
    code = main(["run", program_file, "--entry", "cli.Demo.nope()"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_missing_file_fails_cleanly(capsys):
    code = main(["run", "/nonexistent.prog", "--entry", "a.A.f()"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_program_text_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "broken.prog"
    path.write_text("class a.A\n  method f()\n    frobnicate\n", encoding="utf-8")
    code = main(["run", str(path), "--entry", "a.A.f()"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["trace"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("value", [str(I64_MAX + 1), str(I64_MIN - 1), "99999999999999999999"])
def test_args_outside_64_bit_range_are_a_usage_error(command, value, program_file,
                                                     config_file, capsys):
    argv = [command, program_file] + (["--config", config_file] if command == "trace" else [])
    with pytest.raises(SystemExit) as info:
        main(argv + ["--entry", "cli.Demo.run(int)", "--args", value])
    assert info.value.code == 2
    assert f"{value} is outside 64-bit range" in capsys.readouterr().err


@pytest.mark.parametrize("value,doubled", [(I64_MIN, 0), (I64_MAX, -2)])
def test_args_at_either_end_of_64_bit_range_run(value, doubled, program_file, capsys):
    code = main(["run", program_file, "--entry", "cli.Demo.run(int)", "--args", str(value)])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(doubled)


@pytest.mark.parametrize("mode", ["full", "global", "interpreter"])
def test_trace_emits_ndjson(program_file, config_file, capsys, mode):
    code = main(["trace", program_file, "--config", config_file,
                 "--entry", "cli.Demo.run(int)", "--args", "5", "--mode", mode])
    assert code == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert len(lines) == 2
    assert {line["action"] for line in lines} == {2, 3}
    args_line = next(line for line in lines if line["action"] == 2)
    assert args_line["method"] == "cli.Demo.twice(int)"
    assert args_line["payload"] == {"args": [5], "return": 10}
    assert "result: 10" in captured.err
    assert "0 dropped, 0 action errors" in captured.err


# Entry of (compiled target, interpreted target, untargeted method) once each
# mode is up.
_BRIDGE, _COMPILED = EntryPoint.INTERPRETER_BRIDGE, EntryPoint.COMPILED_DIRECT
_INTERP, _QUICK = (EntryPoint.INSTRUMENTATION_INTERPRETER_STUB,
                   EntryPoint.INSTRUMENTATION_QUICK_STUB)
MODE_ENTRIES = {
    AblationMode.BASELINE: (_COMPILED, _BRIDGE, _BRIDGE),
    AblationMode.FULL: (_QUICK, _INTERP, _BRIDGE),
    AblationMode.INTERPRETER: (_INTERP, _INTERP, _BRIDGE),
    AblationMode.GLOBAL: (_INTERP, _INTERP, _INTERP),
}


@pytest.mark.parametrize("mode", list(AblationMode))
def test_trace_mode_starts_its_own_bring_up(tmp_path, monkeypatch, capsys, mode):
    program = tmp_path / "modes.prog"
    program.write_text(PROGRAM + "  method idle()\n    pushconst 1\n    ret\n", encoding="utf-8")
    config = tmp_path / "modes.json"
    config.write_text(json.dumps(dict(CONFIG, dynamic_trace_config=[
        {"action": 3, "className": "cli.Demo", "methodName": name, "methodSign": "int"}
        for name in ("twice", "run")])), encoding="utf-8")
    keys = ("cli.Demo.twice(int)", "cli.Demo.run(int)", "cli.Demo.idle()")
    seen = {}

    def spy(engine, ablation_mode, targets, pending=()):
        engine.vm.jit_compile(keys[0])
        report = bring_up(engine, ablation_mode, targets, pending)
        seen[ablation_mode] = tuple(engine.vm.registry.lookup(k).entry_point for k in keys)
        return report

    monkeypatch.setattr(cli, "bring_up", spy)
    code = main(["trace", str(program), "--config", str(config),
                 "--entry", "cli.Demo.run(int)", "--args", "5", "--mode", mode.value])
    assert code == 0
    assert seen == {mode: MODE_ENTRIES[mode]}
    events = capsys.readouterr().out.splitlines()
    assert len(events) == (0 if mode is AblationMode.BASELINE else 2)


def test_trace_writes_file(program_file, config_file, tmp_path, capsys):
    out = tmp_path / "events.ndjson"
    code = main(["trace", program_file, "--config", config_file,
                 "--entry", "cli.Demo.run(int)", "--args", "3",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--out", "--config"])
def test_trace_directory_path_fails_cleanly(program_file, config_file, tmp_path, capsys, flag):
    paths = {"--out": "-", "--config": config_file, flag: str(tmp_path)}
    code = main(["trace", program_file, "--entry", "cli.Demo.run(int)", "--args", "3",
                 "--config", paths["--config"], "--out", paths["--out"]])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error:")
    assert "Traceback" not in err


def test_trace_warns_on_unresolved_entry(program_file, tmp_path, capsys):
    config = dict(CONFIG)
    config["dynamic_trace_config"] = CONFIG["dynamic_trace_config"] + [
        {"action": 1, "className": "no.Such", "methodName": "m", "methodSign": ""},
    ]
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["trace", program_file, "--config", str(path),
                 "--entry", "cli.Demo.run(int)", "--args", "1"])
    assert code == 0
    assert "warning: no loaded method matches no.Such.m()" in capsys.readouterr().err


def test_ablate_prints_table_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["ablate", "--classes", "4", "--methods", "3", "--targets", "2",
                 "--calls", "300", "--warmup", "50", "--traffic", "100",
                 "--reps", "2", "--modes", "baseline", "full",
                 "--json", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "baseline" in table and "full" in table
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert {m["mode"] for m in doc["modes"]} == {"baseline", "full"}


def test_ablate_rejects_a_repeated_mode_before_timing_any(capsys):
    code = main(["ablate", "--modes", "full", "full", "--calls", "10", "--warmup", "0",
                 "--traffic", "0", "--reps", "1"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and "error: duplicate mode in ['full', 'full']" in err


def test_ablate_rejects_modes_with_no_mode(capsys):
    with pytest.raises(SystemExit) as info:
        main(["ablate", "--modes"])
    assert info.value.code == 2
    assert "--modes: expected at least one argument" in capsys.readouterr().err


@pytest.mark.parametrize("calls", ["0", "-5"])
def test_ablate_without_timed_calls_fails_cleanly(calls, capsys):
    with pytest.raises(SystemExit) as info:
        main(["ablate", "--classes", "4", "--methods", "3", "--targets", "2",
              "--calls", calls, "--reps", "1", "--modes", "baseline"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"{calls} is below 1" in err and "Traceback" not in err


def test_fleet_reports_rollout(capsys):
    code = main(["fleet", "--sessions", "40", "--fraction", "0.3",
                 "--calls", "5", "--min-sessions", "10"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sessions"] == 40
    assert doc["status_after"] == "full_rollout"


def test_fleet_breach_rolls_back(capsys):
    code = main(["fleet", "--sessions", "40", "--fraction", "0.5",
                 "--calls", "5", "--min-sessions", "10", "--crash-rate", "0.9"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status_after"] == "rolled_back"
    assert doc["rolled_back_sessions"] == doc["admitted"]


@pytest.mark.parametrize("flag", ["--fraction", "--crash-rate", "--anr-rate"])
@pytest.mark.parametrize("value", ["nan", "-0.5", "2.5"])
def test_fleet_rejects_a_rate_outside_the_unit_interval(flag, value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["fleet", "--sessions", "4", "--calls", "1", flag, value])
    assert info.value.code == 2
    assert f"{value} is outside [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,minimum", [("--min-sessions", "0", 1),
                                                ("--min-sessions", "-5", 1),
                                                ("--sessions", "-3", 0),
                                                ("--calls", "-3", 0)])
def test_fleet_rejects_a_count_below_its_minimum(flag, value, minimum, capsys):
    with pytest.raises(SystemExit) as info:
        main(["fleet", "--sessions", "20", "--calls", "3", flag, value])
    assert info.value.code == 2
    assert f"{value} is below {minimum}" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--warmup", "-5"), ("--traffic", "-7")])
def test_ablate_rejects_a_negative_call_count(flag, value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["ablate", "--classes", "4", "--methods", "3", "--targets", "2",
              "--reps", "1", "--modes", "baseline", flag, value])
    assert info.value.code == 2
    assert f"{value} is below 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,minimum", [("--calls", "0", 1), ("--reps", "0", 1),
                                                ("--classes", "1", 2), ("--methods", "0", 1)])
def test_ablate_rejects_a_count_below_its_minimum(flag, value, minimum, capsys):
    with pytest.raises(SystemExit) as info:
        main(["ablate", "--classes", "4", "--methods", "3", "--targets", "2",
              "--calls", "10", "--warmup", "0", "--traffic", "0", "--reps", "1",
              "--modes", "baseline", flag, value])
    assert info.value.code == 2
    assert f"{value} is below {minimum}" in capsys.readouterr().err


def test_fleet_with_no_sessions_stays_canary(capsys):
    code = main(["fleet", "--sessions", "0", "--calls", "3", "--min-sessions", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["sessions"], doc["admitted"], doc["status_after"]) == (0, 0, "canary")


@pytest.mark.parametrize("flag", ["--fraction", "--crash-rate", "--anr-rate"])
@pytest.mark.parametrize("value", ["0", "1"])
def test_fleet_takes_a_rate_at_either_end(flag, value, capsys):
    code = main(["fleet", "--sessions", "10", "--calls", "5", "--min-sessions", "5",
                 flag, value])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    if flag == "--fraction":
        assert doc["admitted"] == (10 if value == "1" else 0)


def test_demo_ghost_bug(capsys):
    code = main(["demo", "ghost-bug"])
    assert code == 0
    out = capsys.readouterr().out
    frames = [line.strip() for line in out.splitlines() if line.strip().startswith("at ")]
    assert frames[0] == "at XTrace.intercept()"
    assert frames[-1] == "at com.bytedance.hybrid.spark.page.SparkActivity.onStart()"
    assert "layout-probe" in out


def _pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)


def _write_launcher(bin_dir, entry):
    # The wrapper pip and other installers generate for a console_scripts
    # entry "module:attr".
    module, _, attr = entry.partition(":")
    launcher = bin_dir / "tracevm"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    return launcher


def test_console_script_installed(tmp_path):
    # Checks the command this checkout declares, not whichever tracevm is
    # first on PATH: the launcher an install would generate goes into a
    # private bin/, and the child imports tracevm from this src/.
    entry = _pyproject()["project"]["scripts"]["tracevm"]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = _write_launcher(bin_dir, entry)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))

    script = shutil.which("tracevm", path=env["PATH"])
    assert script == str(launcher)

    def tracevm_cmd(*args):
        return subprocess.run([script, *args], env=env, capture_output=True,
                              text=True, timeout=60)

    proc = tracevm_cmd("demo", "ghost-bug")
    assert proc.returncode == 0, proc.stderr
    assert "XTrace.intercept()" in proc.stdout
    # Exit codes documented in the cli module, carried by sys.exit(main()).
    proc = tracevm_cmd("run", "/nonexistent.prog", "--entry", "a.A.f()")
    assert proc.returncode == 1, proc.stderr
    assert "error:" in proc.stderr
    assert tracevm_cmd().returncode == 2


def test_package_data_ships_demo_files():
    # A wheel holds only the data files that [tool.setuptools.package-data]
    # matches; expand the patterns the way setuptools' build_py does.
    patterns = _pyproject()["tool"]["setuptools"]["package-data"]["tracevm"]
    shipped_texts = {
        Path(match).read_text(encoding="utf-8")
        for pattern in patterns
        for match in glob.glob(str(SRC_DIR / "tracevm" / pattern), recursive=True)
        if os.path.isfile(match)
    }
    for text in demo.ghost_bug_sources():
        assert text in shipped_texts, "ghost_bug_sources() reads a file no wheel ships"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tracevm", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: tracevm" in proc.stdout


@pytest.mark.parametrize("value", ["1", "7", "-2"])
def test_ablate_rejects_a_target_count_outside_its_range(value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["ablate", "--classes", "4", "--methods", "3", "--targets", value,
              "--calls", "10", "--warmup", "0", "--traffic", "0", "--reps", "1",
              "--modes", "baseline"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{value} is outside 2..6, half of --classes x --methods" in err
