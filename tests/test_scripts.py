import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_query(capsys):
    assert _load("demo_query").main() == 0
    out = capsys.readouterr().out
    assert "  level 0: ['r1', 'r4', 'r8', 'r9']" in out.splitlines()


def _run(name, *args):
    """Run a script as a program; returns its exit code and standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SCRIPTS.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *args],
                          capture_output=True, text=True, env=env, timeout=600)
    return proc.returncode, proc.stdout


def test_run_trend_experiments():
    rc, out = _run("run_trend_experiments", "pR_recall", "--seeds", "2",
                   "--entities", "20", "--relationships", "40",
                   "--hyperedges", "60", "--grid", "0.5", "1.0",
                   "--thresholds", "0.3", "0.4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "setting\tthreshold\tmean\tstddev\tn_runs"
    assert len(lines) == 1 + 2 * 2
    assert all(line.split("\t")[4] == "2" for line in lines[1:])
