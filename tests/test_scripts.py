import importlib.util
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
