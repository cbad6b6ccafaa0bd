"""The repository's scripts run against the current API."""

import importlib.util
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_search_lambda_prints_a_winner(capsys):
    script = _load("grid_search_lambda")
    script.main(["--train-n", "8", "--val-n", "4", "--epochs", "1", "--grid", "1"])
    out = capsys.readouterr().out
    assert "winner lambda = 1\n" in out
    assert "lambda        0" in out and "multi-task" in out
