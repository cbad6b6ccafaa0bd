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


def _chain(tmp_path, name, capsys):
    script = _load("artifact_chain")
    assert script.main([str(tmp_path / name), "--n-a", "8", "--n-d", "6"]) == 0
    return capsys.readouterr().out.splitlines()


def test_artifact_chain_lists_every_artifact_and_reruns_to_the_same_list(tmp_path, capsys):
    first = _chain(tmp_path, "a", capsys)
    assert first == _chain(tmp_path, "b", capsys)
    paths = [line.split("  ", 1)[1] for line in first]
    assert all(len(line.split("  ", 1)[0]) == 64 for line in first)
    assert paths == sorted(paths)
    for kind in _load("artifact_chain").KINDS:
        assert any(p.endswith(kind) for p in paths), kind
    for path in ("train-cl-lam0/checkpoint.dasr", "eval-ls-ad/report.csv", "eval-model-ad/report.csv",
                 "forgetting/forgetting.csv"):
        assert path in paths, path
