"""End-to-end command-line pipeline on a reduced grid."""

import subprocess
import sys

import numpy as np
import pytest

from chansr.cli import main
from chansr.dataset import load_dataset

# reduced geometry + short runs keep each stage well under a second
_INI = """\
[ofdm]
n_f = 27
n_t = 10

[train]
epochs = 2
batch_size = 4
lr = 1e-3

[eval]
snr_list = 0, 10
mc = 4
"""


@pytest.fixture()
def ws(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(_INI)
    return tmp_path


def _run(*argv):
    return main(list(argv))


def _gen(ws, name, profile="tdl-a", n=8, seed="0", split="train", snr="10"):
    rc = _run("gen", "--config", "cfg.ini", "--profile", profile, "--snr", snr,
              "--n", str(n), "--seed", seed, "--split", split, "--out", name)
    assert rc == 0
    return ws / name


def test_gen_deterministic_and_well_formed(ws):
    a = _gen(ws, "a.chds")
    b = _gen(ws, "b.chds")
    assert a.read_bytes() == b.read_bytes()
    ds = load_dataset(a)
    assert len(ds) == 8
    assert ds.h_true.shape == (8, 27, 10)
    assert ds.h_ls.shape == (8, 3, 2)
    c = _gen(ws, "c.chds", seed="1")
    assert a.read_bytes() != c.read_bytes()


def test_gen_usage_errors_leave_no_file(ws, capsys):
    rc = _run("gen", "--config", "cfg.ini", "--profile", "tdl-a", "--snr", "10",
              "--n", "0", "--out", "zero.chds")
    assert rc == 1
    assert not (ws / "zero.chds").exists()
    assert "usage error" in capsys.readouterr().err


def test_gen_overwrite_needs_force(ws):
    _gen(ws, "a.chds")
    rc = _run("gen", "--config", "cfg.ini", "--profile", "tdl-a", "--snr", "10",
              "--n", "8", "--seed", "0", "--out", "a.chds")
    assert rc == 1
    rc = _run("gen", "--config", "cfg.ini", "--profile", "tdl-a", "--snr", "10",
              "--n", "8", "--seed", "0", "--out", "a.chds", "--force")
    assert rc == 0


def test_gen_unknown_profile_is_data_error(ws, capsys):
    rc = _run("gen", "--config", "cfg.ini", "--profile", "tdl-q", "--snr", "10",
              "--n", "2", "--out", "q.chds")
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_missing_subcommand_and_unknown_flag(ws, capsys):
    assert _run() == 1
    assert _run("gen", "--bogus") == 1
    capsys.readouterr()


def test_bad_config_file(ws, capsys):
    (ws / "bad.ini").write_text("[ofdm]\nn_f = 27\nmystery = 1\n")
    rc = _run("gen", "--config", "bad.ini", "--profile", "tdl-a", "--snr", "10",
              "--n", "2", "--out", "x.chds")
    assert rc == 1
    assert "mystery" in capsys.readouterr().err


def test_train_run_dir_and_reproducibility(ws):
    _gen(ws, "a.chds")
    for out in ("run1", "run2"):
        rc = _run("train", "--config", "cfg.ini", "--data", "a.chds",
                  "--seed", "3", "--out", out)
        assert rc == 0
    for f in ("checkpoint.dasr", "loss.csv", "config.ini", "provenance.txt"):
        assert (ws / "run1" / f).exists(), f
    assert (ws / "run1" / "checkpoint.dasr").read_bytes() == \
           (ws / "run2" / "checkpoint.dasr").read_bytes()
    assert (ws / "run1" / "loss.csv").read_bytes() == (ws / "run2" / "loss.csv").read_bytes()
    lines = (ws / "run1" / "loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss" and len(lines) == 3
    prov = (ws / "run1" / "provenance.txt").read_text()
    assert "seed = 3" in prov and "precision = f32" in prov


def test_train_epoch_override_and_missing_data(ws, capsys):
    _gen(ws, "a.chds")
    rc = _run("train", "--config", "cfg.ini", "--data", "a.chds", "--epochs", "1",
              "--out", "run_e1")
    assert rc == 0
    assert len((ws / "run_e1" / "loss.csv").read_text().splitlines()) == 2
    assert _run("train", "--config", "cfg.ini", "--data", "nope.chds", "--out", "r") == 2
    assert "data error" in capsys.readouterr().err


def test_train_on_non_finite_dataset_is_data_error(ws, capsys):
    path = _gen(ws, "a.chds")
    raw = bytearray(path.read_bytes())
    raw[28:32] = np.float32(np.nan).tobytes()  # first payload float
    path.write_bytes(bytes(raw))
    assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--out", "r") == 2
    err = capsys.readouterr().err
    assert "data error" in err and "non-finite" in err
    assert not (ws / "r").exists()


def test_full_continual_learning_pipeline(ws):
    _gen(ws, "a.chds", profile="tdl-a", seed="0")
    _gen(ws, "d.chds", profile="tdl-d", seed="0")

    assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--seed", "1",
                "--out", "post1") == 0
    assert _run("fisher", "--config", "cfg.ini", "--data", "a.chds",
                "--checkpoint", "post1/checkpoint.dasr", "--task-label", "tdl-a",
                "--out", "fish") == 0
    assert (ws / "fish" / "fisher.fish").exists()

    assert _run("train-cl", "--config", "cfg.ini", "--data", "d.chds",
                "--checkpoint", "post1/checkpoint.dasr",
                "--fisher", "fish/fisher.fish", "--lambda", "100",
                "--seed", "1", "--out", "cl") == 0
    lines = (ws / "cl" / "loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,ewc_loss,total_loss"

    assert _run("train-cl", "--config", "cfg.ini", "--data", "d.chds",
                "--checkpoint", "post1/checkpoint.dasr",
                "--fisher", "fish/fisher.fish", "--lambda", "0",
                "--seed", "1", "--out", "naive") == 0
    assert _run("train-multitask", "--config", "cfg.ini", "--data", "a.chds",
                "--data", "d.chds", "--seed", "1", "--out", "multi") == 0

    assert _run("report-forgetting", "--config", "cfg.ini",
                "--post1", "post1/checkpoint.dasr",
                "--naive", "naive/checkpoint.dasr",
                "--cl", "cl/checkpoint.dasr",
                "--multitask", "multi/checkpoint.dasr",
                "--mc", "2", "--out", "forget") == 0
    lines = (ws / "forget" / "forgetting.csv").read_text().splitlines()
    # header + 4 schemes x 3 sets x 2 SNRs + 2 delta rows
    assert len(lines) == 1 + 24 + 2
    assert lines[0] == "scheme,profile,snr_db,nmse_linear,nmse_db,mc,seed"
    assert sum(1 for ln in lines if ln.startswith("delta_naive_minus_cl")) == 2


def test_train_cl_missing_fisher_message(ws, capsys):
    _gen(ws, "d.chds", profile="tdl-d")
    _gen(ws, "a.chds")
    assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--out", "p1") == 0
    rc = _run("train-cl", "--config", "cfg.ini", "--data", "d.chds",
              "--checkpoint", "p1/checkpoint.dasr", "--fisher", "missing.fish",
              "--out", "cl")
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing.fish" in err and "'fisher' stage" in err


def test_eval_ls_and_model_schemes(ws):
    _gen(ws, "a.chds")
    assert _run("eval", "--config", "cfg.ini", "--scheme", "ls", "--profile", "tdl-a",
                "--out", "evls", "--mc", "4") == 0
    lines = (ws / "evls" / "report.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[1].startswith("ls,tdl-a,0,")

    assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--out", "tr") == 0
    assert _run("eval", "--config", "cfg.ini", "--scheme", "model",
                "--checkpoint", "tr/checkpoint.dasr", "--profile", "tdl-a",
                "--out", "evm", "--mc", "4", "--snr-list", "10") == 0
    lines = (ws / "evm" / "report.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("model,tdl-a,10,")

    assert _run("eval", "--config", "cfg.ini", "--scheme", "model-noattn",
                "--checkpoint", "tr/checkpoint.dasr", "--profile", "tdl-a",
                "--out", "evn", "--mc", "4", "--snr-list", "10") == 0


def test_eval_model_without_checkpoint_is_usage_error(ws, capsys):
    rc = _run("eval", "--config", "cfg.ini", "--scheme", "model", "--profile", "tdl-a",
              "--out", "ev")
    assert rc == 1
    assert "--checkpoint" in capsys.readouterr().err


def test_eval_corrupt_checkpoint_is_data_error(ws, capsys):
    (ws / "junk.dasr").write_bytes(b"JUNKJUNKJUNK")
    rc = _run("eval", "--config", "cfg.ini", "--scheme", "model",
              "--checkpoint", "junk.dasr", "--profile", "tdl-a", "--out", "ev")
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_eval_check_flags_numerical_blowup(ws, capsys):
    # finite but absurdly large weights overflow float32 in the forward pass;
    # --check turns that into exit code 3 instead of silent inf in the report
    _gen(ws, "a.chds")
    assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--out", "tr") == 0
    from chansr.model import load_params, save_params
    params = load_params(str(ws / "tr" / "checkpoint.dasr"))
    for name in params.names():
        if name.endswith("_w"):
            params[name].data[...] = 1e30
    save_params(params, str(ws / "huge.dasr"))
    rc = _run("eval", "--config", "cfg.ini", "--scheme", "model",
              "--checkpoint", "huge.dasr", "--profile", "tdl-a",
              "--out", "ev3", "--mc", "2", "--snr-list", "10", "--check")
    assert rc == 3
    assert "numerical" in capsys.readouterr().err


def test_seed_flag_overrides_config(ws):
    (ws / "seeded.ini").write_text(_INI + "\n[run]\nseed = 5\n")
    rc = _run("gen", "--config", "seeded.ini", "--profile", "tdl-a", "--snr", "10",
              "--n", "4", "--out", "s5.chds")
    assert rc == 0
    rc = _run("gen", "--config", "seeded.ini", "--profile", "tdl-a", "--snr", "10",
              "--n", "4", "--seed", "6", "--out", "s6.chds")
    assert rc == 0
    rc = _run("gen", "--config", "cfg.ini", "--profile", "tdl-a", "--snr", "10",
              "--n", "4", "--seed", "5", "--out", "flag5.chds")
    assert rc == 0
    assert (ws / "s5.chds").read_bytes() == (ws / "flag5.chds").read_bytes()
    assert (ws / "s5.chds").read_bytes() != (ws / "s6.chds").read_bytes()


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "chansr.cli", "--help"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    for cmd in ("gen", "train", "fisher", "train-cl", "train-multitask",
                "eval", "report-forgetting"):
        assert cmd in out.stdout
