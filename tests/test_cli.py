"""End-to-end command-line pipeline on a reduced grid."""

import ctypes
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chansr
from chansr.cli import main
from chansr.dataset import CHDS_MAGIC, CHDS_VERSION, concat_datasets, load_dataset, save_dataset
from chansr.model import DASR_MAGIC, load_params, read_records, write_records
from chansr.training import FISH_MAGIC

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


def _child_env(**overrides):
    """Environment for a child interpreter that imports the chansr under test, installed or not."""
    src = str(Path(chansr.__file__).resolve().parents[1])
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


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
    # each command takes only the flags it reads
    for argv in (("gen", "--profile", "tdl-a", "--n", "2", "--precision", "f64"),
                 ("gen", "--profile", "tdl-a", "--n", "2", "--check"),
                 ("train", "--data", "a.chds", "--force"),
                 ("train", "--data", "a.chds", "--check"),
                 ("eval", "--scheme", "ls", "--profile", "tdl-a", "--force"),
                 ("train-cl", "--data", "a.chds", "--checkpoint", "c.dasr", "--fisher", "f.fish", "--alpha", "1")):
        assert _run(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_bad_config_file(ws, capsys):
    for text, key in (("[ofdm]\nn_f = 27\nmystery = 1\n", "mystery"), ("[ofdm]\ndelta_f = 0\n", "delta_f"),
                      ("[ofdm]\nf_c = 0\n", "f_c"), ("[train]\nalpha = 1\n", "alpha"),
                      ("[ofdm]\nsymbol_duration = 7e-05\n", "symbol_duration"),
                      ("[channel]\ndoppler_hz = 92.6\n", "doppler_hz"),
                      ("[train]\nlambda = nan\n", "lambda"), ("[train]\nclip_norm = nan\n", "clip_norm"),
                      ("[train]\nlr = nan\n", "lr"), ("[train]\nlr = inf\n", "lr"),
                      ("[ofdm]\ndelta_f = inf\n", "delta_f"), ("[channel]\nspeed_kmh = -1\n", "speed_kmh"),
                      ("[channel]\ndelay_spread = -1e-9\n", "delay_spread"),
                      ("[ofdm]\ncp_fraction = -0.07\n", "cp_fraction")):
        (ws / "bad.ini").write_text(text)
        rc = _run("gen", "--config", "bad.ini", "--profile", "tdl-a", "--snr", "10",
                  "--n", "2", "--out", "x.chds")
        assert rc == 1, text
        err = capsys.readouterr().err
        assert "usage error" in err and key in err, text
        assert not (ws / "x.chds").exists()
    # a NaN lambda once trained naive sequential, since NaN > 0 is false
    rc = _run("train-cl", "--config", "cfg.ini", "--data", "d.chds", "--checkpoint", "c.dasr", "--fisher", "f.fish",
              "--lambda", "nan", "--out", "cl")
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error: lambda must be finite" in err
    assert not (ws / "cl").exists()


def test_a_doppler_whose_phases_overflow_is_a_usage_error_without_warnings(ws, capsys, recwarn):
    (ws / "fast.ini").write_text("[ofdm]\nf_c = 1e300\n[channel]\nspeed_kmh = 1e10\n")
    rc = _run("gen", "--config", "fast.ini", "--profile", "tdl-a", "--snr", "10", "--n", "2", "--out", "x.chds")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "speed_kmh" in err and "f_c" in err
    assert "Warning" not in err and not recwarn.list
    assert not (ws / "x.chds").exists()


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
    fields = dict(line.split(" = ", 1) for line in prov.splitlines())
    assert fields["numpy"] == np.__version__
    assert fields["blas"].split(" ")[0] == _blas_name()
    assert fields["cpu_count"] == str(os.cpu_count())
    threads = sorted((k, v) for k, v in os.environ.items() if k.endswith("_NUM_THREADS"))
    assert fields["thread_env"] == (" ".join(f"{k}={v}" for k, v in threads) or "(none set)")


def test_provenance_without_a_dict_build_config(ws, monkeypatch):
    # numpy < 1.25 has no mode= argument to show_config: the run still succeeds
    def show_config():
        pass

    _gen(ws, "a.chds")
    monkeypatch.setattr(np, "show_config", show_config)
    assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--epochs", "1", "--out", "run") == 0
    assert "blas = unknown\n" in (ws / "run" / "provenance.txt").read_text()


def test_train_epoch_override_and_missing_data(ws, capsys):
    _gen(ws, "a.chds")
    rc = _run("train", "--config", "cfg.ini", "--data", "a.chds", "--epochs", "1",
              "--out", "run_e1")
    assert rc == 0
    assert len((ws / "run_e1" / "loss.csv").read_text().splitlines()) == 2
    assert _run("train", "--config", "cfg.ini", "--data", "nope.chds", "--out", "r") == 2
    assert "data error" in capsys.readouterr().err


def test_zero_epochs_is_a_usage_error_and_leaves_no_run_directory(ws, capsys):
    _gen(ws, "a.chds")
    for command in (("train", "--data", "a.chds"), ("train-multitask", "--data", "a.chds", "--data", "a.chds")):
        assert _run(*command, "--config", "cfg.ini", "--epochs", "0", "--out", "run") == 1
        assert "epochs must be >= 1, got 0" in capsys.readouterr().err
        assert not (ws / "run").exists()


def test_train_at_f64_precision(ws):
    # f64 trains in float64 and unclipped unless clip_norm is set, but the checkpoint's
    # records stay float32, so what the next command loads is rounded (README, Reproducibility)
    _gen(ws, "a.chds")
    assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--precision", "f64", "--out", "run") == 0
    assert "precision = f64\n" in (ws / "run" / "provenance.txt").read_text()
    assert "clip_norm = none\n" in (ws / "run" / "config.ini").read_text()
    path = str(ws / "run" / "checkpoint.dasr")
    assert {a.dtype for _, a in read_records(path, DASR_MAGIC)} == {np.dtype(np.float32)}
    params = load_params(path)
    assert all(params[n].data.dtype == np.float64 and np.isfinite(params[n].data).all() for n in params.names())


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

    # per run directory: the command with its input files, its setting flags, its outputs
    cl_inputs = ("--data", "d.chds", "--checkpoint", "post1/checkpoint.dasr", "--fisher", "fish/fisher.fish")
    trained = ("checkpoint.dasr", "loss.csv")
    runs = {
        "post1": (("train", "--data", "a.chds"), ("--seed", "1"), trained),
        "fish": (("fisher", "--data", "a.chds", "--checkpoint", "post1/checkpoint.dasr",
                  "--task-label", "tdl-a"), (), ("fisher.fish",)),
        "cl": (("train-cl", *cl_inputs), ("--lambda", "100", "--seed", "1"), trained),
        "naive": (("train-cl", *cl_inputs), ("--lambda", "0", "--seed", "1"), trained),
        "multi": (("train-multitask", "--data", "a.chds", "--data", "d.chds"), ("--seed", "1"), trained),
        "evls": (("eval", "--scheme", "ls", "--profile", "tdl-a", "tdl-d"), ("--mc", "4", "--seed", "2"),
                 ("report.csv",)),
        "evm": (("eval", "--scheme", "model", "--checkpoint", "cl/checkpoint.dasr", "--profile", "tdl-d"),
                ("--snr-list", "5", "--mc", "2"), ("report.csv",)),
        "forget": (("report-forgetting", "--post1", "post1/checkpoint.dasr", "--naive", "naive/checkpoint.dasr",
                    "--cl", "cl/checkpoint.dasr", "--multitask", "multi/checkpoint.dasr"), ("--mc", "2"),
                   ("forgetting.csv",)),
    }
    for out, (command, flags, _) in runs.items():
        assert _run(*command, "--config", "cfg.ini", *flags, "--out", out) == 0, out

    lines = (ws / "cl" / "loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,ewc_loss,total_loss"
    assert (ws / "naive" / "loss.csv").read_text().splitlines()[0] == "epoch,loss"
    lines = (ws / "forget" / "forgetting.csv").read_text().splitlines()
    # header + 4 schemes x 3 sets x 2 SNRs + 2 delta rows
    assert len(lines) == 1 + 24 + 2
    assert lines[0] == "scheme,profile,snr_db,nmse_linear,nmse_db,mc,seed"
    assert sum(1 for ln in lines if ln.startswith("delta_naive_minus_cl")) == 2

    # each run's own config.ini, given the same input files and no setting flag, reruns it to the same bytes
    for out, (command, _, outputs) in runs.items():
        assert _run(*command, "--config", f"{out}/config.ini", "--out", f"{out}-rerun") == 0, out
        for f in outputs + ("config.ini",):
            assert (ws / out / f).read_bytes() == (ws / f"{out}-rerun" / f).read_bytes(), (out, f)


def test_a_repeated_data_flag_means_the_union_on_every_command(ws):
    _gen(ws, "a.chds", profile="tdl-a")
    _gen(ws, "d.chds", profile="tdl-d", n=6)
    both = ("--data", "a.chds", "--data", "d.chds")
    for command in ("train", "train-multitask"):
        assert _run(command, *both, "--config", "cfg.ini", "--out", command) == 0
    for f in ("checkpoint.dasr", "loss.csv", "config.ini"):
        assert (ws / "train" / f).read_bytes() == (ws / "train-multitask" / f).read_bytes(), f
    assert _run("train", "--data", "d.chds", "--config", "cfg.ini", "--out", "d-only") == 0
    assert (ws / "train" / "checkpoint.dasr").read_bytes() != (ws / "d-only" / "checkpoint.dasr").read_bytes()

    save_dataset(concat_datasets([load_dataset(ws / "a.chds"), load_dataset(ws / "d.chds")]), str(ws / "ad.chds"))
    ckpt = ("--checkpoint", "train/checkpoint.dasr", "--config", "cfg.ini")
    assert _run("fisher", *both, *ckpt, "--out", "fish-union") == 0
    assert _run("fisher", "--data", "ad.chds", *ckpt, "--out", "fish-saved") == 0
    assert (ws / "fish-union" / "fisher.fish").read_bytes() == (ws / "fish-saved" / "fisher.fish").read_bytes()

    cl = ("--checkpoint", "train/checkpoint.dasr", "--fisher", "fish-union/fisher.fish", "--config", "cfg.ini")
    assert _run("train-cl", *both, *cl, "--out", "cl-union") == 0
    assert _run("train-cl", "--data", "ad.chds", *cl, "--out", "cl-saved") == 0
    for f in ("checkpoint.dasr", "loss.csv"):
        assert (ws / "cl-union" / f).read_bytes() == (ws / "cl-saved" / f).read_bytes(), f


def test_training_commands_name_their_default_run_directory(ws):
    _gen(ws, "a.chds")
    assert _run("train", "--data", "a.chds", "--config", "cfg.ini", "--epochs", "1", "--out", "tr") == 0
    assert _run("fisher", "--data", "a.chds", "--checkpoint", "tr/checkpoint.dasr", "--config", "cfg.ini",
                "--out", "fish") == 0
    cl = ("--checkpoint", "tr/checkpoint.dasr", "--fisher", "fish/fisher.fish")
    for command in ("train", "train-multitask", "train-cl"):
        assert _run(command, "--data", "a.chds", *(cl if command == "train-cl" else ()),
                    "--config", "cfg.ini", "--epochs", "1") == 0
    made = sorted(p.name.rsplit("-", 2)[0] for p in (ws / "runs").iterdir())
    assert made == ["train", "train-cl", "train-multitask"]


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


@pytest.mark.parametrize("damage", ["missing_parameter", "nan_fisher", "inf_anchor"])
def test_train_cl_refuses_a_fisher_file_that_does_not_match_the_model(ws, capsys, damage):
    _gen(ws, "a.chds")
    assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--out", "p1") == 0
    assert _run("fisher", "--config", "cfg.ini", "--data", "a.chds", "--checkpoint", "p1/checkpoint.dasr",
                "--out", "fish") == 0
    records = dict(read_records(str(ws / "fish" / "fisher.fish"), FISH_MAGIC))
    if damage == "missing_parameter":
        del records["sa_conv_b"], records["anchor.sa_conv_b"]
    elif damage == "nan_fisher":
        records["fe_conv1_w"][0, 0, 0, 0] = np.nan
    else:
        records["anchor.us_deconv_b"][0] = np.inf
    write_records(str(ws / "bad.fish"), records.items(), FISH_MAGIC)
    capsys.readouterr()
    rc = _run("train-cl", "--config", "cfg.ini", "--data", "a.chds", "--checkpoint", "p1/checkpoint.dasr",
              "--fisher", "bad.fish", "--out", "cl")
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and "bad.fish" in err
    assert not (ws / "cl").exists()


def test_gen_snr_defaults_to_the_configured_train_snr(ws):
    def gen(out, *flags, config="cfg.ini"):
        assert _run("gen", "--config", config, "--profile", "tdl-a", "--n", "4", "--out", out, *flags) == 0
        return (ws / out).read_bytes()

    assert gen("default.chds") == gen("ten.chds", "--snr", "10")
    (ws / "snr3.ini").write_text(_INI.replace("[train]\n", "[train]\ntrain_snr_db = 3\n"))
    three = gen("three.chds", config="snr3.ini")
    assert three == gen("three_flag.chds", "--snr", "3")
    assert three != gen("ten_again.chds")


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


def test_a_repeated_profile_flag_means_the_same_as_one_flag_with_both(ws):
    ls = ("eval", "--config", "cfg.ini", "--scheme", "ls", "--mc", "4")
    assert _run(*ls, "--profile", "tdl-a", "--profile", "tdl-d", "--out", "repeated") == 0
    assert _run(*ls, "--profile", "tdl-a", "tdl-d", "--out", "listed") == 0
    report = (ws / "repeated" / "report.csv").read_bytes()
    assert report == (ws / "listed" / "report.csv").read_bytes()
    assert _run(*ls, "--profile", "tdl-d", "--out", "d-only") == 0
    assert report != (ws / "d-only" / "report.csv").read_bytes()


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


def test_non_finite_nmse_is_a_numerical_failure_without_a_flag(ws, capsys):
    # finite but absurdly large weights overflow float32 in the forward pass;
    # the non-finite NMSE is exit code 3, never an inf row in a report
    _gen(ws, "a.chds")
    assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--out", "tr") == 0
    from chansr.model import load_params, save_params
    params = load_params(str(ws / "tr" / "checkpoint.dasr"))
    for name in params.names():
        if name.endswith("_w"):
            params[name].data[...] = 1e30
    save_params(params, str(ws / "huge.dasr"))
    capsys.readouterr()
    huge = ("--post1", "huge.dasr", "--naive", "huge.dasr", "--cl", "huge.dasr", "--multitask", "huge.dasr")
    for command in (("eval", "--scheme", "model", "--checkpoint", "huge.dasr", "--profile", "tdl-a",
                     "--snr-list", "10"),
                    ("report-forgetting", *huge)):
        with np.errstate(all="ignore"):
            assert _run(*command, "--config", "cfg.ini", "--mc", "2", "--out", "out") == 3, command
        err = capsys.readouterr().err
        assert "numerical failure" in err and "NMSE" in err, command
        assert not (ws / "out").exists(), command


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


@pytest.mark.parametrize("section, key, text", [("train", "lr", "none"), ("ofdm", "delta_f", "off"),
                                                ("channel", "speed_kmh", "none"), ("run", "seed", "none"),
                                                ("eval", "snr_list", "off")])
def test_none_outside_the_optional_keys_is_a_usage_error(ws, capsys, section, key, text):
    # only clip_norm may be none/off
    (ws / "none.ini").write_text(f"[{section}]\n{key} = {text}\n")
    rc = _run("gen", "--config", "none.ini", "--profile", "tdl-a", "--snr", "10", "--n", "2", "--out", "x.chds")
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and f"[{section}] {key}" in err
    assert not (ws / "x.chds").exists()


@pytest.mark.parametrize("argv, key", [
    (("gen", "--profile", "tdl-a", "--snr", "nan", "--n", "2", "--out", "out"), "train_snr_db"),
    (("gen", "--profile", "tdl-a", "--snr=-inf", "--n", "2", "--out", "out"), "train_snr_db"),
    (("eval", "--scheme", "ls", "--profile", "tdl-a", "--snr-list", "nan,10", "--out", "out"), "snr_list"),
])
def test_nan_or_minus_inf_snr_is_a_usage_error(ws, capsys, argv, key):
    assert _run(*argv, "--config", "cfg.ini") == 1
    err = capsys.readouterr().err
    assert "usage error" in err and key in err
    assert not (ws / "out").exists()


@pytest.mark.parametrize("command", [("train", "--data", "a.chds"),
                                     ("train-multitask", "--data", "a.chds", "--data", "a.chds")])
def test_failed_training_leaves_no_run_dir(ws, capsys, command):
    _gen(ws, "a.chds")
    with np.errstate(all="ignore"):
        assert _run(*command, "--config", "cfg.ini", "--lr", "1e30", "--out", "run") == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (ws / "run").exists()


def test_outputs_get_the_umask_mode(ws):
    old = os.umask(0o022)
    try:
        _gen(ws, "a.chds")
        assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--epochs", "1", "--out", "run") == 0
    finally:
        os.umask(old)
    outputs = [ws / "a.chds"] + sorted((ws / "run").iterdir())
    assert len(outputs) == 5
    assert {p.name: p.stat().st_mode & 0o777 for p in outputs} == {p.name: 0o644 for p in outputs}


def test_config_ini_records_the_flags_and_reruns_the_run(ws):
    # default geometry: at n = 64 a symbol duration or Doppler computed from a setting echoed
    # short of its bits moves some samples, so the rerun below compares the whole resolved configuration
    gen = ("gen", "--profile", "tdl-a", "--snr", "10", "--n", "64")
    assert _run(*gen, "--seed", "3", "--out", "a.chds") == 0
    assert _run("train", "--data", "a.chds", "--seed", "3", "--epochs", "1", "--batch-size", "32",
                "--lr", "0.01", "--out", "run1") == 0
    echo = (ws / "run1" / "config.ini").read_text()
    for line in ("epochs = 1\n", "batch_size = 32\n", "lr = 0.01\n", "seed = 3\n",
                 "delta_f = 15000.0\n", "cp_fraction = 0.07\n", "speed_kmh = 50.0\n"):
        assert line in echo, line
    # the symbol duration and the Doppler are derived, not echoed
    assert "symbol_duration" not in echo and "doppler_hz" not in echo
    # eval's --mc counts trials over both profiles; the file key counts them per profile
    assert _run("eval", "--config", "cfg.ini", "--scheme", "ls", "--profile", "tdl-a", "tdl-d",
                "--snr-list", "3,4", "--mc", "4", "--out", "ev") == 0
    echo = (ws / "ev" / "config.ini").read_text()
    assert "snr_list = 3.0,4.0\n" in echo and "mc = 2\n" in echo
    rows = (ws / "ev" / "report.csv").read_text().splitlines()
    assert [r.split(",")[5] for r in rows[1:]] == ["4", "4"]
    assert _run("eval", "--config", "cfg.ini", "--scheme", "ls", "--profile", "tdl-a",
                "--snr-list", "", "--out", "ev0") == 0
    assert "snr_list = 0.0,10.0\n" in (ws / "ev0" / "config.ini").read_text()

    # the run's own config.ini gives the same dataset and the same checkpoint
    assert _run(*gen, "--config", "run1/config.ini", "--out", "b.chds") == 0
    assert (ws / "a.chds").read_bytes() == (ws / "b.chds").read_bytes()
    assert _run("train", "--config", "run1/config.ini", "--data", "b.chds", "--out", "run2") == 0
    for f in ("checkpoint.dasr", "loss.csv", "config.ini"):
        assert (ws / "run1" / f).read_bytes() == (ws / "run2" / f).read_bytes(), f

    # an edited setting moves what is derived from it
    for old, new in (("speed_kmh = 50.0", "speed_kmh = 300"), ("cp_fraction = 0.07", "cp_fraction = 0.25")):
        assert old in echo
        (ws / "edited.ini").write_text(echo.replace(old, new))
        assert _run(*gen, "--config", "edited.ini", "--out", "c.chds", "--force") == 0
        assert (ws / "c.chds").read_bytes() != (ws / "a.chds").read_bytes(), new


def test_empty_snr_list_in_a_config_is_a_usage_error(ws, capsys):
    (ws / "e.ini").write_text(_INI.replace("snr_list = 0, 10", "snr_list ="))
    rc = _run("eval", "--config", "e.ini", "--scheme", "ls", "--profile", "tdl-a", "--mc", "2", "--out", "ev")
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "snr_list" in err
    assert not (ws / "ev").exists()


def test_eval_mc_must_be_a_multiple_of_the_profile_count(ws, capsys):
    # a bad flag value is a usage error (exit 1), not a data error
    for mc in ("3", "0", "-2"):
        rc = _run("eval", "--config", "cfg.ini", "--scheme", "ls", "--profile", "tdl-a", "tdl-d",
                  "--mc", mc, "--out", "ev")
        assert rc == 1, mc
        err = capsys.readouterr().err
        assert f"usage error: --mc {mc} must be a positive multiple of the profile count 2" in err
        assert not (ws / "ev").exists()


@pytest.mark.parametrize("section, key", [("ofdm", "n_f"), ("ofdm", "n_t"), ("pilot", "freq_interval"),
                                          ("pilot", "time_interval"), ("eval", "mc"), ("train", "epochs")])
def test_a_size_below_one_is_a_usage_error(ws, capsys, section, key):
    (ws / "zero.ini").write_text(f"[{section}]\n{key} = 0\n")
    rc = _run("eval", "--config", "zero.ini", "--scheme", "ls", "--profile", "tdl-a", "--out", "ev")
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and key in err and "Traceback" not in err
    assert not (ws / "ev").exists()


def _trained(ws):
    """A dataset, a checkpoint trained on it and its Fisher file."""
    _gen(ws, "a.chds")
    assert _run("train", "--config", "cfg.ini", "--data", "a.chds", "--epochs", "1", "--out", "tr") == 0
    assert _run("fisher", "--config", "cfg.ini", "--data", "a.chds", "--checkpoint", "tr/checkpoint.dasr",
                "--out", "fish") == 0
    return "a.chds", "tr/checkpoint.dasr", "fish/fisher.fish"


_NO_FILE = "missing.input"


def _commands(data, ckpt, fish):
    return {
        "train": ("train", "--data", data),
        "fisher": ("fisher", "--data", data, "--checkpoint", ckpt),
        "train-cl": ("train-cl", "--data", data, "--checkpoint", ckpt, "--fisher", fish),
        "train-multitask": ("train-multitask", "--data", data, "--data", data),
        "eval": ("eval", "--scheme", "model", "--checkpoint", ckpt, "--profile", "tdl-a"),
        "report-forgetting": ("report-forgetting", "--post1", ckpt, "--naive", ckpt, "--cl", ckpt,
                              "--multitask", ckpt),
    }


@pytest.mark.parametrize("command, missing", [("train", "data"), ("fisher", "ckpt"), ("train-cl", "data"),
                                              ("train-multitask", "data"), ("eval", "ckpt"),
                                              ("report-forgetting", "ckpt")])
def test_a_missing_input_is_a_data_error_that_names_it(ws, capsys, command, missing):
    inputs = dict(zip(("data", "ckpt", "fish"), _trained(ws)), **{missing: _NO_FILE})
    capsys.readouterr()
    assert _run(*_commands(**inputs)[command], "--config", "cfg.ini", "--out", "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and _NO_FILE in err and "Traceback" not in err
    assert not (ws / "out").exists()


@pytest.mark.parametrize("command", ["train", "fisher", "train-multitask", "train-multitask-union"])
def test_a_zero_sample_dataset_is_a_data_error(ws, capsys, command):
    data, ckpt, fish = _trained(ws)
    # a well-formed header (27x10 grid, 3x2 pilots) with no samples after it
    (ws / "empty.chds").write_bytes(CHDS_MAGIC + struct.pack("<6I", CHDS_VERSION, 0, 27, 10, 3, 2))
    assert len(load_dataset(ws / "empty.chds")) == 0
    capsys.readouterr()
    # an empty task next to a full one must not leave the union trained on the full one alone
    argv = (("train-multitask", "--data", data, "--data", "empty.chds") if command == "train-multitask-union"
            else _commands("empty.chds", ckpt, fish)[command])
    assert _run(*argv, "--config", "cfg.ini", "--out", "out") == 2
    err = capsys.readouterr().err
    assert "data error" in err and "empty.chds" in err and "empty dataset" in err and "Traceback" not in err
    assert not (ws / "out").exists()


@pytest.mark.parametrize("union", [False, True], ids=["one-set", "union"])
@pytest.mark.parametrize("command", ["train", "fisher"])
def test_a_data_set_of_other_grid_sizes_is_a_data_error_that_names_it(ws, capsys, command, union):
    data, ckpt, _ = _trained(ws)  # a.chds: cfg.ini's 27x10 grid
    (ws / "wide.ini").write_text(_INI.replace("n_f = 27", "n_f = 36"))
    assert _run("gen", "--config", "wide.ini", "--profile", "tdl-a", "--n", "4", "--out", "wide.chds") == 0
    sets = ("--data", data, "--data", "wide.chds") if union else ("--data", "wide.chds")
    extra = ("--checkpoint", ckpt) if command == "fisher" else ()
    capsys.readouterr()
    assert _run(command, *sets, *extra, "--config", "cfg.ini", "--out", "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "wide.chds" in err and "Traceback" not in err
    assert "(36, 10)" in err and "(27, 10)" in err
    assert not (ws / "out").exists()
    # the same file runs under the settings it was made with
    assert _run(command, "--data", "wide.chds", *extra, "--config", "wide.ini", "--out", "ok") == 0


@pytest.mark.parametrize("flags", [("--config", "cfg.ini", "--seed", "-1"), ("--config", "neg.ini")],
                         ids=["flag", "config"])
@pytest.mark.parametrize("command", [("gen", "--profile", "tdl-a", "--n", "2"),
                                     ("eval", "--scheme", "ls", "--profile", "tdl-a")], ids=["gen", "eval"])
def test_a_negative_seed_is_a_usage_error(ws, capsys, command, flags):
    (ws / "neg.ini").write_text(_INI + "\n[run]\nseed = -1\n")
    assert _run(*command, *flags, "--out", "out") == 1
    assert "usage error: seed must be >= 0" in capsys.readouterr().err
    assert not (ws / "out").exists()


def test_report_forgetting_on_a_nan_estimate_is_a_numerical_failure(ws, capsys, monkeypatch):
    _, ckpt, _ = _trained(ws)

    def nan_estimator(params, cfg, bypass_attention=False):
        return lambda h_ls: np.full((h_ls.shape[0], cfg.n_f, cfg.n_t), np.nan, np.complex64)

    monkeypatch.setattr("chansr.cli.model_estimator", nan_estimator)
    capsys.readouterr()
    rc = _run(*_commands("a.chds", ckpt, "")["report-forgetting"], "--config", "cfg.ini", "--out", "out")
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "non-finite NMSE" in err
    assert not (ws / "out").exists()


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "chansr.cli", "--help"],
                         capture_output=True, text=True, timeout=60, env=_child_env())
    assert out.returncode == 0
    for cmd in ("gen", "train", "fisher", "train-cl", "train-multitask",
                "eval", "report-forgetting"):
        assert cmd in out.stdout


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy without the dict form of its build config
        return "unknown"


# OPENBLAS_NUM_THREADS is read by OpenBLAS only, which caps it at the CPU count: on one CPU
# or another BLAS both runs would be single-threaded and the comparison would check nothing
@pytest.mark.skipif((os.cpu_count() or 1) < 2 or "openblas" not in _blas_name().lower(),
                    reason="needs numpy on OpenBLAS and at least 2 CPUs to run BLAS on 1 and 2 threads")
def test_checkpoint_bytes_do_not_depend_on_blas_threads(ws):
    # default geometry, where BLAS splits the larger products across threads; a GEMV in a
    # weight gradient made these two checkpoints differ before it was routed through GEMM
    rc = _run("gen", "--profile", "tdl-a", "--snr", "10", "--n", "512", "--seed", "0", "--out", "a.chds")
    assert rc == 0
    digests = []
    for threads in ("1", "2"):
        out = subprocess.run([sys.executable, "-m", "chansr.cli", "train", "--data", "a.chds",
                              "--epochs", "2", "--seed", "0", "--out", f"t{threads}"],
                             capture_output=True, text=True, timeout=300,
                             env=_child_env(OPENBLAS_NUM_THREADS=threads))
        assert out.returncode == 0, out.stderr
        digests.append((ws / f"t{threads}" / "checkpoint.dasr").read_bytes())
    assert digests[0] == digests[1]


@pytest.fixture()
def fresh_heap_setting():
    chansr.cli._keep_heap.cache_clear()
    yield chansr.cli._keep_heap
    chansr.cli._keep_heap.cache_clear()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting applies on glibc only")
def test_heap_setting_is_accepted_on_glibc(fresh_heap_setting):
    # True only when glibc accepted both mallopt calls; setting them again is harmless
    assert fresh_heap_setting() is True
    fresh_heap_setting.cache_clear()
    assert fresh_heap_setting() is True
    assert fresh_heap_setting() is True


def test_heap_setting_is_a_no_op_on_another_libc(fresh_heap_setting, monkeypatch):
    def no_load(*args, **kwargs):
        raise AssertionError("loaded the C library")

    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: ("musl", "1.2.4"))
    monkeypatch.setattr(ctypes, "CDLL", no_load)
    assert fresh_heap_setting() is False
    assert fresh_heap_setting() is False
