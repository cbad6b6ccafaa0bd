"""Run configuration: one loader for defaults, file and flags; an echo that reads back equal."""

import math
from dataclasses import fields

import pytest

from chansr.channel import doppler_from_speed
from chansr.config import _SCHEMA, RunConfig, load_config


def _reload(tmp_path, cfg: RunConfig) -> RunConfig:
    path = tmp_path / "echo.ini"
    path.write_text(cfg.echo())
    return load_config(str(path))


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return str(path)


def test_bare_config_has_the_reference_values():
    cfg = RunConfig()
    assert (cfg.n_f, cfg.n_t, cfg.batch_size, cfg.mc, cfg.precision) == (128, 28, 128, 500, "f32")
    assert (cfg.delta_f, cfg.f_c, cfg.cp_fraction, cfg.speed_kmh) == (15e3, 2e9, 0.07, 50.0)
    assert cfg.clip_norm == 10.0
    assert len(fields(RunConfig)) == 21
    assert cfg.ofdm().symbol_duration == (1.0 + 0.07) / 15e3
    assert cfg.profile("tdl-a").f_d == doppler_from_speed(50.0, 2e9)
    assert load_config() == cfg


@pytest.mark.parametrize("text, over", [
    ("", {}),
    ("[ofdm]\nn_f = 27\ndelta_f = 30e3\ncp_fraction = 0.1\n[channel]\nspeed_kmh = 3\n"
     "[eval]\nsnr_list = 0 2.5, 7\n[run]\nseed = 9\n", {}),
    ("", dict(seed=4, epochs=3, batch_size=8, lr=1 / 3, lam=0.1, snr_list=(1 / 3, 5.0), mc=7)),
    ("[train]\nclip_norm = 2.5\n", dict(precision="f64")),
    ("", dict(precision="f64")),
])
def test_echo_reads_back_to_an_equal_config(tmp_path, text, over):
    cfg = load_config(_write(tmp_path, text), **over)
    back = _reload(tmp_path, cfg)
    assert back == cfg
    assert back.echo() == cfg.echo()


def test_every_setting_has_exactly_one_ini_section():
    # RunConfig declares each setting; the schema only places it under a section
    placed = [name for names in _SCHEMA.values() for name in names]
    assert sorted(placed) == sorted(f.name for f in fields(RunConfig))


def test_echo_of_the_defaults():
    assert RunConfig().echo() == (
        "[ofdm]\nn_f = 128\nn_t = 28\ndelta_f = 15000.0\nf_c = 2000000000.0\ncp_fraction = 0.07\n\n"
        "[pilot]\nfreq_interval = 9\ntime_interval = 5\n\n"
        "[channel]\ndelay_spread = 1e-07\nspeed_kmh = 50.0\nprofile_1 = tdl-a\nprofile_2 = tdl-d\n\n"
        "[train]\nbatch_size = 128\nepochs = 30\nlr = 0.001\nlambda = 10000.0\nclip_norm = 10.0\n"
        "train_snr_db = 10.0\n\n"
        "[eval]\nsnr_list = 0.0,3.0,6.0,9.0,12.0,15.0\nmc = 500\n\n"
        "[run]\nseed = 0\nprecision = f32\n\n")


def test_file_and_flags_overlay_the_defaults_in_order(tmp_path):
    path = _write(tmp_path, "[train]\nepochs = 5\nlr = 0.01\nlambda = 3\n[channel]\nspeed_kmh = 7.5\n")
    cfg = load_config(path, epochs=2, lr=None, speed_kmh=9.0)
    assert (cfg.epochs, cfg.lr, cfg.lam, cfg.batch_size) == (2, 0.01, 3.0, 128)
    assert cfg.speed_kmh == 9.0  # the flag over the file
    assert cfg.profile("tdl-a").f_d == doppler_from_speed(9.0, 2e9)


def test_derived_values_follow_the_file(tmp_path):
    cfg = load_config(_write(tmp_path, "[ofdm]\ndelta_f = 30e3\ncp_fraction = 0.25\nf_c = 3.5e9\n"
                                       "[channel]\nspeed_kmh = 300\n"))
    assert cfg.ofdm().symbol_duration == (1.0 + 0.25) / 30e3
    assert cfg.profile("tdl-d").f_d == doppler_from_speed(300.0, 3.5e9)


@pytest.mark.parametrize("section, key", [("ofdm", "symbol_duration"), ("channel", "doppler_hz")])
def test_a_derived_value_is_not_a_setting(tmp_path, section, key):
    # a config.ini echoed before they were derived holds them; deleting the line reruns the run
    with pytest.raises(ValueError, match=rf"unknown config key \[{section}\] {key}"):
        load_config(_write(tmp_path, f"[{section}]\n{key} = 1\n"))


def test_unknown_key_and_bad_values(tmp_path):
    with pytest.raises(ValueError, match=r"unknown config key \[ofdm\] mystery"):
        load_config(_write(tmp_path, "[ofdm]\nmystery = 1\n"))
    with pytest.raises(ValueError, match=r"bad value for \[ofdm\] n_f"):
        load_config(_write(tmp_path, "[ofdm]\nn_f = 2.5\n"))
    with pytest.raises(ValueError, match=r"bad value for \[eval\] snr_list"):
        load_config(_write(tmp_path, "[eval]\nsnr_list = 0, x\n"))
    with pytest.raises(ValueError, match="cannot read config"):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        load_config(batch_size=0)


def test_training_settings_validation():
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        RunConfig(batch_size=0)
    with pytest.raises(ValueError, match="lambda must be >= 0"):
        RunConfig(lam=-1.0)
    with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
        RunConfig(epochs=0)


@pytest.mark.parametrize("key", ["n_f", "n_t", "freq_interval", "time_interval", "mc"])
def test_sizes_must_be_at_least_one(key):
    with pytest.raises(ValueError, match=f"{key} must be >= 1, got 0"):
        RunConfig(**{key: 0})
    assert getattr(RunConfig(**{key: 1}), key) == 1


@pytest.mark.parametrize("over, key", [
    (dict(train_snr_db=math.nan), "train_snr_db"),
    (dict(train_snr_db=-math.inf), "train_snr_db"),
    (dict(snr_list=(0.0, math.nan)), "snr_list"),
    (dict(snr_list=(-math.inf, 10.0)), "snr_list"),
])
def test_snr_must_be_a_number_of_db_or_inf(over, key):
    with pytest.raises(ValueError, match=key):
        RunConfig(**over)
    # +inf is a noiseless pilot
    cfg = RunConfig(train_snr_db=math.inf, snr_list=(0.0, math.inf))
    assert (cfg.train_snr_db, cfg.snr_list[1]) == (math.inf, math.inf)


def test_precision_must_be_f32_or_f64(tmp_path):
    with pytest.raises(ValueError, match="precision must be f32 or f64"):
        load_config(_write(tmp_path, "[run]\nprecision = f16\n"))
    assert load_config(_write(tmp_path, "[run]\nprecision = f64\n")).precision == "f64"


@pytest.mark.parametrize("text", ["0", "-1", "none", "off"])
def test_clip_norm_at_or_below_zero_means_unclipped(tmp_path, text):
    cfg = load_config(_write(tmp_path, f"[train]\nclip_norm = {text}\n"))
    assert cfg.clip_norm is None
    assert "clip_norm = none\n" in cfg.echo()
    assert RunConfig(clip_norm=-2.0).clip_norm is None


def test_f64_trains_unclipped_unless_clip_norm_is_given(tmp_path):
    assert load_config(precision="f64").clip_norm is None
    assert load_config(_write(tmp_path, "[run]\nprecision = f64\n")).clip_norm is None
    assert load_config(precision="f32").clip_norm == 10.0
    given = _write(tmp_path, "[train]\nclip_norm = 10\n")
    assert load_config(given, precision="f64").clip_norm == 10.0
    # the rule is the loader's: a config built directly keeps what it is given
    assert RunConfig(precision="f64").clip_norm == 10.0

