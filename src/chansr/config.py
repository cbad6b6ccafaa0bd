"""Run configuration: flat INI-style `key = value` file plus flag overrides.

Every numeric default matches the reference experiment (128x28 grid, pilot
intervals 9 and 5, 2 GHz carrier, 15 kHz spacing, 100 ns delay spread,
50 km/h, SNR sweep 0..15 dB, Adam at 1e-3 with batch 128). The resolved
configuration can be echoed back out as INI text so every run directory
records exactly what it ran with.
"""

import configparser
import io
from dataclasses import dataclass, field

from .channel import OfdmConfig, PilotPattern, TdlProfile, doppler_from_speed, load_tdl_profile
from .training import DEFAULT_EWC_LAMBDA, TrainConfig

_SCHEMA = {
    # (section, key): (RunConfig field, type)
    ("ofdm", "n_f"): ("n_f", int),
    ("ofdm", "n_t"): ("n_t", int),
    ("ofdm", "delta_f"): ("delta_f", float),
    ("ofdm", "f_c"): ("f_c", float),
    ("ofdm", "symbol_duration"): ("symbol_duration", float),
    ("ofdm", "cp_fraction"): ("cp_fraction", float),
    ("pilot", "freq_interval"): ("freq_interval", int),
    ("pilot", "time_interval"): ("time_interval", int),
    ("channel", "delay_spread"): ("delay_spread", float),
    ("channel", "speed_kmh"): ("speed_kmh", float),
    ("channel", "doppler_hz"): ("doppler_hz", float),
    ("channel", "profile_1"): ("profile_1", str),
    ("channel", "profile_2"): ("profile_2", str),
    ("train", "batch_size"): ("batch_size", int),
    ("train", "epochs"): ("epochs", int),
    ("train", "lr"): ("lr", float),
    ("train", "lambda"): ("lam", float),
    ("train", "alpha"): ("alpha", float),
    ("train", "clip_norm"): ("clip_norm", float),
    ("train", "train_snr_db"): ("train_snr_db", float),
    ("eval", "snr_list"): ("snr_list", "floats"),
    ("eval", "mc"): ("mc", int),
    ("run", "seed"): ("seed", int),
    ("run", "precision"): ("precision", str),
}


@dataclass
class RunConfig:
    n_f: int = 128
    n_t: int = 28
    delta_f: float = 15e3
    f_c: float = 2e9
    symbol_duration: float | None = None  # None: (1+cp)/delta_f
    cp_fraction: float = 0.07
    freq_interval: int = 9
    time_interval: int = 5
    delay_spread: float = 100e-9
    speed_kmh: float = 50.0
    doppler_hz: float | None = None  # None: derive from speed
    profile_1: str = "tdl-a"
    profile_2: str = "tdl-d"
    batch_size: int = 128
    epochs: int = 30
    lr: float = 1e-3
    lam: float = DEFAULT_EWC_LAMBDA
    alpha: float = 1.0
    clip_norm: float | None = 10.0
    train_snr_db: float = 10.0
    snr_list: tuple = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0)
    mc: int = 500
    seed: int = 0
    precision: str = "f32"
    explicit: set = field(default_factory=set)  # keys set by file or flag

    def set_value(self, name: str, value) -> None:
        setattr(self, name, value)
        self.explicit.add(name)

    @property
    def resolved_symbol_duration(self) -> float:
        if self.symbol_duration is not None:
            return self.symbol_duration
        return (1.0 + self.cp_fraction) / self.delta_f

    @property
    def resolved_doppler(self) -> float:
        if self.doppler_hz is not None:
            return self.doppler_hz
        return doppler_from_speed(self.speed_kmh, self.f_c)

    @property
    def resolved_clip(self) -> float | None:
        # verification (f64) builds run unclipped unless the user pinned a value
        if self.precision == "f64" and "clip_norm" not in self.explicit:
            return None
        if self.clip_norm is not None and self.clip_norm <= 0:
            return None
        return self.clip_norm

    def ofdm(self) -> OfdmConfig:
        return OfdmConfig(n_f=self.n_f, n_t=self.n_t, delta_f=self.delta_f, f_c=self.f_c,
                          symbol_duration=self.resolved_symbol_duration)

    def pattern(self) -> PilotPattern:
        return PilotPattern.from_intervals(self.ofdm(), self.freq_interval, self.time_interval)

    def profile(self, name_or_path: str) -> TdlProfile:
        return load_tdl_profile(name_or_path, ds=self.delay_spread, f_d=self.resolved_doppler)

    def train_config(self, **overrides) -> TrainConfig:
        kw = dict(batch_size=self.batch_size, epochs=self.epochs, lr=self.lr, lam=self.lam,
                  alpha=self.alpha, seed=self.seed, clip_norm=self.resolved_clip)
        kw.update(overrides)
        return TrainConfig(**kw)

    def echo(self) -> str:
        """Resolved configuration as canonical INI text."""
        parser = configparser.ConfigParser()
        for (section, key), (name, kind) in _SCHEMA.items():
            if not parser.has_section(section):
                parser.add_section(section)
            value = getattr(self, name)
            if name == "symbol_duration":
                value = self.resolved_symbol_duration
            elif name == "doppler_hz":
                value = self.resolved_doppler
            elif name == "clip_norm":
                value = self.resolved_clip
            if kind == "floats":
                text = ",".join(f"{v:g}" for v in value)
            elif value is None:
                text = "none"
            else:
                text = f"{value:.12g}" if isinstance(value, float) else str(value)
            parser.set(section, key, text)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()


def _parse_value(kind, text: str):
    text = text.strip()
    if kind == "floats":
        return tuple(float(v) for v in text.replace(",", " ").split())
    if kind is float:
        if text.lower() in ("none", "off"):
            return None
        return float(text)
    if kind is int:
        return int(text)
    return text


def load_config(path: str | None = None) -> RunConfig:
    """Defaults, overlaid with the INI file when given."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as e:
        raise ValueError(f"cannot read config {path}: {e}") from e
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in _SCHEMA:
                raise ValueError(f"{path}: unknown config key [{section}] {key}")
            name, kind = _SCHEMA[(section, key)]
            try:
                cfg.set_value(name, _parse_value(kind, parser[section][key]))
            except ValueError as e:
                raise ValueError(f"{path}: bad value for [{section}] {key}: {e}") from e
    if cfg.precision not in ("f32", "f64"):
        raise ValueError(f"{path}: precision must be f32 or f64")
    return cfg
