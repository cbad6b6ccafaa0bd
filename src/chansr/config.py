"""Run configuration: defaults, overlaid by a flat INI-style `key = value` file, overlaid by flags.

Every numeric default matches the reference experiment (128x28 grid, pilot
intervals 9 and 5, 2 GHz carrier, 15 kHz spacing, 100 ns delay spread,
50 km/h, SNR sweep 0..15 dB, Adam at 1e-3 with batch 128). These are the only
defaults: training and Fisher estimation read their settings from the run's
`RunConfig`, which refuses values no run can use. `load_config` resolves all
three layers into one `RunConfig` of final values, derived ones included, and
`echo` writes it back out as INI text with round-trip floats, so the
`config.ini` in every run directory records exactly what the run used and,
passed back through `--config`, reruns it.
"""

import configparser
import io
from dataclasses import dataclass

from .channel import OfdmConfig, PilotPattern, TdlProfile, doppler_from_speed, load_tdl_profile
from .training import DEFAULT_EWC_LAMBDA

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

# the only keys that may be `none`/`off`: derive the value, or train unclipped
_OPTIONAL = ("symbol_duration", "doppler_hz", "clip_norm")


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
    clip_norm: float | None = 10.0  # None or <= 0: unclipped
    train_snr_db: float = 10.0  # gen's pilot SNR when --snr is not given
    snr_list: tuple = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0)
    mc: int = 500  # trials per profile
    seed: int = 0
    precision: str = "f32"

    def __post_init__(self):
        # refuse values no run can use before deriving from them
        if not self.delta_f > 0:
            raise ValueError(f"delta_f must be > 0, got {self.delta_f}")
        if not self.snr_list:
            raise ValueError("snr_list must name at least one SNR")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lam < 0 or self.alpha < 0:
            raise ValueError("lambda and alpha must be >= 0")
        if self.symbol_duration is None:
            self.symbol_duration = (1.0 + self.cp_fraction) / self.delta_f
        if self.doppler_hz is None:
            self.doppler_hz = doppler_from_speed(self.speed_kmh, self.f_c)
        if self.clip_norm is not None and self.clip_norm <= 0:
            self.clip_norm = None

    def ofdm(self) -> OfdmConfig:
        return OfdmConfig(n_f=self.n_f, n_t=self.n_t, delta_f=self.delta_f, f_c=self.f_c,
                          symbol_duration=self.symbol_duration)

    def pattern(self) -> PilotPattern:
        return PilotPattern.from_intervals(self.ofdm(), self.freq_interval, self.time_interval)

    def profile(self, name_or_path: str) -> TdlProfile:
        return load_tdl_profile(name_or_path, ds=self.delay_spread, f_d=self.doppler_hz)

    def echo(self) -> str:
        """The configuration as canonical INI text that `load_config` reads back to an equal one."""
        parser = configparser.ConfigParser()
        for (section, key), (name, kind) in _SCHEMA.items():
            if not parser.has_section(section):
                parser.add_section(section)
            value = getattr(self, name)
            # str of a float is its shortest round-trip form, so the file reads back to the same bits
            if kind == "floats":
                text = ",".join(str(float(v)) for v in value)
            else:
                text = "none" if value is None else str(value)
            parser.set(section, key, text)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()


def parse_floats(text: str) -> tuple:
    """A comma- or space-separated float list, the form of `snr_list`."""
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_value(name: str, kind, text: str):
    text = text.strip()
    if name in _OPTIONAL and text.lower() in ("none", "off"):
        return None
    if kind == "floats":
        return parse_floats(text)
    if kind in (int, float):
        return kind(text)
    return text


def load_config(path: str | None = None, **overrides) -> RunConfig:
    """Defaults, overlaid by the INI file when given, overlaid by the overrides that are not None.

    Override names are `RunConfig` field names. An f64 run trains unclipped
    unless the file or an override sets `clip_norm`.
    """
    values = {}
    if path is not None:
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
                    values[name] = _parse_value(name, kind, parser[section][key])
                except ValueError as e:
                    raise ValueError(f"{path}: bad value for [{section}] {key}: {e}") from e
        if values.get("precision", "f32") not in ("f32", "f64"):
            raise ValueError(f"{path}: precision must be f32 or f64")
    values.update((name, value) for name, value in overrides.items() if value is not None)
    if values.get("precision") == "f64" and "clip_norm" not in values:
        values["clip_norm"] = None
    return RunConfig(**values)
