"""Run configuration: defaults, overlaid by a flat INI-style `key = value` file, overlaid by flags.

`RunConfig` declares every setting once: its name, type, default and, by a
`| None` annotation, whether it accepts `none`/`off`. Its defaults match the
reference experiment (128x28 grid, pilot intervals 9 and 5, 2 GHz carrier,
15 kHz spacing, 100 ns delay spread, 50 km/h, SNR sweep 0..15 dB, Adam at
1e-3 with batch 128). `OfdmConfig`, `PilotPattern.from_intervals` and
`load_tdl_profile` restate some of them as their own defaults, which the
acceptance tests and direct library calls rely on; no command does, since
each passes every value from its `RunConfig`, which refuses values no run
can use. No derived value is a setting: `ofdm()` and `profile()` compute the
symbol duration and the Doppler. `load_config` resolves all three layers
into one `RunConfig`, and `echo` writes it back out as INI text with
round-trip floats, so the `config.ini` in every run directory records
exactly what the run used and, passed back through `--config`, reruns it.
"""

import configparser
import io
import math
import typing
from dataclasses import dataclass

from .channel import OfdmConfig, PilotPattern, TdlProfile, doppler_from_speed, load_tdl_profile
from .training import DEFAULT_EWC_LAMBDA


@dataclass
class RunConfig:
    n_f: int = 128
    n_t: int = 28
    delta_f: float = 15e3
    f_c: float = 2e9  # carrier, read only to derive the Doppler
    cp_fraction: float = 0.07
    freq_interval: int = 9
    time_interval: int = 5
    delay_spread: float = 100e-9
    speed_kmh: float = 50.0
    profile_1: str = "tdl-a"
    profile_2: str = "tdl-d"
    batch_size: int = 128
    epochs: int = 30
    lr: float = 1e-3
    lam: float = DEFAULT_EWC_LAMBDA
    clip_norm: float | None = 10.0  # None or <= 0: unclipped
    train_snr_db: float = 10.0  # gen's pilot SNR when --snr is not given
    snr_list: tuple[float, ...] = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0)
    mc: int = 500  # trials per profile
    seed: int = 0
    precision: str = "f32"

    def __post_init__(self):
        # refuse values no run can use; the SNRs below may be inf
        for name in ("delta_f", "f_c", "cp_fraction", "delay_spread", "speed_kmh", "lr", "lam", "clip_norm"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{_KEYS.get(name, name)} must be finite, got {value}")
        for name in ("cp_fraction", "delay_spread", "speed_kmh", "lr", "lam"):
            if getattr(self, name) < 0:
                raise ValueError(f"{_KEYS.get(name, name)} must be >= 0, got {getattr(self, name)}")
        if not (self.delta_f > 0 and self.f_c > 0):
            raise ValueError(f"delta_f and f_c must be > 0, got {self.delta_f} and {self.f_c}")
        if not self.snr_list:
            raise ValueError("snr_list must name at least one SNR")
        # +inf is a noiseless pilot; NaN and -inf name no noise level
        if not self.train_snr_db > -math.inf:
            raise ValueError(f"train_snr_db must be a number of dB or inf, got {self.train_snr_db}")
        if not all(v > -math.inf for v in self.snr_list):
            raise ValueError(f"snr_list entries must be numbers of dB or inf, got {self.snr_list}")
        for name in ("n_f", "n_t", "freq_interval", "time_interval", "mc", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"precision must be f32 or f64, got {self.precision}")
        if self.clip_norm is not None and self.clip_norm <= 0:
            self.clip_norm = None

    def ofdm(self) -> OfdmConfig:
        return OfdmConfig(n_f=self.n_f, n_t=self.n_t, delta_f=self.delta_f,
                          symbol_duration=(1.0 + self.cp_fraction) / self.delta_f)

    def pattern(self) -> PilotPattern:
        return PilotPattern.from_intervals(self.ofdm(), self.freq_interval, self.time_interval)

    def profile(self, name_or_path: str) -> TdlProfile:
        return load_tdl_profile(name_or_path, ds=self.delay_spread, f_d=doppler_from_speed(self.speed_kmh, self.f_c))

    def echo(self) -> str:
        """The configuration as canonical INI text that `load_config` reads back to an equal one."""
        parser = configparser.ConfigParser()
        for section, names in _SCHEMA.items():
            parser.add_section(section)
            for name in names:
                value = getattr(self, name)
                # str of a float is its shortest round-trip form, so the file reads back to the same bits
                if _TYPES[name] == _FLOATS:
                    text = ",".join(str(float(v)) for v in value)
                else:
                    text = "none" if value is None else str(value)
                parser.set(section, _KEYS.get(name, name), text)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()


# each RunConfig field under its INI section, in echo order
_SCHEMA = {
    "ofdm": ("n_f", "n_t", "delta_f", "f_c", "cp_fraction"),
    "pilot": ("freq_interval", "time_interval"),
    "channel": ("delay_spread", "speed_kmh", "profile_1", "profile_2"),
    "train": ("batch_size", "epochs", "lr", "lam", "clip_norm", "train_snr_db"),
    "eval": ("snr_list", "mc"),
    "run": ("seed", "precision"),
}
_KEYS = {"lam": "lambda"}  # the one INI key that is not its field's name (`lambda` is a Python keyword)
_FIELDS = {(section, _KEYS.get(name, name)): name for section, names in _SCHEMA.items() for name in names}
_TYPES = typing.get_type_hints(RunConfig)
_FLOATS = tuple[float, ...]


def parse_floats(text: str) -> tuple:
    """A comma- or space-separated float list, the form of `snr_list`."""
    return tuple(float(v) for v in text.replace(",", " ").split())


def _parse_value(name: str, text: str):
    text = text.strip()
    kind = _TYPES[name]
    if kind == _FLOATS:
        return parse_floats(text)
    if type(None) in typing.get_args(kind):  # `T | None`: none/off, or a T
        if text.lower() in ("none", "off"):
            return None
        kind = typing.get_args(kind)[0]
    return kind(text)


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
                if (section, key) not in _FIELDS:
                    raise ValueError(f"{path}: unknown config key [{section}] {key}")
                name = _FIELDS[(section, key)]
                try:
                    values[name] = _parse_value(name, parser[section][key])
                except ValueError as e:
                    raise ValueError(f"{path}: bad value for [{section}] {key}: {e}") from e
    values.update((name, value) for name, value in overrides.items() if value is not None)
    if values.get("precision") == "f64" and "clip_norm" not in values:
        values["clip_norm"] = None
    return RunConfig(**values)
