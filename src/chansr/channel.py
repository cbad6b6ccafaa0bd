"""Tapped-delay-line channel synthesis, pilot transmission, and LS estimation.

Ground-truth grids are built directly in the frequency domain,
H[k,t] = sum_p alpha_p(t) * exp(-j 2 pi k df tau_p), with tau_p the tap's
normalized delay scaled by the profile delay spread. Rayleigh taps evolve in
time by a Clarke sum-of-sinusoids process at the profile's maximum Doppler;
a Rician tap adds a deterministic line-of-sight ray at 0.7 * f_d with unit
phase at t = 0 and a K-factor power split.

Tap tables live in data files (``profiles/*.txt``), one tap per line:
``delay_normalized power_db fading`` where fading is ``rayleigh`` or
``rician:<K_dB>``; ``#`` starts a comment. Linear tap powers are normalized
to sum to 1 on load.
"""

from dataclasses import dataclass
from importlib import resources

import numpy as np

SPEED_OF_LIGHT = 299792458.0
N_SINUSOIDS = 32  # Clarke sum-of-sinusoids order
LOS_DOPPLER_RATIO = 0.7  # LOS ray Doppler as a fraction of f_d (TDL convention)

_BUILTIN_PROFILES = {"tdl-a": "tdl_a.txt", "tdl-d": "tdl_d.txt"}


def doppler_from_speed(speed_kmh: float, f_c: float) -> float:
    """Maximum Doppler shift f_d = v * f_c / c for speed in km/h."""
    return (speed_kmh / 3.6) * f_c / SPEED_OF_LIGHT


@dataclass(frozen=True)
class OfdmConfig:
    """Time-frequency grid geometry: N_f subcarriers over N_t timeslots."""

    n_f: int = 128
    n_t: int = 28
    delta_f: float = 15e3
    symbol_duration: float = 1.07 / 15e3  # 1/delta_f plus a 7% cyclic-prefix share

    def __post_init__(self):
        if self.n_f < 1 or self.n_t < 1:
            raise ValueError("grid dimensions must be positive")
        if not (self.delta_f > 0 and self.symbol_duration > 0):
            raise ValueError("delta_f and symbol_duration must be positive")


@dataclass(frozen=True)
class PilotPattern:
    """Ordered pilot indices along frequency (p_f) and time (p_t)."""

    p_f: tuple
    p_t: tuple

    def __post_init__(self):
        for name, idx in (("p_f", self.p_f), ("p_t", self.p_t)):
            arr = np.asarray(idx)
            if arr.size == 0 or np.any(arr < 0):
                raise ValueError(f"{name} must be nonempty and nonnegative")
            if np.any(np.diff(arr) <= 0):
                raise ValueError(f"{name} must be strictly increasing")

    @property
    def n_fp(self) -> int:
        return len(self.p_f)

    @property
    def n_tp(self) -> int:
        return len(self.p_t)

    @staticmethod
    def from_intervals(cfg: OfdmConfig, freq_interval: int = 9, time_interval: int = 5) -> "PilotPattern":
        """Uniform lattice anchored at index 0 in both dimensions."""
        if freq_interval < 1 or time_interval < 1:
            raise ValueError("pilot intervals must be >= 1")
        return PilotPattern(
            p_f=tuple(range(0, cfg.n_f, freq_interval)),
            p_t=tuple(range(0, cfg.n_t, time_interval)),
        )

    def validate_for(self, cfg: OfdmConfig) -> None:
        if self.p_f[-1] >= cfg.n_f or self.p_t[-1] >= cfg.n_t:
            raise ValueError("pilot indices exceed grid bounds")


@dataclass(frozen=True)
class Tap:
    delay: float  # normalized to the delay spread
    power_db: float  # as listed in the profile table, before normalization
    power: float  # linear, normalized so profile powers sum to 1
    rician_k_db: float | None = None  # None: Rayleigh fading

    @property
    def is_rician(self) -> bool:
        return self.rician_k_db is not None


@dataclass(frozen=True)
class TdlProfile:
    name: str
    taps: tuple
    ds: float  # delay spread in seconds
    f_d: float  # maximum Doppler in Hz

    def __post_init__(self):
        if self.ds < 0 or self.f_d < 0:
            raise ValueError("delay spread and Doppler must be nonnegative")
        total = sum(t.power for t in self.taps)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"tap powers must sum to 1, got {total}")
        if any(t.delay < 0 for t in self.taps):
            raise ValueError("tap delays must be nonnegative")


def _parse_profile_text(text: str, name: str, ds: float, f_d: float) -> TdlProfile:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{name}:{lineno}: expected 'delay power_db fading', got {raw!r}")
        try:
            delay, power_db = float(parts[0]), float(parts[1])
        except ValueError as e:
            raise ValueError(f"{name}:{lineno}: non-numeric field in {raw!r}") from e
        fading = parts[2].lower()
        if fading == "rayleigh":
            k_db = None
        elif fading.startswith("rician:"):
            try:
                k_db = float(fading.split(":", 1)[1])
            except ValueError as e:
                raise ValueError(f"{name}:{lineno}: bad K-factor in {raw!r}") from e
        else:
            raise ValueError(f"{name}:{lineno}: unknown fading kind {parts[2]!r}")
        if not all(np.isfinite(v) for v in (delay, power_db, k_db if k_db is not None else 0.0)):
            raise ValueError(f"{name}:{lineno}: non-finite value in {raw!r}")
        rows.append((delay, power_db, k_db))
    if not rows:
        raise ValueError(f"{name}: profile has no taps")
    linear = np.array([10.0 ** (p / 10.0) for _, p, _ in rows])
    linear /= linear.sum()
    taps = tuple(
        Tap(delay=d, power_db=p, power=float(w), rician_k_db=k)
        for (d, p, k), w in zip(rows, linear)
    )
    return TdlProfile(name=name, taps=taps, ds=ds, f_d=f_d)


def load_tdl_profile(name_or_path: str, ds: float = 100e-9, f_d: float | None = None,
                     speed_kmh: float = 50.0, f_c: float = 2e9) -> TdlProfile:
    """Load a built-in profile ('TDL-A', 'TDL-D') or a tap-table file.

    f_d defaults to the Doppler of `speed_kmh` at carrier `f_c`.
    """
    if f_d is None:
        f_d = doppler_from_speed(speed_kmh, f_c)
    key = name_or_path.lower().replace("_", "-")
    if key in _BUILTIN_PROFILES:
        text = resources.files(__package__).joinpath("profiles", _BUILTIN_PROFILES[key]).read_text()
        return _parse_profile_text(text, key, ds, f_d)
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(f"unknown profile name and unreadable path: {name_or_path!r}") from e
    return _parse_profile_text(text, name_or_path, ds, f_d)


def _tap_gains(profile: TdlProfile, cfg: OfdmConfig, rng: np.random.Generator) -> np.ndarray:
    """Complex per-tap gains over the N_t timeslots, shape [P, N_t]."""
    P = len(profile.taps)
    n = N_SINUSOIDS
    t = np.arange(cfg.n_t) * cfg.symbol_duration
    # stratified-random arrival angles and iid phases, one row per tap
    u = rng.random((P, n))
    phases = rng.random((P, n)) * (2.0 * np.pi)
    theta = 2.0 * np.pi * (np.arange(n) + u) / n
    omega = 2.0 * np.pi * profile.f_d * np.cos(theta)  # [P, n]
    arg = omega[:, :, None] * t[None, None, :] + phases[:, :, None]
    diffuse = np.exp(1j * arg).sum(axis=1) / np.sqrt(n)  # unit mean power per tap

    power = np.array([tap.power for tap in profile.taps])
    k_lin = np.array([
        10.0 ** (tap.rician_k_db / 10.0) if tap.is_rician else 0.0 for tap in profile.taps
    ])
    diffuse_amp = np.sqrt(power / (k_lin + 1.0))
    los_amp = np.sqrt(power * k_lin / (k_lin + 1.0))
    los_phase = np.exp(2j * np.pi * LOS_DOPPLER_RATIO * profile.f_d * t)  # unit phase at t=0
    return diffuse_amp[:, None] * diffuse + los_amp[:, None] * los_phase[None, :]


def generate_channel(profile: TdlProfile, cfg: OfdmConfig, rng: np.random.Generator) -> np.ndarray:
    """One channel realization: complex [N_f, N_t] frequency-time grid."""
    tau = np.array([tap.delay for tap in profile.taps]) * profile.ds
    phase = -2.0 * np.pi * cfg.delta_f * np.outer(tau, np.arange(cfg.n_f))  # [P, N_f]
    if not np.all(np.isfinite(phase)):
        raise ValueError("non-finite subcarrier phase; check delay spread and delta_f")
    steering = np.exp(1j * phase)
    alpha = _tap_gains(profile, cfg, rng)  # [P, N_t]
    h = steering.T @ alpha  # [N_f, N_t]
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite channel realization")
    return h


_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass
class PilotObservation:
    """Pilot symbols, received pilots and the unit noise behind them."""

    s_p: np.ndarray  # transmitted unit-modulus pilot symbols
    y_p: np.ndarray  # received pilots
    g: np.ndarray  # unit-variance complex noise draw, scaled by sqrt(sigma2) in y_p
    sigma2: float


def _observe(h_p: np.ndarray, s_p: np.ndarray, g: np.ndarray, snr_db: float) -> PilotObservation:
    """Received pilots y_p = s_p * h_p + sigma * g at the given SNR (sigma2 = 0 at +inf).

    Elementwise, so it takes one sample's pilot grid or a batch of them.
    """
    sigma2 = 0.0 if np.isinf(snr_db) else 10.0 ** (-snr_db / 10.0)
    y_p = s_p * h_p + np.sqrt(sigma2) * g
    return PilotObservation(s_p=s_p, y_p=y_p, g=g, sigma2=sigma2)


def make_pilot_observation(h: np.ndarray, pattern: PilotPattern, snr_db: float,
                           rng: np.random.Generator) -> PilotObservation:
    """Transmit iid QPSK pilots through H over AWGN at the given pilot SNR.

    sigma^2 = 10^(-snr_db/10) against unit channel power and unit-modulus
    pilots; snr_db = +inf disables the noise (still consuming the same rng
    draws, so noise realizations stay paired across SNR points). The unit
    noise draw is kept as ``g`` so the same sample can be formed at other SNRs.
    """
    h_p = h[np.ix_(pattern.p_f, pattern.p_t)]
    shape = h_p.shape
    s_p = _QPSK[rng.integers(0, 4, size=shape)]
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return _observe(h_p, s_p, g, snr_db)


def ls_estimate(obs: PilotObservation) -> np.ndarray:
    """Least-squares pilot estimate: elementwise Y_p / S_p; obs is left unchanged."""
    if np.any(obs.s_p == 0):
        raise ValueError("zero pilot symbol; LS division undefined")
    return obs.y_p / obs.s_p


def _interp_axis0(xs: np.ndarray, ys: np.ndarray, x_new: np.ndarray) -> np.ndarray:
    """Piecewise-linear along axis 0 with edge-segment extrapolation."""
    idx = np.clip(np.searchsorted(xs, x_new, side="right") - 1, 0, len(xs) - 2)
    x0, x1 = xs[idx], xs[idx + 1]
    t = ((x_new - x0) / (x1 - x0)).reshape((-1,) + (1,) * (ys.ndim - 1))
    return ys[idx] * (1.0 - t) + ys[idx + 1] * t


def interpolate_bilinear(h_p: np.ndarray, pattern: PilotPattern, cfg: OfdmConfig) -> np.ndarray:
    """Separable linear interpolation of pilot estimates onto the full grid."""
    if pattern.n_fp < 2 or pattern.n_tp < 2:
        raise ValueError("bilinear interpolation needs at least 2 pilots per dimension")
    if h_p.shape != (pattern.n_fp, pattern.n_tp):
        raise ValueError(f"pilot grid shape {h_p.shape} does not match pattern "
                         f"({pattern.n_fp}, {pattern.n_tp})")
    p_f = np.asarray(pattern.p_f, dtype=np.float64)
    p_t = np.asarray(pattern.p_t, dtype=np.float64)
    full_f = _interp_axis0(p_f, h_p, np.arange(cfg.n_f, dtype=np.float64))
    full = _interp_axis0(p_t, full_f.T, np.arange(cfg.n_t, dtype=np.float64)).T
    return full


def dft_matrix(n: int, m: int) -> np.ndarray:
    """Unitary-normalized DFT matrix slice: entry (k,l) = exp(-j2pi kl/n)/sqrt(n)."""
    if m > n:
        raise ValueError(f"column count {m} exceeds size {n}")
    k = np.arange(n)[:, None]
    l = np.arange(m)[None, :]
    return np.exp(-2j * np.pi * k * l / n) / np.sqrt(n)
