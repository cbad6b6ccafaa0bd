"""Seeded dataset generation and the CHDS on-disk format.

Every sample has its own random stream derived from
``SeedSequence(seed, spawn_key=(crc32(profile.name), domain, index))`` where
domain separates train/val/test. The stream draws the channel, the pilot
symbols, and a unit-variance noise grid in a fixed order; the SNR only scales
that noise, so datasets at different SNRs share channel and noise shapes
sample for sample (paired comparisons across an SNR sweep).

``draw`` runs those streams once and keeps each sample's true grid, pilot
channel, pilot symbols and unit noise (``Draws``); ``Draws.at_snr`` then forms
the LS estimates at any SNR from the stored draws without reopening a stream.
``generate_dataset`` is ``draw(...).at_snr(snr_db)``, so a dataset made either
way has the same bits.

CHDS file layout (little-endian): magic "CHDS", version u32, then u32 counts
N_samples, N_f, N_t, N_f_p, N_t_p, then per sample the LS pilot estimate and
the true grid, each as interleaved real/imag float32 row-major. Saving streams
the header and then each sample's two grids to disk, so it holds no image of
the file. Loading reads the payload once, into one complex64 array whose two
column blocks are the dataset's fields, and rejects a payload holding a NaN or
infinity.
"""

import itertools
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .channel import (OfdmConfig, PilotPattern, TdlProfile, _observe, generate_channel, ls_estimate,
                      make_pilot_observation)
from .fio import atomic_write_bytes

CHDS_MAGIC = b"CHDS"
CHDS_VERSION = 1

DOMAIN_TRAIN = 0
DOMAIN_VAL = 1
DOMAIN_TEST = 2


@dataclass
class ChannelDataset:
    """LS pilot estimates paired with ground-truth grids, both complex64. The two may
    be views of one array (a loaded file's payload), so neither is assumed contiguous."""

    h_ls: np.ndarray  # [N, N_f_p, N_t_p]
    h_true: np.ndarray  # [N, N_f, N_t]

    def __post_init__(self):
        if self.h_ls.ndim != 3 or self.h_true.ndim != 3 or self.h_ls.shape[0] != self.h_true.shape[0]:
            raise ValueError(f"inconsistent dataset shapes {self.h_ls.shape} / {self.h_true.shape}")
        self.h_ls = np.asarray(self.h_ls, dtype=np.complex64)
        self.h_true = np.asarray(self.h_true, dtype=np.complex64)

    def __len__(self) -> int:
        return self.h_ls.shape[0]


def concat_datasets(parts) -> ChannelDataset:
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to concatenate")
    return ChannelDataset(
        np.concatenate([p.h_ls for p in parts], axis=0),
        np.concatenate([p.h_true for p in parts], axis=0),
    )


def sample_rng(seed: int, profile_name: str, domain: int, index: int) -> np.random.Generator:
    """Independent per-sample stream; profile, split domain, and index keyed."""
    tag = zlib.crc32(profile_name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag, domain, index)))


@dataclass
class Draws:
    """The random part of n samples, stored once so any SNR can be formed from it."""

    h_true: np.ndarray  # [N, N_f, N_t] complex64
    h_p: np.ndarray  # [N, N_f_p, N_t_p] complex128, true channel at the pilots
    s_p: np.ndarray  # [N, N_f_p, N_t_p] complex128, pilot symbols
    g: np.ndarray  # [N, N_f_p, N_t_p] complex128, unit-variance noise

    def at_snr(self, snr_db: float) -> ChannelDataset:
        """The dataset at one SNR; h_true is shared with this object, not copied."""
        h_ls = ls_estimate(_observe(self.h_p, self.s_p, self.g, snr_db))
        return ChannelDataset(h_ls=h_ls, h_true=self.h_true)


def draw(profile: TdlProfile, cfg: OfdmConfig, pattern: PilotPattern,
         n: int, seed: int, domain: int) -> Draws:
    """Run the random streams of samples 0..n-1 once and keep their draws."""
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    pattern.validate_for(cfg)
    shape = (n, pattern.n_fp, pattern.n_tp)
    h_true = np.empty((n, cfg.n_f, cfg.n_t), dtype=np.complex64)
    h_p, s_p, g = (np.empty(shape, dtype=np.complex128) for _ in range(3))
    for i in range(n):
        rng = sample_rng(seed, profile.name, domain, i)
        h = generate_channel(profile, cfg, rng)
        # the SNR only scales the stored noise, so any value gives the same draws
        obs = make_pilot_observation(h, pattern, np.inf, rng)
        h_true[i] = h
        h_p[i] = h[np.ix_(pattern.p_f, pattern.p_t)]
        s_p[i], g[i] = obs.s_p, obs.g
    return Draws(h_true=h_true, h_p=h_p, s_p=s_p, g=g)


def generate_dataset(profile: TdlProfile, cfg: OfdmConfig, pattern: PilotPattern,
                     snr_db: float, n: int, seed: int, domain: int) -> ChannelDataset:
    """Generate n (LS pilot estimate, true grid) pairs at one SNR."""
    return draw(profile, cfg, pattern, n, seed, domain).at_snr(snr_db)


def planes_from_complex(x: np.ndarray, dtype=np.float32) -> np.ndarray:
    """[..., a, b] complex -> [..., 2, a, b] real planes (0: real, 1: imag)."""
    return np.stack([x.real, x.imag], axis=-3, dtype=dtype)


def complex_from_planes(p: np.ndarray) -> np.ndarray:
    """Inverse of planes_from_complex."""
    return p[..., 0, :, :] + 1j * p[..., 1, :, :]


def save_dataset(ds: ChannelDataset, path: str) -> None:
    n, n_fp, n_tp = ds.h_ls.shape
    _, n_f, n_t = ds.h_true.shape
    header = CHDS_MAGIC + struct.pack("<6I", CHDS_VERSION, n, n_f, n_t, n_fp, n_tp)
    # streamed one sample at a time: LS grid then true grid (complex64 = interleaved re/im float32)
    rows = (np.ascontiguousarray(field[i]) for i in range(n) for field in (ds.h_ls, ds.h_true))
    atomic_write_bytes(path, itertools.chain([header], rows))


def load_dataset(path: str) -> ChannelDataset:
    with open(path, "rb") as fh:
        head = fh.read(28)
        if len(head) < 28 or head[:4] != CHDS_MAGIC:
            raise ValueError(f"{path}: not a CHDS dataset file")
        version, n, n_f, n_t, n_fp, n_tp = struct.unpack_from("<6I", head, 4)
        if version != CHDS_VERSION:
            raise ValueError(f"{path}: unsupported CHDS version {version}")
        k, per = n_fp * n_tp, n_fp * n_tp + n_f * n_t
        # the header sizes nothing until the file is seen to hold what it claims
        size, expected = os.fstat(fh.fileno()).st_size, 28 + n * per * 8  # complex64 bytes
        if size != expected:
            raise ValueError(f"{path}: truncated or oversized payload ({size} vs {expected} bytes)")
        payload = np.empty((n, per), np.complex64)
        if fh.readinto(payload) != payload.nbytes:
            raise ValueError(f"{path}: truncated payload (the file shrank while being read)")
    if not np.isfinite(payload.view(np.float32)).all():  # each re/im part; faster than complex isfinite
        raise ValueError(f"{path}: payload holds non-finite values")
    # views, not copies: the two fields share the one payload array
    return ChannelDataset(h_ls=payload[:, :k].reshape(n, n_fp, n_tp),
                          h_true=payload[:, k:].reshape(n, n_f, n_t))
