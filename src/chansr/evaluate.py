"""NMSE metric, SNR sweeps across estimation schemes, and forgetting reports.

NMSE is the trial mean of per-sample ||H - H_hat||_F^2 / ||H||_F^2, reported
both linear and in dB; a non-finite NMSE raises ``FloatingPointError``.
Sweeps draw their test sets from a reserved seed domain, so evaluation at any
SNR never reuses training samples.

Each test sample is drawn once per call (``dataset.draw``); every SNR point
rescales that sample's stored unit noise (``Draws.at_snr``), which gives the
same bits as generating the set afresh at that SNR. Sweeps and the forgetting
report score each profile as its own block: the block's truth power is summed
once for all SNRs (``Draws.at_snr`` shares ``h_true``), each estimate becomes
one per-sample ratio vector, and a set of several profiles scores as the mean
of their concatenated vectors, which has the bits of scoring the concatenated
sets. ``nmse`` takes such per-profile blocks as well as one array pair, so no
grid is concatenated. The per-sample error and power sums are formed
``_EVAL_CHUNK`` samples at a time, with the sums a whole-set reduction gives.
The forgetting report draws each profile once for the whole report, runs each
estimator once per profile and SNR, and takes its task1, task2 and mixed NMSE
from the same ratio vectors.

CSV schema (one row per scheme/profile/SNR):
``scheme,profile,snr_db,nmse_linear,nmse_db,mc,seed``. The forgetting report
reuses the schema with the profile column holding the eval-set label and adds
``delta_naive_minus_cl`` rows whose nmse columns hold the task-I NMSE gap
(naive sequential minus anchor-penalty training).
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .channel import OfdmConfig, PilotPattern, interpolate_bilinear
from .dataset import DOMAIN_TEST, complex_from_planes, draw, planes_from_complex
from .fio import atomic_write_text
from .model import ModelParams, forward

_EVAL_CHUNK = 128


def _sq_norms(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Per-sample ||x||_F^2, or ||x - y||_F^2, formed _EVAL_CHUNK samples at a time.

    Each sample's sum is the one a reduction over the whole set gives; the
    slices only bound the complex and squared-magnitude temporaries to one
    chunk.
    """
    axes = tuple(range(1, x.ndim))
    sums = []
    for s in range(0, x.shape[0], _EVAL_CHUNK):
        d = x[s:s + _EVAL_CHUNK] if y is None else x[s:s + _EVAL_CHUNK] - y[s:s + _EVAL_CHUNK]
        sums.append(np.sum(np.abs(d) ** 2, axis=axes))
    return np.concatenate(sums)


def _power(truth: np.ndarray) -> np.ndarray:
    """Per-sample ||H||_F^2; a zero-power sample leaves the NMSE undefined."""
    power = _sq_norms(truth)
    if np.any(power == 0):
        raise ValueError("zero-power truth sample; NMSE undefined")
    return power


def _ratios(truth, estimates, power=None) -> np.ndarray:
    """Per-sample ||H - H_hat||_F^2 / ||H||_F^2; power is _power(truth) if already known."""
    truth = np.asarray(truth)
    estimates = np.asarray(estimates)
    if truth.shape != estimates.shape or truth.ndim < 1 or truth.shape[0] == 0:
        raise ValueError(f"need equal-length nonempty sample lists, got {truth.shape} vs {estimates.shape}")
    return _sq_norms(truth, estimates) / (_power(truth) if power is None else power)


def _mean(ratios: np.ndarray) -> float:
    value = float(np.mean(ratios))
    if not np.isfinite(value):  # an estimate that overflowed or holds NaN
        raise FloatingPointError(f"non-finite NMSE {value}")
    return value


def nmse(truth, estimates, power=None) -> float:
    """(1/M_c) sum ||H - H_hat||_F^2 / ||H||_F^2 over paired samples.

    truth and estimates are paired sample arrays [M_c, ...], or paired lists
    of per-profile blocks. Blocks score as their concatenation would, without
    forming it. power optionally gives each block's _power, summed once by a
    caller that scores the same truth again.
    """
    if not isinstance(truth, (list, tuple)):
        truth, estimates, power = [truth], [estimates], [power]
    if not truth or len(estimates) != len(truth):
        raise ValueError(f"need equal, nonzero block counts, got {len(truth)} vs {len(estimates)}")
    power = [None] * len(truth) if power is None else power
    return _mean(np.concatenate([_ratios(t, e, p) for t, e, p in zip(truth, estimates, power)]))


def to_db(x: float) -> float:
    return float(10.0 * np.log10(x))


@dataclass
class EvalReport:
    scheme: str
    profile: str
    snr_db: list
    nmse_linear: list
    nmse_db: list
    mc: int
    seed: int

    def rows(self):
        for s, lin, db in zip(self.snr_db, self.nmse_linear, self.nmse_db):
            yield [self.scheme, self.profile, s, lin, db, self.mc, self.seed]


def ls_bilinear_estimator(pattern: PilotPattern, cfg: OfdmConfig):
    """Baseline: bilinear interpolation of the LS pilot estimates."""

    def estimate(h_ls: np.ndarray) -> np.ndarray:
        # the dtype interpolate_bilinear gives each grid, as np.stack over them would
        out = np.empty((h_ls.shape[0], cfg.n_f, cfg.n_t), np.result_type(h_ls, np.float64))
        for i in range(h_ls.shape[0]):
            out[i] = interpolate_bilinear(h_ls[i], pattern, cfg)
        return out

    return estimate


def model_estimator(params: ModelParams, cfg: OfdmConfig, bypass_attention: bool = False):
    """Trained-network scheme: forward pass on real/imag planes, no gradients."""

    def estimate(h_ls: np.ndarray) -> np.ndarray:
        target = (cfg.n_f, cfg.n_t)
        outs = []
        with ad.no_grad():
            for s in range(0, h_ls.shape[0], _EVAL_CHUNK):
                x = Tensor(planes_from_complex(h_ls[s:s + _EVAL_CHUNK], dtype=ad.default_dtype()))
                outs.append(forward(x, params, target, bypass_attention=bypass_attention).data)
        return complex_from_planes(np.concatenate(outs, axis=0))

    return estimate


def sweep(estimator, scheme: str, profiles, snr_list, m_c: int, seed: int,
          cfg: OfdmConfig, pattern: PilotPattern) -> EvalReport:
    """One NMSE per SNR over test data drawn per profile (M_c trials total).

    profiles: list of TdlProfile; M_c is split evenly across them (a 2-profile
    list yields the 50/50 mixed set). Test samples come from the reserved
    test seed domain, deterministic under the given seed.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValueError("sweep needs at least one profile")
    if m_c < 1 or m_c % len(profiles) != 0:
        raise ValueError(f"M_c = {m_c} must be a positive multiple of the profile count {len(profiles)}")
    draws = [draw(prof, cfg, pattern, m_c // len(profiles), seed, DOMAIN_TEST) for prof in profiles]
    power = [_power(d.h_true) for d in draws]  # at_snr shares h_true across SNRs
    lin = []
    for snr in snr_list:
        sets = [d.at_snr(snr) for d in draws]
        lin.append(nmse([ds.h_true for ds in sets], [estimator(ds.h_ls) for ds in sets], power))
    return EvalReport(
        scheme=scheme,
        profile="+".join(p.name for p in profiles),
        snr_db=list(snr_list),
        nmse_linear=lin,
        nmse_db=[to_db(v) for v in lin],
        mc=m_c,
        seed=seed,
    )


def forgetting_report(schemes: dict, profile_1, profile_2, snr_list, m_c: int,
                      seed: int, cfg: OfdmConfig, pattern: PilotPattern):
    """NMSE matrix over eval sets task1/task2/mixed for the four scheme checkpoints.

    schemes: mapping of scheme label -> estimator, expected keys
    'post_task1', 'naive_seq', 'cl', 'multitask'; m_c counts trials per
    profile (the mixed set evaluates 2*m_c). Returns CSV-ready rows and
    includes the task-I retention delta between naive_seq and cl.
    """
    required = ("post_task1", "naive_seq", "cl", "multitask")
    missing = [k for k in required if k not in schemes]
    if missing:
        raise ValueError(f"missing scheme checkpoints: {missing}")
    if m_c < 1:
        raise ValueError(f"M_c = {m_c} must be positive")
    eval_sets = {"task1": (0,), "task2": (1,), "mixed": (0, 1)}  # indices into the two profiles
    draws = [draw(prof, cfg, pattern, m_c, seed, DOMAIN_TEST) for prof in (profile_1, profile_2)]
    power = [_power(d.h_true) for d in draws]  # at_snr shares h_true across SNRs
    sets_at = {snr: [d.at_snr(snr) for d in draws] for snr in snr_list}
    rows = []
    task1_db = {}
    for label in required:
        lin = {name: [] for name in eval_sets}
        for snr in snr_list:
            ratios = [_ratios(ds.h_true, schemes[label](ds.h_ls), p) for ds, p in zip(sets_at[snr], power)]
            for name, idx in eval_sets.items():
                lin[name].append(_mean(np.concatenate([ratios[i] for i in idx])))
        for name, idx in eval_sets.items():
            rep = EvalReport(scheme=label, profile=name, snr_db=list(snr_list), nmse_linear=lin[name],
                             nmse_db=[to_db(v) for v in lin[name]], mc=m_c * len(idx), seed=seed)
            rows.extend(rep.rows())
            if name == "task1":
                task1_db[label] = rep.nmse_db
    for i, snr in enumerate(snr_list):
        delta_db = task1_db["naive_seq"][i] - task1_db["cl"][i]
        rows.append(["delta_naive_minus_cl", "task1", snr, 10.0 ** (delta_db / 10.0), delta_db, m_c, seed])
    return rows


def write_report_csv(path: str, rows) -> None:
    """Report rows to CSV with stable float formatting (byte-reproducible)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scheme", "profile", "snr_db", "nmse_linear", "nmse_db", "mc", "seed"])
    for scheme, profile, snr, lin, db, mc, seed in rows:
        writer.writerow([scheme, profile, f"{snr:g}", f"{lin:.10e}", f"{db:.10e}", mc, seed])
    atomic_write_text(path, buf.getvalue())
