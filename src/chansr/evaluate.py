"""NMSE metric, SNR sweeps across estimation schemes, and forgetting reports.

NMSE is the trial mean of per-sample ||H - H_hat||_F^2 / ||H||_F^2, reported
both linear and in dB. Sweeps draw their test sets from a reserved seed
domain, so evaluation at any SNR never reuses training samples.

Each test sample is drawn once per call (``dataset.draw``); every SNR point
rescales that sample's stored unit noise (``Draws.at_snr``), which gives the
same bits as generating the set afresh at that SNR. The forgetting report
draws each profile once for the whole report, runs each estimator once per
profile and SNR, and scores the mixed set from the task1 and task2 estimates.

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


def nmse(truth, estimates) -> float:
    """(1/M_c) sum ||H - H_hat||_F^2 / ||H||_F^2 over paired sample lists."""
    truth = np.asarray(truth)
    estimates = np.asarray(estimates)
    if truth.shape != estimates.shape or truth.ndim < 1 or truth.shape[0] == 0:
        raise ValueError(f"need equal-length nonempty sample lists, got {truth.shape} vs {estimates.shape}")
    axes = tuple(range(1, truth.ndim))
    err = np.sum(np.abs(truth - estimates) ** 2, axis=axes)
    power = np.sum(np.abs(truth) ** 2, axis=axes)
    if np.any(power == 0):
        raise ValueError("zero-power truth sample; NMSE undefined")
    return float(np.mean(err / power))


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
        return np.stack([interpolate_bilinear(h_ls[i], pattern, cfg) for i in range(h_ls.shape[0])])

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
    if m_c < 1 or m_c % len(profiles) != 0:
        raise ValueError(f"M_c = {m_c} must be a positive multiple of the profile count {len(profiles)}")
    draws = [draw(prof, cfg, pattern, m_c // len(profiles), seed, DOMAIN_TEST) for prof in profiles]
    lin = []
    for snr in snr_list:
        sets = [d.at_snr(snr) for d in draws]
        lin.append(nmse(np.concatenate([ds.h_true for ds in sets]),
                        np.concatenate([estimator(ds.h_ls) for ds in sets])))
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
    sets_at = {snr: [d.at_snr(snr) for d in draws] for snr in snr_list}
    rows = []
    task1_db = {}
    for label in required:
        lin = {name: [] for name in eval_sets}
        for snr in snr_list:
            sets = sets_at[snr]
            est = [schemes[label](ds.h_ls) for ds in sets]
            for name, idx in eval_sets.items():
                lin[name].append(nmse(np.concatenate([sets[i].h_true for i in idx]),
                                      np.concatenate([est[i] for i in idx])))
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
