"""Acceptance gate: one test per criterion, fixed tolerances.

Criteria (all asserted below, one test each, in order):
  1 gradient suite matches central finite differences (<1e-5 f64, <1e-3 f32, <1 min)
  2 oracle suite: >=100 random instances per op family at 1e-5
  3 exactness: noiseless LS 1e-6, DFT unitary 1e-10, NMSE trivials exact
  4 desk-scale SNR trend on both profiles (beats baseline everywhere,
    non-increasing within 0.3 dB per adjacent pair, <=30 min)
  5 naive sequential training forgets task I by >=3 dB at 10 dB
  6 mixed-set ordering multitask <= CL <= naive, >=1 dB CL/naive separation,
    CL task-I degradation <3 dB
  7 anchor-penalty algebra (zero at anchor, Fisher >=0, lambda=0 bit-identical,
    lambda=1e12 pins within 1e-3)
  8 byte-identical reruns of gen/train/eval under one seed
  9 mean |H|^2 within +-5% over 1e4 realizations, Doppler-free exactly static
"""

import time

import numpy as np
import pytest

import chansr.autodiff as ad
from chansr.autodiff import Tensor
from chansr.channel import (OfdmConfig, PilotPattern, TdlProfile, dft_matrix,
                            generate_channel, interpolate_bilinear, load_tdl_profile,
                            ls_estimate, make_pilot_observation)
from chansr.cli import main as cli_main
from chansr.config import RunConfig
from chansr.dataset import DOMAIN_TRAIN, concat_datasets, generate_dataset
from chansr.evaluate import ls_bilinear_estimator, model_estimator, nmse, sweep
from chansr.model import ModelParams, forward, init_params, init_rng
from chansr.training import DEFAULT_EWC_LAMBDA, estimate_fisher, ewc_loss, train_task

from oracles import (bilinear_oracle, conv2d_oracle, deconv2d_oracle,
                     pool_channel_oracle, pool_spatial_oracle, relative_error)

_CFG = OfdmConfig()
_PAT = PilotPattern.from_intervals(_CFG, 9, 5)
_SNRS = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0)
_TRAIN_SNR = 10.0

# reduced geometry for gradient work: stride-(9,5) deconv from 3x2 pilots
# lands exactly on a 27x10 grid
_RCFG = OfdmConfig(n_f=27, n_t=10)
_RPAT = PilotPattern.from_intervals(_RCFG, 9, 5)


# ---------------------------------------------------------------------------
# criterion 1: gradient suite
# ---------------------------------------------------------------------------


def _probe_gradient_pair(ad_tensors, fd_build, fd_tensors, rng, n_probe):
    """Max relative error between already-populated grads on ad_tensors and
    central differences through the float64 twin graph (fd_build/fd_tensors,
    positionally aligned, holding the same values)."""
    worst = 0.0
    for t, ft in zip(ad_tensors, fd_tensors):
        grad = t.grad.reshape(-1)
        flat = ft.data.reshape(-1)
        idx = rng.choice(flat.size, size=min(n_probe, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            h = 1e-6 * max(1.0, abs(float(orig)))
            flat[i] = orig + h
            fp = fd_build().item()
            flat[i] = orig - h
            fm = fd_build().item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            scale = max(abs(fd), abs(float(grad[i])), 1e-4)
            worst = max(worst, abs(fd - float(grad[i])) / scale)
    return worst


def _op_cases(dt):
    """One scalar-loss builder per autodiff op over shared leaves.

    Leaf values are f32-representable and kept off ReLU kinks, so the f32 and
    f64 instantiations evaluate the same mathematical function.
    """
    rng = np.random.default_rng(100)

    def draw(shape, grad=True):
        a = rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        return Tensor(a.astype(np.float32).astype(dt), requires_grad=grad, dtype=dt)

    x = draw((2, 4, 6, 5))
    y = draw((2, 4, 6, 5))
    w = draw((3, 4, 3, 3))
    b = draw((3,))
    dw = draw((4, 3, 2, 2))
    g = draw((2, 4))
    tgt = draw((2, 4, 6, 5), grad=False)
    tgt_c = draw((2, 1, 6, 5), grad=False)
    cases = {
        "add": (lambda: ad.mse_loss(ad.add(x, y), tgt), [x, y]),
        "mul_elementwise": (lambda: ad.mse_loss(ad.mul_elementwise(x, y), tgt), [x, y]),
        "relu": (lambda: ad.mse_loss(ad.relu(x), tgt), [x]),
        "sigmoid": (lambda: ad.mse_loss(ad.sigmoid(x), tgt), [x]),
        "scale_channels": (lambda: ad.mse_loss(ad.scale_channels(x, ad.sigmoid(g)), tgt), [x, g]),
        "conv2d": (lambda: ad.tensor_sum(ad.mul_elementwise(c := ad.conv2d(x, w, b), c)), [x, w, b]),
        "conv2d_transpose": (
            lambda: ad.tensor_sum(ad.mul_elementwise(d := ad.conv2d_transpose(x, dw, b, (2, 2)), d)),
            [x, dw, b]),
        "pool_spatial_max": (lambda: ad.tensor_sum(ad.mul_elementwise(p := ad.pool_spatial(x, "max"), p)), [x]),
        "pool_spatial_avg": (lambda: ad.tensor_sum(ad.mul_elementwise(p := ad.pool_spatial(x, "avg"), p)), [x]),
        "pool_channel_max": (lambda: ad.mse_loss(ad.pool_channel(x, "max"), tgt_c), [x]),
        "pool_channel_avg": (lambda: ad.mse_loss(ad.pool_channel(x, "avg"), tgt_c), [x]),
        "mse_loss": (lambda: ad.mse_loss(x, tgt), [x]),
    }
    return cases


def _forward_case(dt):
    base = init_params(np.random.default_rng(101))
    params = ModelParams({
        n: Tensor(base[n].data.astype(np.float32).astype(dt), requires_grad=True, dtype=dt)
        for n in base.names()})
    rng = np.random.default_rng(102)
    x = Tensor((rng.uniform(0.5, 1.5, (2, 2, 3, 2)) *
                rng.choice([-1.0, 1.0], (2, 2, 3, 2))).astype(np.float32).astype(dt),
               dtype=dt)
    tgt = Tensor(rng.standard_normal((2, 2, 27, 10)).astype(np.float32).astype(dt),
                 dtype=dt)

    def build():
        return ad.mse_loss(forward(x, params, (27, 10)), tgt)

    return build, params.tensors()


def test_c1_gradient_suite():
    """Every op and the full forward vs central differences evaluated on a
    float64 twin graph: rel err < 1e-5 (f64 grads), < 1e-3 (f32 grads); < 60 s."""
    t0 = time.time()
    for dt, tol in ((np.float64, 1e-5), (np.float32, 1e-3)):
        rng = np.random.default_rng(103)
        cases = _op_cases(dt)
        fd_cases = _op_cases(np.float64)  # same seed, same values, f64 evaluation
        for op in cases:
            build, tensors = cases[op]
            fd_build, fd_tensors = fd_cases[op]
            for t in tensors:
                t.zero_grad()
            ad.backward(build())
            err = _probe_gradient_pair(tensors, fd_build, fd_tensors, rng, n_probe=6)
            assert err < tol, f"{op} ({np.dtype(dt).name}): rel err {err:.2e} >= {tol}"

        build, tensors = _forward_case(dt)
        fd_build, fd_tensors = _forward_case(np.float64)
        for t in tensors:
            t.zero_grad()
        ad.backward(build())
        err = _probe_gradient_pair(tensors, fd_build, fd_tensors, rng, n_probe=3)
        assert err < tol, f"full forward ({np.dtype(dt).name}): rel err {err:.2e} >= {tol}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s >= 60s"


# ---------------------------------------------------------------------------
# criterion 2: oracle suite
# ---------------------------------------------------------------------------


def test_c2_oracle_suite():
    """conv/deconv/pooling/bilinear vs brute-force loops: 1e-5 on 100+ instances each."""
    ad.set_default_dtype("f64")  # the 1e-5 gate compares 64-bit evaluations
    rng = np.random.default_rng(200)
    checked = {"conv2d": 0, "conv2d_transpose": 0, "pooling": 0, "bilinear": 0}

    for _ in range(100):
        b, ci, co = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
        h, w = rng.integers(2, 7), rng.integers(2, 7)
        k = int(rng.choice([1, 3, 5]))
        x = rng.standard_normal((b, ci, h, w))
        wt = rng.standard_normal((co, ci, k, k))
        bias = rng.standard_normal(co)
        got = ad.conv2d(Tensor(x), Tensor(wt), Tensor(bias)).data
        assert relative_error(got, conv2d_oracle(x, wt, bias)) < 1e-5
        checked["conv2d"] += 1

    for _ in range(100):
        b, ci, co = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
        h, w = rng.integers(1, 5), rng.integers(1, 5)
        kh, kw = rng.integers(1, 5), rng.integers(1, 5)
        sh, sw = rng.integers(1, 4), rng.integers(1, 4)
        x = rng.standard_normal((b, ci, h, w))
        wt = rng.standard_normal((ci, co, kh, kw))
        bias = rng.standard_normal(co)
        got = ad.conv2d_transpose(Tensor(x), Tensor(wt), Tensor(bias),
                                  (int(sh), int(sw))).data
        assert relative_error(got, deconv2d_oracle(x, wt, bias, (int(sh), int(sw)))) < 1e-5
        checked["conv2d_transpose"] += 1

    for _ in range(100):
        c = rng.integers(1, 5)
        h, w = rng.integers(1, 7), rng.integers(1, 7)
        x = rng.standard_normal((c, h, w))
        kind = "max" if rng.integers(2) else "avg"
        got_s = ad.pool_spatial(Tensor(x), kind).data
        got_c = ad.pool_channel(Tensor(x), kind).data
        assert relative_error(got_s, pool_spatial_oracle(x, kind)) < 1e-5
        assert relative_error(got_c, pool_channel_oracle(x, kind)) < 1e-5
        checked["pooling"] += 1

    for _ in range(100):
        nf, nt = int(rng.integers(6, 20)), int(rng.integers(6, 20))
        pf = np.sort(rng.choice(nf, size=rng.integers(2, 5), replace=False))
        ptm = np.sort(rng.choice(nt, size=rng.integers(2, 5), replace=False))
        pat = PilotPattern(p_f=tuple(int(v) for v in pf), p_t=tuple(int(v) for v in ptm))
        hp = rng.standard_normal((len(pf), len(ptm))) + 1j * rng.standard_normal((len(pf), len(ptm)))
        got = interpolate_bilinear(hp, pat, OfdmConfig(n_f=nf, n_t=nt))
        want = bilinear_oracle(hp, pat.p_f, pat.p_t, nf, nt)
        assert np.max(np.abs(got - want)) < 1e-5
        checked["bilinear"] += 1

    assert all(v >= 100 for v in checked.values()), checked


# ---------------------------------------------------------------------------
# criterion 3: exactness
# ---------------------------------------------------------------------------


def test_c3_exactness():
    """Noiseless LS 1e-6; DFT unitary 1e-10; NMSE trivial values exact."""
    rng = np.random.default_rng(300)
    for prof_name in ("tdl-a", "tdl-d"):
        prof = load_tdl_profile(prof_name)
        h = generate_channel(prof, _CFG, np.random.default_rng(rng.integers(1 << 30)))
        obs = make_pilot_observation(h, _PAT, np.inf, np.random.default_rng(rng.integers(1 << 30)))
        got = ls_estimate(obs)
        err = np.max(np.abs(got - h[np.ix_(_PAT.p_f, _PAT.p_t)]))
        assert err < 1e-6, f"noiseless LS error {err:.2e} >= 1e-6 on {prof_name}"

    for n, m in ((4, 4), (16, 8), (64, 64), (128, 23)):
        f = dft_matrix(n, m)
        gram = f.conj().T @ f
        err = np.max(np.abs(gram - np.eye(m)))
        assert err < 1e-10, f"DFT {n}x{m} orthonormality error {err:.2e} >= 1e-10"

    h = (rng.standard_normal((8, 16, 4)) + 1j * rng.standard_normal((8, 16, 4)))
    assert nmse(h, h) == 0.0
    assert nmse(h, np.zeros_like(h)) == 1.0


# ---------------------------------------------------------------------------
# desk-scale protocol shared by criteria 4-6
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk():
    """4000-sample trainings at 10 dB: per-profile models, the continual pair,
    and the multi-task reference, plus their NMSE sweeps on 500-test splits."""
    t0 = time.time()
    prof_a = load_tdl_profile("tdl-a")
    prof_d = load_tdl_profile("tdl-d")
    tc = dict(batch_size=128, epochs=30, lr=1e-3, seed=0)

    train_a = generate_dataset(prof_a, _CFG, _PAT, _TRAIN_SNR, 4000, 0, DOMAIN_TRAIN)
    train_d = generate_dataset(prof_d, _CFG, _PAT, _TRAIN_SNR, 4000, 0, DOMAIN_TRAIN)

    base = init_params(init_rng(0))

    model_a = base.copy()
    train_task(model_a, train_a, RunConfig(**tc))
    model_d = base.copy()
    train_task(model_d, train_d, RunConfig(**tc))

    ls_est = ls_bilinear_estimator(_PAT, _CFG)
    sweeps = {}
    for prof, model in ((prof_a, model_a), (prof_d, model_d)):
        sweeps[prof.name] = {
            "model": sweep(model_estimator(model, _CFG), "model", [prof], _SNRS, 500, 0, _CFG, _PAT),
            "ls": sweep(ls_est, "ls", [prof], _SNRS, 500, 0, _CFG, _PAT),
        }
    c4_elapsed = time.time() - t0

    fisher = estimate_fisher(model_a, train_a, RunConfig(**tc), task="tdl-a")
    naive = model_a.copy()
    train_task(naive, train_d, RunConfig(lam=0.0, **tc), fisher)
    cl = model_a.copy()
    train_task(cl, train_d, RunConfig(lam=DEFAULT_EWC_LAMBDA, **tc), fisher)
    multi = base.copy()
    train_task(multi, concat_datasets([train_a, train_d]), RunConfig(**tc))

    def at10(params, profs, m_c):
        rep = sweep(model_estimator(params, _CFG), "x", profs, [_TRAIN_SNR], m_c, 0, _CFG, _PAT)
        return rep.nmse_db[0]

    db = {
        "post1_task1": at10(model_a, [prof_a], 500),
        "naive_task1": at10(naive, [prof_a], 500),
        "cl_task1": at10(cl, [prof_a], 500),
        "naive_mixed": at10(naive, [prof_a, prof_d], 500),
        "cl_mixed": at10(cl, [prof_a, prof_d], 500),
        "multi_mixed": at10(multi, [prof_a, prof_d], 500),
    }
    return {"sweeps": sweeps, "db": db, "c4_elapsed": c4_elapsed}


def test_c4_snr_trend_desk_scale(desk):
    """Model beats LS+bilinear at every SNR on both profiles; NMSE non-increasing
    within 0.3 dB per adjacent pair; protocol portion under 30 minutes."""
    for prof_name, reps in desk["sweeps"].items():
        model_db = reps["model"].nmse_db
        ls_db = reps["ls"].nmse_db
        for snr, m, l in zip(_SNRS, model_db, ls_db):
            assert m < l, f"{prof_name} @ {snr:g} dB: model {m:.2f} dB not below LS {l:.2f} dB"
        rises = np.diff(model_db)
        assert np.all(rises <= 0.3), \
            f"{prof_name}: NMSE rises {rises} dB exceed the 0.3 dB tolerance"
    assert desk["c4_elapsed"] <= 1800.0, f"took {desk['c4_elapsed']:.0f}s > 30 min"


def test_c5_catastrophic_forgetting(desk):
    """Naive sequential training loses >=3 dB on task I at 10 dB."""
    drop = desk["db"]["naive_task1"] - desk["db"]["post1_task1"]
    assert drop >= 3.0, f"task-I degradation {drop:.2f} dB < 3 dB"


def test_c6_cl_retention_ordering(desk):
    """Mixed set at 10 dB: multitask <= CL <= naive, >=1 dB CL/naive gap,
    CL task-I degradation < 3 dB."""
    db = desk["db"]
    assert db["multi_mixed"] <= db["cl_mixed"] <= db["naive_mixed"], (
        f"ordering violated: multitask {db['multi_mixed']:.2f}, "
        f"cl {db['cl_mixed']:.2f}, naive {db['naive_mixed']:.2f} dB")
    gap = db["naive_mixed"] - db["cl_mixed"]
    assert gap >= 1.0, f"CL/naive separation {gap:.2f} dB < 1 dB"
    cl_drop = db["cl_task1"] - db["post1_task1"]
    assert cl_drop < 3.0, f"CL task-I degradation {cl_drop:.2f} dB >= 3 dB"


# ---------------------------------------------------------------------------
# criterion 7: anchor-penalty algebra
# ---------------------------------------------------------------------------


def test_c7_ewc_algebra():
    """Zero at anchor; Fisher >= 0; lambda=0 bit-identical; lambda=1e12 pins
    high-Fisher parameters within 1e-3."""
    prof_a = load_tdl_profile("tdl-a")
    prof_d = load_tdl_profile("tdl-d")
    ds_a = generate_dataset(prof_a, _RCFG, _RPAT, _TRAIN_SNR, 16, 0, DOMAIN_TRAIN)
    ds_d = generate_dataset(prof_d, _RCFG, _RPAT, _TRAIN_SNR, 16, 0, DOMAIN_TRAIN)
    tc = dict(batch_size=8, epochs=8, lr=1e-3, seed=0)

    base = init_params(np.random.default_rng(7))
    train_task(base, ds_a, RunConfig(**tc))
    fisher = estimate_fisher(base, ds_a, RunConfig(**tc), task="one")

    assert ewc_loss(base, fisher, DEFAULT_EWC_LAMBDA).item() == 0.0
    assert all(np.all(f >= 0) for f in fisher.fisher.values())

    plain = base.copy()
    train_task(plain, ds_d, RunConfig(**tc))
    lam0 = base.copy()
    train_task(lam0, ds_d, RunConfig(lam=0.0, **tc), fisher)
    for n in plain.names():
        assert plain[n].data.tobytes() == lam0[n].data.tobytes(), n

    pinned = base.copy()
    train_task(pinned, ds_d, RunConfig(batch_size=8, epochs=20, lr=1e-4, seed=0, lam=1e12),
               fisher)
    worst = 0.0
    for n in pinned.names():
        f = fisher.fisher[n]
        hi = f > 1e-6 * max(float(np.max(f)), 1e-30)
        if np.any(hi):
            worst = max(worst, float(np.max(np.abs(pinned[n].data - fisher.anchor[n])[hi])))
    assert worst < 1e-3, f"high-Fisher drift {worst:.2e} >= 1e-3 at lambda=1e12"


# ---------------------------------------------------------------------------
# criterion 8: determinism
# ---------------------------------------------------------------------------


def test_c8_byte_identical_reruns(tmp_path, monkeypatch):
    """gen / train / eval rerun with the same seed: byte-identical artifacts."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.ini").write_text(
        "[train]\nepochs = 2\nbatch_size = 16\n\n[eval]\nsnr_list = 0, 10\nmc = 8\n")

    for tag in ("r1", "r2"):
        assert cli_main(["gen", "--config", "cfg.ini", "--profile", "tdl-a", "--snr", "10",
                         "--n", "32", "--seed", "11", "--out", f"{tag}.chds"]) == 0
        assert cli_main(["train", "--config", "cfg.ini", "--data", f"{tag}.chds",
                         "--seed", "11", "--out", f"train_{tag}"]) == 0
        assert cli_main(["eval", "--config", "cfg.ini", "--scheme", "model",
                         "--checkpoint", f"train_{tag}/checkpoint.dasr",
                         "--profile", "tdl-a", "--seed", "11",
                         "--out", f"eval_{tag}"]) == 0

    pairs = [
        ("r1.chds", "r2.chds"),
        ("train_r1/checkpoint.dasr", "train_r2/checkpoint.dasr"),
        ("train_r1/loss.csv", "train_r2/loss.csv"),
        ("eval_r1/report.csv", "eval_r2/report.csv"),
    ]
    for a, b in pairs:
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes(), f"{a} != {b}"


# ---------------------------------------------------------------------------
# criterion 9: channel statistics
# ---------------------------------------------------------------------------


def test_c9_channel_statistics():
    """Mean |H|^2 within +-5% of 1 over 1e4 realizations per profile;
    zero-Doppler channels exactly constant across time."""
    for prof_name in ("tdl-a", "tdl-d"):
        prof = load_tdl_profile(prof_name)
        acc = 0.0
        n = 10_000
        ss = np.random.SeedSequence(900 if prof_name == "tdl-a" else 901)
        for child in ss.spawn(n):
            rng = np.random.default_rng(child)
            h = generate_channel(prof, _CFG, rng)
            acc += float(np.mean(np.abs(h) ** 2))
        mean_power = acc / n
        assert abs(mean_power - 1.0) <= 0.05, \
            f"{prof_name}: mean |H|^2 = {mean_power:.4f} outside [0.95, 1.05]"

        static = TdlProfile(name=prof.name, taps=prof.taps, ds=prof.ds, f_d=0.0)
        h = generate_channel(static, _CFG, np.random.default_rng(902))
        assert np.array_equal(h, np.repeat(h[:, :1], _CFG.n_t, axis=1)), \
            f"{prof_name}: zero-Doppler channel varies across time"
