"""Channel synthesis, pilot observation, LS estimation, interpolation, DFT."""

import numpy as np
import pytest

from chansr.channel import (OfdmConfig, PilotPattern, Tap, TdlProfile, dft_matrix,
                            doppler_from_speed, generate_channel, interpolate_bilinear,
                            load_tdl_profile, ls_estimate, make_pilot_observation)

from oracles import bilinear_oracle


def _cfg(**kw):
    return OfdmConfig(**kw)


def _static_profile(taps):
    return TdlProfile(name="custom", taps=taps, ds=100e-9, f_d=0.0)


def _tap(delay, power, k=None):
    return Tap(delay=delay, power_db=10 * np.log10(power), power=power, rician_k_db=k)


def test_builtin_tdl_a_all_rayleigh():
    p = load_tdl_profile("TDL-A")
    assert len(p.taps) == 23
    assert all(not t.is_rician for t in p.taps)
    assert sum(t.power for t in p.taps) == pytest.approx(1.0, abs=1e-9)


def test_builtin_tdl_d_first_tap_rician():
    p = load_tdl_profile("tdl-d")
    assert p.taps[0].is_rician
    assert p.taps[0].rician_k_db == pytest.approx(13.3)
    assert all(not t.is_rician for t in p.taps[1:])
    assert sum(t.power for t in p.taps) == pytest.approx(1.0, abs=1e-9)
    # the LOS tap carries nearly all of the power
    assert p.taps[0].power > 0.9


def test_custom_profile_normalization(tmp_path):
    f = tmp_path / "two_tap.txt"
    f.write_text("# two equal taps\n0.0 0.0 rayleigh\n1.0 0.0 rayleigh\n")
    p = load_tdl_profile(str(f))
    assert [t.power for t in p.taps] == pytest.approx([0.5, 0.5])


def test_malformed_profile_rejected(tmp_path):
    for text in ("0.0 0.0\n", "0.0 inf rayleigh\n", "0.0 0.0 weird\n", "0.0 0.0 rician:x\n", ""):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        with pytest.raises(ValueError):
            load_tdl_profile(str(f))
    with pytest.raises(ValueError):
        load_tdl_profile("tdl-z")


def test_default_doppler_from_constants():
    # 50 km/h at 2 GHz
    f_d = doppler_from_speed(50.0, 2e9)
    assert f_d == pytest.approx((50 / 3.6) * 2e9 / 299792458.0)
    assert load_tdl_profile("tdl-a").f_d == pytest.approx(f_d)


def test_flat_static_channel_is_constant():
    prof = _static_profile((_tap(0.0, 1.0),))
    h = generate_channel(prof, _cfg(), np.random.default_rng(0))
    assert h.shape == (128, 28)
    assert np.allclose(h, h[0, 0])


def test_doppler_free_channel_time_constant_exactly():
    prof = TdlProfile(name="x", taps=load_tdl_profile("tdl-a").taps, ds=100e-9, f_d=0.0)
    h = generate_channel(prof, _cfg(), np.random.default_rng(1))
    assert np.array_equal(h, np.repeat(h[:, :1], 28, axis=1))


def test_two_tap_closed_form_response():
    cfg = _cfg()
    tau1 = 1.0 / (cfg.n_f * cfg.delta_f)
    prof = _static_profile((_tap(0.0, 0.5), Tap(delay=tau1 / 100e-9, power_db=-3.0, power=0.5)))
    h = generate_channel(prof, cfg, np.random.default_rng(2))
    col = h[:, 0]
    # solve H[k] = a + b e^{-j2pi k/N_f} from the first two entries, verify all k
    r = np.exp(-2j * np.pi / cfg.n_f)
    b = (col[1] - col[0]) / (r - 1)
    a = col[0] - b
    k = np.arange(cfg.n_f)
    want = a + b * np.exp(-2j * np.pi * k / cfg.n_f)
    assert np.allclose(col, want, atol=1e-10)


def test_mean_channel_power_is_unit():
    prof = load_tdl_profile("tdl-a")
    cfg = _cfg(n_f=32, n_t=8)
    acc = 0.0
    n = 400
    for i in range(n):
        h = generate_channel(prof, cfg, np.random.default_rng(100 + i))
        acc += np.mean(np.abs(h) ** 2)
    assert acc / n == pytest.approx(1.0, rel=0.05)


def test_same_seed_bit_identical_different_seed_decorrelated():
    prof = load_tdl_profile("tdl-a")
    cfg = _cfg(n_f=16, n_t=4)
    h1 = generate_channel(prof, cfg, np.random.default_rng(7))
    h2 = generate_channel(prof, cfg, np.random.default_rng(7))
    assert np.array_equal(h1, h2)
    # grid entries within one realization are dependent, so correlate one
    # scalar per realization across seeds
    a = np.array([generate_channel(prof, cfg, np.random.default_rng(2 * i))[0, 0]
                  for i in range(400)])
    b = np.array([generate_channel(prof, cfg, np.random.default_rng(2 * i + 1))[0, 0]
                  for i in range(400)])
    rho = np.corrcoef(a.real, b.real)[0, 1]
    assert abs(rho) < 0.15


def test_nonfinite_phase_rejected():
    prof = TdlProfile(name="x", taps=(_tap(np.inf, 1.0),), ds=1.0, f_d=0.0)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        generate_channel(prof, _cfg(), np.random.default_rng(0))


def test_pilot_pattern_lattice_shapes():
    pat = PilotPattern.from_intervals(_cfg(), 9, 5)
    assert pat.n_fp == 15 and pat.n_tp == 6
    assert pat.p_f[0] == 0 and pat.p_t[0] == 0
    with pytest.raises(ValueError):
        PilotPattern(p_f=(3, 1), p_t=(0,))


def test_pilot_observation_shapes_and_noiseless():
    cfg = _cfg()
    pat = PilotPattern.from_intervals(cfg)
    h = generate_channel(load_tdl_profile("tdl-a"), cfg, np.random.default_rng(3))
    obs = make_pilot_observation(h, pat, np.inf, np.random.default_rng(4))
    assert obs.s_p.shape == (15, 6) and obs.y_p.shape == (15, 6)
    assert np.allclose(np.abs(obs.s_p), 1.0)
    h_p = h[np.ix_(pat.p_f, pat.p_t)]
    assert np.array_equal(obs.y_p, obs.s_p * h_p)


def test_noise_power_matches_snr():
    cfg = _cfg(n_f=16, n_t=4)
    pat = PilotPattern.from_intervals(cfg, 3, 1)
    h = np.ones((16, 4), complex)
    for snr, rel in ((0.0, 0.02), (10.0, 0.02)):
        rng = np.random.default_rng(11)
        acc, count = 0.0, 0
        for _ in range(300):
            obs = make_pilot_observation(h, pat, snr, rng)
            w = obs.y_p - obs.s_p * h[np.ix_(pat.p_f, pat.p_t)]
            acc += np.sum(np.abs(w) ** 2)
            count += w.size
        assert acc / count == pytest.approx(10 ** (-snr / 10), rel=rel)


def test_ls_estimate_inverts_noiseless_observation():
    cfg = _cfg()
    pat = PilotPattern.from_intervals(cfg)
    h = generate_channel(load_tdl_profile("tdl-d"), cfg, np.random.default_rng(5))
    obs = make_pilot_observation(h, pat, np.inf, np.random.default_rng(6))
    before = {k: np.copy(v) for k, v in vars(obs).items()}
    got = ls_estimate(obs)
    assert vars(obs).keys() == before.keys()
    assert all(np.array_equal(getattr(obs, k), v) for k, v in before.items())
    assert np.allclose(got, h[np.ix_(pat.p_f, pat.p_t)], atol=1e-6)


def test_ls_identity_pilots_and_oracle():
    obs = make_pilot_observation(np.ones((4, 4), complex),
                                 PilotPattern(p_f=(0, 2), p_t=(0, 2)), 5.0,
                                 np.random.default_rng(8))
    obs.s_p = np.ones_like(obs.s_p)
    assert np.array_equal(ls_estimate(obs), obs.y_p)
    rng = np.random.default_rng(9)
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    s = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2)))
    obs.y_p, obs.s_p = y, s
    got = ls_estimate(obs)
    for i in range(2):
        for j in range(2):
            assert got[i, j] == y[i, j] / s[i, j]
    obs.s_p = np.zeros_like(s)
    with pytest.raises(ValueError):
        ls_estimate(obs)


def test_bilinear_constant_and_linear_fields():
    cfg = _cfg(n_f=16, n_t=8)
    pat = PilotPattern.from_intervals(cfg, 5, 3)
    c = 2.0 - 1.0j
    full = interpolate_bilinear(np.full((pat.n_fp, pat.n_tp), c), pat, cfg)
    assert np.allclose(full, c, atol=1e-6)
    h_p = np.asarray(pat.p_f, float)[:, None] * np.ones((1, pat.n_tp))
    full = interpolate_bilinear(h_p.astype(complex), pat, cfg)
    want = np.arange(16.0)[:, None] * np.ones((1, 8))
    assert np.allclose(full, want, atol=1e-6)


def test_bilinear_matches_two_pass_oracle():
    rng = np.random.default_rng(10)
    cfg = _cfg(n_f=14, n_t=9)
    pat = PilotPattern.from_intervals(cfg, 4, 3)
    for _ in range(25):
        h_p = rng.standard_normal((pat.n_fp, pat.n_tp)) + 1j * rng.standard_normal((pat.n_fp, pat.n_tp))
        got = interpolate_bilinear(h_p, pat, cfg)
        want = bilinear_oracle(h_p, pat.p_f, pat.p_t, cfg.n_f, cfg.n_t)
        assert np.allclose(got, want, atol=1e-10)


def test_bilinear_rejects_single_pilot_dimension():
    cfg = _cfg(n_f=8, n_t=8)
    with pytest.raises(ValueError):
        interpolate_bilinear(np.ones((1, 2), complex), PilotPattern(p_f=(0,), p_t=(0, 4)), cfg)


def test_dft_matrix_unitary_and_two_point():
    f = dft_matrix(8, 8)
    assert np.max(np.abs(f @ f.conj().T - np.eye(8))) < 1e-10
    f2 = dft_matrix(2, 2)
    assert np.allclose(f2, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    with pytest.raises(ValueError):
        dft_matrix(4, 5)


def test_channel_matches_dft_construction_on_sampling_grid():
    # taps on the delay sampling grid l/(N_f df): H column = sqrt(N_f) * F[:, :L] @ alpha
    cfg = _cfg(n_f=32, n_t=2)
    ds = 1.0 / (cfg.n_f * cfg.delta_f)
    taps = (Tap(delay=0.0, power_db=0.0, power=0.5, rician_k_db=None),
            Tap(delay=3.0, power_db=0.0, power=0.3, rician_k_db=None),
            Tap(delay=7.0, power_db=0.0, power=0.2, rician_k_db=None))
    prof = TdlProfile(name="grid", taps=taps, ds=ds, f_d=0.0)
    h = generate_channel(prof, cfg, np.random.default_rng(12))
    F = dft_matrix(cfg.n_f, 8)
    alpha = F.conj().T @ h[:, 0] / np.sqrt(cfg.n_f)
    assert np.allclose(np.sqrt(cfg.n_f) * (F @ alpha), h[:, 0], atol=1e-6)
    # energy confined to the tap delays
    assert np.allclose(np.abs(alpha[[1, 2, 4, 5, 6]]), 0.0, atol=1e-9)


def test_baseline_nmse_invariant_to_global_phase():
    cfg = _cfg(n_f=16, n_t=8)
    pat = PilotPattern.from_intervals(cfg, 5, 3)
    prof = load_tdl_profile("tdl-a")
    h = generate_channel(prof, cfg, np.random.default_rng(13))
    rot = np.exp(1j * 0.813)

    def baseline_err(hh, rng):
        # noiseless: the LS + bilinear chain is linear in H, so the
        # relative interpolation error is exactly phase invariant
        obs = make_pilot_observation(hh, pat, np.inf, rng)
        est = interpolate_bilinear(ls_estimate(obs), pat, cfg)
        return np.linalg.norm(hh - est) ** 2 / np.linalg.norm(hh) ** 2

    e1 = baseline_err(h, np.random.default_rng(14))
    e2 = baseline_err(h * rot, np.random.default_rng(14))
    assert e1 == pytest.approx(e2, rel=1e-9)
