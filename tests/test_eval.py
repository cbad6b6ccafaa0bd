"""NMSE metric, SNR sweeps, the four-scheme forgetting report, report CSV."""

import numpy as np
import pytest

import chansr.dataset
from chansr.channel import OfdmConfig, PilotPattern, interpolate_bilinear, load_tdl_profile
from chansr.dataset import DOMAIN_TEST, generate_dataset
from chansr.evaluate import (EvalReport, forgetting_report, ls_bilinear_estimator,
                             model_estimator, nmse, sweep, to_db, write_report_csv)
from chansr.model import init_params

_CFG = OfdmConfig(n_f=27, n_t=10)
_PAT = PilotPattern.from_intervals(_CFG, 9, 5)


def test_nmse_trivial_cases():
    h = np.ones((3, 4, 4), complex)
    assert nmse(h, h) == 0.0
    assert nmse(h, np.zeros_like(h)) == 1.0
    # per-sample normalization: [error 0, error 1] averages to 0.5
    truth = np.stack([np.ones((2, 2)), np.ones((2, 2))]).astype(complex)
    est = np.stack([np.ones((2, 2)), np.zeros((2, 2))]).astype(complex)
    assert nmse(truth, est) == pytest.approx(0.5)


def test_nmse_errors():
    h = np.ones((2, 3, 3), complex)
    with pytest.raises(ValueError):
        nmse(h, h[:, :2])
    with pytest.raises(ValueError):
        nmse(h[:0], h[:0])
    bad = h.copy()
    bad[1] = 0
    with pytest.raises(ValueError):
        nmse(bad, h)
    # an estimate that overflowed or holds NaN gives no NMSE, not an inf or nan one
    for value in (np.inf, np.nan):
        est = h.copy()
        est[0, 0, 0] = value
        with pytest.raises(FloatingPointError, match="non-finite NMSE"):
            nmse(h, est)


def test_nmse_scale_invariance_and_quadratic_error():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((5, 6, 4)) + 1j * rng.standard_normal((5, 6, 4))
    e = rng.standard_normal((5, 6, 4)) + 1j * rng.standard_normal((5, 6, 4))
    v = nmse(h, h + e)
    # scaling truth and estimate together leaves NMSE unchanged
    assert nmse(3.0 * h, 3.0 * (h + e)) == pytest.approx(v, rel=1e-12)
    # halving the error field quarters the NMSE
    assert nmse(h, h + 0.5 * e) == pytest.approx(v / 4, rel=1e-12)
    assert to_db(1.0) == 0.0
    assert to_db(0.1) == pytest.approx(-10.0)


def _whole_set_nmse(truth, est):
    """The NMSE as one reduction over the concatenated sets, without slicing."""
    truth, est = np.concatenate(truth), np.concatenate(est)
    return float(np.mean(np.sum(np.abs(truth - est) ** 2, axis=(1, 2)) / np.sum(np.abs(truth) ** 2, axis=(1, 2))))


@pytest.mark.parametrize("shape", [(27, 10), (128, 28)])
def test_block_nmse_equals_array_nmse_bit_for_bit(shape):
    # 300 samples per block: more than one scoring slice and not a multiple of it
    rng = np.random.default_rng(4)

    def grids(dtype):
        return (rng.standard_normal((300, *shape)) + 1j * rng.standard_normal((300, *shape))).astype(dtype)

    truth = [grids(np.complex64), grids(np.complex64)]
    for est_dtype in (np.complex64, np.complex128):  # the model's and the LS estimator's output
        est = [t + 0.3 * grids(est_dtype) for t in truth]
        whole = _whole_set_nmse(truth, est)
        assert nmse(np.concatenate(truth), np.concatenate(est)) == whole
        assert nmse(truth, est) == whole
        assert nmse(truth, est, [np.sum(np.abs(t) ** 2, axis=(1, 2)) for t in truth]) == whole
        assert nmse(truth[0], est[0]) == _whole_set_nmse(truth[:1], est[:1])
    with pytest.raises(ValueError, match="block counts"):
        nmse(truth, est[:1])
    with pytest.raises(ValueError, match="block counts"):
        nmse([], [])


def test_ls_estimator_keeps_the_stacked_grids_bytes():
    est = ls_bilinear_estimator(_PAT, _CFG)
    rng = np.random.default_rng(3)
    for dtype in (np.complex64, np.complex128):
        h_ls = (rng.standard_normal((7, _PAT.n_fp, _PAT.n_tp))
                + 1j * rng.standard_normal((7, _PAT.n_fp, _PAT.n_tp))).astype(dtype)
        want = np.stack([interpolate_bilinear(h, _PAT, _CFG) for h in h_ls])
        got = est(h_ls)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_ls_bilinear_noiseless_flat_channel_is_exact():
    est = ls_bilinear_estimator(_PAT, _CFG)
    h_ls = np.full((3, _PAT.n_fp, _PAT.n_tp), 2.0 - 1.0j, np.complex64)
    out = est(h_ls)
    assert out.shape == (3, 27, 10)
    assert np.max(np.abs(out - (2.0 - 1.0j))) < 1e-6


def test_model_estimator_shapes_and_chunking_consistency():
    params = init_params(np.random.default_rng(1))
    est = model_estimator(params, _CFG)
    rng = np.random.default_rng(2)
    h_ls = (rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))).astype(np.complex64)
    out = est(h_ls)
    assert out.shape == (5, 27, 10) and out.dtype == np.complex64
    # chunk boundaries must not change results: compare against per-sample calls
    singles = np.concatenate([est(h_ls[i:i + 1]) for i in range(5)])
    assert np.allclose(out, singles, atol=1e-6)
    # ablated estimator differs once attention weights differ
    alt = init_params(np.random.default_rng(1))
    alt["ca_conv1_w"].data[...] += 0.5
    assert np.array_equal(model_estimator(alt, _CFG, bypass_attention=True)(h_ls),
                          model_estimator(params, _CFG, bypass_attention=True)(h_ls))


def test_sweep_deterministic_report():
    prof = load_tdl_profile("tdl-a")
    est = ls_bilinear_estimator(_PAT, _CFG)
    r1 = sweep(est, "ls", [prof], [0.0, 10.0], 6, 7, _CFG, _PAT)
    r2 = sweep(est, "ls", [prof], [0.0, 10.0], 6, 7, _CFG, _PAT)
    assert r1 == r2
    assert r1.scheme == "ls" and r1.profile == "tdl-a"
    assert r1.snr_db == [0.0, 10.0] and r1.mc == 6 and r1.seed == 7
    assert len(r1.nmse_linear) == 2
    # more noise means more error for the linear baseline
    assert r1.nmse_linear[0] > r1.nmse_linear[1] > 0
    rows = list(r1.rows())
    assert len(rows) == 2 and rows[0][0] == "ls"


def test_sweep_mixed_profiles_and_mc_validation():
    profs = [load_tdl_profile("tdl-a"), load_tdl_profile("tdl-d")]
    est = ls_bilinear_estimator(_PAT, _CFG)
    rep = sweep(est, "ls", profs, [10.0], 6, 0, _CFG, _PAT)
    assert rep.profile == "tdl-a+tdl-d"
    with pytest.raises(ValueError):
        sweep(est, "ls", profs, [10.0], 5, 0, _CFG, _PAT)
    with pytest.raises(ValueError):
        sweep(est, "ls", profs, [10.0], 0, 0, _CFG, _PAT)
    with pytest.raises(ValueError, match="at least one profile"):
        sweep(est, "ls", [], [10.0], 6, 0, _CFG, _PAT)


def test_mixed_sweep_equals_nmse_on_regenerated_sets():
    profs = [load_tdl_profile("tdl-a"), load_tdl_profile("tdl-d")]
    snrs = [0.0, 7.5, np.inf]
    for est in (ls_bilinear_estimator(_PAT, _CFG), model_estimator(init_params(np.random.default_rng(1)), _CFG)):
        rep = sweep(est, "x", profs, snrs, 10, 3, _CFG, _PAT)  # 5 samples per profile
        for snr, got in zip(snrs, rep.nmse_linear):
            sets = [generate_dataset(p, _CFG, _PAT, snr, 5, 3, DOMAIN_TEST) for p in profs]
            truth, estimates = [ds.h_true for ds in sets], [est(ds.h_ls) for ds in sets]
            assert got == nmse(np.concatenate(truth), np.concatenate(estimates))
            assert got == _whole_set_nmse(truth, estimates)


def test_mixed_sweep_keeps_the_nmse_checks():
    profs = [load_tdl_profile("tdl-a"), load_tdl_profile("tdl-d")]
    ls = ls_bilinear_estimator(_PAT, _CFG)

    def run(bad):
        return sweep(bad, "x", profs, [0.0, 10.0], 6, 0, _CFG, _PAT)

    with pytest.raises(ValueError, match="equal-length nonempty"):
        run(lambda h_ls: ls(h_ls)[:, :-1])
    with pytest.raises(ValueError, match="equal-length nonempty"):
        run(lambda h_ls: ls(h_ls)[:0])
    calls = []

    def nan_in_second_profile(h_ls):
        calls.append(None)
        est = ls(h_ls)
        if len(calls) % 2 == 0:
            est[0, 0, 0] = np.nan
        return est

    for bad in (nan_in_second_profile, lambda h_ls: np.full_like(ls(h_ls), np.nan)):
        with pytest.raises(FloatingPointError, match="non-finite NMSE"):
            run(bad)


def test_forgetting_report_rows_and_delta():
    est = ls_bilinear_estimator(_PAT, _CFG)
    schemes = {k: est for k in ("post_task1", "naive_seq", "cl", "multitask")}
    p1, p2 = load_tdl_profile("tdl-a"), load_tdl_profile("tdl-d")
    rows = forgetting_report(schemes, p1, p2, [0.0, 10.0], 4, 3, _CFG, _PAT)
    # 4 schemes x 3 eval sets x 2 SNRs + 2 delta rows
    assert len(rows) == 26
    sets = {r[1] for r in rows}
    assert sets == {"task1", "task2", "mixed"}
    deltas = [r for r in rows if r[0] == "delta_naive_minus_cl"]
    assert len(deltas) == 2
    # identical estimators: the naive-vs-CL retention gap is exactly zero
    for d in deltas:
        assert d[4] == pytest.approx(0.0, abs=1e-9)
    mixed_mc = {r[5] for r in rows if r[1] == "mixed"}
    assert mixed_mc == {8}
    with pytest.raises(ValueError):
        forgetting_report({"cl": est}, p1, p2, [0.0], 2, 0, _CFG, _PAT)


def test_forgetting_report_keeps_the_nmse_checks():
    p1, p2 = load_tdl_profile("tdl-a"), load_tdl_profile("tdl-d")
    ls = ls_bilinear_estimator(_PAT, _CFG)

    def report(bad):
        schemes = {"post_task1": ls, "naive_seq": ls, "cl": bad, "multitask": ls}
        return forgetting_report(schemes, p1, p2, [0.0, 10.0], 3, 0, _CFG, _PAT)

    with pytest.raises(ValueError, match="equal-length nonempty"):
        report(lambda h_ls: ls(h_ls)[:, :-1])
    with pytest.raises(ValueError, match="equal-length nonempty"):
        report(lambda h_ls: ls(h_ls)[:0])

    calls = []

    def nan_in_task2(h_ls):  # the report estimates task1 then task2 at each SNR
        calls.append(None)
        est = ls(h_ls)
        if len(calls) % 2 == 0:
            est[0, 0, 0] = np.nan
        return est

    for bad in (nan_in_task2, lambda h_ls: np.full_like(ls(h_ls), np.nan)):
        with pytest.raises(FloatingPointError, match="non-finite NMSE"):
            report(bad)


def _four_schemes():
    ls = ls_bilinear_estimator(_PAT, _CFG)
    return {"post_task1": model_estimator(init_params(np.random.default_rng(1)), _CFG), "naive_seq": ls,
            "cl": model_estimator(init_params(np.random.default_rng(2)), _CFG), "multitask": ls}


def _regenerated_report(schemes, p1, p2, snrs, m_c, seed):
    """Forgetting rows with every set generated afresh per scheme, eval set and SNR."""
    rows, task1_db = [], {}
    for label in ("post_task1", "naive_seq", "cl", "multitask"):
        for name, profs in (("task1", [p1]), ("task2", [p2]), ("mixed", [p1, p2])):
            dbs = []
            for snr in snrs:
                sets = [generate_dataset(p, _CFG, _PAT, snr, m_c, seed, DOMAIN_TEST) for p in profs]
                lin = nmse(np.concatenate([ds.h_true for ds in sets]),
                           np.concatenate([schemes[label](ds.h_ls) for ds in sets]))
                dbs.append(to_db(lin))
                rows.append([label, name, snr, lin, dbs[-1], m_c * len(profs), seed])
            if name == "task1":
                task1_db[label] = dbs
    for i, snr in enumerate(snrs):
        d = task1_db["naive_seq"][i] - task1_db["cl"][i]
        rows.append(["delta_naive_minus_cl", "task1", snr, 10.0 ** (d / 10.0), d, m_c, seed])
    return rows


def test_forgetting_report_equals_regenerated_sets():
    schemes = _four_schemes()
    p1, p2 = load_tdl_profile("tdl-a"), load_tdl_profile("tdl-d")
    snrs = [0.0, 7.5, np.inf]
    assert forgetting_report(schemes, p1, p2, snrs, 5, 3, _CFG, _PAT) == \
        _regenerated_report(schemes, p1, p2, snrs, 5, 3)


def test_evaluation_draws_each_sample_once(monkeypatch):
    opened = []
    real_rng = chansr.dataset.sample_rng

    def counting_rng(*key):
        opened.append(key)
        return real_rng(*key)

    monkeypatch.setattr(chansr.dataset, "sample_rng", counting_rng)
    calls = {}

    def counting(label, est):
        def wrapped(h_ls):
            calls[label] = calls.get(label, 0) + 1
            return est(h_ls)
        return wrapped

    schemes = {k: counting(k, est) for k, est in _four_schemes().items()}
    p1, p2 = load_tdl_profile("tdl-a"), load_tdl_profile("tdl-d")
    snrs = [0.0, 10.0, 20.0]
    forgetting_report(schemes, p1, p2, snrs, 4, 3, _CFG, _PAT)
    assert calls == {k: 2 * len(snrs) for k in schemes}
    assert len(opened) == 2 * 4 and len(set(opened)) == 2 * 4
    opened.clear()
    sweep(ls_bilinear_estimator(_PAT, _CFG), "ls", [p1], snrs, 6, 7, _CFG, _PAT)
    assert len(opened) == 6
    # a mixed sweep: one estimator call per profile and SNR, one stream per sample
    opened.clear()
    calls.clear()
    sweep(counting("ls", ls_bilinear_estimator(_PAT, _CFG)), "ls", [p1, p2], snrs, 6, 7, _CFG, _PAT)
    assert calls == {"ls": 2 * len(snrs)}
    assert len(opened) == 6 and len(set(opened)) == 6


def test_report_csv_bytes_stable(tmp_path):
    rep = EvalReport(scheme="ls", profile="tdl-a", snr_db=[0.0, 15.0],
                     nmse_linear=[0.5, 0.03125], nmse_db=[to_db(0.5), to_db(0.03125)],
                     mc=10, seed=1)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(f1, list(rep.rows()))
    write_report_csv(f2, list(rep.rows()))
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0] == "scheme,profile,snr_db,nmse_linear,nmse_db,mc,seed"
    assert lines[1] == "ls,tdl-a,0,5.0000000000e-01,-3.0102999566e+00,10,1"
    assert lines[2].startswith("ls,tdl-a,15,3.1250000000e-02,")
