"""Training loops, Fisher estimation, anchor penalty, FISH files, loss CSV."""

import gc

import numpy as np
import pytest

import chansr.autodiff as ad
import chansr.training as training
from chansr.autodiff import Tensor
from chansr.channel import OfdmConfig, PilotPattern, load_tdl_profile
from chansr.config import RunConfig
from chansr.dataset import DOMAIN_TRAIN, generate_dataset, planes_from_complex
from chansr.model import ModelParams, PARAM_SPECS, forward, init_params, split_flat
from chansr.optim import Adam
from chansr.training import (FisherDiag, estimate_fisher, ewc_loss, fisher_diagonal,
                             load_fisher, save_fisher, train_task, write_loss_csv)
from oracles import ewc_graph_oracle

# reduced geometry: 27x10 grid, 3x2 pilots; the stride-(9,5) deconv from a
# 3x2 input lands exactly on 27x10, so every layer still participates
_CFG = OfdmConfig(n_f=27, n_t=10)
_PAT = PilotPattern.from_intervals(_CFG, 9, 5)


def _tiny_dataset(n=8, seed=0, profile="tdl-a"):
    return generate_dataset(load_tdl_profile(profile), _CFG, _PAT, 10.0, n,
                            seed=seed, domain=DOMAIN_TRAIN)


def _zero_params():
    return ModelParams({n: np.zeros(s, np.float32) for n, s in PARAM_SPECS})


def _fisher_like(params, fill=0.0):
    f = {n: np.full(params[n].data.shape, fill, np.float32) for n in params.names()}
    a = {n: params[n].data.copy() for n in params.names()}
    return f, a


def _random_fisher(seed):
    rng = np.random.default_rng(seed)
    return FisherDiag(fisher={n: rng.uniform(0, 1, s).astype(np.float32) for n, s in PARAM_SPECS},
                      anchor={n: rng.standard_normal(s).astype(np.float32) for n, s in PARAM_SPECS})


def _step_gradients(monkeypatch, params, ds, cfg, fisher=None):
    """The flat gradient that each Adam step of train_task is handed."""
    grads = []
    real_step = Adam.step

    def recording_step(self):
        grads.append(self.param.grad.copy())
        real_step(self)

    with monkeypatch.context() as m:
        m.setattr(Adam, "step", recording_step)
        train_task(params, ds, cfg, fisher)
    return grads


def test_zero_lr_leaves_parameters_unchanged():
    p = init_params(np.random.default_rng(0))
    before = {n: p[n].data.copy() for n in p.names()}
    trace = train_task(p, _tiny_dataset(4), RunConfig(batch_size=2, epochs=2, lr=0.0))
    assert len(trace) == 2
    for n in p.names():
        assert np.array_equal(p[n].data, before[n])


def test_single_sample_overfit():
    p = init_params(np.random.default_rng(1))
    ds = _tiny_dataset(1)
    trace = train_task(p, ds, RunConfig(batch_size=1, epochs=300, lr=1e-3, seed=1))
    assert trace[-1]["loss"] < 0.01 * trace[0]["loss"]


def test_training_deterministic_in_seed():
    ds = _tiny_dataset(6)
    cfg = RunConfig(batch_size=2, epochs=3, lr=1e-3, seed=4)
    p1 = init_params(np.random.default_rng(2))
    p2 = init_params(np.random.default_rng(2))
    t1 = train_task(p1, ds, cfg)
    t2 = train_task(p2, ds, cfg)
    assert t1 == t2
    for n in p1.names():
        assert np.array_equal(p1[n].data, p2[n].data)
    p3 = init_params(np.random.default_rng(2))
    train_task(p3, ds, RunConfig(batch_size=2, epochs=3, lr=1e-3, seed=5))
    assert any(not np.array_equal(p1[n].data, p3[n].data) for n in p1.names())


def test_fisher_diagonal_nonnegative_and_disconnected_zero():
    p = _zero_params()
    a = p["ca_conv2_b"]
    a.data[...] = [1.0, -2.0]

    def make(y):
        def f():
            return ad.mse_loss(a, Tensor(np.array(y, np.float32)))
        return f

    flat = fisher_diagonal(p.flat, [make([0.0, 0.0]), make([2.0, -2.0])])
    assert flat.shape == (p.flat.data.size,) and np.all(flat >= 0)
    diag = split_flat(flat)
    # only ca_conv2_b enters the loss, so every other importance is exactly zero
    assert all(not np.any(d) for n, d in diag.items() if n != "ca_conv2_b")
    # axis 0 is the batch, so loss_b = mean_i (a_i - y_bi)^2 and the
    # per-coordinate gradient is (a_i - y_bi); fisher = mean_b of its square
    g1, g2 = a.data - np.array([0.0, 0.0]), a.data - np.array([2.0, -2.0])
    assert np.allclose(diag["ca_conv2_b"], (g1 ** 2 + g2 ** 2) / 2, atol=1e-6)
    with pytest.raises(ValueError):
        fisher_diagonal(p.flat, [])


def test_estimate_fisher_deterministic_and_anchored():
    p = init_params(np.random.default_rng(3))
    ds = _tiny_dataset(6)
    cfg = RunConfig(batch_size=2, epochs=1)
    f1 = estimate_fisher(p, ds, cfg, task="t")
    f2 = estimate_fisher(p, ds, cfg, task="t")
    for n in p.names():
        assert np.array_equal(f1.fisher[n], f2.fisher[n])
        assert np.array_equal(f1.anchor[n], p[n].data)
        assert np.all(f1.fisher[n] >= 0)
        assert p[n].grad is None or not np.any(p[n].grad)
    assert f1.task == "t"
    assert any(np.any(f1.fisher[n] > 0) for n in p.names())
    # weights that overflow the gradients give no Fisher estimate at all
    huge = ModelParams({n: p[n].data * 1e10 for n in p.names()})
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
        estimate_fisher(huge, ds, cfg)


def test_ewc_loss_zero_at_anchor_and_closed_form():
    p = _zero_params()
    f, a = _fisher_like(p)
    fd = FisherDiag(fisher=f, anchor=a)
    assert ewc_loss(p, fd, 5.0).item() == 0.0
    # one active coordinate: F=1, theta-anchor=1, lam=1.5 -> 0.75
    f["sa_conv_b"][0] = 1.0
    p["sa_conv_b"].data[0] = 1.0
    fd = FisherDiag(fisher=f, anchor=a)
    assert ewc_loss(p, fd, 1.5).item() == pytest.approx(0.75, abs=1e-7)
    # two coordinates: lam/2 * (1*1^2 + 0.5*2^2) = 1.5 at lam=1
    f["fe_conv2_b"][2] = 0.5
    p["fe_conv2_b"].data[2] = -2.0
    fd = FisherDiag(fisher=f, anchor=a)
    assert ewc_loss(p, fd, 1.0).item() == pytest.approx(1.5, abs=1e-6)


def test_ewc_loss_gradient_formula(monkeypatch):
    # the gradient train_task adds to the reconstruction gradient is lam * F * (theta - anchor)
    p = init_params(np.random.default_rng(5))
    fd = _random_fisher(6)
    lam = 3.0
    ds = _tiny_dataset(2)
    cfg = dict(batch_size=2, epochs=1, clip_norm=0)
    plain = _step_gradients(monkeypatch, p.copy(), ds, RunConfig(**cfg))[0]
    with_penalty = _step_gradients(monkeypatch, p.copy(), ds, RunConfig(lam=lam, **cfg), fd)[0]
    f, a = (np.concatenate([named[n].ravel() for n, _ in PARAM_SPECS]) for named in (fd.fisher, fd.anchor))
    want = lam * f * (p.flat.data - a)
    assert np.allclose(with_penalty - plain, want, rtol=1e-4, atol=1e-6 * np.max(np.abs(plain)))


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_flat_penalty_matches_the_graph_oracle_bit_for_bit(monkeypatch, precision):
    ad.set_default_dtype(precision)
    dt = ad.default_dtype()
    p = init_params(np.random.default_rng(5))
    fd = _random_fisher(6)
    lam = 3.0
    graph_params = p.copy()
    penalty = ewc_graph_oracle(graph_params, fd, lam)
    value = ewc_loss(p, fd, lam)
    assert value.dtype == dt and value.shape == ()
    assert np.array_equal(value, penalty.data)

    # one unclipped step over one sample: the gradient Adam is handed equals the
    # graph's reconstruction-plus-penalty gradient, rounding included
    ds = _tiny_dataset(1)
    grads = _step_gradients(monkeypatch, p, ds, RunConfig(batch_size=1, epochs=1, lam=lam, clip_norm=0), fd)
    x, y = planes_from_complex(ds.h_ls, dtype=dt), planes_from_complex(ds.h_true, dtype=dt)
    loss_h = ad.mse_loss(forward(Tensor(x), graph_params, y.shape[-2:]), Tensor(y))
    ad.backward(ad.add(loss_h, penalty))
    assert len(grads) == 1
    assert np.array_equal(grads[0], graph_params.flat.grad)


def test_ewc_loss_rejects_mismatched_parameter_set():
    # a Fisher that does not match the model is refused when the FisherDiag is made
    p = init_params(np.random.default_rng(7))
    f, a = _fisher_like(p, 0.1)
    FisherDiag(fisher=f, anchor=a)
    bad = [
        ({k: v for k, v in f.items() if k != "sa_conv_b"}, a),
        (f, {k: v for k, v in a.items() if k != "sa_conv_b"}),
        ({**f, "extra": np.zeros(1, np.float32)}, a),
        ({**f, "sa_conv_b": np.zeros(2, np.float32)}, a),
        (f, {**a, "fe_conv2_w": np.zeros((16, 32), np.float32)}),
        ({**f, "sa_conv_b": np.array([np.nan], np.float32)}, a),
        (f, {**a, "sa_conv_b": np.array([np.inf], np.float32)}),
        ({**f, "sa_conv_b": np.array([-1.0], np.float32)}, a),
    ]
    for fisher, anchor in bad:
        with pytest.raises(ValueError):
            FisherDiag(fisher=fisher, anchor=anchor)


def test_lambda_zero_bit_identical_to_plain():
    ds2 = _tiny_dataset(6, seed=1, profile="tdl-d")
    base = init_params(np.random.default_rng(8))
    fisher = estimate_fisher(base, _tiny_dataset(6), RunConfig(batch_size=2))

    ref = base.copy()
    train_task(ref, ds2, RunConfig(batch_size=2, epochs=2, lr=1e-3, seed=2))

    p = base.copy()
    trace = train_task(p, ds2, RunConfig(batch_size=2, epochs=2, lr=1e-3, seed=2, lam=0.0), fisher)
    for n in p.names():
        assert p[n].data.tobytes() == ref[n].data.tobytes(), n
    assert "ewc_loss" not in trace[0]


def test_huge_lambda_pins_important_parameters():
    base = init_params(np.random.default_rng(9))
    ds1 = _tiny_dataset(8, seed=2)
    # settle on task 1 a little so the anchor has meaningful curvature
    train_task(base, ds1, RunConfig(batch_size=4, epochs=10, lr=1e-3, seed=3))
    fisher = estimate_fisher(base, ds1, RunConfig(batch_size=4), task="one")
    p = base.copy()
    trace = train_task(p, _tiny_dataset(8, seed=3, profile="tdl-d"),
                       RunConfig(batch_size=4, epochs=20, lr=1e-4, seed=4, lam=1e12), fisher)
    assert "ewc_loss" in trace[0] and "total_loss" in trace[0]
    moved = []
    for n in p.names():
        f = fisher.fisher[n]
        hi = f > 1e-6 * max(np.max(f), 1e-30)
        if np.any(hi):
            moved.append(np.max(np.abs(p[n].data - fisher.anchor[n])[hi]))
    assert moved and max(moved) < 1e-3


def test_fish_round_trip(tmp_path):
    p = init_params(np.random.default_rng(12))
    fd = estimate_fisher(p, _tiny_dataset(4), RunConfig(batch_size=2), task="tdl-a")
    f = tmp_path / "f.fish"
    save_fisher(fd, f)
    back = load_fisher(f)
    assert back.task == "tdl-a"
    for n in p.names():
        assert np.array_equal(back.fisher[n], fd.fisher[n])
        assert np.array_equal(back.anchor[n], fd.anchor[n])
    bad = tmp_path / "bad.fish"
    bad.write_bytes(b"NOPE" + f.read_bytes()[4:])
    with pytest.raises(ValueError):
        load_fisher(bad)


def test_loss_csv_format(tmp_path):
    plain = [{"epoch": 0, "loss": 1.5}, {"epoch": 1, "loss": 0.25}]
    f = tmp_path / "loss.csv"
    write_loss_csv(f, plain)
    lines = f.read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert lines[1] == "0,1.5000000000e+00"
    assert len(lines) == 3

    ewc = [{"epoch": 0, "loss": 1.0, "ewc_loss": 0.5, "total_loss": 1.5}]
    g = tmp_path / "loss2.csv"
    write_loss_csv(g, ewc)
    lines = g.read_text().splitlines()
    assert lines[0] == "epoch,loss,ewc_loss,total_loss"
    assert lines[1] == "0,1.0000000000e+00,5.0000000000e-01,1.5000000000e+00"
    with pytest.raises(ValueError):
        write_loss_csv(tmp_path / "empty.csv", [])


def _live_tensors():
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


def test_each_step_frees_the_previous_graph_before_its_forward(monkeypatch):
    # at the start of every forward only the parameters and this batch's x and y are alive:
    # the previous step's graph (activations, gradients, penalty terms) is already freed,
    # by refcount alone, since the cycle collector is off
    p = init_params(np.random.default_rng(6))
    ds = _tiny_dataset(6)
    cfg = RunConfig(batch_size=2, epochs=2, seed=1)
    counts = []
    real_forward = training.forward

    def counting_forward(*args, **kwargs):
        counts.append(_live_tensors())
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", counting_forward)
    gc.collect()
    gc.disable()
    try:
        base = _live_tensors()
        train_task(p, ds, cfg)
        fd = estimate_fisher(p, ds, cfg)
        train_task(p, ds, RunConfig(batch_size=2, epochs=2, seed=2, lam=10.0), fd)
    finally:
        gc.enable()
    assert len(counts) == 3 * 2 + 3 + 3 * 2
    assert counts == [base + 2] * len(counts)
