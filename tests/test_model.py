"""Network wiring, initialization, and checkpoint file format."""

import numpy as np
import pytest

import chansr.autodiff as ad
from chansr.autodiff import Tensor
from chansr.model import (DASR_MAGIC, PARAM_COUNT, PARAM_SPECS, ModelParams,
                          channel_attention, feature_extract, forward, init_params, init_rng,
                          load_params, read_records, save_params, spatial_attention, split_flat,
                          upsample, write_records)
from chansr.optim import Adam


def _params(seed=0):
    return init_params(np.random.default_rng(seed))


def _x(rng, shape=(1, 2, 15, 6)):
    return Tensor(rng.standard_normal(shape).astype(np.float32))


def test_parameter_budget():
    assert PARAM_COUNT == 8599
    by_hand = (16 * 2 * 9 + 16) + (2 * 16 * 9 + 2) + (1 * 2 * 49 + 1) + \
              (32 * 2 * 25 + 32) + (16 * 32 + 16) + (16 * 16 * 9 + 16) + \
              (32 * 16 + 32) + (32 * 2 * 45 + 2)
    assert PARAM_COUNT == by_hand
    assert _params().flat.data.shape == (8599,)


def test_init_deterministic_zero_bias_he_bound():
    a, b = _params(3), _params(3)
    for n in a.names():
        assert np.array_equal(a[n].data, b[n].data)
    assert not np.array_equal(_params(4)["fe_conv1_w"].data, a["fe_conv1_w"].data)
    for name, shape in PARAM_SPECS:
        arr = a[name].data
        assert arr.shape == shape
        if name.endswith("_b"):
            assert np.all(arr == 0)
            continue
        fan_in = shape[0] if name == "us_deconv_w" else int(np.prod(shape[1:]))
        bound = np.sqrt(6.0 / fan_in)
        assert np.max(np.abs(arr)) <= bound
        if arr.size >= 400:  # uniform(-b, b) has variance b^2/3 = 2/fan_in
            assert np.var(arr) == pytest.approx(2.0 / fan_in, rel=0.25)


def test_params_registry_validation():
    arrays = {n: np.zeros(s, np.float32) for n, s in PARAM_SPECS}
    ModelParams(arrays)
    with pytest.raises(ValueError):
        ModelParams({k: v for k, v in arrays.items() if k != "sa_conv_b"})
    with pytest.raises(ValueError):
        ModelParams({**arrays, "extra": np.zeros(1, np.float32)})
    with pytest.raises(ValueError):
        ModelParams({**arrays, "sa_conv_b": np.zeros(2, np.float32)})
    bad = {**arrays, "sa_conv_b": np.array([np.nan], np.float32)}
    with pytest.raises(ValueError):
        ModelParams(bad)
    # finite in float64, infinite in the float32 the parameters are stored in
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        ModelParams({**arrays, "sa_conv_b": np.array([1e39])})
    p = _params()
    assert list(p.names()) == [n for n, _ in PARAM_SPECS]
    q = p.copy()
    q["fe_conv1_w"].data[0, 0, 0, 0] += 1.0
    assert p["fe_conv1_w"].data[0, 0, 0, 0] != q["fe_conv1_w"].data[0, 0, 0, 0]


def test_params_copy_keeps_dtype_and_bytes_across_a_default_switch():
    ad.set_default_dtype("f64")
    p = _params(12)
    ad.set_default_dtype("f32")
    before = p.flat.data.tobytes()
    q = p.copy()
    assert q.flat.dtype == np.float64 and q["fe_conv1_w"].dtype == np.float64
    assert q.flat.data.tobytes() == before
    q["fe_conv1_w"].data[...] += 1.0
    assert p.flat.data.tobytes() == before


def test_backward_adam_and_zero_grad_act_on_the_flat_vector():
    p = _params()

    def views_shared():
        return all(np.shares_memory(p[n].data, p.flat.data) and np.shares_memory(p[n].grad, p.flat.grad)
                   for n in p.names())

    x = _x(np.random.default_rng(3), (2, 2, 15, 6))
    ad.backward(ad.tensor_sum(forward(x, p)))
    assert views_shared()
    assert all(np.any(p[n].grad) for n in p.names())  # backward wrote every view of flat.grad
    before = p.flat.data.copy()
    Adam(p.flat).step()
    assert views_shared()
    assert all(not np.array_equal(p[n].data, old) for n, old in split_flat(before).items())
    assert not np.any(p.flat.grad)
    ad.backward(ad.tensor_sum(forward(x, p)))
    p.flat.zero_grad()
    assert views_shared() and not any(np.any(p[n].grad) for n in p.names())


def test_channel_attention_zero_net_halves_input():
    p = _params()
    for n in ("ca_conv1_w", "ca_conv1_b", "ca_conv2_w", "ca_conv2_b"):
        p[n].data[...] = 0.0
    x = _x(np.random.default_rng(0))
    y = channel_attention(x, p)
    assert np.allclose(y.data, 0.5 * x.data, atol=1e-7)


def test_spatial_attention_zero_net_halves_input():
    p = _params()
    p["sa_conv_w"].data[...] = 0.0
    p["sa_conv_b"].data[...] = 0.0
    x = _x(np.random.default_rng(1))
    y = spatial_attention(x, p)
    assert np.allclose(y.data, 0.5 * x.data, atol=1e-7)


def test_spatial_attention_hand_gate():
    # center tap 1 on the max-pool plane, zero elsewhere: gate = sigmoid(max over channels)
    p = _params()
    p["sa_conv_w"].data[...] = 0.0
    p["sa_conv_w"].data[0, 0, 3, 3] = 1.0
    p["sa_conv_b"].data[...] = 0.0
    x = _x(np.random.default_rng(2), (1, 3, 5, 5))
    y = spatial_attention(x, p)
    gate = 1.0 / (1.0 + np.exp(-x.data.max(axis=1)))
    assert np.allclose(y.data, x.data * gate[:, None], atol=1e-6)


def test_attention_gates_are_contractive():
    p = _params(7)
    x = _x(np.random.default_rng(3))
    for stage in (channel_attention, spatial_attention):
        y = stage(x, p)
        assert np.all(np.abs(y.data) <= np.abs(x.data) + 1e-7)
        assert not np.allclose(y.data, x.data)


def test_feature_extract_residual_collapse():
    # zeroing the inner three convs leaves ReLU(conv1(x)) via the residual link
    p = _params(5)
    for n in ("fe_conv2_w", "fe_conv2_b", "fe_conv3_w", "fe_conv3_b",
              "fe_conv4_w", "fe_conv4_b"):
        p[n].data[...] = 0.0
    x = _x(np.random.default_rng(4))
    got = feature_extract(x, p)
    want = ad.relu(ad.conv2d(x, p["fe_conv1_w"], p["fe_conv1_b"]))
    assert np.allclose(got.data, want.data, atol=1e-7)


def test_upsample_shape_and_zero_input_bias():
    p = _params(6)
    y = upsample(Tensor(np.zeros((1, 32, 15, 6), np.float32)), p, (128, 28))
    assert y.shape == (1, 2, 128, 28)
    want = np.broadcast_to(p["us_deconv_b"].data[:, None, None], (1, 2, 128, 28))
    assert np.allclose(y.data, want, atol=1e-7)
    yb = upsample(Tensor(np.zeros((3, 32, 15, 6), np.float32)), p, (128, 28))
    assert yb.shape == (3, 2, 128, 28)


def test_forward_shape_contract():
    p = _params(8)
    y = forward(_x(np.random.default_rng(5)), p)
    assert y.shape == (1, 2, 128, 28)
    yb = forward(_x(np.random.default_rng(6), (4, 2, 15, 6)), p)
    assert yb.shape == (4, 2, 128, 28)
    for bad in ((1, 3, 15, 6), (2, 15, 6)):  # a third plane; no batch axis
        with pytest.raises(ValueError):
            forward(_x(np.random.default_rng(7), bad), p)


def test_bypass_attention_ignores_gate_weights():
    p = _params(9)
    q = p.copy()
    q["ca_conv1_w"].data[...] = 1.0
    q["sa_conv_w"].data[...] = -1.0
    x = _x(np.random.default_rng(8))
    assert np.array_equal(forward(x, p, bypass_attention=True).data,
                          forward(x, q, bypass_attention=True).data)
    assert not np.array_equal(forward(x, p).data, forward(x, q).data)


def test_every_parameter_receives_gradient():
    p = _params(10)
    rng = np.random.default_rng(9)
    x = _x(rng, (2, 2, 15, 6))
    target = Tensor(rng.standard_normal((2, 2, 128, 28)).astype(np.float32))
    loss = ad.mse_loss(forward(x, p), target)
    ad.backward(loss)
    for n in p.names():
        g = p[n].grad
        assert g is not None and np.any(g != 0), n


def test_checkpoint_round_trip_bit_exact(tmp_path):
    p = _params(11)
    f = tmp_path / "w.dasr"
    save_params(p, f)
    q = load_params(f)
    for n in p.names():
        assert np.array_equal(p[n].data, q[n].data)
        assert q[n].requires_grad
    f2 = tmp_path / "w2.dasr"
    save_params(q, f2)
    assert f.read_bytes() == f2.read_bytes()


def test_checkpoint_corruption_errors(tmp_path):
    p = _params(12)
    f = tmp_path / "w.dasr"
    save_params(p, f)
    raw = f.read_bytes()

    bad = tmp_path / "bad.dasr"
    bad.write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(ValueError):
        load_params(bad)

    trunc = tmp_path / "trunc.dasr"
    trunc.write_bytes(raw[:-5])
    with pytest.raises(ValueError):
        load_params(trunc)

    trail = tmp_path / "trail.dasr"
    trail.write_bytes(raw + b"\0\0")
    with pytest.raises(ValueError):
        load_params(trail)


def test_record_format_duplicate_name_rejected(tmp_path):
    p = _params(13)
    f = tmp_path / "r.dasr"
    rec = [(n, p[n].data) for n in p.names()]
    write_records(f, rec + [rec[0]], DASR_MAGIC)
    with pytest.raises(ValueError, match="duplicate"):
        load_params(f)
    # zero-length records survive the generic round trip (task-label markers)
    g = tmp_path / "s.bin"
    write_records(g, [("task.x", np.zeros(0, np.float32))], b"TEST")
    (name, arr), = read_records(g, b"TEST")
    assert name == "task.x" and arr.size == 0


def test_init_rng_is_the_tagged_init_stream():
    # the stream every training command and the desk protocol draw initial weights from
    want = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(0x696E6974,)))
    assert np.array_equal(init_rng(7).random(64), want.random(64))
    assert not np.array_equal(init_rng(7).random(8), np.random.default_rng(7).random(8))
