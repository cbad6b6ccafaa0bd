"""Autodiff op semantics and gradients against finite differences."""

import gc
import weakref

import numpy as np
import pytest

from chansr import autodiff as ad
from chansr.autodiff import Tensor

from oracles import finite_difference, pool_channel_oracle, pool_spatial_oracle, relative_error


def _grad_check(build_loss, arrays, tol=1e-5, step=1e-3):
    """build_loss(tensors) -> scalar Tensor; arrays are float64 leaves."""
    tensors = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    loss = build_loss(tensors)
    ad.backward(loss)
    analytic = [t.grad.copy() for t in tensors]

    views = [t.data for t in tensors]
    numeric = finite_difference(lambda: build_loss(tensors).item(), views, step=step)
    for a, n in zip(analytic, numeric):
        assert relative_error(a, n, floor=1e-6) < tol


def test_relu_sign_cases():
    out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, np.array([0.0, 0.0, 2.0], np.float32))


def test_relu_derivative_at_zero_is_zero():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    ad.backward(ad.tensor_sum(ad.relu(x)))
    assert np.array_equal(x.grad, np.array([0.0, 0.0, 1.0], np.float32))


def _relu_cases(dtype):
    fi = np.finfo(dtype)
    special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, fi.smallest_subnormal, -fi.smallest_subnormal]
    rng = np.random.default_rng(11)
    return np.concatenate([np.array(special, dtype), rng.standard_normal(200).astype(dtype)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grad", [False, True])
def test_relu_is_bit_identical_to_the_strict_select(dtype, grad, monkeypatch):
    x = _relu_cases(dtype)
    t = Tensor(x.copy(), requires_grad=grad, dtype=dtype)
    if grad:
        out = ad.relu(t)
    else:
        with ad.no_grad():
            out = ad.relu(t)
    assert out.data.dtype == dtype
    assert out.data.tobytes() == np.where(x > 0, x, dtype(0)).tobytes()
    if grad:
        handed = []  # the gradient relu hands its input, before a leaf's zero buffer adds it
        monkeypatch.setattr(ad, "_acc", lambda node, g: handed.append(g))
        gout = np.random.default_rng(12).standard_normal(x.shape).astype(dtype)
        out._backward(gout)
        assert handed[0].tobytes() == (gout * (x > 0)).tobytes()


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)


def test_sigmoid_extreme_inputs_are_finite():
    out = ad.sigmoid(Tensor([-1e4, 1e4], dtype=np.float64))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(0.0, abs=1e-30)
    assert out.data[1] == pytest.approx(1.0)


def _masked_sigmoid(d):
    """The sigmoid split by boolean masks into its two non-overflowing branches."""
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    s[~pos] = e / (1.0 + e)
    return s


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_sigmoid_is_bit_identical_to_the_masked_branches(dtype, bits):
    fi = np.finfo(dtype)
    special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, fi.smallest_subnormal, -fi.smallest_subnormal,
               fi.tiny, -fi.tiny, fi.max, -fi.max]
    rng = np.random.default_rng(13)
    # random bit patterns reach every exponent, NaN payloads included
    x = np.concatenate([np.array(special, dtype), rng.standard_normal(4000).astype(dtype) * 30,
                        rng.integers(0, np.iinfo(bits).max, 20000, dtype=bits, endpoint=True).view(dtype)])
    with np.errstate(invalid="ignore"):  # exp flags a signalling NaN in either form
        got, want = ad.sigmoid(Tensor(x, dtype=dtype)).data, _masked_sigmoid(x)
    assert got.dtype == dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and np.isnan(got[2:4]).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_scale_channels_constant_input():
    x = Tensor(np.ones((2, 2, 2)))
    g = Tensor(np.array([0.5, 2.0]))
    out = ad.scale_channels(x, g)
    assert np.allclose(out.data[0], 0.5)
    assert np.allclose(out.data[1], 2.0)


def test_pool_spatial_avg_constant():
    x = Tensor(np.full((3, 4, 5), 2.5))
    assert np.allclose(ad.pool_spatial(x, "avg").data, 2.5)


def test_pool_channel_max_two_elements():
    x = Tensor(np.array([3.0, 7.0]).reshape(2, 1, 1))
    assert ad.pool_channel(x, "max").data.reshape(()) == pytest.approx(7.0)


def test_pool_reductions_match_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.standard_normal((3, 4, 5))
        for kind in ("max", "avg"):
            got = ad.pool_spatial(Tensor(x, dtype=np.float64), kind).data
            assert np.allclose(got, pool_spatial_oracle(x, kind))
            got = ad.pool_channel(Tensor(x, dtype=np.float64), kind).data
            assert np.allclose(got, pool_channel_oracle(x, kind))


@pytest.mark.parametrize("op", [ad.pool_spatial, ad.pool_channel])
@pytest.mark.parametrize("kind", ["max", "avg"])
def test_pooling_one_sample_equals_pooling_it_as_a_batch_of_one(op, kind):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 9, 7)).astype(np.float32)
    x[:, 4, 4] = 5.0  # a tie along channels
    x[1, 2, 3] = x[1, 5, 6] = 6.0  # a tie within one plane

    def pooled(data, weight):
        t = Tensor(data, requires_grad=True)
        out = op(t, kind)
        ad.backward(ad.tensor_sum(ad.mul_elementwise(out, Tensor(weight))))
        return out.data, t.grad

    weight = rng.standard_normal(op(Tensor(x), kind).shape)  # an uneven output gradient
    out3, grad3 = pooled(x, weight)
    out4, grad4 = pooled(x[None], weight[None])
    assert out3.tobytes() == out4[0].tobytes()
    assert grad3.tobytes() == grad4[0].tobytes()


@pytest.mark.parametrize("shape", [(4, 5), (1, 1, 2, 4, 5)])
def test_pooling_refuses_other_ranks(shape):
    for op in (ad.pool_spatial, ad.pool_channel):
        with pytest.raises(ValueError, match="3-D or 4-D"):
            op(Tensor(np.ones(shape)), "avg")


def test_max_pool_gradient_goes_to_first_max_row_major():
    x = Tensor(np.array([[[1.0, 5.0], [5.0, 0.0]]]), requires_grad=True)
    ad.backward(ad.tensor_sum(ad.pool_spatial(x, "max")))
    assert np.array_equal(x.grad, np.array([[[0.0, 1.0], [0.0, 0.0]]], np.float32))
    x = Tensor(np.array([2.0, 2.0]).reshape(2, 1, 1), requires_grad=True)
    ad.backward(ad.tensor_sum(ad.pool_channel(x, "max")))
    assert np.array_equal(x.grad.reshape(2), np.array([1.0, 0.0], np.float32))


def test_mse_trivial_cases():
    p = Tensor(np.zeros((2, 3)))
    assert ad.mse_loss(p, Tensor(np.zeros((2, 3)))).item() == 0.0
    pred = Tensor(np.array([[1.0, 0.0]]))
    target = Tensor(np.array([[0.0, 0.0]]))
    assert ad.mse_loss(pred, target).item() == pytest.approx(1.0)


def test_mse_matches_hand_sum():
    rng = np.random.default_rng(4)
    p = rng.standard_normal((2, 3, 4))
    t = rng.standard_normal((2, 3, 4))
    want = np.mean([np.sum((p[i] - t[i]) ** 2) for i in range(2)])
    got = ad.mse_loss(Tensor(p, dtype=np.float64), Tensor(t, dtype=np.float64)).item()
    assert got == pytest.approx(want, rel=1e-6)


def test_mse_shape_mismatch_errors():
    with pytest.raises(ValueError):
        ad.mse_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    ad.backward(ad.tensor_sum(x))
    assert np.array_equal(x.grad, np.ones((3, 4), np.float32))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.add(x, x))


def test_unreached_parameter_grad_stays_zero():
    used = Tensor(np.ones(2), requires_grad=True)
    unused = Tensor(np.ones(2), requires_grad=True)
    ad.backward(ad.tensor_sum(ad.mul_elementwise(used, used)))
    assert np.array_equal(unused.grad, np.zeros(2, np.float32))


def test_repeated_backward_accumulates_on_leaves():
    x = Tensor(np.array([3.0]), requires_grad=True)
    loss = ad.tensor_sum(ad.mul_elementwise(x, x))
    ad.backward(loss)
    first = x.grad.copy()
    ad.backward(loss)
    assert np.allclose(x.grad, 2 * first)


def test_graph_is_freed_by_refcount_after_backward():
    # backward closures never reference their output, so dropping the loss frees the
    # graph without the cycle collector; the weakref watches an intermediate's output array
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    gc.disable()
    try:
        mid = ad.sigmoid(ad.mul_elementwise(x, x))
        alive = weakref.ref(mid.data)
        loss = ad.tensor_sum(ad.relu(mid))
        del mid
        ad.backward(loss)
        assert alive() is not None  # the loss still holds its graph
        del loss
        assert alive() is None
    finally:
        gc.enable()
    assert x.grad.shape == (2, 3)


def test_backward_linearity():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    x1 = Tensor(a, requires_grad=True, dtype=np.float64)
    l1 = ad.tensor_sum(ad.mul_elementwise(x1, x1))
    l2 = ad.tensor_sum(ad.relu(x1))
    ad.backward(ad.add(l1, l2))
    combined = x1.grad.copy()
    x2 = Tensor(a, requires_grad=True, dtype=np.float64)
    ad.backward(ad.tensor_sum(ad.mul_elementwise(x2, x2)))
    g1 = x2.grad.copy()
    x3 = Tensor(a, requires_grad=True, dtype=np.float64)
    ad.backward(ad.tensor_sum(ad.relu(x3)))
    g2 = x3.grad.copy()
    assert np.max(np.abs(combined - (g1 + g2))) < 1e-12


def test_dtype_mismatch_raises():
    a = Tensor(np.ones(2), dtype=np.float32)
    b = Tensor(np.ones(2), dtype=np.float64)
    with pytest.raises(TypeError):
        ad.add(a, b)


def test_conv2d_identity_kernel_is_exact():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((1, 1, 5, 4)).astype(np.float32))
    w = Tensor(np.ones((1, 1, 1, 1), np.float32))
    b = Tensor(np.zeros(1, np.float32))
    out = ad.conv2d(x, w, b)
    assert np.array_equal(out.data, x.data)


def test_conv2d_zero_input_gives_bias():
    x = Tensor(np.zeros((1, 2, 3, 4)))
    w = Tensor(np.ones((3, 2, 3, 3)) * 0.7)
    b = Tensor(np.array([1.0, -2.0, 0.5]))
    out = ad.conv2d(x, w, b)
    for c, v in enumerate([1.0, -2.0, 0.5]):
        assert np.allclose(out.data[0, c], v)


def test_conv2d_transpose_single_pixel():
    v = 1.75
    x = Tensor(np.full((1, 1, 1, 1), v))
    k = np.arange(6.0).reshape(1, 1, 2, 3)
    out = ad.conv2d_transpose(x, Tensor(k), Tensor(np.zeros(1)), (1, 1))
    assert np.allclose(out.data, v * k)


def test_conv2d_transpose_lattice_shape():
    x = Tensor(np.zeros((1, 2, 15, 6)))
    w = Tensor(np.zeros((2, 2, 9, 5)))
    out = ad.conv2d_transpose(x, w, Tensor(np.zeros(2)), (9, 5))
    assert out.data.shape == (1, 2, 135, 30)


def test_convolutions_refuse_an_input_without_a_batch_axis():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="4-D"):
        ad.conv2d(x, Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros(1)))
    with pytest.raises(ValueError, match="4-D"):
        ad.conv2d_transpose(x, Tensor(np.zeros((2, 1, 2, 2))), Tensor(np.zeros(1)), (2, 2))


def test_crop2d_and_gradient():
    x = Tensor(np.arange(24.0).reshape(1, 4, 6), requires_grad=True)
    out = ad.crop2d(x, 2, 3)
    assert np.array_equal(out.data, x.data[:, :2, :3])
    ad.backward(ad.tensor_sum(out))
    want = np.zeros((1, 4, 6), np.float32)
    want[:, :2, :3] = 1
    assert np.array_equal(x.grad, want)
    with pytest.raises(ValueError):
        ad.crop2d(x, 5, 3)


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = ad.tensor_sum(ad.relu(x))
    assert not out.requires_grad
    assert out._parents == ()


# gradient checks, one per op family, all in 64-bit


def test_grad_elementwise_ops():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3))
    _grad_check(lambda ts: ad.tensor_sum(ad.mul_elementwise(ad.add(ts[0], ts[1]), ts[0])), [a, b])
    _grad_check(lambda ts: ad.tensor_sum(ad.sigmoid(ts[0])), [a])
    # offset keeps every entry away from relu's kink so differences stay clean
    _grad_check(lambda ts: ad.tensor_sum(ad.relu(ts[0])), [a + np.sign(a) * 0.5])


def test_grad_broadcast_mul():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 3, 4))
    s = rng.standard_normal((1, 3, 4))
    _grad_check(lambda ts: ad.tensor_sum(ad.mul_elementwise(ts[0], ts[1])), [x, s])


def test_grad_conv2d():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((1, 2, 5, 4))
    w = rng.standard_normal((2, 2, 3, 3))
    b = rng.standard_normal(2)
    _grad_check(lambda ts: ad.tensor_sum(ad.conv2d(ts[0], ts[1], ts[2])), [x, w, b])


def test_grad_conv2d_transpose():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((1, 2, 3, 2))
    w = rng.standard_normal((2, 2, 3, 2))
    b = rng.standard_normal(2)
    _grad_check(lambda ts: ad.tensor_sum(ad.conv2d_transpose(ts[0], ts[1], ts[2], (3, 2))), [x, w, b])


def test_grad_pools_and_gates():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((2, 3, 4)) * 2
    g = rng.standard_normal(2)
    _grad_check(lambda ts: ad.tensor_sum(ad.pool_spatial(ts[0], "avg")), [x])
    _grad_check(lambda ts: ad.tensor_sum(ad.pool_spatial(ts[0], "max")), [x])
    _grad_check(lambda ts: ad.tensor_sum(ad.pool_channel(ts[0], "avg")), [x])
    _grad_check(lambda ts: ad.tensor_sum(ad.pool_channel(ts[0], "max")), [x])
    _grad_check(lambda ts: ad.tensor_sum(ad.scale_channels(ts[0], ts[1])), [x, g])
    _grad_check(lambda ts: ad.tensor_sum(ad.concat_channels(ts[0], ad.relu(ts[0]))), [x + np.sign(x) * 0.5])


def test_grad_mse_sigmoid_chain():
    # loss = mse(sigmoid(w * x), y) on tiny dims, against central differences
    rng = np.random.default_rng(25)
    w = rng.standard_normal((1, 4))
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4))

    def build(ts):
        pred = ad.sigmoid(ad.mul_elementwise(ts[1], ts[0]))
        return ad.mse_loss(pred, Tensor(y, dtype=np.float64))

    _grad_check(build, [w, x])
