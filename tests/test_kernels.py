"""Convolution kernels against brute-force loop oracles."""

import itertools

import numpy as np
import pytest

from chansr import kernels
from chansr.model import PARAM_SPECS, UPSAMPLE_STRIDE

from oracles import conv2d_oracle, deconv2d_adjoint_oracle, deconv2d_oracle, im2col_oracle, windows_oracle


def _rand_conv_case(rng, dtype=np.float32):
    B = int(rng.integers(1, 3))
    Ci = int(rng.integers(1, 4))
    Co = int(rng.integers(1, 4))
    H = int(rng.integers(1, 6))
    W = int(rng.integers(1, 6))
    kh = int(rng.choice([1, 3, 5]))
    kw = int(rng.choice([1, 3]))
    x = rng.standard_normal((B, Ci, H, W)).astype(dtype)
    w = rng.standard_normal((Co, Ci, kh, kw)).astype(dtype)
    b = rng.standard_normal(Co).astype(dtype)
    return x, w, b


def _rand_deconv_case(rng, dtype=np.float32):
    B = int(rng.integers(1, 3))
    Ci = int(rng.integers(1, 4))
    Co = int(rng.integers(1, 3))
    h = int(rng.integers(1, 5))
    wd = int(rng.integers(1, 5))
    kh = int(rng.integers(1, 6))
    kw = int(rng.integers(1, 6))
    sH = int(rng.integers(1, 4))
    sW = int(rng.integers(1, 4))
    x = rng.standard_normal((B, Ci, h, wd)).astype(dtype)
    w = rng.standard_normal((Ci, Co, kh, kw)).astype(dtype)
    b = rng.standard_normal(Co).astype(dtype)
    return x, w, b, (sH, sW)


def test_conv2d_forward_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        x, w, b = _rand_conv_case(rng)
        got = kernels.conv2d_forward(x, w, b)
        want = conv2d_oracle(x, w, b)
        assert np.allclose(got, want, atol=1e-5)


def test_conv2d_backward_matches_oracle_via_perturbation():
    # dw and dx must be the linear maps induced by the forward oracle
    rng = np.random.default_rng(8)
    for _ in range(10):
        x, w, b = _rand_conv_case(rng, dtype=np.float64)
        dy = rng.standard_normal(x.shape[:1] + (w.shape[0],) + x.shape[2:])
        dx, dw, db = kernels.conv2d_backward(x, w, dy)
        # <dy, conv(x, w)> must have gradient dw in w: check via random direction
        dir_w = rng.standard_normal(w.shape)
        eps = 1e-6
        hi = np.sum(dy * conv2d_oracle(x, w + eps * dir_w, b))
        lo = np.sum(dy * conv2d_oracle(x, w - eps * dir_w, b))
        assert abs((hi - lo) / (2 * eps) - np.sum(dw * dir_w)) < 1e-5 * max(1.0, abs(np.sum(dw * dir_w)))
        dir_x = rng.standard_normal(x.shape)
        hi = np.sum(dy * conv2d_oracle(x + eps * dir_x, w, b))
        lo = np.sum(dy * conv2d_oracle(x - eps * dir_x, w, b))
        assert abs((hi - lo) / (2 * eps) - np.sum(dx * dir_x)) < 1e-5 * max(1.0, abs(np.sum(dx * dir_x)))
        assert np.allclose(db, dy.sum(axis=(0, 2, 3)))


def test_deconv2d_forward_matches_scatter_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        x, w, b, stride = _rand_deconv_case(rng)
        got = kernels.deconv2d_forward(x, w, b, stride)
        want = deconv2d_oracle(x, w, b, stride)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-5)


def test_deconv2d_is_adjoint_of_strided_conv():
    # <deconv(x), y> == <x, adjoint(y)> for random tensors
    rng = np.random.default_rng(10)
    for _ in range(20):
        x, w, b, stride = _rand_deconv_case(rng, dtype=np.float64)
        y = rng.standard_normal(kernels.deconv2d_forward(x, w, np.zeros_like(b), stride).shape)
        lhs = np.sum(kernels.deconv2d_forward(x, w, np.zeros_like(b), stride) * y)
        rhs = np.sum(x * deconv2d_adjoint_oracle(y, w, stride, x.shape[2], x.shape[3]))
        assert abs(lhs - rhs) < 1e-5 * max(1.0, abs(lhs))


def test_deconv2d_backward_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, w, b, stride = _rand_deconv_case(rng, dtype=np.float64)
        y = kernels.deconv2d_forward(x, w, b, stride)
        dy = rng.standard_normal(y.shape)
        dx, dw, db = kernels.deconv2d_backward(x, w, dy, stride)
        assert np.allclose(dx, deconv2d_adjoint_oracle(dy, w, stride, x.shape[2], x.shape[3]), atol=1e-8)
        eps = 1e-6
        dir_w = rng.standard_normal(w.shape)
        hi = np.sum(dy * deconv2d_oracle(x, w + eps * dir_w, b, stride))
        lo = np.sum(dy * deconv2d_oracle(x, w - eps * dir_w, b, stride))
        assert abs((hi - lo) / (2 * eps) - np.sum(dw * dir_w)) < 1e-5 * max(1.0, abs(np.sum(dw * dir_w)))
        assert np.allclose(db, dy.sum(axis=(0, 2, 3)))


def test_conv2d_shape_errors():
    x = np.zeros((1, 2, 4, 4), np.float32)
    with pytest.raises(ValueError):
        kernels.conv2d_forward(x, np.zeros((3, 5, 3, 3), np.float32), np.zeros(3, np.float32))
    with pytest.raises(ValueError):
        kernels.conv2d_forward(x, np.zeros((3, 2, 2, 2), np.float32), np.zeros(3, np.float32))
    with pytest.raises(ValueError):
        kernels.deconv2d_forward(np.zeros((1, 2, 0, 3), np.float32),
                                 np.zeros((2, 1, 2, 2), np.float32), np.zeros(1, np.float32), (1, 1))


def _close(got, want, tol=1e-9):
    return abs(got - want) <= tol * max(1.0, abs(want))


def test_model_layer_shapes_match_oracles():
    # every layer of the model on the 15 x 6 pilot grid, channels from its weight, in f64, at
    # batch 1 and 3: forward against the loop oracles; dw and dx as the adjoints of the oracle's
    # linear maps (<dy, f(dir)> == <grad, dir> for a random direction); deconv dx and db in full
    rng = np.random.default_rng(12)
    for batch, (name, shape) in itertools.product((1, 3), PARAM_SPECS):
        if not name.endswith("_w"):
            continue
        label = f"{name} at batch {batch}"
        w = rng.standard_normal(shape)
        dir_w = rng.standard_normal(shape)
        if name == "us_deconv_w":
            x = rng.standard_normal((batch, shape[0], 15, 6))
            b = rng.standard_normal(shape[1])
            got = kernels.deconv2d_forward(x, w, b, UPSAMPLE_STRIDE)
            want = deconv2d_oracle(x, w, b, UPSAMPLE_STRIDE)
            dy = rng.standard_normal(want.shape)
            dx, dw, db = kernels.deconv2d_backward(x, w, dy, UPSAMPLE_STRIDE)
            assert np.max(np.abs(dx - deconv2d_adjoint_oracle(dy, w, UPSAMPLE_STRIDE, 15, 6))) < 1e-9, label
            w_map = np.sum(dy * deconv2d_oracle(x, dir_w, np.zeros(shape[1]), UPSAMPLE_STRIDE))
        else:
            x = rng.standard_normal((batch, shape[1], 15, 6))
            b = rng.standard_normal(shape[0])
            got = kernels.conv2d_forward(x, w, b)
            want = conv2d_oracle(x, w, b)
            dy = rng.standard_normal(want.shape)
            dx, dw, db = kernels.conv2d_backward(x, w, dy)
            dir_x = rng.standard_normal(x.shape)
            assert _close(np.sum(dx * dir_x), np.sum(dy * conv2d_oracle(dir_x, w, np.zeros(shape[0])))), label
            w_map = np.sum(dy * conv2d_oracle(x, dir_w, np.zeros(shape[0])))
        assert got.shape == want.shape, label
        assert np.max(np.abs(got - want)) < 1e-5, label
        assert dx.shape == x.shape and dw.shape == w.shape, label
        assert _close(np.sum(dw * dir_w), w_map), label
        assert np.allclose(db, dy.sum(axis=(0, 2, 3)), rtol=1e-12, atol=1e-12), label


def test_subpixel_deconv_equals_general_strided_path():
    # at stride == kernel the upsampler's forward lays the tiles side by side instead of
    # scatter-adding them; both must give the same bits, since the GEMM before them is shared
    rng = np.random.default_rng(14)
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((3, 32, 15, 6)).astype(dtype)
        w = rng.standard_normal((32, 2) + UPSAMPLE_STRIDE).astype(dtype)
        t = np.tensordot(x, w, axes=([1], [0]))
        assert np.array_equal(kernels._subpixel_shuffle(t), kernels._scatter_add(t, UPSAMPLE_STRIDE))


def test_windows_match_loop_oracle_bit_for_bit():
    # the gather is a pure copy: the upsampler's dy windows at stride (9, 5) at batch 1, 3 and
    # 128, and random sources, strides and kernels (windows overlapping, tiling or leaving gaps)
    rng = np.random.default_rng(16)
    kh, kw = UPSAMPLE_STRIDE
    for batch, dtype in itertools.product((1, 3, 128), (np.float32, np.float64)):
        dy = rng.standard_normal((batch, 2, 14 * kh + kh, 5 * kw + kw)).astype(dtype)
        got = kernels._windows(dy, 15, 6, kh, kw, UPSAMPLE_STRIDE)
        assert got.dtype == dtype and got.flags.c_contiguous, batch
        assert np.array_equal(got, windows_oracle(dy, 15, 6, kh, kw, UPSAMPLE_STRIDE)), (batch, dtype)
    for _ in range(30):
        B, C, h, wd = (int(v) for v in rng.integers(1, 5, size=4))
        kh, kw, sH, sW = (int(v) for v in rng.integers(1, 6, size=4))
        src = rng.standard_normal((B, C, (h - 1) * sH + kh + int(rng.integers(0, 3)),
                                   (wd - 1) * sW + kw + int(rng.integers(0, 3))))
        got = kernels._windows(src, h, wd, kh, kw, (sH, sW))
        assert np.array_equal(got, windows_oracle(src, h, wd, kh, kw, (sH, sW))), (src.shape, kh, kw, sH, sW)


def test_deconv2d_backward_rejects_a_wrongly_shaped_output_gradient():
    # the window gather does not bounds-check its offsets, so a dy of the wrong shape must be
    # refused before it is read: at the upsampler's stride and at a general one
    rng = np.random.default_rng(17)
    cases = [((1, 32, 15, 6), (32, 2) + UPSAMPLE_STRIDE, UPSAMPLE_STRIDE, (135, 30)),
             ((2, 3, 4, 5), (3, 2, 3, 3), (2, 2), (9, 11))]
    for x_shape, w_shape, stride, (Ho, Wo) in cases:
        x = rng.standard_normal(x_shape).astype(np.float32)
        w = rng.standard_normal(w_shape).astype(np.float32)
        B, Co = x_shape[0], w_shape[1]
        kernels.deconv2d_backward(x, w, np.zeros((B, Co, Ho, Wo), np.float32), stride)
        for bad in [(B, Co, Ho - 5, Wo), (B, Co, Ho, Wo + 1), (B, Co + 1, Ho, Wo), (B + 1, Co, Ho, Wo)]:
            with pytest.raises(ValueError, match="output gradient shape"):
                kernels.deconv2d_backward(x, w, np.zeros(bad, np.float32), stride)


def test_conv2d_backward_rejects_a_wrongly_shaped_output_gradient():
    # a dy of the right size but another spatial shape would reshape into a wrongly ordered dx
    # (the col2im path, Co >= Ci) or a dx of the wrong shape (the flipped-kernel path, Co < Ci)
    rng = np.random.default_rng(18)
    x = rng.standard_normal((1, 2, 4, 6)).astype(np.float32)
    for Co in (3, 1):
        w = rng.standard_normal((Co, 2, 3, 3)).astype(np.float32)
        dx, _, _ = kernels.conv2d_backward(x, w, np.ones((1, Co, 4, 6), np.float32))
        assert dx.shape == x.shape
        for bad in [(1, Co, 6, 4), (1, Co, 4, 5), (2, Co, 4, 6), (1, Co + 1, 4, 6)]:
            with pytest.raises(ValueError, match="output gradient shape"):
                kernels.conv2d_backward(x, w, np.ones(bad, np.float32))


def test_im2col_matches_window_oracle_bit_for_bit():
    # the columns are a pure copy, so every (Ci, kernel) the model builds, 1x1 included, at
    # batch 1, 3 and 128 in both dtypes, and a grid that is not the model's, give the same bits
    rng = np.random.default_rng(15)
    shapes = [(2, 3), (16, 3), (2, 7), (1, 7), (2, 5), (16, 1), (32, 1)]
    for (ci, k), batch, dtype in itertools.product(shapes, (1, 3, 128), (np.float32, np.float64)):
        x = rng.standard_normal((batch, ci, 15, 6)).astype(dtype)
        got = kernels._im2col(x, k, k)
        assert got.dtype == dtype and got.flags.c_contiguous, (ci, k, batch)
        assert np.array_equal(got, im2col_oracle(x, k, k)), (ci, k, batch, dtype)
    x = rng.standard_normal((2, 3, 4, 3))
    assert np.array_equal(kernels._im2col(x, 5, 3), im2col_oracle(x, 5, 3))


def test_im2col_index_cache_is_read_only_and_bounded():
    idx = kernels._gather_index(2, 17, 8, 15, 6, 3, 3, 1, 1)
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 0
    assert kernels._gather_index(2, 17, 8, 15, 6, 3, 3, 1, 1) is idx
    limit = kernels._gather_index.cache_info().maxsize
    assert limit is not None
    for h in range(1, limit + 5):
        kernels._gather_index(1, h + 2, 3, h, 1, 3, 3, 1, 1)
    assert kernels._gather_index.cache_info().currsize <= limit
