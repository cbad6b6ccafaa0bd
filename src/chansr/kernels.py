"""Hot convolution kernels: vectorized numpy/BLAS formulations.

All functions operate on contiguous 4-D arrays (batch, channel, height, width)
in float32 or float64. Convolutions are im2col views contracted with
``tensordot``; transposed convolutions are a ``tensordot`` followed by a
strided scatter.

Convolution convention: cross-correlation, "same" zero padding, odd kernels,
stride 1. Transposed convolution: no padding, stride (sH, sW), output size
(h-1)*sH+kH by (w-1)*sW+kW.
"""

import numpy as np


def _pad_same(x, kh, kw):
    ph, pw = kh // 2, kw // 2
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def _np_conv2d_forward(x, w, bias):
    kh, kw = w.shape[2], w.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(_pad_same(x, kh, kw), (kh, kw), axis=(2, 3))
    # win: [B, Ci, H, W, kh, kw] . w: [Co, Ci, kh, kw] -> [B, H, W, Co]
    y = np.tensordot(win, w, axes=([1, 4, 5], [1, 2, 3]))
    y = np.ascontiguousarray(np.moveaxis(y, 3, 1))
    if bias is not None:
        y += bias[None, :, None, None]
    return y


def _np_conv2d_backward(x, w, dy, need_dx=True):
    kh, kw = w.shape[2], w.shape[3]
    dx = None
    if need_dx:
        wt = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        dx = _np_conv2d_forward(dy, wt, None)
    win = np.lib.stride_tricks.sliding_window_view(_pad_same(x, kh, kw), (kh, kw), axis=(2, 3))
    # dy: [B, Co, H, W] . win: [B, Ci, H, W, kh, kw] -> [Co, Ci, kh, kw]
    dw = np.tensordot(dy, win, axes=([0, 2, 3], [0, 2, 3]))
    db = dy.sum(axis=(0, 2, 3))
    return dx, np.ascontiguousarray(dw), db


def _deconv_out_shape(h, w, kh, kw, sH, sW):
    return (h - 1) * sH + kh, (w - 1) * sW + kw


def _np_deconv2d_forward(x, w, bias, stride):
    sH, sW = stride
    B, Ci, h, wd = x.shape
    Co, kh, kw = w.shape[1], w.shape[2], w.shape[3]
    Ho, Wo = _deconv_out_shape(h, wd, kh, kw, sH, sW)
    # x: [B, Ci, h, w] . w: [Ci, Co, kh, kw] -> [B, h, w, Co, kh, kw]
    t = np.tensordot(x, w, axes=([1], [0])).transpose(0, 3, 1, 2, 4, 5)
    y = np.zeros((B, Co, Ho, Wo), dtype=x.dtype)
    for a in range(kh):
        for e in range(kw):
            y[:, :, a : a + (h - 1) * sH + 1 : sH, e : e + (wd - 1) * sW + 1 : sW] += t[..., a, e]
    if bias is not None:
        y += bias[None, :, None, None]
    return y


def _gather_strided(dy, h, wd, kh, kw, sH, sW):
    """View dy at every (input position, kernel offset) pair: [B, Co, h, w, kh, kw]."""
    B, Co = dy.shape[0], dy.shape[1]
    g = np.empty((B, Co, h, wd, kh, kw), dtype=dy.dtype)
    for a in range(kh):
        for e in range(kw):
            g[..., a, e] = dy[:, :, a : a + (h - 1) * sH + 1 : sH, e : e + (wd - 1) * sW + 1 : sW]
    return g


def _np_deconv2d_backward(x, w, dy, stride, need_dx=True):
    sH, sW = stride
    B, Ci, h, wd = x.shape
    Co, kh, kw = w.shape[1], w.shape[2], w.shape[3]
    g = _gather_strided(dy, h, wd, kh, kw, sH, sW)
    dx = None
    if need_dx:
        # g: [B, Co, h, w, kh, kw] . w: [Ci, Co, kh, kw] -> [B, h, w, Ci]
        dx = np.tensordot(g, w, axes=([1, 4, 5], [1, 2, 3]))
        dx = np.ascontiguousarray(np.moveaxis(dx, 3, 1))
    # x: [B, Ci, h, w] . g: [B, Co, h, w, kh, kw] -> [Ci, Co, kh, kw]
    dw = np.tensordot(x, g, axes=([0, 2, 3], [0, 2, 3]))
    db = dy.sum(axis=(0, 2, 3))
    return dx, np.ascontiguousarray(dw), db


def _check_conv_args(x, w, bias):
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError("conv2d expects 4-D input and kernel")
    if w.shape[2] % 2 == 0 or w.shape[3] % 2 == 0:
        raise ValueError(f"conv2d kernel must have odd spatial size, got {w.shape[2:]}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d channel mismatch: input has {x.shape[1]}, kernel expects {w.shape[1]}")
    if bias is not None and bias.shape != (w.shape[0],):
        raise ValueError(f"conv2d bias shape {bias.shape} != ({w.shape[0]},)")


def _check_deconv_args(x, w, stride):
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError("conv2d_transpose expects 4-D input and kernel")
    if x.size == 0:
        raise ValueError("conv2d_transpose input must be non-empty")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"conv2d_transpose channel mismatch: input has {x.shape[1]}, kernel expects {w.shape[0]}")
    if stride[0] < 1 or stride[1] < 1:
        raise ValueError(f"conv2d_transpose stride must be >= 1, got {stride}")


def _c(a):
    return np.ascontiguousarray(a)


def backend_name():
    return "numpy"


def conv2d_forward(x, w, bias):
    _check_conv_args(x, w, bias)
    return _np_conv2d_forward(_c(x), _c(w), bias)


def conv2d_backward(x, w, dy, need_dx=True):
    _check_conv_args(x, w, None)
    return _np_conv2d_backward(_c(x), _c(w), _c(dy), need_dx)


def deconv2d_forward(x, w, bias, stride):
    _check_deconv_args(x, w, stride)
    return _np_deconv2d_forward(_c(x), _c(w), bias, stride)


def deconv2d_backward(x, w, dy, stride, need_dx=True):
    _check_deconv_args(x, w, stride)
    return _np_deconv2d_backward(_c(x), _c(w), _c(dy), stride, need_dx)
