"""Brute-force reference implementations used to validate the fast paths.

Everything here is written directly from the defining sums with plain Python
loops, independent of the library's vectorized/jitted code. The anchor-penalty
oracle is the penalty's former autodiff-graph form, which the flat vector form
must match bit for bit.
"""

import numpy as np

from chansr import autodiff as ad
from chansr.autodiff import Tensor


def conv2d_oracle(x, w, b):
    """Same-padded stride-1 cross-correlation, quadruple-nested loops."""
    B, Ci, H, W = x.shape
    Co, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    y = np.zeros((B, Co, H, W), dtype=np.float64)
    for bi in range(B):
        for o in range(Co):
            for i in range(H):
                for j in range(W):
                    acc = float(b[o])
                    for c in range(Ci):
                        for a in range(kh):
                            for e in range(kw):
                                ii, jj = i + a - ph, j + e - pw
                                if 0 <= ii < H and 0 <= jj < W:
                                    acc += float(x[bi, c, ii, jj]) * float(w[o, c, a, e])
                    y[bi, o, i, j] = acc
    return y


def im2col_oracle(x, kh, kw):
    """Same-padded windows as [B*H*W, Ci*kh*kw] columns, copied out of a sliding-window view."""
    B, Ci, H, W = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))  # [B, Ci, H, W, kh, kw]
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(B * H * W, Ci * kh * kw)


def windows_oracle(src, h, wd, kh, kw, stride):
    """The kh x kw window at (i*sH, j*sW) of src [B, C, Hs, Ws], for i < h and j < wd, as
    [B*h*wd, C*kh*kw] rows (b, i, j), columns (c, a, e), copied one offset at a time."""
    B, C = src.shape[:2]
    sH, sW = stride
    g = np.empty((B, h, wd, C, kh, kw), dtype=src.dtype)
    for i in range(h):
        for j in range(wd):
            for a in range(kh):
                for e in range(kw):
                    g[:, i, j, :, a, e] = src[:, :, i * sH + a, j * sW + e]
    return g.reshape(B * h * wd, C * kh * kw)


def deconv2d_oracle(x, w, b, stride):
    """Transposed convolution in its defining scatter form."""
    B, Ci, h, wd = x.shape
    _, Co, kh, kw = w.shape
    sH, sW = stride
    Ho, Wo = (h - 1) * sH + kh, (wd - 1) * sW + kw
    y = np.zeros((B, Co, Ho, Wo), dtype=np.float64)
    for bi in range(B):
        for c in range(Ci):
            for i in range(h):
                for j in range(wd):
                    v = float(x[bi, c, i, j])
                    for o in range(Co):
                        for a in range(kh):
                            for e in range(kw):
                                y[bi, o, i * sH + a, j * sW + e] += v * float(w[c, o, a, e])
    for o in range(Co):
        y[:, o] += float(b[o])
    return y


def deconv2d_adjoint_oracle(y, w, stride, h, wd):
    """Adjoint of deconv2d_oracle (a strided valid correlation), for <.,.> checks."""
    B, Co = y.shape[0], y.shape[1]
    Ci, _, kh, kw = w.shape
    sH, sW = stride
    z = np.zeros((B, Ci, h, wd), dtype=np.float64)
    for bi in range(B):
        for c in range(Ci):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0
                    for o in range(Co):
                        for a in range(kh):
                            for e in range(kw):
                                acc += float(y[bi, o, i * sH + a, j * sW + e]) * float(w[c, o, a, e])
                    z[bi, c, i, j] = acc
    return z


def pool_spatial_oracle(x, kind):
    """[C,H,W] -> [C] loop reduction."""
    C, H, W = x.shape
    out = np.zeros(C, dtype=np.float64)
    for c in range(C):
        vals = [float(x[c, i, j]) for i in range(H) for j in range(W)]
        out[c] = max(vals) if kind == "max" else sum(vals) / len(vals)
    return out


def pool_channel_oracle(x, kind):
    """[C,H,W] -> [1,H,W] loop reduction."""
    C, H, W = x.shape
    out = np.zeros((1, H, W), dtype=np.float64)
    for i in range(H):
        for j in range(W):
            vals = [float(x[c, i, j]) for c in range(C)]
            out[0, i, j] = max(vals) if kind == "max" else sum(vals) / len(vals)
    return out


def bilinear_oracle(h_p, p_f, p_t, n_f, n_t):
    """Two-pass 1-D linear interpolation with edge-slope extrapolation."""

    def interp1(xs, ys, xq):
        if xq <= xs[0]:
            k = 0
        elif xq >= xs[-1]:
            k = len(xs) - 2
        else:
            k = max(i for i in range(len(xs) - 1) if xs[i] <= xq)
        t = (xq - xs[k]) / (xs[k + 1] - xs[k])
        return ys[k] * (1 - t) + ys[k + 1] * t

    stage = np.zeros((n_f, len(p_t)), dtype=complex)
    for jt, _ in enumerate(p_t):
        col = [h_p[i, jt] for i in range(len(p_f))]
        for k in range(n_f):
            stage[k, jt] = interp1(list(p_f), col, k)
    full = np.zeros((n_f, n_t), dtype=complex)
    for k in range(n_f):
        row = [stage[k, jt] for jt in range(len(p_t))]
        for t in range(n_t):
            full[k, t] = interp1(list(p_t), row, t)
    return full


def ewc_graph_oracle(params, fisher, lam):
    """The anchor penalty sum_i (lam/2) * F_i * (theta_i - anchor_i)^2 as an autodiff graph over the
    named parameters, in registry order, with d = theta + (-1) * anchor; backward through it gives
    the penalty's gradient with the graph's own rounding."""
    total = None
    for name in params.names():
        p = params[name]
        dt = p.data.dtype
        anchor = Tensor(fisher.anchor[name].astype(dt), dtype=dt)
        f = Tensor(fisher.fisher[name].astype(dt), dtype=dt)
        d = ad.add(p, ad.mul_elementwise(anchor, Tensor(np.asarray(-1.0, dt), dtype=dt)))
        term = ad.tensor_sum(ad.mul_elementwise(f, ad.mul_elementwise(d, d)))
        total = term if total is None else ad.add(total, term)
    return ad.mul_elementwise(Tensor(np.asarray(lam / 2.0, dt), dtype=dt), total)


def finite_difference(f, arrays, step=1e-3):
    """Central-difference gradients of scalar f with respect to each array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def relative_error(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))
