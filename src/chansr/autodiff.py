"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays in a fixed global dtype (float32 by default,
float64 selectable for gradient verification). Each op records its parents
and a backward closure; ``backward`` on a scalar loss walks the graph in
reverse topological order and accumulates gradients.

Gradient conventions:
* leaf tensors created with ``requires_grad=True`` start with a zero grad
  buffer, so a parameter not reached by the loss keeps an all-zero gradient;
* repeated ``backward`` calls accumulate on leaves; intermediate grads are
  reset at the start of every call;
* leaf grads are updated in place, so a grad that is a view stays one;
* ReLU derivative at exactly 0 is 0; max pooling routes its gradient to the
  first maximal element in row-major order.

Ops are module functions; a Tensor has no arithmetic operators. Shape
conventions: convolutions take batched [B,C,H,W] only; the other image-like
ops work on the trailing [C,H,W] axes of a 3-D or 4-D tensor; ``mse_loss``
always treats axis 0 as the batch axis.

Ops do not check their outputs for NaN or infinity. Non-finite values are
caught where a result is consumed: training refuses a non-finite loss,
the Fisher pass a non-finite estimate, and ``evaluate.nmse`` a non-finite
NMSE, each with ``FloatingPointError``.
"""

import contextlib

import numpy as np

from . import kernels

_default_dtype = np.float32
_grad_enabled = True


def set_default_dtype(name: str) -> None:
    """Set the dtype for newly created tensors: 'f32' or 'f64'."""
    global _default_dtype
    named = {"f32": np.float32, "f64": np.float64}
    if name not in named:
        raise ValueError(f"unknown dtype {name!r}, expected 'f32' or 'f64'")
    _default_dtype = named[name]


def default_dtype():
    return _default_dtype


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else _default_dtype)
        self.requires_grad = bool(requires_grad)
        # zero-init so an unreached parameter reports a zero gradient, not None
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        """Zero the gradient in place, so a gradient that is a view stays one."""
        self.grad[...] = 0

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _check_same_dtype(*tensors: Tensor) -> None:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise TypeError(f"dtype mismatch: {dt.name} vs {t.data.dtype.name}")


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    out.requires_grad = requires
    out._parents = tuple(parents) if requires else ()
    out._backward = backward_fn if requires else None
    return out


def _acc(t: Tensor, g) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops
#
# Each op hands _make a backward closure that takes the output gradient as its
# argument. The closures reference their inputs but never their output, so the
# graph holds no reference cycle and is freed as soon as the loss is dropped.
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}") from e

    def _bw(gout):
        if a.requires_grad:
            _acc(a, _unbroadcast(gout, a.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(gout, b.shape))

    return _make(data, (a, b), _bw)


def mul_elementwise(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ValueError(f"mul: incompatible shapes {a.shape} and {b.shape}") from e

    def _bw(gout):
        if a.requires_grad:
            _acc(a, _unbroadcast(gout * b.data, a.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(gout * a.data, b.shape))

    return _make(data, (a, b), _bw)


def relu(x: Tensor) -> Tensor:
    # the same bits as np.where(x > 0, x, 0), faster: fmax maps NaN to 0, and adding +0 turns -0 into +0
    out = np.fmax(x.data, x.data.dtype.type(0))
    out += 0

    def _bw(gout):
        if x.requires_grad:
            _acc(x, gout * (x.data > 0))  # strict: derivative at 0 is 0

    return _make(out, (x,), _bw)


def sigmoid(x: Tensor) -> Tensor:
    # each branch divides by 1 + e with e = exp(-|x|) <= 1, so neither overflows
    e = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def _bw(gout):
        if x.requires_grad:
            _acc(x, gout * s * (1.0 - s))

    return _make(s, (x,), _bw)


def tensor_sum(x: Tensor) -> Tensor:
    def _bw(gout):
        if x.requires_grad:
            _acc(x, np.broadcast_to(gout, x.shape))

    return _make(x.data.sum(dtype=x.data.dtype).reshape(()), (x,), _bw)


# ---------------------------------------------------------------------------
# image-shaped ops ([.,C,H,W]; convolutions [B,C,H,W] only)
# ---------------------------------------------------------------------------

def _kernel_op(forward, backward, x: Tensor, w: Tensor, bias: Tensor, *args) -> Tensor:
    """One node over a kernels forward/backward pair; the kernels check the shapes."""
    _check_same_dtype(x, w, bias)

    def _bw(gout):
        dx, dw, db = backward(x.data, w.data, gout, *args, need_dx=x.requires_grad)
        if x.requires_grad:
            _acc(x, dx)
        if w.requires_grad:
            _acc(w, dw)
        if bias.requires_grad:
            _acc(bias, db)

    return _make(forward(x.data, w.data, bias.data, *args), (x, w, bias), _bw)


def conv2d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Same-padded stride-1 cross-correlation: [B,C_in,H,W] -> [B,C_out,H,W]."""
    return _kernel_op(kernels.conv2d_forward, kernels.conv2d_backward, x, w, bias)


def conv2d_transpose(x: Tensor, w: Tensor, bias: Tensor, stride) -> Tensor:
    """Fractionally strided convolution: [B,C_in,h,w] -> [B,C_out,(h-1)sH+kH,(w-1)sW+kW]."""
    stride = (int(stride[0]), int(stride[1]))
    return _kernel_op(kernels.deconv2d_forward, kernels.deconv2d_backward, x, w, bias, stride)


def crop2d(x: Tensor, height: int, width: int) -> Tensor:
    """Top-left crop of the two trailing spatial axes."""
    if x.data.shape[-2] < height or x.data.shape[-1] < width:
        raise ValueError(f"crop target ({height},{width}) exceeds input {x.shape}")

    def _bw(gout):
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[..., :height, :width] = gout
            _acc(x, g)

    return _make(np.ascontiguousarray(x.data[..., :height, :width]), (x,), _bw)


def _image(x: Tensor):
    if x.data.ndim not in (3, 4):
        raise ValueError(f"expected 3-D or 4-D tensor, got shape {x.shape}")
    return x.data


def pool_spatial(x: Tensor, kind: str) -> Tensor:
    """Reduce [.,C,H,W] over H and W to [.,C]; kind 'max' or 'avg'."""
    xd = _image(x)
    flat = xd.reshape(*xd.shape[:-2], -1)
    if kind == "avg":
        data = flat.mean(axis=-1)

        def _bw(gout):
            if x.requires_grad:
                _acc(x, np.broadcast_to((gout / xd.dtype.type(flat.shape[-1]))[..., None, None], xd.shape))

    elif kind == "max":
        idx = flat.argmax(axis=-1)[..., None]  # first maximum in row-major order
        data = np.take_along_axis(flat, idx, axis=-1)[..., 0]

        def _bw(gout):
            if x.requires_grad:
                g = np.zeros_like(flat)
                np.put_along_axis(g, idx, gout[..., None], axis=-1)
                _acc(x, g.reshape(xd.shape))

    else:
        raise ValueError(f"pool kind must be 'max' or 'avg', got {kind!r}")
    return _make(data, (x,), _bw)


def pool_channel(x: Tensor, kind: str) -> Tensor:
    """Reduce [.,C,H,W] over the channel axis to [.,1,H,W]; kind 'max' or 'avg'."""
    xd = _image(x)
    if kind == "avg":
        data = xd.mean(axis=-3, keepdims=True)

        def _bw(gout):
            if x.requires_grad:
                _acc(x, np.broadcast_to(gout / xd.dtype.type(xd.shape[-3]), xd.shape))

    elif kind == "max":
        idx = xd.argmax(axis=-3, keepdims=True)  # first maximum along channels
        data = np.take_along_axis(xd, idx, axis=-3)

        def _bw(gout):
            if x.requires_grad:
                g = np.zeros_like(xd)
                np.put_along_axis(g, idx, gout, axis=-3)
                _acc(x, g)

    else:
        raise ValueError(f"pool kind must be 'max' or 'avg', got {kind!r}")
    return _make(data, (x,), _bw)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis (third from the end)."""
    _check_same_dtype(a, b)
    if a.data.ndim != b.data.ndim or a.data.ndim not in (3, 4):
        raise ValueError(f"concat_channels: bad ranks {a.shape}, {b.shape}")
    axis = a.data.ndim - 3
    ca = a.data.shape[axis]

    def _bw(gout):
        ga, gb = np.split(gout, [ca], axis=axis)
        if a.requires_grad:
            _acc(a, ga)
        if b.requires_grad:
            _acc(b, gb)

    return _make(np.concatenate([a.data, b.data], axis=axis), (a, b), _bw)


def scale_channels(x: Tensor, g: Tensor) -> Tensor:
    """Multiply each channel of [.,C,H,W] by its gate in g of shape [.,C]."""
    _check_same_dtype(x, g)
    if g.data.ndim != x.data.ndim - 2 or g.data.shape != x.data.shape[:-2]:
        raise ValueError(f"scale_channels: gate shape {g.shape} does not match input {x.shape}")
    ge = g.data[..., None, None]

    def _bw(gout):
        if x.requires_grad:
            _acc(x, gout * ge)
        if g.requires_grad:
            _acc(g, (gout * x.data).sum(axis=(-2, -1)))

    return _make(x.data * ge, (x, g), _bw)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over batch (axis 0) of the per-sample sum of squared differences."""
    _check_same_dtype(pred, target)
    if pred.data.shape != target.data.shape:
        raise ValueError(f"mse_loss: shape mismatch {pred.shape} vs {target.shape}")
    B = pred.data.shape[0]
    diff = pred.data - target.data
    dt = pred.data.dtype
    loss = (diff * diff).sum(dtype=dt) / dt.type(B)

    def _bw(gout):
        scale = gout * dt.type(2) / dt.type(B)
        if pred.requires_grad:
            _acc(pred, scale * diff)
        if target.requires_grad:
            _acc(target, -scale * diff)

    return _make(np.asarray(loss, dtype=dt).reshape(()), (pred, target), _bw)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def _topo_order(root: Tensor):
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order  # parents before children; root last


def backward(loss: Tensor) -> None:
    """Populate grads of every reachable requires_grad tensor with ∂loss/∂t."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    for node in order:
        if node._parents:  # leaves keep their grads (accumulation across calls)
            node.grad = None
    _acc(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
