"""Adam optimizer with bias correction over one flat parameter Tensor, plus
global-norm gradient clipping over the named parameters."""

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam over one parameter tensor (a model's `ModelParams.flat`).

    Update: m <- BETA1*m + (1-BETA1)*g; v <- BETA2*v + (1-BETA2)*g^2;
    p <- p - lr * m_hat / (sqrt(v_hat) + EPS) with bias-corrected moments.
    The update and the zeroing of the gradient after it are done in place, so
    views into the parameter and its gradient stay views.
    """

    def __init__(self, param, lr: float = 1e-3):
        self.param = param
        self.lr = float(lr)
        self.t = 0
        # moments kept in float64 regardless of parameter dtype
        self.m = np.zeros(param.data.shape, np.float64)
        self.v = np.zeros(param.data.shape, np.float64)

    def step(self) -> None:
        p = self.param
        if p.grad is None:
            raise ValueError("parameter has no gradient; run backward before step")
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        g = p.grad.astype(np.float64, copy=False)
        self.m = BETA1 * self.m + (1.0 - BETA1) * g
        self.v = BETA2 * self.v + (1.0 - BETA2) * (g * g)
        m_hat = self.m / c1
        v_hat = self.v / c2
        p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(p.data.dtype)
        p.grad[...] = 0


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all grads so their joint L2 norm is at most max_norm; returns the pre-clip norm."""
    total = 0.0
    for p in params:
        if p.grad is None:
            raise ValueError("clip_global_norm: missing gradient")
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            p.grad *= p.grad.dtype.type(scale)
    return norm
