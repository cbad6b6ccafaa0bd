"""Adam updates against closed forms and a hand-rolled reference."""

import numpy as np
import pytest

from chansr import autodiff as ad
from chansr.autodiff import Tensor
from chansr.optim import Adam, clip_global_norm


def test_zero_gradient_leaves_parameters_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Adam(p)
    before = p.data.copy()
    p.grad = np.zeros_like(p.data)
    opt.step()
    assert np.array_equal(p.data, before)


def test_first_step_moves_by_lr_sign():
    ad.set_default_dtype("f64")
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam(p, lr=1e-3)
    g = 0.37
    p.grad = np.array([g])
    opt.step()
    # bias-corrected first step: -lr * g / (|g| + eps') ~= -lr * sign(g)
    assert p.data[0] == pytest.approx(-1e-3 * np.sign(g), rel=1e-6)


def test_two_steps_match_handrolled_reference():
    ad.set_default_dtype("f64")
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(3)
    grads = [rng.standard_normal(3), rng.standard_normal(3)]

    p = Tensor(theta.copy(), requires_grad=True)
    opt = Adam(p, lr=0.01)
    for g in grads:
        p.grad = g.copy()
        opt.step()

    # reference Adam, written out longhand
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    m = np.zeros(3)
    v = np.zeros(3)
    ref = theta.copy()
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert np.allclose(p.data, ref, atol=1e-14)


def test_missing_grad_raises():
    p = Tensor(np.ones(2), requires_grad=True)
    opt = Adam(p)
    p.grad = None
    with pytest.raises(ValueError):
        opt.step()


def test_step_clears_grads():
    p = Tensor(np.ones(2), requires_grad=True)
    grad = p.grad
    opt = Adam(p)
    grad[...] = 1.0
    opt.step()
    assert p.grad is grad and not np.any(grad)
    # a step on the zeroed gradient moves by the first step's momentum alone
    before = p.data.copy()
    opt.step()
    assert np.all(p.data < before)


def test_clip_global_norm():
    a = Tensor(np.zeros(2), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    a.grad = np.array([3.0, 0.0], np.float32)
    b.grad = np.array([4.0], np.float32)
    norm = clip_global_norm([a, b], max_norm=2.5)
    assert norm == pytest.approx(5.0)
    assert np.allclose(a.grad, [1.5, 0.0])
    assert np.allclose(b.grad, [2.0])
    # below the threshold grads stay untouched
    norm = clip_global_norm([a, b], max_norm=10.0)
    assert norm == pytest.approx(2.5)
    assert np.allclose(b.grad, [2.0])
