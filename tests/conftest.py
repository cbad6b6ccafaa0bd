import numpy as np
import pytest

from chansr import autodiff as ad


@pytest.fixture(autouse=True)
def _f32_default():
    # tests that want f64 switch locally and this restores the default
    ad.set_default_dtype("f32")
    yield
    ad.set_default_dtype("f32")


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
