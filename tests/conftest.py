import os

# BLAS must be pinned before numpy is first imported: multi-threaded matmuls
# sum in another order, and the acceptance model depends on that rounding.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from hintasr import tensor as tz
from hintasr.tensor import GradTape, Tensor, backward, finite_diff_grad
from hintasr.model import ModelConfig


def rel_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    b = np.asarray(numeric, dtype=np.float64).reshape(-1)
    err = np.abs(a - b)
    tol = atol + rtol * np.maximum(np.abs(a), np.abs(b))
    return bool((err <= tol).all())


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7, what=""):
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    b = np.asarray(numeric, dtype=np.float64).reshape(-1)
    err = np.abs(a - b)
    tol = atol + rtol * np.maximum(np.abs(a), np.abs(b))
    worst = int(np.argmax(err - tol))
    assert (err <= tol).all(), (
        f"{what} gradient mismatch at flat index {worst}: "
        f"analytic {a[worst]:.8e} vs numeric {b[worst]:.8e}")


def check_gradient(f, x, rtol=1e-4, atol=1e-7, h=1e-5, what=""):
    """Tape gradient of scalar f(x) vs central differences."""
    x.zero_grad()
    with GradTape() as tape:
        out = f(x)
        backward(tape, out)
    fd = finite_diff_grad(f, x, h=h)
    assert x.grad is not None, f"{what}: no gradient reached x"
    assert_grads_close(x.grad, fd.data, rtol=rtol, atol=atol, what=what)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


TINY = dict(vocab_size=7, feature_dim=6, num_encoder_layers=1, encoder_dim=8,
            feedforward_dim=12, self_attention_heads=2, cross_attention_heads=2,
            context_dim=4, joiner_dim=8)


@pytest.fixture
def tiny_cfg():
    return ModelConfig(**TINY)


def random_tensor(rng, shape, requires_grad=True, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=requires_grad)
