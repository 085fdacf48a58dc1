import re

import numpy as np
import pytest

from snodep import ModelConfig, ProcessModel, SolverConfig
from snodep import tensor as T
from snodep.tensor import Tensor, backward


def finite_diff(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def at_index(*idx):
    """The pattern of a DomainError's ``at index (...)``, as numpy prints it."""
    return "at index " + re.escape(str(tuple(np.intp(i) for i in idx)))


def linear_field(matrix):
    """Vector field y' = y @ A^T for a constant matrix A."""
    a_t = Tensor(np.asarray(matrix, dtype=np.float64).T)

    def f(t, y, ctx):
        return y @ a_t

    return f


def tracked(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def projected(outs, weights):
    """Scalar loss sum_k <out_k, weight_k>, so every output entry matters."""
    loss = None
    for out, w in zip(outs, weights):
        term = T.tsum(out * Tensor(w))
        loss = term if loss is None else loss + term
    return loss


def analytic_grads(build, tensors, weights):
    for t in tensors:
        t.grad = None
    backward(projected(build(), weights))
    return [t.grad.copy() for t in tensors]


def check_op(fused, composed, tensors, seed=0):
    """Fused forward equals the composed one to 1e-12; fused gradients match
    central differences and the composed gradients for every tensor."""
    outs_f, outs_c = fused(), composed()
    rng = np.random.default_rng(seed)
    weights = [rng.normal(size=o.shape) for o in outs_f]
    for a, b in zip(outs_f, outs_c):
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)
    got = analytic_grads(fused, tensors, weights)
    ref = analytic_grads(composed, tensors, weights)
    for t, g, r in zip(tensors, got, ref):
        def value(v, t=t):
            saved = t.values.copy()
            t.values[...] = v
            try:
                return sum(float((o.values * w).sum()) for o, w in zip(fused(), weights))
            finally:
                t.values[...] = saved
        fd = finite_diff(value, t.values.copy())
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)


@pytest.fixture
def small_model_factory():
    def make(kind, d_y=2, head="gaussian", family="normal", seed=0):
        cfg = ModelConfig(kind, d_y=d_y, head=head, latent_family=family,
                          d_r=6, d_z=4, d_d=3, hidden=5,
                          solver=SolverConfig("euler", 2))
        return ProcessModel(cfg, seed=seed)

    return make
