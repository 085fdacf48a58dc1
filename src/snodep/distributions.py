"""Diagonal Normal, LogNormal, and Poisson distributions over tensors.

Log-densities are summed over the value dimension (the last axis), so a
``(B, d)`` input yields a ``(B,)`` tensor of per-sample log-probabilities.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import DomainError, ShapeError, Tensor

SIGMA_MIN = 1e-3
LAMBDA_MIN = 1e-6

_LOG_2PI = math.log(2.0 * math.pi)


def positive_sigma(raw):
    """sigma head: sigma_min + softplus(raw)."""
    return SIGMA_MIN + T.softplus(raw)


def positive_rate(raw):
    """lambda head: lambda_min + softplus(raw)."""
    return LAMBDA_MIN + T.softplus(raw)


def _check_positive(name, t):
    if np.any(t.values <= 0.0):
        idx = np.argwhere(t.values <= 0.0)[0]
        raise DomainError(f"{name}: non-positive entry at index {tuple(idx)}")


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


class DiagNormal:
    """Normal with diagonal covariance; ``mu`` and ``sigma`` share a shape."""

    def __init__(self, mu, sigma):
        self.mu = mu if isinstance(mu, Tensor) else Tensor(mu)
        self.sigma = sigma if isinstance(sigma, Tensor) else Tensor(sigma)
        _check_same_shape("DiagNormal", self.mu, self.sigma)
        _check_positive("DiagNormal sigma", self.sigma)

    def sample(self, noise):
        noise = noise if isinstance(noise, Tensor) else Tensor(noise)
        _check_same_shape("DiagNormal.sample", self.mu, noise)
        return self.mu + self.sigma * noise

    def log_prob(self, x):
        x = x if isinstance(x, Tensor) else Tensor(x)
        z = (x - self.mu) / self.sigma
        per_dim = -0.5 * _LOG_2PI - T.log(self.sigma) - 0.5 * T.square(z)
        return T.tsum(per_dim, axis=-1)


class LogNormalD(DiagNormal):
    """LogNormal: exp of the diagonal Normal with parameters ``mu``, ``sigma``."""

    def sample(self, noise):
        return T.exp(super().sample(noise))

    def log_prob(self, x):
        x = x if isinstance(x, Tensor) else Tensor(x)
        _check_positive("LogNormal log_prob input", x)
        log_x = T.log(x)
        return super().log_prob(log_x) - T.tsum(log_x, axis=-1)


class PoissonD:
    """Poisson with strictly positive rates; likelihood only, no sampling path."""

    def __init__(self, lam):
        self.lam = lam if isinstance(lam, Tensor) else Tensor(lam)
        _check_positive("Poisson lambda", self.lam)

    def log_prob(self, k):
        kv = k.values if isinstance(k, Tensor) else np.asarray(k, dtype=np.float64)
        # rejected here, before k * log(lam) can form inf * 0 where lam is 1
        bad = ~np.isfinite(kv) | (kv != np.round(kv)) | (kv < 0)
        if bad.any():
            idx = np.argwhere(bad)[0]
            raise DomainError(f"Poisson log_prob: invalid count at index {tuple(idx)}")
        k_const = Tensor(kv)
        per_dim = k_const * T.log(self.lam) - self.lam - T.lgamma_int(kv + 1.0)
        return T.tsum(per_dim, axis=-1)


def kl_divergence(p, q):
    """KL(p || q), summed over dimensions; same family required.

    For LogNormal pairs this equals the KL of the underlying Normals.
    """
    if type(p) is not type(q):
        raise TypeError(
            f"kl_divergence: family mismatch {type(p).__name__} vs {type(q).__name__}"
        )
    if not isinstance(p, DiagNormal):
        raise TypeError(f"kl_divergence: unsupported family {type(p).__name__}")
    _check_same_shape("kl_divergence", p.mu, q.mu)
    ratio = p.sigma / q.sigma
    term = T.log(q.sigma) - T.log(p.sigma) + 0.5 * T.square(ratio) \
        + 0.5 * T.square((p.mu - q.mu) / q.sigma) - 0.5
    return T.tsum(term, axis=-1)
