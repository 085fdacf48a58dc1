"""Context encoders: order-invariant mean aggregation, backward LSTM, and
backward GRU-ODE, plus the feed-forward heads that parameterize the latents.

Every encoder is batched: it takes shared timesteps, ``(B, C, d_y)`` values
and a ``(B, C)`` presence mask, and returns a ``(B, d_r)`` representation; a
single sequence is a batch of one. The LSTM carries its ``[h | c]`` state as
one array and reads ``h`` from it once, at the end. The GRU-ODE consumes each
present observation with a GRU jump at its own time and evolves the hidden
state between consecutive timesteps by integrating its field, which
``ProcessModel`` makes a tanh MLP of sizes ``[d_r, hidden, d_r]``; masked
points are skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .distributions import DiagNormal, LogNormalD, positive_sigma
from .ode import integrate
from .tensor import DomainError, Tensor


def np_encode_batch(times, values, mask, params):
    """Masked mean of MLP([t_i, y_i]) over present points. values: (B, C, d_y).

    One MLP call covers all B*C points; masked points are computed and then
    weighted by zero.
    """
    b, c, d_y = values.shape
    counts = mask.sum(axis=1, keepdims=True).astype(np.float64)
    if np.any(counts == 0):
        raise DomainError("np_encode_batch: an element has no present context points")
    t_col = np.broadcast_to(np.asarray(times, dtype=np.float64)[None, :, None], (b, c, 1))
    x = np.concatenate([t_col, values], axis=2).reshape(b * c, 1 + d_y)
    h = T.reshape(params(x), (b, c, -1))
    m = Tensor(mask[:, :, None].astype(np.float64))
    return T.tsum(m * h, axis=1) / Tensor(counts)


def lstm_encode_backward_batch(times, values, mask, params):
    """Backward LSTM over all points; requires a fully present mask."""
    if not np.all(mask):
        raise DomainError("lstm encoder assumes regular sampling; use the gruode encoder")
    b, c, _ = values.shape
    state = Tensor(np.zeros((b, 2 * params.d_h)))      # [h | c]
    for i in range(c - 1, -1, -1):
        state = nn.lstm_cell(params, Tensor(values[:, i, :]), state)
    return state[:, :params.d_h]


def gru_ode_encode_batch(times, values, mask, g_field, params, cfg):
    """Batched backward GRU-ODE with per-element masks.

    Requires every element present at index 0, so the pass ends exactly at the
    earliest observation; the hidden state is zeroed at each element's first
    (latest-in-time) jump so integration before it cannot leak in.
    """
    if not np.all(mask[:, 0]):
        raise DomainError("gru_ode_encode_batch requires the first timestep present")
    b, c, _ = values.shape
    d_h = params.bz.shape[0]
    h = Tensor(np.zeros((b, d_h)))
    started = np.zeros(b, dtype=bool)
    for i in range(c - 1, -1, -1):
        if i < c - 1:
            h = integrate(g_field, h, float(times[i + 1]), float(times[i]), None, cfg)
        pres = mask[:, i]
        if not np.any(pres):
            continue
        h_pre = Tensor(started[:, None].astype(np.float64)) * h
        h_jump = nn.gru_cell(params, Tensor(values[:, i, :]), h_pre)
        m = Tensor(pres[:, None].astype(np.float64))
        h = m * h_jump + (1.0 - m) * h
        started = started | pres
    return h


@dataclass
class LatentHeads:
    """Linear map r -> (mu_L0, sigma_raw_L0, mu_D, sigma_raw_D)."""

    w: Tensor
    b: Tensor
    d_z: int
    d_d: int

    def tensors(self):
        return {"w": self.w, "b": self.b}


def init_latent_heads(rng, d_r, d_z, d_d):
    w, b = nn.init_linear(rng, d_r, 2 * d_z + 2 * d_d)
    return LatentHeads(w, b, d_z, d_d)


def latent_params(r, heads, family):
    """Latent distributions from a representation; family 'normal' or 'lognormal'."""
    if family not in ("normal", "lognormal"):
        raise ValueError(f"unknown latent family {family!r}")
    out = r @ heads.w + heads.b
    dz, dd = heads.d_z, heads.d_d
    mu_l0 = out[:, :dz]
    sig_l0 = positive_sigma(out[:, dz:2 * dz])
    mu_d = out[:, 2 * dz:2 * dz + dd]
    sig_d = positive_sigma(out[:, 2 * dz + dd:])
    dist_cls = DiagNormal if family == "normal" else LogNormalD
    return dist_cls(mu_l0, sig_l0), dist_cls(mu_d, sig_d)
