"""The four model variants assembled from encoder, latent heads, and decoder.

kind        encoder   decoder
----        -------   -------
np          mean      feed-forward in (l0, d, t)
nodep       mean      neural-ODE latent evolution
snodep      lstm      neural-ODE latent evolution
snodep_gruode  gruode neural-ODE latent evolution
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import encoders, nn
from . import tensor as T
from .distributions import DiagNormal, PoissonD, positive_rate, positive_sigma
from .ode import SolverConfig, integrate_path
from .tensor import Tensor

ENCODER_FOR_KIND = {"np": "mean", "nodep": "mean", "snodep": "lstm",
                    "snodep_gruode": "gruode"}
KINDS = tuple(ENCODER_FOR_KIND)


@dataclass
class ModelConfig:
    kind: str
    d_y: int
    head: str = "poisson"            # poisson | gaussian
    latent_family: str = "lognormal"  # lognormal | normal
    d_r: int = 64
    d_z: int = 32
    d_d: int = 32
    hidden: int = 64
    solver: SolverConfig = dc_field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if self.head not in ("poisson", "gaussian"):
            raise ValueError(f"unknown head {self.head!r}")
        if self.latent_family not in ("normal", "lognormal"):
            raise ValueError(f"unknown latent family {self.latent_family!r}")
        for name in ("d_y", "d_r", "d_z", "d_d", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class ProcessModel:
    def __init__(self, cfg: ModelConfig, seed=0):
        self.cfg = cfg
        self.encoder_kind = ENCODER_FOR_KIND[cfg.kind]
        rng = np.random.default_rng(seed)

        self.enc_mlp = None
        self.lstm = None
        self.gru = None
        self.g_mlp = None
        if self.encoder_kind == "mean":
            self.enc_mlp = nn.init_mlp(rng, [1 + cfg.d_y, cfg.hidden, cfg.d_r])
        elif self.encoder_kind == "lstm":
            self.lstm = nn.init_lstm(rng, cfg.d_y, cfg.d_r)
        else:
            self.gru = nn.init_gru(rng, cfg.d_y, cfg.d_r)
            self.g_mlp = nn.init_mlp(rng, [cfg.d_r, cfg.hidden, cfg.d_r])

        self.heads = encoders.init_latent_heads(rng, cfg.d_r, cfg.d_z, cfg.d_d)
        # shared trunk: f_theta for ODE kinds, the per-time decoder for np
        self.trunk = nn.init_mlp(
            rng, [cfg.d_z + cfg.d_d + 1, cfg.hidden, cfg.hidden, cfg.d_z])
        out_dim = cfg.d_y if cfg.head == "poisson" else 2 * cfg.d_y
        self.out_head = nn.init_mlp(rng, [cfg.d_z, cfg.hidden, out_dim])

    # ---- parameters ----
    def parameters(self):
        out = {}
        if self.enc_mlp is not None:
            out.update(nn.named_tensors(self.enc_mlp, "encoder"))
        if self.lstm is not None:
            out.update(nn.named_tensors(self.lstm, "encoder"))
        if self.gru is not None:
            out.update(nn.named_tensors(self.gru, "encoder"))
        if self.g_mlp is not None:
            out.update(nn.named_tensors(self.g_mlp, "g_field"))
        out.update(nn.named_tensors(self.heads, "latent_heads"))
        out.update(nn.named_tensors(self.trunk, "trunk"))
        out.update(nn.named_tensors(self.out_head, "out_head"))
        return out

    # ---- encoding ----
    def encode_batch(self, times, values, mask):
        """values: (B, C, d_y) array, mask: (B, C) bool -> (L0 dist, D dist).

        ``times`` (C,) is strictly ascending; a single sequence is a batch of one.
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        c = times.shape[0]
        if values.ndim != 3 or values.shape[1] != c:
            raise ValueError(
                f"context values shape {values.shape} does not match {c} timesteps")
        if mask.shape != values.shape[:2]:
            raise ValueError(
                f"context mask shape {mask.shape} does not match values {values.shape}")
        if np.any(np.diff(times) <= 0):
            raise ValueError("context times must be strictly ascending")
        if self.encoder_kind == "mean":
            r = encoders.np_encode_batch(times, values, mask, self.enc_mlp)
        elif self.encoder_kind == "lstm":
            r = encoders.lstm_encode_backward_batch(times, values, mask, self.lstm)
        else:
            r = encoders.gru_ode_encode_batch(
                times, values, mask, self._g_field, self.gru, self.cfg.solver)
        return encoders.latent_params(r, self.heads, self.cfg.latent_family)

    def _g_field(self, t, h, ctx):
        return self.g_mlp(h)

    # ---- decoding ----
    def _field(self, t, l, shift):
        return self.trunk(l, shift, t)

    def _head_dist(self, latent, n_t):
        """The output distribution for ``(T·B, d_z)`` time-major latents, with
        ``(T, B, d_y)`` parameters, from one output-head call."""
        out = self.out_head(latent)
        out = T.reshape(out, (n_t, -1, out.shape[1]))
        if self.cfg.head == "poisson":
            return PoissonD(positive_rate(out))
        d_y = self.cfg.d_y
        return DiagNormal(out[..., :d_y], positive_sigma(out[..., d_y:]))

    def decode_batch(self, l0, d, t0, query_times):
        """The output distribution at ``query_times`` (ascending, >= t0): one
        distribution whose parameters are ``(T, B, d_y)``."""
        query_times = [float(t) for t in query_times]
        if not query_times:
            raise ValueError("decode_batch needs at least one query time")
        if any(b <= a for a, b in zip(query_times, query_times[1:])):
            raise ValueError(f"query times must be strictly ascending: {query_times}")
        if query_times[0] < t0:
            raise ValueError(
                f"query time {query_times[0]} precedes the process origin {t0}")
        # the trunk's input is [l, d, t]; d is fixed, so project it once
        shift = self.trunk.first_layer_shift(d, self.cfg.d_z)
        if self.cfg.kind == "np":
            # t is a scalar inside the fused trunk, so it runs once per time
            states = T.concat([self._field(t, l0, shift) for t in query_times], axis=0)
            return self._head_dist(states, len(query_times))
        prepend = query_times[0] != t0
        path_times = [t0] + query_times if prepend else query_times
        states = integrate_path(self._field, l0, path_times, shift, self.cfg.solver)
        if prepend:
            states = states[1:]
        return self._head_dist(T.reshape(states, (-1, self.cfg.d_z)), len(query_times))

    # ---- inference ----
    def predict_batch(self, times, values, mask, query_times):
        """Deterministic inference from the context's latents at their posterior
        median: ``mu``, or ``exp(mu)`` for LogNormal latents. Builds no tape:
        the result is untracked."""
        with T.no_grad():
            l0_dist, d_dist = self.encode_batch(times, values, mask)
            l0 = l0_dist.sample(Tensor(np.zeros(l0_dist.mu.shape)))
            d = d_dist.sample(Tensor(np.zeros(d_dist.mu.shape)))
            return self.decode_batch(l0, d, float(times[0]), query_times)
