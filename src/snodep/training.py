"""ELBO training on pseudo-trajectory batches and the test-MSE metrics.

A pseudo-trajectory picks one sample (cell) per timestep independently; a
batch stacks B of them over a shared time grid with a context prefix inside
the target prefix. Irregular sampling masks timesteps per batch element,
always keeping the first context point and at least two context points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import TimeSeriesDataset, ValidationError
from .distributions import kl_divergence
from .models import ModelConfig, ProcessModel
from .tensor import Adam, NumericsError, Tensor, backward
from . import tensor as T


@dataclass
class TrajectoryBatch:
    times: np.ndarray        # (T_total,)
    values: np.ndarray       # (B, T_total, d_y)
    context_len: int
    target_len: int
    present: np.ndarray      # (B, T_total) bool

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.present = np.asarray(self.present, dtype=bool)
        t_total = self.times.shape[0]
        if not self.context_len < self.target_len <= t_total:
            raise ValidationError(
                f"need context < target <= total, got C={self.context_len}, "
                f"T={self.target_len}, total={t_total}")
        if self.values.shape[1] != t_total or self.present.shape[1] != t_total:
            raise ValidationError("values/present do not span the time grid")


@dataclass
class TrainConfig:
    steps: int = 5000
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    context_len: int = 8
    target_len: int = 13
    frequency: float = 1.0
    kl_weight: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.frequency <= 1.0:
            raise ValidationError("frequency must lie in (0, 1]")
        if self.frequency * self.context_len < 2:
            raise ValidationError(
                "frequency * context_len must keep at least 2 expected context points")


def draw_presence_mask(batch_size, t_total, context_len, frequency, rng):
    """Per-element timestep mask; first point always present, >=2 in context."""
    present = np.ones((batch_size, t_total), dtype=bool)
    if frequency >= 1.0:
        return present
    present[:, 1:] = rng.random((batch_size, t_total - 1)) < frequency
    lacking = np.flatnonzero(present[:, :context_len].sum(axis=1) < 2)
    for row in lacking:
        present[row, int(rng.integers(1, context_len))] = True
    return present


def sample_batch(ds: TimeSeriesDataset, batch_size, context_len, target_len,
                 rng, frequency=1.0):
    if target_len > ds.n_timesteps:
        raise ValidationError(
            f"target length {target_len} exceeds the {ds.n_timesteps} timesteps")
    values = np.empty((batch_size, target_len, ds.d_y))
    for t in range(target_len):
        mat = ds.samples[t]
        idx = rng.integers(0, mat.shape[1], size=batch_size)
        values[:, t, :] = mat[:, idx].T
    present = draw_presence_mask(batch_size, target_len, context_len, frequency, rng)
    return TrajectoryBatch(ds.times[:target_len], values, context_len, target_len,
                           present)


def elbo_loss(model: ProcessModel, batch: TrajectoryBatch, noise, kl_weight=1.0):
    """Negative ELBO, mean over the batch.

    ``noise`` is a pair of standard-normal arrays (B, d_z) and (B, d_d) used to
    reparametrize the draw from the target-conditioned posterior. The log-ratio
    terms are evaluated as analytic KL between the target- and
    context-conditioned posteriors. Returns ``(loss, parts)`` with per-part
    scalar diagnostics.
    """
    c_len, t_len = batch.context_len, batch.target_len
    l0_ctx, d_ctx = model.encode_batch(
        batch.times[:c_len], batch.values[:, :c_len], batch.present[:, :c_len])
    l0_tgt, d_tgt = model.encode_batch(
        batch.times[:t_len], batch.values[:, :t_len], batch.present[:, :t_len])
    noise_l0, noise_d = noise
    l0 = l0_tgt.sample(Tensor(noise_l0))
    d = d_tgt.sample(Tensor(noise_d))
    dist = model.decode_batch(l0, d, float(batch.times[0]), list(batch.times[:t_len]))
    lp = dist.log_prob(batch.values[:, :t_len].transpose(1, 0, 2))   # (T, B)
    present = Tensor(batch.present[:, :t_len].T.astype(np.float64))
    loglik = T.tsum(present * lp, axis=0)                             # (B,)
    kl = kl_divergence(l0_tgt, l0_ctx) + kl_divergence(d_tgt, d_ctx)  # (B,)
    loss = T.tmean(kl_weight * kl - loglik)
    parts = {"loglik": float(loglik.values.mean()), "kl": float(kl.values.mean())}
    return loss, parts


def train(model: ProcessModel, ds: TimeSeriesDataset, cfg: TrainConfig,
          callback=None):
    """Run the training loop; returns the per-step loss history."""
    if cfg.target_len > ds.n_timesteps:
        raise ValidationError(
            f"target length {cfg.target_len} exceeds dataset timesteps")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.parameters(), lr=cfg.lr)
    history = []
    for step in range(cfg.steps):
        batch = sample_batch(ds, cfg.batch_size, cfg.context_len, cfg.target_len,
                             rng, cfg.frequency)
        noise = (rng.standard_normal((cfg.batch_size, model.cfg.d_z)),
                 rng.standard_normal((cfg.batch_size, model.cfg.d_d)))
        loss, parts = elbo_loss(model, batch, noise, cfg.kl_weight)
        if not np.isfinite(loss.values):
            raise NumericsError(f"training loss became non-finite at step {step}")
        opt.zero_grad()
        backward(loss)
        opt.step()
        history.append(float(loss.values))
        if callback is not None:
            callback(step, history[-1], parts)
    return history


@dataclass
class MetricReport:
    times: np.ndarray          # evaluated timesteps
    per_timestep: np.ndarray   # (V,) summed-over-dimensions MSE
    per_dim: np.ndarray        # (V, d_y)
    unseen_indices: np.ndarray
    unseen_mse: float          # headline: mean over unseen timesteps
    all_mse: float             # mean over every evaluated timestep


def test_mse(head_kind, pred_params, samples, times=None, unseen=None):
    """Distribution-level MSE against empirical per-timestep ground truth.

    poisson:  lambda_* + (lambda - lambda_*)^2, lambda_* the sample mean.
    gaussian: sigma_*^2 + (mu - mu_*)^2, with empirical mean and variance.
    ``pred_params[i]`` is a rate vector (poisson) or ``(mu, sigma)`` (gaussian).
    """
    if len(pred_params) != len(samples):
        raise ValidationError("one parameter vector required per evaluated timestep")
    per_dim = []
    for i, mat in enumerate(samples):
        mat = np.asarray(mat, dtype=np.float64)
        if mat.shape[1] < 2:
            raise ValidationError(
                f"timestep {i}: need at least 2 samples to estimate ground truth")
        if head_kind == "poisson":
            lam = np.asarray(pred_params[i], dtype=np.float64)
            lam_star = mat.mean(axis=1)
            per_dim.append(lam_star + (lam - lam_star) ** 2)
        elif head_kind == "gaussian":
            p = pred_params[i]
            mu = np.asarray(p[0] if isinstance(p, (tuple, list)) else p,
                            dtype=np.float64)
            mu_star = mat.mean(axis=1)
            var_star = mat.var(axis=1)
            per_dim.append(var_star + (mu - mu_star) ** 2)
        else:
            raise ValidationError(f"unknown head kind {head_kind!r}")
    per_dim = np.asarray(per_dim)
    per_timestep = per_dim.sum(axis=1)
    n = len(samples)
    if times is None:
        times = np.arange(n, dtype=np.float64)
    if unseen is None:
        unseen_idx = np.arange(n)
    else:
        unseen_idx = np.asarray(unseen, dtype=int)
    return MetricReport(
        times=np.asarray(times, dtype=np.float64),
        per_timestep=per_timestep,
        per_dim=per_dim,
        unseen_indices=unseen_idx,
        unseen_mse=float(per_timestep[unseen_idx].mean()) if unseen_idx.size else float("nan"),
        all_mse=float(per_timestep.mean()),
    )


def predict_average_params(model, ds, context_len, rng, n_contexts=8,
                           frequency=1.0):
    """Predicted output parameters per dataset timestep, averaged over
    ``n_contexts`` sampled evaluation contexts."""
    if n_contexts < 1:
        raise ValidationError(f"n_contexts must be >= 1, got {n_contexts}")
    values = np.empty((n_contexts, context_len, ds.d_y))
    for t in range(context_len):
        mat = ds.samples[t]
        idx = rng.integers(0, mat.shape[1], size=n_contexts)
        values[:, t, :] = mat[:, idx].T
    mask = draw_presence_mask(n_contexts, context_len, context_len, frequency, rng)
    dist = model.predict_batch(ds.times[:context_len], values, mask,
                               list(ds.times))
    if model.cfg.head == "poisson":
        return list(dist.lam.values.mean(axis=1))
    return list(zip(dist.mu.values.mean(axis=1), dist.sigma.values.mean(axis=1)))


def evaluate(model, ds, context_len, target_len, rng, n_contexts=8,
             frequency=1.0):
    """MetricReport over every dataset timestep; headline is the unseen range
    {target_len .. V-1}."""
    preds = predict_average_params(model, ds, context_len, rng, n_contexts,
                                   frequency)
    unseen = np.arange(target_len, ds.n_timesteps)
    return test_mse(model.cfg.head, preds, ds.samples, times=ds.times,
                    unseen=unseen)


def context_sweep(ds, context_lengths, model_cfg: ModelConfig,
                  train_cfg: TrainConfig, n_contexts=8, frequency=1.0):
    """Train one model per context length C with target length C + C//2 and
    evaluate it on ``n_contexts`` contexts at ``frequency``.

    Returns rows of ``(C, unseen_mse)``.
    """
    rows = []
    for c_len in context_lengths:
        t_len = c_len + c_len // 2
        if t_len >= ds.n_timesteps:
            raise ValidationError(
                f"C={c_len}: target length {t_len} leaves no unseen timesteps")
        cfg = replace(train_cfg, context_len=c_len, target_len=t_len)
        model = ProcessModel(model_cfg, seed=cfg.seed)
        train(model, ds, cfg)
        report = evaluate(model, ds, c_len, t_len,
                          np.random.default_rng(cfg.seed + 1), n_contexts,
                          frequency)
        rows.append((c_len, report.unseen_mse))
    return rows
