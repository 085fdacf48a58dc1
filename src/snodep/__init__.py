"""Structured neural ODE processes for time-varying distributions.

Model variants over a shared latent-process backbone:

- ``np``: neural process, mean-aggregated context, feed-forward decoder
- ``nodep``: neural ODE process, latent state evolved by an ODE
- ``snodep``: backward-LSTM context encoder over the ODE decoder
- ``snodep_gruode``: GRU-ODE context encoder for irregular sampling

Supporting pieces: a reverse-mode autodiff tensor core, fixed-step ODE
solvers, Normal/LogNormal/Poisson output and latent distributions, ELBO
training on pseudo-trajectories, distribution-level test-MSE metrics, dataset
tooling (synthetic generation, count normalization, gene knockouts), and a
simplified single-cell flux estimator over metabolic pathway graphs.
"""

from .config import DEFAULTS, load_config, resolve_heads
from .data import (
    KnockoutConfiguration,
    KnockoutDataset,
    PathwayDef,
    PathwayMetabolite,
    PathwayModule,
    TimeSeriesDataset,
    ValidationError,
    generate_synthetic,
    knockout_generate,
    load_expression_csv,
    load_pathway_json,
    load_timeseries_csv,
    log_normalize_scale,
    merge_configurations,
    pathway_from_dict,
    save_pathway_json,
    save_timeseries_csv,
    top_expressed_genes,
)
from .distributions import (
    LAMBDA_MIN,
    SIGMA_MIN,
    DiagNormal,
    LogNormalD,
    PoissonD,
    kl_divergence,
    positive_rate,
    positive_sigma,
)
from .models import ENCODER_FOR_KIND, KINDS, ModelConfig, ProcessModel
from .ode import SolverConfig, integrate, integrate_path
from .scfea import ScfeaConfig, compute_balance, estimate_flux_balance
from .tensor import (
    Adam,
    DomainError,
    GradientTape,
    NumericsError,
    ShapeError,
    Tensor,
    backward,
    checkpoint_record,
    gradients,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from .training import (
    MetricReport,
    TrainConfig,
    TrajectoryBatch,
    elbo_loss,
    evaluate,
    sample_batch,
    test_mse,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Adam", "DEFAULTS", "DiagNormal", "DomainError",
    "ENCODER_FOR_KIND", "GradientTape", "KINDS", "KnockoutConfiguration",
    "KnockoutDataset", "LAMBDA_MIN", "LogNormalD", "MetricReport",
    "ModelConfig", "NumericsError", "PathwayDef", "PathwayMetabolite",
    "PathwayModule", "PoissonD", "ProcessModel", "SIGMA_MIN", "ScfeaConfig",
    "ShapeError", "SolverConfig", "Tensor", "TimeSeriesDataset", "TrainConfig",
    "TrajectoryBatch", "ValidationError", "backward", "checkpoint_record",
    "compute_balance", "elbo_loss", "estimate_flux_balance", "evaluate",
    "generate_synthetic", "gradients", "integrate", "integrate_path",
    "kl_divergence", "knockout_generate", "load_checkpoint", "load_config",
    "load_expression_csv", "load_pathway_json", "load_timeseries_csv",
    "log_normalize_scale", "merge_configurations",
    "pathway_from_dict", "positive_rate", "positive_sigma",
    "resolve_heads", "restore_checkpoint", "sample_batch", "save_checkpoint",
    "save_pathway_json", "save_timeseries_csv", "test_mse",
    "top_expressed_genes", "train",
]
