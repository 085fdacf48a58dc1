"""Simplified single-cell flux estimation on a metabolite/module factor graph.

Each module owns a small network mapping its gene expression to a positive
flux; networks are trained jointly to minimize metabolite imbalance plus a
hop-2 neighborhood term. An anchor term ties each module flux to the mean
expression of its genes, since the pure balance objective is minimized by the
all-zero flux.

The objective is linear algebra. With ``S`` the (metabolites x modules)
stoichiometric matrix and ``F`` the (modules x cells) fluxes, the imbalance is
``S @ F``. The hop-2 term adds a metabolite's squared imbalance once more for
every neighbourhood it lies in, so it folds into one weight per metabolite:
``c_n`` is 1 plus the number of metabolites sharing a module with n, read from
the 0/1 incidence matrix ``T``. The loss is
``sum_n c_n ||(S F)_n||^2 + lambda ||F - a||^2`` with ``a`` the module
activities. The module networks are stacked into batched weights, and the
loss is one tape node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .data import PathwayDef, TimeSeriesDataset, ValidationError
from .tensor import Adam, NumericsError, Tensor, backward


@dataclass
class ScfeaConfig:
    steps: int = 1000
    lr: float = 5e-3
    hidden: int = 16
    lambda_nt: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        if not self.lr > 0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")
        if self.hidden < 1:
            raise ValidationError(f"hidden must be >= 1, got {self.hidden}")
        if not self.lambda_nt >= 0:
            raise ValidationError(f"lambda_nt must be >= 0, got {self.lambda_nt}")


def pathway_matrices(pathway: PathwayDef):
    """(v, u) stoichiometric matrix ``S``, +1 per producer and -1 per consumer
    listing, and incidence ``T``, True wherever a module is listed: a module
    that feeds and drains a metabolite cancels in ``S`` but touches it in ``T``."""
    col = {m.name: j for j, m in enumerate(pathway.modules)}
    s = np.zeros((pathway.n_metabolites, pathway.n_modules))
    touch = np.zeros(s.shape, dtype=bool)
    for k, met in enumerate(pathway.metabolites):
        for mods, sign in ((met.in_modules, 1.0), (met.out_modules, -1.0)):
            for mod in mods:
                s[k, col[mod]] += sign
                touch[k, col[mod]] = True
    return s, touch


def hop2_share(touch):
    """(v, v) hop-2 relation: True where two distinct metabolites share an
    adjacent module in the bipartite factor graph."""
    share = touch @ touch.T
    np.fill_diagonal(share, False)
    return share


def hop2_weights(touch):
    """(v,) weights ``c``: 1 for a metabolite's own squared imbalance, plus 1 for
    every neighbourhood that lists it, which is the size of its own."""
    return 1.0 + hop2_share(touch).sum(axis=1)


@dataclass
class ModuleNets:
    """Every module's network, stacked: module i owns slice i of each weight.

    Module i reads the expression rows ``gene_rows[i, :k_i]`` and outputs
    ``softplus(tanh(x @ w0[i] + b0[i]) @ w1[i] + b1[i])``, one positive flux
    per cell. Rows ``k_i`` onward of ``w0[i]`` are padding: they start at zero
    and meet inputs masked to zero, so their gradient is zero and Adam leaves
    them at zero.
    """

    w0: Tensor              # (u, g_max, h)
    b0: Tensor              # (u, 1, h)
    w1: Tensor              # (u, h, 1)
    b1: Tensor              # (u, 1, 1)
    gene_rows: np.ndarray   # (u, g_max) expression rows, padding 0
    mask: np.ndarray        # (u, g_max) True on a module's genes, False on padding

    def inputs(self, expression):
        """(u, n_cells, g_max) each module's gene expression, padding zero.

        ``expression``: (d_genes, n_cells) array aligned with the pathway genes.
        """
        expression = np.asarray(expression, dtype=np.float64)
        needed = int(self.gene_rows.max()) + 1
        if expression.shape[0] < needed:
            raise ValidationError(
                f"expression matrix has {expression.shape[0]} gene rows but module "
                f"gene indices need at least {needed}")
        x = np.where(self.mask[:, :, None], expression[self.gene_rows], 0.0)
        return np.ascontiguousarray(x.transpose(0, 2, 1))

    def tensors(self):
        return {"w0": self.w0, "b0": self.b0, "w1": self.w1, "b1": self.b1}


def init_module_nets(pathway: PathwayDef, gene_index, hidden, rng):
    """Stacked module nets drawn as one ``nn.init_mlp(rng, [k_i, hidden, 1])``
    per module in pathway order, so the draws match per-module networks."""
    if not pathway.modules:
        raise ValidationError("pathway has no modules")
    rows = []
    for mod in pathway.modules:
        if not mod.genes:
            raise ValidationError(f"module {mod.name} has no genes")
        rows.append([gene_index[g] for g in mod.genes])
    u, g_max = len(rows), max(len(r) for r in rows)
    w0, b0 = np.zeros((u, g_max, hidden)), np.zeros((u, 1, hidden))
    w1, b1 = np.zeros((u, hidden, 1)), np.zeros((u, 1, 1))
    gene_rows, mask = np.zeros((u, g_max), dtype=np.intp), np.zeros((u, g_max), bool)
    for i, r in enumerate(rows):
        (wa, ba), (wb, bb) = nn.init_mlp(rng, [len(r), hidden, 1]).layers
        w0[i, :len(r)], b0[i, 0] = wa.values, ba.values
        w1[i], b1[i, 0] = wb.values, bb.values
        gene_rows[i, :len(r)], mask[i, :len(r)] = r, True
    return ModuleNets(Tensor(w0, True), Tensor(b0, True), Tensor(w1, True),
                      Tensor(b1, True), gene_rows, mask)


@dataclass
class BalanceProblem:
    """One timestep's fixed inputs to :func:`balance_loss`."""

    x: np.ndarray         # (u, n_cells, g_max) from ModuleNets.inputs
    activity: np.ndarray  # (u, n_cells) mean expression of each module's genes
    s: np.ndarray         # (v, u) stoichiometric matrix
    c: np.ndarray         # (v,) hop-2 weights
    lambda_nt: float


def balance_problem(nets: ModuleNets, expression, s, c, lambda_nt=0.1):
    """Gather the expression once for every step on one timestep."""
    if not lambda_nt >= 0:
        raise ValidationError(f"lambda_nt must be >= 0, got {lambda_nt}")
    x = nets.inputs(expression)
    activity = x.sum(axis=2) / nets.mask.sum(axis=1)[:, None]
    return BalanceProblem(x, activity, s, c, lambda_nt)


def _forward(nets: ModuleNets, x):
    """Hidden activations (u, n, h), pre-softplus outputs (u, n) and fluxes (u, n)."""
    hid = x @ nets.w0.values
    hid += nets.b0.values
    np.tanh(hid, out=hid)                 # in place: a large fresh array costs page faults
    r = (hid @ nets.w1.values + nets.b1.values)[:, :, 0]
    return hid, r, T._softplus(r)


def balance_loss(nets: ModuleNets, problem: BalanceProblem):
    """``sum_n c_n ||(S F)_n||^2 + lambda_nt ||F - a||^2`` as one tape node."""
    p = problem
    hid, r, flux = _forward(nets, p.x)
    imb = p.s @ flux                      # (v, n)
    dev = flux - p.activity               # (u, n)
    loss = p.c @ np.sum(imb * imb, axis=1) + p.lambda_nt * np.sum(dev * dev)
    w1 = nets.w1.values

    def bwd(g):
        g_flux = 2.0 * g * (p.s.T @ (p.c[:, None] * imb) + p.lambda_nt * dev)
        g_r = (g_flux * T._expit(r))[:, :, None]            # (u, n, 1)
        # (g_r * w1) * (1 - hid^2), the order a per-module MLP uses: long
        # training runs are chaotic, so a reordered product changes their end
        g_z = g_r * w1.transpose(0, 2, 1)                    # (u, n, h)
        d_tanh = hid * hid
        np.subtract(1.0, d_tanh, out=d_tanh)
        g_z *= d_tanh
        return (p.x.transpose(0, 2, 1) @ g_z, g_z.sum(axis=1, keepdims=True),
                hid.transpose(0, 2, 1) @ g_r, g_r.sum(axis=1, keepdims=True))

    return T.fused("scfea_balance_loss", np.asarray(loss),
                   (nets.w0, nets.b0, nets.w1, nets.b1), bwd)


def flux_matrix(nets: ModuleNets, expression):
    """(u, n_cells) flux values, no gradient tracking."""
    return _forward(nets, nets.inputs(expression))[2]


def compute_balance(flux, pathway: PathwayDef):
    """(v, n_cells) balances ``S @ flux``: in-flux sum minus out-flux sum."""
    return pathway_matrices(pathway)[0] @ np.asarray(flux, dtype=np.float64)


def estimate_flux_balance(ds: TimeSeriesDataset, pathway: PathwayDef,
                          cfg: ScfeaConfig = None):
    """Train module networks per timestep and emit flux and balance datasets."""
    cfg = cfg or ScfeaConfig()
    ds_row = {g: i for i, g in enumerate(ds.feature_names)}
    missing = [g for g in pathway.genes if g not in ds_row]
    if missing:
        raise ValidationError(f"dataset lacks pathway genes: {missing[:5]}")
    pathway_rows = [ds_row[g] for g in pathway.genes]
    gene_index = {g: i for i, g in enumerate(pathway.genes)}
    s, touch = pathway_matrices(pathway)
    c = hop2_weights(touch)

    module_names = [m.name for m in pathway.modules]
    metabolite_names = [m.name for m in pathway.metabolites]
    flux_samples, balance_samples = [], []
    seed_seq = np.random.SeedSequence(cfg.seed)
    for t, mat in enumerate(ds.samples):
        rng = np.random.default_rng(seed_seq.spawn(1)[0])
        expression = mat[pathway_rows, :]
        nets = init_module_nets(pathway, gene_index, cfg.hidden, rng)
        problem = balance_problem(nets, expression, s, c, cfg.lambda_nt)
        opt = Adam(nets.tensors(), lr=cfg.lr)
        for _ in range(cfg.steps):
            loss = balance_loss(nets, problem)
            if not np.isfinite(loss.values):
                raise NumericsError(f"scfea training diverged at timestep {t}")
            opt.zero_grad()
            backward(loss)
            opt.step()
        flux = flux_matrix(nets, expression)
        flux_samples.append(flux)
        balance_samples.append(s @ flux)
    flux_ds = TimeSeriesDataset("flux", ds.times.copy(), flux_samples, module_names)
    balance_ds = TimeSeriesDataset("balance", ds.times.copy(), balance_samples,
                                   metabolite_names)
    return flux_ds, balance_ds
