"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single [PASS]/[FAIL]
line so the whole gate can be read at a glance from the pytest output. The
empirical criteria (5-7) train real models and together take a few minutes.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from snodep import cli, nn
from snodep.data import (
    TimeSeriesDataset,
    generate_synthetic,
    knockout_generate,
    pathway_from_dict,
    save_timeseries_csv,
    top_expressed_genes,
)
from snodep.distributions import DiagNormal, PoissonD, kl_divergence
from snodep.encoders import gru_ode_encode_batch, np_encode_batch
from snodep.models import KINDS, ModelConfig, ProcessModel
from snodep.ode import SolverConfig, integrate
from snodep.scfea import (
    ScfeaConfig,
    balance_loss,
    balance_problem,
    compute_balance,
    estimate_flux_balance,
    hop2_share,
    hop2_weights,
    init_module_nets,
    pathway_matrices,
)
from snodep.tensor import Adam, Tensor, backward
from snodep.training import (
    TrainConfig,
    TrajectoryBatch,
    elbo_loss,
    evaluate,
    test_mse as distribution_mse,
    train,
)


def announce(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_fidelity(capsys):
    """Analytic ELBO gradients match central finite differences for all kinds."""
    start = time.time()
    h = 1e-5
    worst = 0.0
    for kind in KINDS:
        cfg = ModelConfig(kind, d_y=2, head="poisson", latent_family="lognormal",
                          d_r=6, d_z=4, d_d=3, hidden=5,
                          solver=SolverConfig("euler", 2))
        model = ProcessModel(cfg, seed=0)
        rng = np.random.default_rng(7)
        values = rng.poisson(3.0, size=(2, 4, 2)).astype(np.float64)
        batch = TrajectoryBatch(np.arange(4.0), values, context_len=2,
                                target_len=4, present=np.ones((2, 4), dtype=bool))
        noise = (rng.standard_normal((2, cfg.d_z)),
                 rng.standard_normal((2, cfg.d_d)))

        def loss_value():
            return elbo_loss(model, batch, noise)[0]

        loss = loss_value()
        for p in model.parameters().values():
            p.grad = None
        backward(loss)

        tensors = list(model.parameters().values())
        sizes = np.array([t.size for t in tensors])
        flat_total = int(sizes.sum())
        picks = rng.choice(flat_total, size=20, replace=False)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        for flat in picks:
            which = int(np.searchsorted(offsets, flat, side="right") - 1)
            t, idx = tensors[which], int(flat - offsets[which])
            analytic = t.grad.flat[idx]
            orig = t.values.flat[idx]
            t.values.flat[idx] = orig + h
            up = loss_value().values.item()
            t.values.flat[idx] = orig - h
            down = loss_value().values.item()
            t.values.flat[idx] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(analytic), abs(fd))
            rel = abs(analytic - fd) / denom if denom > 1e-8 else 0.0
            worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst < 1e-3 and elapsed < 60
    announce(capsys, 1,
             f"gradient fidelity — worst relative error {worst:.2e} over 4 kinds "
             f"x 20 params in {elapsed:.1f}s", ok)


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_solver_order(capsys):
    """Measured convergence order on dy/dt = y over [0, 1]."""

    def field(t, y, ctx):
        return y

    def err(method, steps):
        y = integrate(field, Tensor([[1.0]]), 0.0, 1.0, None,
                      SolverConfig(method, steps))
        return abs(y.values.item() - math.e)

    def slope(method, n):
        return math.log2(err(method, n) / err(method, 2 * n))

    rk4 = slope("rk4", 8)
    euler = slope("euler", 64)
    ok = 3.8 <= rk4 <= 4.2 and 0.9 <= euler <= 1.1
    announce(capsys, 2,
             f"solver order — rk4 slope {rk4:.3f} in [3.8, 4.2], "
             f"euler slope {euler:.3f} in [0.9, 1.1]", ok)


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_closed_form_oracles(capsys):
    """Closed-form KL, Poisson log-probability, and test-MSE anchors."""

    def normal(mu, sigma):
        return DiagNormal(Tensor([[float(mu)]]), Tensor([[float(sigma)]]))

    kl_same = kl_divergence(normal(0, 1), normal(0, 1)).values.item()
    kl_half = kl_divergence(normal(1, 1), normal(0, 1)).values.item()
    lp0 = PoissonD(Tensor([[1.0]])).log_prob(np.array([[0.0]])).values.item()
    # independent oracle: log p(2; 3) = 2 ln 3 - 3 - ln 2!
    lp23 = PoissonD(Tensor([[3.0]])).log_prob(np.array([[2.0]])).values.item()
    lp23_oracle = 2 * math.log(3.0) - 3.0 - math.log(2.0)
    # empirical moments mu* = 3, sigma*^2 = 0.25 from two samples
    report = distribution_mse("gaussian", np.array([[1.0]]), [np.array([[2.5, 3.5]])])
    mse = report.per_timestep[0]

    ok = (abs(kl_same) <= 1e-12 and abs(kl_half - 0.5) <= 1e-12
          and abs(lp0 + 1.0) <= 1e-12
          and abs(lp23 - lp23_oracle) <= 1e-12
          and mse == 4.25)
    announce(capsys, 3,
             f"closed-form oracles — KL {kl_same:.1e}/{kl_half:.12f}, "
             f"Poisson logp {lp0:.12f}/{lp23:.7f} "
             f"(oracle {lp23_oracle:.7f}), gaussian mse {mse}", ok)


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_encoder_invariances(capsys):
    """Mean-encoder permutation invariance; GRU-ODE with a zero field
    collapses to a plain backward GRU."""
    rng = np.random.default_rng(0)
    mlp = nn.init_mlp(rng, [3, 5, 4])
    times = np.arange(5.0)
    values = rng.normal(size=(1, 5, 2))
    mask = np.ones((1, 5), dtype=bool)
    r = np_encode_batch(times, values, mask, mlp)
    perm = np.array([3, 0, 4, 2, 1])
    r_p = np_encode_batch(times[perm], values[:, perm], mask, mlp)
    perm_err = np.abs(r.values - r_p.values).max()

    gru = nn.init_gru(rng, 2, 5)
    ctx_values = rng.normal(size=(1, 4, 2))

    def zero_field(t, h, _ctx):
        return Tensor(np.zeros(h.shape))

    r_ode = gru_ode_encode_batch(np.arange(4.0), ctx_values, np.ones((1, 4), dtype=bool),
                                 zero_field, gru, SolverConfig("euler", 3))
    h = Tensor(np.zeros((1, 5)))
    for i in (3, 2, 1, 0):
        h = nn.gru_cell(gru, Tensor(ctx_values[:, i, :]), h)
    gru_err = np.abs(r_ode.values - h.values).max()

    ok = perm_err <= 1e-12 and gru_err <= 1e-10
    announce(capsys, 4,
             f"encoder invariances — permutation error {perm_err:.1e} <= 1e-12, "
             f"zero-field GRU-ODE error {gru_err:.1e} <= 1e-10", ok)


# ------------------------------------------------------------ criteria 5 to 8


@pytest.fixture(scope="module")
def poisson_ds_small():
    ds, _ = generate_synthetic("poisson", 3, 16, 200, seed=0)
    return ds


def test_criterion_5_learning_works(capsys):
    """Trained SNODEP beats its untrained self by 2x and the constant
    global-mean predictor on unseen timesteps."""
    start = time.time()
    ds, _ = generate_synthetic("poisson", 3, 16, 500, seed=0)
    cfg = ModelConfig("snodep", d_y=3, head="poisson", latent_family="lognormal",
                      d_r=48, d_z=16, d_d=16, hidden=48,
                      solver=SolverConfig("euler", 3))
    untrained = evaluate(ProcessModel(cfg, seed=0), ds, 8, 13,
                         np.random.default_rng(123), n_contexts=16).unseen_mse
    model = ProcessModel(cfg, seed=0)
    train(model, ds, TrainConfig(steps=5000, batch_size=32, lr=3e-3,
                                 context_len=8, target_len=13))
    trained = evaluate(model, ds, 8, 13, np.random.default_rng(123),
                       n_contexts=16).unseen_mse
    global_mean = np.stack([m.mean(axis=1) for m in ds.samples]).mean(axis=0)
    const = distribution_mse("poisson", [global_mean] * 16, ds.samples,
                             unseen=np.arange(13, 16)).unseen_mse
    elapsed = time.time() - start
    ok = trained <= 0.5 * untrained and trained < const and elapsed < 900
    announce(capsys, 5,
             f"learning works — trained {trained:.3f} vs untrained {untrained:.3f} "
             f"(ratio {trained / untrained:.2f} <= 0.5) and constant-mean "
             f"{const:.3f} in {elapsed:.0f}s", ok)


def _train_and_score(ds, kind, seed, steps, head, latent_family, frequency=1.0):
    cfg = ModelConfig(kind, d_y=3, head=head, latent_family=latent_family,
                      d_r=32, d_z=16, d_d=16, hidden=32,
                      solver=SolverConfig("euler", 2))
    model = ProcessModel(cfg, seed=seed)
    train(model, ds, TrainConfig(steps=steps, batch_size=16, lr=3e-3, seed=seed,
                                 context_len=8, target_len=13,
                                 frequency=frequency))
    return evaluate(model, ds, 8, 13, np.random.default_rng(1000 + seed),
                    n_contexts=8, frequency=frequency).unseen_mse


def test_criterion_6_snodep_beats_np_regular(capsys, poisson_ds_small):
    """SNODEP outperforms the feed-forward NP on regularly sampled counts."""
    np_mse, sn_mse = ([_train_and_score(poisson_ds_small, kind, s, 1200,
                                        "poisson", "lognormal")
                       for s in range(5)]
                      for kind in ("np", "snodep"))
    wins = sum(b < a for a, b in zip(np_mse, sn_mse))
    ok = np.mean(sn_mse) < np.mean(np_mse) and wins >= 4
    announce(capsys, 6,
             f"regular sampling — snodep mean {np.mean(sn_mse):.3f} < "
             f"np mean {np.mean(np_mse):.3f}, {wins}/5 seeds", ok)


def test_criterion_7_gruode_beats_nodep_irregular(capsys):
    """SNODEP(GRU-ODE) matches or beats NODEP at sampling frequency 0.4."""
    ds, _ = generate_synthetic("gaussian", 3, 16, 200, seed=0)
    nodep, gruode = ([_train_and_score(ds, kind, s, 1000, "gaussian", "normal",
                                       frequency=0.4) for s in range(5)]
                     for kind in ("nodep", "snodep_gruode"))
    wins = sum(b <= a for a, b in zip(nodep, gruode))
    ok = np.mean(gruode) <= np.mean(nodep) and wins >= 4
    announce(capsys, 7,
             f"irregular sampling (freq 0.4) — gru-ode mean {np.mean(gruode):.3f}"
             f" <= nodep mean {np.mean(nodep):.3f}, {wins}/5 seeds", ok)


def test_criterion_8_context_sweep(capsys, poisson_ds_small, tmp_path):
    """More context does not hurt: test-MSE at C=8 <= test-MSE at C=2, from
    ``snodep sweep-context`` on the dataset saved as long CSV."""
    data = tmp_path / "dataset.csv"
    save_timeseries_csv(data, poisson_ds_small)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"kind": "snodep", "d_r": 32, "d_z": 16, "d_d": 16, "hidden": 32},
        "solver": {"method": "euler", "steps_per_unit": 2},
        "train": {"steps": 1000, "batch_size": 16, "lr": 3e-3, "seed": 0},
        "eval": {"contexts": 8}}))
    assert cli.main(["sweep-context", "--data", str(data), "--config", str(cfg),
                     "--contexts", "2,8", "--out", str(tmp_path / "sweep"),
                     "--quiet"]) == 0
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
        by_c = {int(c): float(mse) for c, mse in list(csv.reader(fh))[1:]}
    ok = by_c[8] <= by_c[2]
    announce(capsys, 8,
             f"context sweep — mse(C=8) {by_c[8]:.3f} <= mse(C=2) {by_c[2]:.3f}",
             ok)


# ---------------------------------------------------------------- criterion 9


def _toy_pathway_30():
    genes = [f"g{i:02d}" for i in range(30)]
    modules = [{"name": f"M{j}", "genes": genes[6 * j:6 * (j + 1)]}
               for j in range(5)]
    metabolites = [{"name": f"X{j}", "in_modules": [f"M{j}"],
                    "out_modules": [f"M{j + 1}"]} for j in range(4)]
    return pathway_from_dict({"genes": genes, "modules": modules,
                              "metabolites": metabolites})


def test_criterion_9_knockout_builder(capsys):
    """Knockout builder: row counts, indicator zeros, 80/20 split, and
    the top-k gene set against a brute-force sort."""
    pathway = _toy_pathway_30()
    rng = np.random.default_rng(11)
    samples = [rng.poisson(rng.uniform(1.0, 8.0, size=(30, 1)),
                           size=(30, 40)).astype(float) for _ in range(4)]
    ds = TimeSeriesDataset("expression", np.arange(4.0), samples, pathway.genes)

    totals = np.sum([m.sum(axis=1) for m in samples], axis=0)
    brute = [pathway.genes[i] for i in np.argsort(-totals, kind="stable")[:20]]
    top_ok = top_expressed_genes(ds, 20) == brute

    def estimator(expr_ds):
        return estimate_flux_balance(expr_ds, pathway, ScfeaConfig(steps=2))

    ko = knockout_generate(ds, pathway, k=20, n_subsets=5, seed=3,
                           estimator=estimator)
    u, v, d = pathway.n_modules, pathway.n_metabolites, ds.d_y
    rows_ok = all(c.flux.d_y == u + d and c.balance.d_y == v + d
                  for c in ko.configurations)
    ind_ok = all(
        set(np.flatnonzero(c.indicator == 0.0))
        == {ds.feature_names.index(g) for g in c.knocked_genes}
        and c.knocked_genes and set(c.knocked_genes) <= set(brute)
        and len(c.knocked_genes) <= 10
        for c in ko.configurations)
    split_ok = len(ko.train) == 4 and len(ko.test) == 1
    ok = top_ok and rows_ok and ind_ok and split_ok
    announce(capsys, 9,
             f"knockout builder — top-20 matches sort oracle: {top_ok}, "
             f"flux rows u+d={u + d} / balance rows v+d={v + d}: {rows_ok}, "
             f"indicator zeros: {ind_ok}, split 4/1: {split_ok}", ok)


# --------------------------------------------------------------- criterion 10


def _chain_pathway():
    return pathway_from_dict({
        "genes": [f"g{i}" for i in range(6)],
        "modules": [{"name": "M1", "genes": ["g0", "g1"]},
                    {"name": "M2", "genes": ["g2", "g3"]},
                    {"name": "M3", "genes": ["g4", "g5"]}],
        "metabolites": [{"name": "A", "in_modules": ["M1"],
                         "out_modules": ["M2"]},
                        {"name": "B", "in_modules": ["M2"],
                         "out_modules": ["M3"]}],
    })


def _random_bipartite_pathway(rng, n_mod, n_met):
    modules = [{"name": f"M{i}", "genes": [f"g{i}"]} for i in range(n_mod)]
    metabolites = []
    for k in range(n_met):
        ins = sorted(rng.choice(n_mod, size=rng.integers(0, 3),
                                replace=False).tolist())
        outs = sorted(set(rng.choice(n_mod, size=rng.integers(0, 3),
                                     replace=False).tolist()) - set(ins))
        if not ins and not outs:
            ins = [int(rng.integers(0, n_mod))]
        metabolites.append({"name": f"X{k}",
                            "in_modules": [f"M{i}" for i in ins],
                            "out_modules": [f"M{i}" for i in outs]})
    return pathway_from_dict({"genes": [f"g{i}" for i in range(n_mod)],
                              "modules": modules, "metabolites": metabolites})


def test_criterion_10_scfea_lite(capsys):
    """Balance equals stoichiometric summation, training minimizes the balance
    loss on a consistent chain, hop-2 neighborhoods match brute force."""
    pathway = _chain_pathway()
    rng = np.random.default_rng(1)
    flux = rng.random((3, 7))
    s = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    bal_err = np.abs(compute_balance(flux, pathway) - s @ flux).max()

    # consistent dataset: every module sees the same activity, so a
    # zero-imbalance, zero-anchor-penalty solution exists
    base = np.random.default_rng(4).poisson(6.0, size=(1, 30)).astype(float)
    expression = np.repeat(base, 6, axis=0)
    s_mat, touch = pathway_matrices(pathway)
    nets = init_module_nets(pathway, {g: i for i, g in enumerate(pathway.genes)},
                            16, np.random.default_rng(0))
    problem = balance_problem(nets, expression, s_mat, hop2_weights(touch), 0.1)
    opt = Adam(nets.tensors(), lr=0.02)
    initial = balance_loss(nets, problem).values.item()
    for _ in range(2500):
        loss = balance_loss(nets, problem)
        opt.zero_grad()
        backward(loss)
        opt.step()
    final = balance_loss(nets, problem).values.item()
    ratio = final / initial

    hop_rng = np.random.default_rng(0)
    hop_ok = True
    for _ in range(50):
        pw = _random_bipartite_pathway(hop_rng, int(hop_rng.integers(2, 7)),
                                       int(hop_rng.integers(2, 6)))
        share = hop2_share(pathway_matrices(pw)[1])
        adj = {m.name: set(m.in_modules) | set(m.out_modules)
               for m in pw.metabolites}
        for a, row in zip(pw.metabolites, share):
            expect = {b.name for b in pw.metabolites
                      if b.name != a.name and adj[a.name] & adj[b.name]}
            got = {b.name for b, s in zip(pw.metabolites, row) if s}
            hop_ok = hop_ok and got == expect

    ok = bal_err <= 1e-12 and ratio < 1e-3 and hop_ok
    announce(capsys, 10,
             f"scfea-lite — stoichiometric balance error {bal_err:.1e} <= 1e-12, "
             f"loss ratio {ratio:.2e} < 1e-3, hop-2 vs brute force on 50 "
             f"graphs: {hop_ok}", ok)
