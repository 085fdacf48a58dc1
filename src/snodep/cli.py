"""Command-line surface: generation, preprocessing, flux estimation, knockout
building, training, evaluation, comparison, and context sweeps.

Exit codes: 0 success, 2 validation error, 3 numerical failure. All artifacts
are CSV (plus .npz checkpoints); plotting is left to external tools.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import data as dp
from .config import load_config, resolve_heads
from .data import ValidationError
from .models import ModelConfig, ProcessModel
from .ode import SolverConfig
from .scfea import ScfeaConfig, estimate_flux_balance
from .tensor import NumericsError, restore_checkpoint, save_checkpoint
from .training import TrainConfig, context_sweep, evaluate, train


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_dataset(path, cfg):
    kind = cfg["data"]["kind"]
    return dp.load_timeseries_csv(path, kind, normalized=cfg["data"]["normalized"])


def _model_config(cfg, d_y):
    head, family = resolve_heads(cfg)
    m = cfg["model"]
    return ModelConfig(
        kind=m["kind"], d_y=d_y, head=head, latent_family=family,
        d_r=m["d_r"], d_z=m["d_z"], d_d=m["d_d"], hidden=m["hidden"],
        solver=SolverConfig(cfg["solver"]["method"], cfg["solver"]["steps_per_unit"]),
        encode_time=m["encode_time"],
    )


def _train_config(cfg, seed=None):
    t = cfg["train"]
    return TrainConfig(
        steps=t["steps"], batch_size=t["batch_size"], lr=t["lr"],
        seed=t["seed"] if seed is None else seed,
        context_len=t["context_len"], target_len=t["target_len"],
        frequency=t["frequency"], kl_weight=t["kl_weight"],
    )


def _scfea_config(cfg):
    s = cfg["scfea"]
    return ScfeaConfig(steps=s["steps"], lr=s["lr"], hidden=s["hidden"],
                       lambda_nt=s["lambda_nt"], seed=s["seed"])


def _write_metrics(path, report):
    header = ["timestep", "mse", "unseen"] + [f"dim{i}" for i in
                                              range(report.per_dim.shape[1])]
    unseen = set(report.unseen_indices.tolist())
    rows = []
    for i, t in enumerate(report.times):
        rows.append([t, report.per_timestep[i], int(i in unseen)]
                    + list(report.per_dim[i]))
    _write_csv(path, header, rows)


def cmd_generate(args):
    out = _ensure_dir(args.out)
    ds, truth = dp.generate_synthetic(args.kind, args.features, args.timesteps,
                                      args.cells, args.seed)
    dp.save_timeseries_csv(os.path.join(out, "dataset.csv"), ds)
    if args.kind == "poisson":
        header = ["time"] + [f"lambda_{n}" for n in ds.feature_names]
        rows = [[t] + list(truth["lambda"][i]) for i, t in enumerate(ds.times)]
    else:
        header = ["time"] + [f"mu_{n}" for n in ds.feature_names] \
            + [f"sigma_{n}" for n in ds.feature_names]
        rows = [[t] + list(truth["mu"][i]) + list(truth["sigma"][i])
                for i, t in enumerate(ds.times)]
    _write_csv(os.path.join(out, "truth.csv"), header, rows)
    with open(os.path.join(out, "spec.json"), "w") as fh:
        json.dump({"kind": args.kind, "features": args.features,
                   "timesteps": args.timesteps, "cells": args.cells,
                   "seed": args.seed}, fh, indent=2)
    if not args.quiet:
        print(f"wrote synthetic {args.kind} dataset to {out}")
    return 0


def cmd_preprocess(args):
    cfg = load_config(args.config)
    out = _ensure_dir(args.out)
    ds = dp.load_timeseries_csv(args.data, "expression")
    normalized = dp.log_normalize_scale(ds, fit_timesteps=cfg["train"]["target_len"])
    dp.save_timeseries_csv(os.path.join(out, "normalized.csv"), normalized)
    if not args.quiet:
        print(f"wrote normalized expression to {out}/normalized.csv")
    return 0


def cmd_estimate_flux(args):
    cfg = load_config(args.config)
    out = _ensure_dir(args.out)
    ds = dp.load_timeseries_csv(args.data, "expression")
    pathway = dp.load_pathway_json(args.pathway)
    flux_ds, balance_ds = estimate_flux_balance(ds, pathway, _scfea_config(cfg))
    dp.save_timeseries_csv(os.path.join(out, "flux.csv"), flux_ds)
    dp.save_timeseries_csv(os.path.join(out, "balance.csv"), balance_ds)
    if not args.quiet:
        print(f"wrote flux/balance estimates to {out}")
    return 0


def cmd_knockout(args):
    cfg = load_config(args.config)
    out = _ensure_dir(args.out)
    ds = dp.load_timeseries_csv(args.data, "expression")
    pathway = dp.load_pathway_json(args.pathway)
    scfea_cfg = _scfea_config(cfg)
    ko = dp.knockout_generate(
        ds, pathway, k=args.k if args.k is not None else cfg["knockout"]["k"],
        n_subsets=args.subsets if args.subsets is not None else cfg["knockout"]["subsets"],
        seed=args.seed if args.seed is not None else cfg["knockout"]["seed"],
        estimator=lambda d: estimate_flux_balance(d, pathway, scfea_cfg))
    for i, conf in enumerate(ko.configurations):
        conf_dir = _ensure_dir(os.path.join(out, f"config_{i:02d}"))
        dp.save_timeseries_csv(os.path.join(conf_dir, "flux.csv"), conf.flux)
        dp.save_timeseries_csv(os.path.join(conf_dir, "balance.csv"), conf.balance)
        with open(os.path.join(conf_dir, "meta.json"), "w") as fh:
            json.dump({"knocked_genes": conf.knocked_genes,
                       "indicator": conf.indicator.tolist(),
                       "split": conf.split}, fh, indent=2)
    if not args.quiet:
        print(f"wrote {len(ko.configurations)} knockout configurations to {out}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config)
    out = _ensure_dir(args.out)
    ds = _load_dataset(args.data, cfg)
    model_cfg = _model_config(cfg, ds.d_y)
    train_cfg = _train_config(cfg, args.seed)
    model = ProcessModel(model_cfg, seed=train_cfg.seed)
    quiet = args.quiet

    def progress(step, loss, parts):
        if not quiet and (step % 500 == 0 or step == train_cfg.steps - 1):
            print(f"step {step}: loss {loss:.4f} (kl {parts['kl']:.4f})")

    history = train(model, ds, train_cfg, callback=progress)
    save_checkpoint(os.path.join(out, "checkpoint.npz"), model.parameters())
    _write_csv(os.path.join(out, "loss.csv"), ["step", "loss"],
               list(enumerate(history)))
    report = evaluate(model, ds, train_cfg.context_len, train_cfg.target_len,
                      np.random.default_rng(train_cfg.seed + 1),
                      cfg["eval"]["contexts"], cfg["eval"]["frequency"])
    _write_metrics(os.path.join(out, "metrics.csv"), report)
    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump(cfg, fh, indent=2)
    if not quiet:
        print(f"unseen-timestep test-MSE: {report.unseen_mse:.6f}")
    return 0


def cmd_evaluate(args):
    cfg = load_config(args.config)
    out = _ensure_dir(args.out)
    ds = _load_dataset(args.data, cfg)
    model_cfg = _model_config(cfg, ds.d_y)
    train_cfg = _train_config(cfg, args.seed)
    model = ProcessModel(model_cfg, seed=train_cfg.seed)
    restore_checkpoint(model.parameters(), args.checkpoint)
    report = evaluate(model, ds, train_cfg.context_len, train_cfg.target_len,
                      np.random.default_rng(train_cfg.seed + 1),
                      cfg["eval"]["contexts"], cfg["eval"]["frequency"])
    _write_metrics(os.path.join(out, "metrics.csv"), report)
    if not args.quiet:
        print(f"unseen-timestep test-MSE: {report.unseen_mse:.6f}")
    return 0


def _compare_cell(cfg, ds, kind, seed):
    model_cfg = _model_config({**cfg, "model": {**cfg["model"], "kind": kind}}, ds.d_y)
    train_cfg = _train_config(cfg, seed)
    model = ProcessModel(model_cfg, seed=seed)
    train(model, ds, train_cfg)
    report = evaluate(ds=ds, model=model, context_len=train_cfg.context_len,
                      target_len=train_cfg.target_len,
                      rng=np.random.default_rng(seed + 1),
                      n_contexts=cfg["eval"]["contexts"],
                      frequency=cfg["eval"]["frequency"])
    return report.unseen_mse


def cmd_compare(args):
    cfg = load_config(args.config)
    out = _ensure_dir(args.out)
    ds = _load_dataset(args.data, cfg)
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    if not kinds:
        raise ValidationError("compare needs at least one model kind")
    base_seed = args.seed if args.seed is not None else cfg["train"]["seed"]
    seeds = [base_seed + i for i in range(args.seeds)]
    cells = [(kind, seed) for kind in kinds for seed in seeds]
    results = [_compare_cell(cfg, ds, k, s) for k, s in cells]
    mse = {}
    rows = []
    for (kind, seed), value in zip(cells, results):
        mse.setdefault(kind, []).append(value)
        rows.append([kind, seed, value])
    for kind in kinds:
        rows.append([kind, "mean", float(np.mean(mse[kind]))])
    if "nodep" in mse and "snodep" in mse:
        rows.append(["nodep_minus_snodep", "mean",
                     float(np.mean(mse["nodep"]) - np.mean(mse["snodep"]))])
    _write_csv(os.path.join(out, "comparison.csv"),
               ["model", "seed", "test_mse"], rows)
    if not args.quiet:
        for kind in kinds:
            print(f"{kind}: mean test-MSE {np.mean(mse[kind]):.6f}")
    return 0


def cmd_sweep_context(args):
    cfg = load_config(args.config)
    out = _ensure_dir(args.out)
    ds = _load_dataset(args.data, cfg)
    contexts = [int(c) for c in args.contexts.split(",") if c.strip()]
    model_cfg = _model_config(cfg, ds.d_y)
    train_cfg = _train_config(cfg, args.seed)
    rows = context_sweep(ds, contexts, model_cfg, train_cfg,
                         n_contexts=cfg["eval"]["contexts"])
    _write_csv(os.path.join(out, "sweep.csv"), ["context_len", "test_mse"], rows)
    if not args.quiet:
        for c_len, value in rows:
            print(f"C={c_len}: test-MSE {value:.6f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="snodep",
        description="Structured neural ODE processes for time-varying "
                    "distributions of gene expression, flux, and balance data.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", default=None, help="JSON run configuration")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--quiet", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="synthetic dataset with known dynamics")
    p.add_argument("--kind", choices=["poisson", "gaussian"], required=True)
    p.add_argument("--cells", type=int, default=200)
    p.add_argument("--timesteps", type=int, default=16)
    p.add_argument("--features", type=int, default=5)
    p.set_defaults(func=cmd_generate, seed=0)

    p = sub.add_parser("preprocess", parents=[common],
                       help="log-normalize and scale expression counts")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("estimate-flux", parents=[common],
                       help="scFEA-lite flux and balance estimation")
    p.add_argument("--data", required=True)
    p.add_argument("--pathway", required=True)
    p.set_defaults(func=cmd_estimate_flux)

    p = sub.add_parser("knockout", parents=[common],
                       help="gene-knockout flux/balance dataset builder")
    p.add_argument("--data", required=True)
    p.add_argument("--pathway", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--subsets", type=int, default=None)
    p.set_defaults(func=cmd_knockout)

    p = sub.add_parser("train", parents=[common], help="train one model")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common],
                       help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", parents=[common],
                       help="model comparison over seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--models", default="np,nodep,snodep")
    p.add_argument("--seeds", type=int, default=1)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-context", parents=[common],
                       help="test-MSE versus context length")
    p.add_argument("--data", required=True)
    p.add_argument("--contexts", default="2,4,6,8")
    p.set_defaults(func=cmd_sweep_context)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
