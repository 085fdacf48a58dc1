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
from .config import load_config, model_config, scfea_config, train_config
from .data import ValidationError
from .models import ProcessModel
from .scfea import estimate_flux_balance
from .tensor import NumericsError, restore_checkpoint, save_checkpoint
from .training import context_sweep, evaluate, train


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _flags(section, **flags):
    """Overrides of ``section`` by the flags given on the command line."""
    return {section: {key: value for key, value in flags.items() if value is not None}}


def _open_run(args):
    """Config (flags, then ``--config``, then defaults), output dir and dataset."""
    cfg = load_config(args.config, _flags("train", seed=args.seed))
    return cfg, _ensure_dir(args.out), dp.load_timeseries_csv(args.data, **cfg["data"])


def _evaluate(model, ds, train_cfg, cfg):
    """Test-MSE report on the ``eval`` section, contexts drawn with seed + 1."""
    return evaluate(model, ds, train_cfg.context_len, train_cfg.target_len,
                    np.random.default_rng(train_cfg.seed + 1),
                    cfg["eval"]["contexts"], cfg["eval"]["frequency"])


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
    cfg = load_config(args.config, _flags("scfea", seed=args.seed))
    out = _ensure_dir(args.out)
    ds = dp.load_timeseries_csv(args.data, "expression")
    pathway = dp.load_pathway_json(args.pathway)
    flux_ds, balance_ds = estimate_flux_balance(ds, pathway, scfea_config(cfg))
    dp.save_timeseries_csv(os.path.join(out, "flux.csv"), flux_ds)
    dp.save_timeseries_csv(os.path.join(out, "balance.csv"), balance_ds)
    if not args.quiet:
        print(f"wrote flux/balance estimates to {out}")
    return 0


def cmd_knockout(args):
    cfg = load_config(args.config, _flags("knockout", k=args.k, subsets=args.subsets,
                                          seed=args.seed))
    out = _ensure_dir(args.out)
    ds = dp.load_timeseries_csv(args.data, "expression")
    pathway = dp.load_pathway_json(args.pathway)
    scfea_cfg = scfea_config(cfg)
    ko_cfg = cfg["knockout"]
    ko = dp.knockout_generate(
        ds, pathway, ko_cfg["k"], ko_cfg["subsets"], ko_cfg["seed"],
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
    cfg, out, ds = _open_run(args)
    train_cfg = train_config(cfg)
    model = ProcessModel(model_config(cfg, ds.d_y), seed=train_cfg.seed)

    def progress(step, loss, parts):
        if not args.quiet and (step % 500 == 0 or step == train_cfg.steps - 1):
            print(f"step {step}: loss {loss:.4f} (kl {parts['kl']:.4f})")

    history = train(model, ds, train_cfg, callback=progress)
    save_checkpoint(os.path.join(out, "checkpoint.npz"), model.parameters())
    _write_csv(os.path.join(out, "loss.csv"), ["step", "loss"],
               list(enumerate(history)))
    report = _evaluate(model, ds, train_cfg, cfg)
    _write_metrics(os.path.join(out, "metrics.csv"), report)
    with open(os.path.join(out, "config.json"), "w") as fh:
        json.dump(cfg, fh, indent=2)
    if not args.quiet:
        print(f"unseen-timestep test-MSE: {report.unseen_mse:.6f}")
    return 0


def cmd_evaluate(args):
    cfg, out, ds = _open_run(args)
    train_cfg = train_config(cfg)
    model = ProcessModel(model_config(cfg, ds.d_y), seed=train_cfg.seed)
    restore_checkpoint(model.parameters(), args.checkpoint)
    report = _evaluate(model, ds, train_cfg, cfg)
    _write_metrics(os.path.join(out, "metrics.csv"), report)
    if not args.quiet:
        print(f"unseen-timestep test-MSE: {report.unseen_mse:.6f}")
    return 0


def _compare_cell(cfg, ds, kind, seed):
    cfg = {**cfg, "model": {**cfg["model"], "kind": kind},
           "train": {**cfg["train"], "seed": seed}}
    train_cfg = train_config(cfg)
    model = ProcessModel(model_config(cfg, ds.d_y), seed=seed)
    train(model, ds, train_cfg)
    return _evaluate(model, ds, train_cfg, cfg).unseen_mse


def cmd_compare(args):
    cfg, out, ds = _open_run(args)
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    if not kinds:
        raise ValidationError("compare needs at least one model kind")
    seeds = [cfg["train"]["seed"] + i for i in range(args.seeds)]
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
    cfg, out, ds = _open_run(args)
    contexts = [int(c) for c in args.contexts.split(",") if c.strip()]
    rows = context_sweep(ds, contexts, model_config(cfg, ds.d_y), train_config(cfg),
                         cfg["eval"]["contexts"], cfg["eval"]["frequency"])
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
    # generate reads no config, so it takes its flags from ``base`` alone
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--out", default="out", help="output directory")
    base.add_argument("--quiet", action="store_true")
    common = argparse.ArgumentParser(add_help=False, parents=[base])
    common.add_argument("--config", default=None, help="JSON run configuration")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[base],
                       help="synthetic dataset with known dynamics")
    p.add_argument("--kind", choices=["poisson", "gaussian"], required=True)
    p.add_argument("--cells", type=int, default=200)
    p.add_argument("--timesteps", type=int, default=16)
    p.add_argument("--features", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", parents=[common],
                       help="log-normalize and scale expression counts")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("estimate-flux", parents=[seeded],
                       help="scFEA-lite flux and balance estimation")
    p.add_argument("--data", required=True)
    p.add_argument("--pathway", required=True)
    p.set_defaults(func=cmd_estimate_flux)

    p = sub.add_parser("knockout", parents=[seeded],
                       help="gene-knockout flux/balance dataset builder")
    p.add_argument("--data", required=True)
    p.add_argument("--pathway", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--subsets", type=int, default=None)
    p.set_defaults(func=cmd_knockout)

    p = sub.add_parser("train", parents=[seeded], help="train one model")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[seeded],
                       help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", parents=[seeded],
                       help="model comparison over seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--models", default="np,nodep,snodep")
    p.add_argument("--seeds", type=int, default=1)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-context", parents=[seeded],
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
