"""Correctness checks the workloads run on the program's outputs.

Each check recomputes a result with its own numpy code, or asserts a property
the method must have, and raises :class:`CheckFailed` when the output is
wrong. None of them calls into the program under test; they take plain arrays
and documents, so ``test_checks.py`` can show each one rejecting a
deliberately wrong input.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _fail(msg):
    raise CheckFailed(msg)


# ---- train_snodep_rk4 ----

def central_difference(loss_at, x, index, eps=1e-5):
    """(f(x + eps e_i) - f(x - eps e_i)) / 2 eps, restoring ``x`` afterwards.

    ``x`` is modified in place while the loss is evaluated, so ``loss_at`` can
    read it through whatever object holds it.
    """
    keep = x[index]
    try:
        x[index] = keep + eps
        up = loss_at()
        x[index] = keep - eps
        down = loss_at()
    finally:
        x[index] = keep
    return (up - down) / (2.0 * eps)


def check_gradients(autodiff, finite, rtol=1e-6, atol=1e-7):
    """Autodiff gradient entries agree with central finite differences."""
    autodiff = np.asarray(autodiff, dtype=np.float64)
    finite = np.asarray(finite, dtype=np.float64)
    err = np.abs(autodiff - finite)
    bad = err > atol + rtol * np.abs(finite)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        _fail(f"gradient entry {i}: autodiff {autodiff[i]!r} vs finite "
              f"difference {finite[i]!r}")


def poisson_test_mse(rates, samples, unseen):
    """Unseen-timestep mean of sum_d [lambda*_d + (lambda_d - lambda*_d)^2]."""
    per_t = []
    for lam, mat in zip(rates, samples):
        mean = np.asarray(mat, dtype=np.float64).mean(axis=1)
        per_t.append(np.sum(mean + (np.asarray(lam) - mean) ** 2))
    return float(np.mean(np.asarray(per_t)[np.asarray(unseen, dtype=int)]))


def check_close(name, reported, expected, rtol=1e-12):
    if not np.isclose(reported, expected, rtol=rtol, atol=0.0):
        _fail(f"{name}: program reports {reported!r}, benchmark computes {expected!r}")


def poisson_floor(samples, unseen):
    """Mean over unseen timesteps of the summed per-feature sample means."""
    return float(np.mean([np.asarray(samples[t]).mean(axis=1).sum() for t in unseen]))


def gaussian_floor(samples, unseen):
    """Mean over unseen timesteps of the summed per-feature sample variances."""
    return float(np.mean([np.asarray(samples[t]).var(axis=1).sum() for t in unseen]))


def check_at_least(name, value, floor):
    if not value >= floor:
        _fail(f"{name} {value!r} is below its floor {floor!r}")


def check_loss_decreases(history):
    """The last tenth of a loss history has a lower mean than the first tenth."""
    n = max(1, len(history) // 10)
    first, last = float(np.mean(history[:n])), float(np.mean(history[-n:]))
    if not last < first:
        _fail(f"training loss did not fall: first-tenth mean {first!r}, "
              f"last-tenth mean {last!r}")


def expected_nfe(grid, steps_per_unit, stages):
    """Vector-field evaluations of a fixed-step solve along ``grid``."""
    grid = np.asarray(grid, dtype=np.float64)
    steps = sum(max(1, int(round(abs(b - a) * steps_per_unit)))
                for a, b in zip(grid, grid[1:]) if b != a)
    return stages * steps


def check_nfe(counted, grid, steps_per_unit, stages):
    want = expected_nfe(grid, steps_per_unit, stages)
    bad = [n for n in counted if n != want]
    if not counted or bad:
        _fail(f"decoder NFE per step {sorted(set(counted))} != {want} "
              f"({stages} stages x steps over the grid)")


# ---- flux_knockout ----

def stoichiometry(pathway_doc):
    """(metabolites x modules) stoichiometric matrix and the 0/1 incidence."""
    col = {m["name"]: j for j, m in enumerate(pathway_doc["modules"])}
    n_met, n_mod = len(pathway_doc["metabolites"]), len(col)
    s = np.zeros((n_met, n_mod))
    touch = np.zeros((n_met, n_mod), dtype=bool)
    for i, met in enumerate(pathway_doc["metabolites"]):
        for name in met["in_modules"]:
            s[i, col[name]] += 1.0
            touch[i, col[name]] = True
        for name in met["out_modules"]:
            s[i, col[name]] -= 1.0
            touch[i, col[name]] = True
    return s, touch


def hop2_weights(touch):
    """1 + the number of other metabolites sharing a module with each one.

    The hop-2 objective adds each metabolite's squared imbalance once for
    itself and once for every metabolite in whose neighbourhood it lies; the
    relation is symmetric, so that is its own neighbourhood size.
    """
    share = (touch.astype(np.int64) @ touch.T.astype(np.int64)) > 0
    np.fill_diagonal(share, False)
    return 1.0 + share.sum(axis=1)


def module_activity(pathway_doc, expression):
    """(modules, cells) mean expression of each module's genes.

    ``expression`` is (pathway genes, cells) in the order of the document.
    """
    row = {g: i for i, g in enumerate(pathway_doc["genes"])}
    return np.stack([expression[[row[g] for g in m["genes"]], :].mean(axis=0)
                     for m in pathway_doc["modules"]])


def scfea_objective(flux, expression, pathway_doc, lambda_nt):
    """Per-cell scfea objective: sum_n c_n (S F)_n^2 + lambda ||F - a||^2."""
    s, touch = stoichiometry(pathway_doc)
    imbalance = s @ flux
    total = np.sum(hop2_weights(touch)[:, None] * imbalance ** 2)
    total += lambda_nt * np.sum((flux - module_activity(pathway_doc, expression)) ** 2)
    return float(total / flux.shape[1])


def check_balance(balance, flux, s, atol=1e-12):
    err = float(np.max(np.abs(np.asarray(balance) - s @ np.asarray(flux))))
    if not err <= atol:
        _fail(f"balance differs from S @ flux by {err:.3g} (> {atol:g})")


def check_improves(name, trained, untrained):
    if not trained < untrained:
        _fail(f"{name}: objective at trained fluxes {trained!r} is not below "
              f"the untrained {untrained!r}")


def check_equal_arrays(name, got, want):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.array_equal(got, want):
        _fail(f"{name}: arrays differ (shapes {got.shape} and {want.shape})")


def check_knockouts(configs, gene_names, top_k_genes, n_subsets):
    """Indicators, distinctness and the 80/20 split of knockout configurations.

    ``configs`` holds ``(knocked_genes, indicator, split)`` per configuration.
    """
    if len(configs) != n_subsets:
        _fail(f"{len(configs)} configurations, expected {n_subsets}")
    seen = set()
    for knocked, indicator, _split in configs:
        want = np.array([0.0 if g in knocked else 1.0 for g in gene_names])
        if not np.array_equal(np.asarray(indicator), want):
            _fail(f"indicator is not 0 exactly on the knocked genes {knocked}")
        if not set(knocked) <= set(top_k_genes):
            _fail(f"knocked genes {knocked} are not among the top-k genes")
        key = frozenset(knocked)
        if not knocked or key in seen:
            _fail(f"configuration {sorted(knocked)} is empty or repeated")
        seen.add(key)
    n_test = sum(1 for *_, split in configs if split == "test")
    want_test = max(1, int(round(0.2 * n_subsets)))
    if n_test != want_test or any(s not in ("train", "test") for *_, s in configs):
        _fail(f"{n_test} test configurations, expected {want_test} of {n_subsets}")


def top_genes(counts, gene_names, k):
    """The k genes with the largest total count, ties broken by gene order."""
    totals = np.sum([np.asarray(m).sum(axis=1) for m in counts], axis=0)
    order = sorted(range(len(gene_names)), key=lambda i: (-totals[i], i))
    return [gene_names[i] for i in order[:k]]


# ---- compare_irregular ----

def parse_comparison(rows):
    """``[(model, seed, test_mse), ...]`` string rows -> (per-cell, means)."""
    cells, means = {}, {}
    for model, seed, value in rows:
        if seed == "mean":
            means[model] = float(value)
        else:
            cells[(model, int(seed))] = float(value)
    return cells, means


def check_same_cells(threaded, serial):
    if threaded.keys() != serial.keys():
        _fail(f"threaded cells {sorted(threaded)} differ from serial {sorted(serial)}")
    for key, value in serial.items():
        if threaded[key] != value:
            _fail(f"cell {key}: threaded test-MSE {threaded[key]!r} != serial {value!r}")


def check_mean_rows(cells, means):
    kinds = sorted({k for k, _ in cells})
    if sorted(k for k in means if k in kinds) != kinds:
        _fail(f"mean rows {sorted(means)} do not cover the kinds {kinds}")
    for kind in kinds:
        want = float(np.mean([v for (k, _), v in sorted(cells.items()) if k == kind]))
        check_close(f"mean row of {kind}", means[kind], want)
