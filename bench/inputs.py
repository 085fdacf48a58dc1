"""Seeded input generation for the benchmark workloads.

The benchmark makes every input itself and hands the program only the
generated arrays or files. The generating structure of the time-series data
(the mixing of a damped 2-d oscillator into the features) is fixed; the
workload seed draws the observations, the pathway graph and the knockout
choices. That keeps the quality figures comparable across seeds: they measure
the program on data of the same difficulty, not the difficulty of a random
generator draw.
"""

from __future__ import annotations

import csv

import numpy as np

# Fixed generating structure: feature = 3 * (oscillator @ A^T) + b + 2.
STRUCTURE_SEED = 20240101
_GAIN, _OFFSET = 3.0, 2.0
_DECAY, _FREQ = 0.05, 0.5
GAUSSIAN_SIGMA = 0.1


def _oscillator(times):
    times = np.asarray(times, dtype=np.float64)
    return np.stack([np.exp(-_DECAY * times) * np.cos(_FREQ * times),
                     -np.exp(-_DECAY * times) * np.sin(_FREQ * times)], axis=-1)


def _linear_predictor(d_y, times):
    rng = np.random.default_rng(STRUCTURE_SEED)
    a = rng.normal(size=(d_y, 2))
    b = rng.normal(size=(d_y,))
    return _GAIN * (_oscillator(times) @ a.T) + b + _OFFSET       # (V, d_y)


def poisson_series(seed, d_y=3, n_timesteps=16, cells=200):
    """Poisson counts with softplus rates; returns (times, [(d_y, cells)] per t)."""
    times = np.arange(n_timesteps, dtype=np.float64)
    lin = _linear_predictor(d_y, times)
    lam = np.logaddexp(0.0, lin)
    rng = np.random.default_rng(seed)
    samples = [rng.poisson(lam[t], size=(cells, d_y)).T.astype(np.float64)
               for t in range(n_timesteps)]
    return times, samples


def gaussian_series(seed, d_y=3, n_timesteps=16, cells=200):
    """Gaussian observations around the fixed trajectory, sigma 0.1."""
    times = np.arange(n_timesteps, dtype=np.float64)
    mu = _linear_predictor(d_y, times)
    rng = np.random.default_rng(seed)
    samples = [(mu[t][None, :] + rng.normal(scale=GAUSSIAN_SIGMA, size=(cells, d_y))).T
               for t in range(n_timesteps)]
    return times, samples


def write_series_csv(path, times, samples, names):
    """Long CSV ``time,sample_id,<features>``, the program's interchange form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "sample_id"] + list(names))
        for t, mat in zip(times, samples):
            for j in range(mat.shape[1]):
                writer.writerow([repr(float(t)), j] + [repr(float(v)) for v in mat[:, j]])


def pathway_doc(seed, n_modules=32, n_metabolites=24, n_pathway_genes=64):
    """A branched metabolite/module graph as a pathway JSON document.

    Each metabolite has one or two producers and one or two consumers drawn
    from all modules, so modules touch several metabolites and hop-2
    neighbourhoods overlap. Each module reads two or three genes from a shared
    pool, so a knocked gene can silence parts of several modules.
    """
    rng = np.random.default_rng([seed, 1])
    genes = [f"p{i:03d}" for i in range(n_pathway_genes)]
    modules = []
    for i in range(n_modules):
        pick = rng.choice(n_pathway_genes, size=int(rng.integers(2, 4)), replace=False)
        modules.append({"name": f"M{i:02d}", "genes": [genes[j] for j in sorted(pick)]})
    metabolites = []
    for k in range(n_metabolites):
        touch = rng.choice(n_modules, size=int(rng.integers(2, 5)), replace=False)
        n_in = int(rng.integers(1, len(touch)))
        metabolites.append({
            "name": f"X{k:02d}",
            "in_modules": [f"M{i:02d}" for i in sorted(touch[:n_in])],
            "out_modules": [f"M{i:02d}" for i in sorted(touch[n_in:])],
        })
    return {"genes": genes, "modules": modules, "metabolites": metabolites}


def expression_counts(seed, genes, n_days=4, cells=200):
    """Per-day (genes, cells) Poisson count matrices with gene- and day-level rates."""
    structure = np.random.default_rng(STRUCTURE_SEED)
    base = np.exp(structure.normal(1.0, 0.6, size=len(genes)))
    days = np.arange(n_days, dtype=np.float64)
    rates = [base * np.exp(0.15 * d * structure.normal(size=len(genes))) for d in days]
    rng = np.random.default_rng([seed, 2])
    counts = [rng.poisson(r[:, None], size=(len(genes), cells)).astype(np.float64)
              for r in rates]
    return days, counts


def write_tidy_csv(path, genes, days, counts):
    """Tidy ``gene,day,cell_id,count`` rows, cell-major within each day."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gene", "day", "cell_id", "count"])
        for day, mat in zip(days, counts):
            for j in range(mat.shape[1]):
                cell = f"d{int(day)}c{j:04d}"
                for i, gene in enumerate(genes):
                    writer.writerow([gene, repr(float(day)), cell, int(mat[i, j])])
