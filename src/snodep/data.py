"""Dataset ingestion, preprocessing, synthetic generation, and the knockout
dataset builder.

Interchange format is long CSV: a ``time,sample_id,f0,f1,...`` header, then
one line per sample. Values are written as Python's shortest round-trip
``repr`` with ``\r\n`` line ends, so a saved dataset loads back bit for bit.
Where a timestep's values mostly repeat, each distinct value is formatted
once for that timestep; the bytes are the same as formatting every value.
On load ``sample_id`` is ignored, blank lines are skipped, rows are grouped
into ascending times with samples in file order, and a non-finite time, a
row whose width differs from the header's or a file with no data rows is a
``ValidationError`` naming the file line. Gene-count data additionally loads
from tidy ``gene,day,cell_id,count`` files or a gene x cell matrix with a
day-label sidecar. Pathways are JSON documents.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import DomainError


class ValidationError(ValueError):
    """Input data violates a dataset invariant."""


DATASET_KINDS = ("expression", "flux", "balance")


@dataclass
class TimeSeriesDataset:
    kind: str
    times: np.ndarray                 # (V,)
    samples: list                     # per timestep: (d_y, n_t) array
    feature_names: list
    normalized: bool = False
    knockout: bool = False

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValidationError(f"unknown dataset kind {self.kind!r}")
        self.times = np.asarray(self.times, dtype=np.float64)
        if len(self.samples) != len(self.times):
            raise ValidationError("one sample matrix required per timestep")
        bad = np.flatnonzero(~np.isfinite(self.times))
        if bad.size:
            raise ValidationError(
                f"timestep {bad[0]}: time {self.times[bad[0]]} is not finite")
        d = len(self.feature_names)
        for t, mat in enumerate(self.samples):
            mat = np.asarray(mat, dtype=np.float64)
            self.samples[t] = mat
            if mat.ndim != 2 or mat.shape[0] != d:
                raise ValidationError(
                    f"timestep {t}: sample matrix shape {mat.shape}, expected ({d}, n)")
            if mat.shape[1] < 1:
                raise ValidationError(f"timestep {t} has no samples")
        if self.kind == "expression" and not self.normalized:
            for t, mat in enumerate(self.samples):
                if (not np.isfinite(mat).all() or np.any(mat < 0)
                        or np.any(mat != np.round(mat))):
                    raise ValidationError(f"timestep {t}: expression counts must be "
                                          "finite non-negative integers")

    @property
    def n_timesteps(self):
        return len(self.times)

    @property
    def d_y(self):
        return len(self.feature_names)


_PROBE = 1000


def save_timeseries_csv(path, ds: TimeSeriesDataset):
    """Write ``ds`` as the long CSV, each value as its shortest round-trip
    ``repr``. Where a timestep's values mostly repeat, each distinct value
    is formatted once; the bytes are the same either way."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["time", "sample_id"] + list(ds.feature_names))
        for t, mat in zip(ds.times, ds.samples):
            lead = repr(float(t))
            # one string per timestep, not per file, bounds peak memory
            fh.write("".join(",".join([lead, str(j), *row]) + "\r\n"
                             for j, row in enumerate(_value_texts(mat))))


def _value_texts(mat):
    """An iterator over the ``repr`` texts of a ``(d, n)`` matrix's values,
    one row per sample.

    Every k-th sample row is probed, about ``_PROBE`` values in all; whole
    rows, because a flat stride that is a multiple of the row width would
    probe one feature only. If at most half of the probe's values are
    distinct, each distinct float64 bit pattern is formatted once and its
    text indexed. Bits, not values, are compared, so ``-0.0`` and ``0.0``
    keep their own text. Mostly distinct data formats each value as it is
    written: on all-distinct values the sort and the texts held for the
    index make a save about a fifth slower (``BENCH_22.json``).
    """
    values = np.ascontiguousarray(np.asarray(mat, dtype=np.float64).T)
    bits = values.view(np.int64)
    probe = bits[::max(1, bits.size // _PROBE)]
    if 2 * np.unique(probe).size > probe.size:
        return (map(repr, row) for row in values.tolist())
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    # numpy 1.26 returns the inverse flat, numpy 2 in the input's shape
    return iter(text[inverse.reshape(bits.shape)].tolist())


def load_timeseries_csv(path, kind, normalized=False, knockout=False):
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or header[:2] != ["time", "sample_id"]:
            raise ValidationError(f"{path}: expected header time,sample_id,<features>")
        # np.loadtxt only warns on empty input, so find the first data line here
        first = next((line for line in fh if line.strip("\r\n")), None)
        if first is None:
            raise ValidationError(f"{path}: no data rows")
        try:
            # sample_id may be any text and is ignored
            rows = np.loadtxt(itertools.chain([first], fh), delimiter=",", quotechar='"',
                              comments=None, ndmin=2, converters={1: lambda s: 0.0})
        except ValueError as exc:
            raise _bad_row_error(path, len(header), str(exc)) from None
    if rows.shape[1] != len(header) or not np.isfinite(rows[:, 0]).all():
        raise _bad_row_error(path, len(header), "malformed data rows")
    times, groups = _group_by_time(rows[:, 0])
    samples = [rows[idx, 2:].T for idx in groups]
    return TimeSeriesDataset(kind, times, samples, header[2:],
                             normalized=normalized, knockout=knockout)


def _group_by_time(times):
    """Ascending distinct ``times`` and, for each, its positions in order."""
    order = np.argsort(times, kind="stable")
    distinct, starts = np.unique(times[order], return_index=True)
    return distinct, np.split(order, starts[1:])


def _bad_row_error(path, width, reason):
    """The ValidationError naming the first line of a long CSV that is not a
    data row of ``width`` fields with a finite time; ``reason`` is the
    message if every line passes these checks."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != width:
                return ValidationError(
                    f"{path}: row {line} has {len(row)} columns, the header has {width}")
            try:
                t = float(row[0])
                for v in row[2:]:
                    float(v)
            except ValueError:
                return ValidationError(f"{path}: non-numeric value at row {line}")
            if not math.isfinite(t):
                return ValidationError(f"{path}: non-finite time {row[0]!r} at row {line}")
    return ValidationError(f"{path}: {reason}")


def load_expression_csv(path, day_labels=None):
    """Gene-count ingestion.

    Tidy form: header ``gene,day,cell_id,count``. Matrix form: first column
    gene names, remaining columns cells, plus ``day_labels`` mapping each cell
    column to a day (path to a ``cell_id,day`` CSV or a dict).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        if [h.strip() for h in header] == ["gene", "day", "cell_id", "count"]:
            return _load_expression_tidy(path, reader)
        if day_labels is None:
            raise ValidationError(
                f"{path}: matrix-form expression needs a day-label sidecar")
        return _load_expression_matrix(path, header, reader, day_labels)


def _load_expression_tidy(path, reader):
    gene_row = {}   # gene -> row, in order of first appearance
    by_day = {}     # day -> {cell: {row: count}}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            gene, day_s, cell, count_s = row
            day = float(day_s)
            count = float(count_s)
        except ValueError:
            problem = "non-numeric value" if len(row) == 4 else f"{len(row)} fields, not 4,"
            raise ValidationError(f"{path}: {problem} at row {lineno}") from None
        # is_integer() is False for nan and inf too
        if count < 0 or not count.is_integer():
            raise ValidationError(
                f"{path}: negative, non-integer or non-finite count at row {lineno}")
        cells = by_day.get(day)
        if cells is None:
            if not math.isfinite(day):
                raise ValidationError(f"{path}: non-finite day at row {lineno}")
            cells = by_day[day] = {}
        i = gene_row.setdefault(gene, len(gene_row))
        cells.setdefault(cell, {})[i] = count
    days = sorted(by_day)
    samples = []
    for day in days:
        cells = by_day[day]
        mat = np.zeros((len(gene_row), len(cells)))
        for j, c in enumerate(sorted(cells)):
            entries = cells[c]
            mat[list(entries), j] = list(entries.values())
        samples.append(mat)
    return TimeSeriesDataset("expression", np.array(days), samples, list(gene_row))


def _load_expression_matrix(path, header, reader, day_labels):
    if isinstance(day_labels, (str, bytes)):
        labels = {}
        with open(day_labels, newline="") as fh:
            r = csv.reader(fh)
            next(r, None)
            for row in r:
                if not row:
                    continue
                try:
                    day = float(row[1])
                except (IndexError, ValueError):
                    day = math.nan
                if not math.isfinite(day):
                    raise ValidationError(
                        f"{day_labels}: missing or non-finite day at row {r.line_num}")
                labels[row[0]] = day
        day_labels = labels
    cells = header[1:]
    missing = [c for c in cells if c not in day_labels]
    if missing:
        raise ValidationError(f"{path}: cells without day labels: {missing[:5]}")
    genes, rows = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: {len(row)} fields, not {len(header)}, at row {lineno}")
        genes.append(row[0])
        try:
            vals = [float(v) for v in row[1:]]
        except ValueError:
            raise ValidationError(f"{path}: non-numeric count at row {lineno}") from None
        if any(v < 0 or not v.is_integer() for v in vals):
            raise ValidationError(
                f"{path}: negative, non-integer or non-finite count at row {lineno}")
        rows.append(vals)
    mat = np.array(rows, dtype=np.float64)
    days, groups = _group_by_time(np.array([day_labels[c] for c in cells]))
    empty = sorted(set(day_labels.values()) - set(days.tolist()))
    if empty:
        raise ValidationError(f"{path}: labelled day {empty[0]} has no cells")
    return TimeSeriesDataset("expression", days, [mat[:, idx] for idx in groups], genes)


def log_normalize_scale(ds: TimeSeriesDataset, fit_timesteps=None):
    """log1p then per-gene standardization over the first ``fit_timesteps`` steps.

    Genes with zero variance over the fit window map to zero.
    """
    if ds.kind != "expression":
        raise ValidationError("log_normalize_scale applies to expression data")
    if ds.normalized:
        raise ValidationError("dataset is already normalized")
    if fit_timesteps is None:
        fit_timesteps = ds.n_timesteps
    logged = [np.log1p(mat) for mat in ds.samples]
    pooled = np.concatenate(logged[:fit_timesteps], axis=1)
    mean = pooled.mean(axis=1, keepdims=True)
    std = pooled.std(axis=1, keepdims=True)
    safe_std = np.where(std == 0.0, 1.0, std)
    out = []
    for mat in logged:
        scaled = (mat - mean) / safe_std
        scaled[np.broadcast_to(std == 0.0, scaled.shape)] = 0.0
        out.append(scaled)
    return TimeSeriesDataset("expression", ds.times.copy(), out,
                             list(ds.feature_names), normalized=True,
                             knockout=ds.knockout)


_OSC_DECAY = 0.05
_OSC_FREQ = 0.5
_SYN_GAIN = 3.0
_SYN_OFFSET = 2.0


def _oscillator_state(t):
    # dz/dt = [[-a, w], [-w, -a]] z from z(0) = [1, 0], solved analytically
    t = np.asarray(t, dtype=np.float64)
    return np.stack([np.exp(-_OSC_DECAY * t) * np.cos(_OSC_FREQ * t),
                     -np.exp(-_OSC_DECAY * t) * np.sin(_OSC_FREQ * t)], axis=-1)


def generate_synthetic(kind, d_y, n_timesteps, cells_per_t, seed):
    """Synthetic data driven by a damped 2-d oscillator with known parameters.

    Returns ``(dataset, truth)`` where truth holds the generating parameter
    trajectories: ``lambda`` (V, d_y) for poisson, ``mu``/``sigma`` for gaussian.
    """
    if kind not in ("poisson", "gaussian"):
        raise ValidationError(f"synthetic kind must be poisson or gaussian, got {kind!r}")
    rng = np.random.default_rng(seed)
    times = np.arange(n_timesteps, dtype=np.float64)
    z = _oscillator_state(times)                      # (V, 2)
    a = rng.normal(size=(d_y, 2))
    b = rng.normal(size=(d_y,))
    # gain and offset keep the rates in a realistic count range with clear
    # time variation instead of hovering near softplus(0)
    lin = _SYN_GAIN * (z @ a.T) + b + _SYN_OFFSET     # (V, d_y)
    names = [f"f{i}" for i in range(d_y)]
    if kind == "poisson":
        lam = np.log1p(np.exp(-np.abs(lin))) + np.maximum(lin, 0.0)  # softplus
        samples = [rng.poisson(lam[t], size=(cells_per_t, d_y)).T.astype(np.float64)
                   for t in range(n_timesteps)]
        ds = TimeSeriesDataset("expression", times, samples, names)
        return ds, {"lambda": lam}
    sigma = 0.1
    samples = [(lin[t][None, :] + rng.normal(scale=sigma, size=(cells_per_t, d_y))).T
               for t in range(n_timesteps)]
    ds = TimeSeriesDataset("flux", times, samples, names)
    return ds, {"mu": lin, "sigma": np.full_like(lin, sigma)}


@dataclass
class PathwayModule:
    name: str
    genes: list


@dataclass
class PathwayMetabolite:
    name: str
    in_modules: list   # producers
    out_modules: list  # consumers


@dataclass
class PathwayDef:
    genes: list
    modules: list      # [PathwayModule]
    metabolites: list  # [PathwayMetabolite]

    def __post_init__(self):
        for kind, names in (("gene", self.genes),
                            ("module", [m.name for m in self.modules]),
                            ("metabolite", [m.name for m in self.metabolites])):
            seen = set()
            for name in names:
                if name in seen:
                    raise ValidationError(f"pathway: duplicate {kind} name {name!r}")
                seen.add(name)
        gene_set = set(self.genes)
        module_names = {m.name for m in self.modules}
        for m in self.modules:
            unknown = set(m.genes) - gene_set
            if unknown:
                raise ValidationError(
                    f"module {m.name}: genes not in pathway list: {sorted(unknown)}")
        for met in self.metabolites:
            refs = set(met.in_modules) | set(met.out_modules)
            unknown = refs - module_names
            if unknown:
                raise ValidationError(
                    f"metabolite {met.name}: unknown modules {sorted(unknown)}")
            if not refs:
                raise ValidationError(
                    f"metabolite {met.name} has no producer or consumer")

    @property
    def n_modules(self):
        return len(self.modules)

    @property
    def n_metabolites(self):
        return len(self.metabolites)


def load_pathway_json(path):
    with open(path) as fh:
        doc = json.load(fh)
    return pathway_from_dict(doc)


def pathway_from_dict(doc):
    return PathwayDef(
        genes=list(doc["genes"]),
        modules=[PathwayModule(m["name"], list(m["genes"])) for m in doc["modules"]],
        metabolites=[PathwayMetabolite(m["name"], list(m["in_modules"]),
                                       list(m["out_modules"]))
                     for m in doc["metabolites"]],
    )


def save_pathway_json(path, pathway: PathwayDef):
    doc = {
        "genes": list(pathway.genes),
        "modules": [{"name": m.name, "genes": list(m.genes)} for m in pathway.modules],
        "metabolites": [{"name": m.name, "in_modules": list(m.in_modules),
                         "out_modules": list(m.out_modules)}
                        for m in pathway.metabolites],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


@dataclass
class KnockoutConfiguration:
    knocked_genes: list            # gene names
    indicator: np.ndarray          # (d,), 0 exactly on knocked genes
    flux: TimeSeriesDataset        # samples have u + d entries
    balance: TimeSeriesDataset     # samples have v + d entries
    split: str                     # train | test


@dataclass
class KnockoutDataset:
    configurations: list = field(default_factory=list)

    @property
    def train(self):
        return [c for c in self.configurations if c.split == "train"]

    @property
    def test(self):
        return [c for c in self.configurations if c.split == "test"]


def top_expressed_genes(ds: TimeSeriesDataset, k):
    """The k genes with the largest count totals over all cells and timesteps."""
    totals = np.sum([mat.sum(axis=1) for mat in ds.samples], axis=0)
    order = np.argsort(-totals, kind="stable")
    return [ds.feature_names[i] for i in order[:k]]


def knockout_generate(ds: TimeSeriesDataset, pathway: PathwayDef, k, n_subsets,
                      seed, estimator):
    """Knockout flux/balance dataset builder.

    ``estimator(expression_ds) -> (flux_ds, balance_ds)`` is the flux
    estimation handle (scfea_lite). Configurations are distinct random subsets
    of the top-k expressed genes with size uniform in {1..k//2}; an 80/20
    train/test split is applied over configurations.
    """
    if ds.kind != "expression":
        raise ValidationError("knockout_generate needs an expression dataset")
    if not 1 <= k <= ds.d_y:
        raise ValidationError(f"k={k} must lie in 1..{ds.d_y}, the available genes")
    if n_subsets < 2:
        raise ValidationError("need at least 2 configurations for a train/test split")
    rng = np.random.default_rng(seed)
    top = top_expressed_genes(ds, k)
    gene_index = {g: i for i, g in enumerate(ds.feature_names)}

    subsets = []
    seen = set()
    for _ in range(n_subsets):
        for _attempt in range(100):
            size = int(rng.integers(1, max(1, k // 2) + 1))
            pick = tuple(sorted(rng.choice(k, size=size, replace=False).tolist()))
            if pick not in seen:
                seen.add(pick)
                subsets.append([top[i] for i in pick])
                break
        else:
            raise ValidationError(
                "could not draw a fresh knockout configuration in 100 attempts")

    n_test = max(1, int(round(0.2 * n_subsets)))
    order = rng.permutation(n_subsets)
    test_ids = set(order[:n_test].tolist())

    configs = []
    for s, knocked in enumerate(subsets):
        indicator = np.ones(ds.d_y)
        knocked_rows = [gene_index[g] for g in knocked]
        indicator[knocked_rows] = 0.0
        ko_samples = []
        for mat in ds.samples:
            mod = mat.copy()
            mod[knocked_rows, :] = 0.0
            ko_samples.append(mod)
        ko_ds = TimeSeriesDataset("expression", ds.times.copy(), ko_samples,
                                  list(ds.feature_names), knockout=True)
        flux_ds, balance_ds = estimator(ko_ds)
        configs.append(KnockoutConfiguration(
            knocked_genes=list(knocked),
            indicator=indicator,
            flux=_append_indicator(flux_ds, indicator, ds.feature_names),
            balance=_append_indicator(balance_ds, indicator, ds.feature_names),
            split="test" if s in test_ids else "train",
        ))
    return KnockoutDataset(configs)


def _append_indicator(ds: TimeSeriesDataset, indicator, gene_names):
    samples = [np.vstack([mat, np.tile(indicator[:, None], (1, mat.shape[1]))])
               for mat in ds.samples]
    names = list(ds.feature_names) + [f"ko_{g}" for g in gene_names]
    return TimeSeriesDataset(ds.kind, ds.times.copy(), samples, names,
                             normalized=ds.normalized, knockout=True)


def merge_configurations(configs, which):
    """Pool the flux or balance samples of several configurations per timestep."""
    if not configs:
        raise ValidationError("no configurations to merge")
    base = getattr(configs[0], which)
    times = base.times
    samples = []
    for t in range(len(times)):
        samples.append(np.concatenate(
            [getattr(c, which).samples[t] for c in configs], axis=1))
    return TimeSeriesDataset(base.kind, times.copy(), samples,
                             list(base.feature_names), normalized=base.normalized,
                             knockout=True)
