"""Reference figures for the benchmark README.

    python3 bench/reference.py

Prints, and writes to ``bench/results/reference.json``:

- tape nodes, vector-field evaluations (NFE) and median step time of one
  training step for each model kind x solver (batch 32, C=8, T=13, d_y=3,
  default widths, Poisson data of the ``train_snodep_rk4`` workload);
- ``compare`` wall time of the ``compare_irregular`` workload with
  ``SNODEP_THREADS=1`` and with one thread per usable CPU;
- tidy-CSV loader time against gene count (200 cells x 4 days).

Timings are medians of a few repeats on whatever machine runs this; the
counts repeat exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

_perf = time.perf_counter

KINDS = [("np", "euler", 2, 1.0), ("snodep", "euler", 2, 1.0),
         ("snodep", "rk4", 10, 1.0), ("snodep_gruode", "rk4", 10, 0.5)]


def step_figures(seed=1, steps=5):
    from snodep import data, models, ode, training
    times, samples = inputs.poisson_series(seed)
    ds = data.TimeSeriesDataset("expression", times, samples, ["f0", "f1", "f2"])
    rows = []
    for kind, method, per_unit, freq in KINDS:
        cfg = models.ModelConfig(kind, d_y=3, solver=ode.SolverConfig(method, per_unit))
        train_cfg = training.TrainConfig(steps=steps, frequency=freq)
        step_s = []
        last = [0.0]

        def callback(step, loss, parts):
            now = _perf()
            step_s.append(now - last[0])
            last[0] = now

        last[0] = _perf()
        training.train(models.ProcessModel(cfg, seed=0), ds, train_cfg, callback=callback)
        tr = tracing.Tracer()
        tracing.instrument(tr)
        try:
            with tr.region("op"):
                training.train(models.ProcessModel(cfg, seed=0), ds,
                               training.TrainConfig(steps=1, frequency=freq))
        finally:
            tr.restore()
        rows.append({"kind": kind, "solver": f"{method}/{per_unit}", "frequency": freq,
                     "tape_nodes": tr.counts[("op", "tensor.tape_nodes")],
                     "nfe": tr.counts[("op", "ode.nfe")],
                     "decoder_nfe": tr.counts[("op", "ode.decoder_nfe")],
                     "step_ms_p50": 1e3 * statistics.median(step_s)})
    return rows


def compare_figures(workdir, repeats=3):
    wl = workloads.CompareIrregular()
    st = wl.setup(1, workdir)
    out = {}
    for threads in sorted({1, workloads.nproc()}):
        wall = []
        for _ in range(repeats):
            start = _perf()
            wl.compare(st, os.path.join(workdir, f"threads{threads}"), threads)
            wall.append(_perf() - start)
        out[f"threads_{threads}_s_p50"] = statistics.median(wall)
    return out


def loader_figures(workdir, gene_counts=(50, 100, 200, 400), repeats=3):
    from snodep import data
    out = {}
    for n in gene_counts:
        genes = [f"g{i:04d}" for i in range(n)]
        days, counts = inputs.expression_counts(1, genes)
        path = os.path.join(workdir, f"tidy_{n}.csv")
        inputs.write_tidy_csv(path, genes, days, counts)
        wall = []
        for _ in range(repeats):
            start = _perf()
            data.load_expression_csv(path)
            wall.append(_perf() - start)
        out[f"genes_{n}_s_p50"] = statistics.median(wall)
    return out


def main():
    workdir = BENCH / "work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        figures = {
            "training_step": step_figures(),
            "compare": compare_figures(str(workdir)),
            "tidy_loader": loader_figures(str(workdir)),
            "nproc": workloads.nproc(),
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "results").mkdir(exist_ok=True)
    with open(BENCH / "results" / "reference.json", "w") as fh:
        json.dump(figures, fh, indent=1)
    print(json.dumps(figures, indent=1))


if __name__ == "__main__":
    main()
