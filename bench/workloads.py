"""The benchmark workloads: set-up, timed rounds of ops and queries, checks.

Every workload runs whole rounds of identical operations until the run length
has passed, so the same seed gives the same inputs, the same outputs and the
same share of failed operations however long the run. Each round's outputs
are checked right after it, outside the timed calls, against the first
round's; heavier checks run once on the first round. The program's own seeds
(model initialisation, batch sampling, scfea initialisation, knockout draws)
keep their default 0; the workload seed draws the data.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

import checks
import inputs
import tracing

_perf = time.perf_counter
PROGRAM_SEED = 0
SETUP_REPEATS = 3


def _region(tracer, kind):
    return tracer.region(kind) if tracer is not None else contextlib.nullcontext()


def _collect():
    """Collect the garbage left so far, outside any timer.

    The autodiff tape leaves reference cycles, so without this a cyclic
    collection falls inside some timed calls and not others, and each latency
    series splits into two levels whose median jumps between them from run to
    run. Called before every timed op and query, it makes each one start from
    the same heap; the phase wall time behind ``ops_per_s`` still includes it.
    """
    gc.collect()


def _next_unit(tracer):
    if tracer is not None:
        tracer.unit += 1


class Recorder:
    """Latencies of one timed phase."""

    def __init__(self):
        self.op_s = []
        self.query_s = []
        self.op_phase_s = 0.0
        self.rounds = 0

    @property
    def ops_per_s(self):
        return len(self.op_s) / self.op_phase_s


def nproc():
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def _threads(n):
    """``SNODEP_THREADS=n`` for the duration of the block."""
    before = os.environ.get("SNODEP_THREADS")
    os.environ["SNODEP_THREADS"] = str(n)
    try:
        yield
    finally:
        if before is None:
            del os.environ["SNODEP_THREADS"]
        else:
            os.environ["SNODEP_THREADS"] = before


def _read_csv(path):
    """Data rows of a CSV file with a header."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


# ---------------------------------------------------------------------------
class TrainSnodepRk4:
    """Default ``snodep`` model trained through ``training.train``.

    Op: one training step, timed between calls of ``train``'s callback. A round
    trains a fresh model for ``STEPS`` steps, then queries it.
    Query: one ``evaluate`` with 8 contexts over all 16 timesteps.
    """

    STEPS = 20
    QUERIES = 4
    CONTEXT, TARGET = 8, 13
    EVAL_SEED = 1
    FD_SEED = 2

    def setup(self, seed, workdir):
        from snodep import data, models, training
        times, samples = inputs.poisson_series(seed)
        st = SimpleNamespace(samples=[s.copy() for s in samples], times=times.copy())
        st.ds = data.TimeSeriesDataset("expression", times, samples, ["f0", "f1", "f2"])
        st.model_cfg = models.ModelConfig("snodep", d_y=3)
        st.train_cfg = training.TrainConfig(steps=self.STEPS, batch_size=32,
                                            seed=PROGRAM_SEED, context_len=self.CONTEXT,
                                            target_len=self.TARGET)
        warm = models.ProcessModel(st.model_cfg, seed=PROGRAM_SEED)
        training.train(warm, st.ds, replace(st.train_cfg, steps=1))
        return st

    def prepare(self, st):
        pass

    def round(self, st, rec, tracer):
        from snodep import models, training
        model = models.ProcessModel(st.model_cfg, seed=PROGRAM_SEED)
        nfe_key = ("op", "ode.decoder_nfe")
        last_nfe = tracer.counts[nfe_key] if tracer else 0
        nfe = []

        def callback(step, loss, parts):
            nonlocal last_t, last_nfe
            rec.op_s.append(_perf() - last_t)
            if tracer is not None:
                nfe.append(tracer.counts[nfe_key] - last_nfe)
                last_nfe = tracer.counts[nfe_key]
                tracer.unit += 1
            _collect()
            last_t = _perf()

        with _region(tracer, "op"):
            start = last_t = _perf()
            history = training.train(model, st.ds, st.train_cfg, callback=callback)
            rec.op_phase_s += _perf() - start
        mses = []
        for _ in range(self.QUERIES):
            _collect()
            with _region(tracer, "query"):
                start = _perf()
                report = training.evaluate(model, st.ds, self.CONTEXT, self.TARGET,
                                           np.random.default_rng(self.EVAL_SEED),
                                           n_contexts=8)
                rec.query_s.append(_perf() - start)
            _next_unit(tracer)
            mses.append(report.unseen_mse)
        return {"model": model, "history": history, "mse": mses, "nfe": nfe}

    def check_round(self, st, result, first, traced):
        checks.check_equal_arrays("loss history of a repeated round",
                                  result["history"], first["history"])
        checks.check_equal_arrays("test-MSE of a repeated query", result["mse"],
                                  [first["mse"][0]] * len(result["mse"]))
        if traced:
            checks.check_nfe(result["nfe"], st.times[:self.TARGET],
                             st.model_cfg.solver.steps_per_unit, stages=4)

    def check(self, st, first):
        from snodep import training
        checks.check_loss_decreases(first["history"])
        mse = first["mse"][0]
        unseen = range(self.TARGET, len(st.times))
        rates = training.predict_average_params(
            first["model"], st.ds, self.CONTEXT, np.random.default_rng(self.EVAL_SEED), 8)
        checks.check_close("unseen test-MSE", mse,
                           checks.poisson_test_mse(rates, st.samples, unseen))
        checks.check_at_least("unseen test-MSE", mse, checks.poisson_floor(st.samples, unseen))
        self._check_gradients(st)
        return mse

    def _check_gradients(self, st):
        """Autodiff against central differences of ``elbo_loss`` on a fixed batch."""
        from snodep import models, tensor, training
        model = models.ProcessModel(st.model_cfg, seed=PROGRAM_SEED)
        rng = np.random.default_rng(self.FD_SEED)
        batch = training.sample_batch(st.ds, 8, self.CONTEXT, self.TARGET, rng)
        noise = (rng.standard_normal((8, st.model_cfg.d_z)),
                 rng.standard_normal((8, st.model_cfg.d_d)))
        params = model.parameters()
        picks = [("encoder.w", (2, 5)), ("latent_heads.w", (7, 3)),
                 ("trunk.l0.w", (4, 9)), ("out_head.l1.b", (1,))]
        loss, _ = training.elbo_loss(model, batch, noise)
        grads = tensor.gradients(loss, [params[name] for name, _ in picks])
        autodiff = [g[idx] for g, (_, idx) in zip(grads, picks)]

        def loss_at():
            return training.elbo_loss(model, batch, noise)[0].item()

        finite = [checks.central_difference(loss_at, params[name].values, idx)
                  for name, idx in picks]
        checks.check_gradients(autodiff, finite)


# ---------------------------------------------------------------------------
class FluxKnockout:
    """Tidy-CSV ingestion, then ``knockout_generate`` with a scfea-lite estimator.

    Op: one configuration's ``estimate_flux_balance``, timed through the
    ``estimator`` argument. A round is one ``knockout_generate`` call.
    Query: a CSV save/load round trip of the round's merged flux dataset.
    """

    EXTRA_GENES = 36
    K, SUBSETS = 20, 5
    QUERIES = 3
    SCFEA = {"steps": 10, "lr": 0.05, "hidden": 16, "lambda_nt": 0.1, "seed": PROGRAM_SEED}

    def setup(self, seed, workdir):
        from snodep import data, scfea
        st = SimpleNamespace(workdir=workdir)
        st.doc = inputs.pathway_doc(inputs.STRUCTURE_SEED)
        st.genes = st.doc["genes"] + [f"o{i:03d}" for i in range(self.EXTRA_GENES)]
        st.days, st.counts = inputs.expression_counts(seed, st.genes)
        path = os.path.join(workdir, "expression.csv")
        inputs.write_tidy_csv(path, st.genes, st.days, st.counts)
        st.ds = data.load_expression_csv(path)
        st.pathway = data.pathway_from_dict(st.doc)
        st.cfg = scfea.ScfeaConfig(**self.SCFEA)
        scfea.estimate_flux_balance(st.ds, st.pathway, st.cfg)
        return st

    def prepare(self, st):
        st.s, _ = checks.stoichiometry(st.doc)
        st.top = checks.top_genes(st.counts, st.genes, self.K)
        st.csv_path = os.path.join(st.workdir, "merged_flux.csv")

    def round(self, st, rec, tracer):
        from snodep import data, scfea
        inputs_seen = []

        def estimator(ko_ds):
            _collect()
            start = _perf()
            out = scfea.estimate_flux_balance(ko_ds, st.pathway, st.cfg)
            rec.op_s.append(_perf() - start)
            _next_unit(tracer)
            inputs_seen.append(ko_ds)
            return out

        with _region(tracer, "op"):
            start = _perf()
            ko = data.knockout_generate(st.ds, st.pathway, self.K, self.SUBSETS,
                                        PROGRAM_SEED, estimator)
            rec.op_phase_s += _perf() - start
        merged = data.merge_configurations(ko.configurations, "flux")
        loaded = []
        for _ in range(self.QUERIES):
            _collect()
            with _region(tracer, "query"):
                start = _perf()
                data.save_timeseries_csv(st.csv_path, merged)
                back = data.load_timeseries_csv(st.csv_path, "flux", knockout=True)
                rec.query_s.append(_perf() - start)
            _next_unit(tracer)
            loaded.append(back)
        return {"configs": ko.configurations, "inputs": inputs_seen, "merged": merged,
                "loaded": loaded}

    def check_round(self, st, result, first, traced):
        u, v = len(st.doc["modules"]), len(st.doc["metabolites"])
        confs = result["configs"]
        checks.check_knockouts([(c.knocked_genes, c.indicator, c.split) for c in confs],
                               st.genes, st.top, self.SUBSETS)
        for c, c0, seen in zip(confs, first["configs"], result["inputs"]):
            for f, f0, b in zip(c.flux.samples, c0.flux.samples, c.balance.samples):
                checks.check_equal_arrays("flux of a repeated round", f, f0)
                checks.check_balance(b[:v], f[:u], st.s)
                checks.check_equal_arrays("appended indicator rows", f[u:],
                                          np.tile(c.indicator[:, None], (1, f.shape[1])))
            for got, want in zip(seen.samples, self._knocked(st, c)):
                checks.check_equal_arrays("knocked expression", got, want)
        for back in result["loaded"]:
            checks.check_equal_arrays("round-trip times", back.times, result["merged"].times)
            if list(back.feature_names) != list(result["merged"].feature_names):
                raise checks.CheckFailed("round trip changed the feature names")
            for got, want in zip(back.samples, result["merged"].samples):
                checks.check_equal_arrays("round-trip values", got, want)

    def check(self, st, first):
        from snodep import data, scfea
        checks.check_equal_arrays("ingested days", st.ds.times, st.days)
        if list(st.ds.feature_names) != st.genes:
            raise checks.CheckFailed("ingested gene order differs from the file's")
        for got, want in zip(st.ds.samples, st.counts):
            checks.check_equal_arrays("ingested counts", got, want)
        u = len(st.doc["modules"])
        pathway_rows = [st.genes.index(g) for g in st.doc["genes"]]
        quality, untrained = [], []
        zero_cfg = replace(st.cfg, steps=0)
        for c in first["configs"]:
            knocked = self._knocked(st, c)
            ko_ds = data.TimeSeriesDataset("expression", st.days.copy(),
                                           [m.copy() for m in knocked], list(st.genes))
            base, _ = scfea.estimate_flux_balance(ko_ds, st.pathway, zero_cfg)
            for f, f_zero, expr in zip(c.flux.samples, base.samples, knocked):
                quality.append(self._objective(st, f[:u], expr[pathway_rows]))
                untrained.append(self._objective(st, f_zero, expr[pathway_rows]))
        checks.check_improves("scfea objective per cell", float(np.mean(quality)),
                              float(np.mean(untrained)))
        return float(np.mean(quality))

    def _objective(self, st, flux, expression):
        return checks.scfea_objective(flux, expression, st.doc, st.cfg.lambda_nt)

    def _knocked(self, st, conf):
        rows = [st.genes.index(g) for g in conf.knocked_genes]
        out = []
        for m in st.counts:
            m = m.copy()
            m[rows, :] = 0.0
            out.append(m)
        return out


# ---------------------------------------------------------------------------
class CompareIrregular:
    """``snodep compare --models nodep,snodep_gruode`` in process via ``cli.main``.

    Gaussian data, train and eval frequency 0.5, euler with 2 steps per unit,
    ``SNODEP_THREADS`` set to the number of usable CPUs.
    Op: one compare invocation. Query: one ``snodep evaluate`` of a
    ``snodep_gruode`` checkpoint written during set-up.
    """

    STEPS = 30
    QUERIES = 5
    TARGET = 13
    MODELS = "nodep,snodep_gruode"
    CONFIG = {
        "model": {"d_r": 32, "d_z": 16, "d_d": 16, "hidden": 32},
        "solver": {"method": "euler", "steps_per_unit": 2},
        "train": {"steps": STEPS, "batch_size": 16, "lr": 3e-3, "seed": PROGRAM_SEED,
                  "context_len": 8, "target_len": TARGET, "frequency": 0.5},
        "eval": {"contexts": 8, "frequency": 0.5},
        "data": {"kind": "flux"},
    }

    def setup(self, seed, workdir):
        from snodep import cli
        st = SimpleNamespace(workdir=workdir)
        st.times, st.samples = inputs.gaussian_series(seed)
        st.data = os.path.join(workdir, "series.csv")
        inputs.write_series_csv(st.data, st.times, st.samples, ["f0", "f1", "f2"])
        st.config = os.path.join(workdir, "compare.json")
        st.eval_config = os.path.join(workdir, "evaluate.json")
        eval_cfg = json.loads(json.dumps(self.CONFIG))
        eval_cfg["model"]["kind"] = "snodep_gruode"
        for path, cfg in ((st.config, self.CONFIG), (st.eval_config, eval_cfg)):
            with open(path, "w") as fh:
                json.dump(cfg, fh)
        st.ckpt_dir = os.path.join(workdir, "checkpoint")
        self._cli(cli, ["train", "--data", st.data, "--config", st.eval_config,
                        "--seed", str(PROGRAM_SEED), "--out", st.ckpt_dir, "--quiet"])
        st.threads = nproc()
        self.compare(st, os.path.join(workdir, "warmup"), st.threads)
        return st

    def prepare(self, st):
        st.serial = self.compare(st, os.path.join(st.workdir, "serial"), 1)

    @staticmethod
    def _cli(cli, argv):
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"snodep {argv[0]} exited with code {code}")

    def _compare_argv(self, st, out):
        return ["compare", "--data", st.data, "--config", st.config,
                "--models", self.MODELS, "--seed", str(PROGRAM_SEED), "--seeds", "1",
                "--out", out, "--quiet"]

    def compare(self, st, out, threads):
        """One compare invocation with ``SNODEP_THREADS=threads``; its result rows."""
        from snodep import cli
        with _threads(threads):
            self._cli(cli, self._compare_argv(st, out))
        return _read_csv(os.path.join(out, "comparison.csv"))

    def round(self, st, rec, tracer):
        from snodep import cli
        out = os.path.join(st.workdir, "compare")
        evaluate_out = os.path.join(st.workdir, "evaluate")
        with _threads(st.threads), _region(tracer, "op"):
            start = _perf()
            self._cli(cli, self._compare_argv(st, out))
            elapsed = _perf() - start
            rec.op_s.append(elapsed)
            rec.op_phase_s += elapsed
        _next_unit(tracer)
        rows = _read_csv(os.path.join(out, "comparison.csv"))
        evaluate_argv = ["evaluate", "--data", st.data, "--config", st.eval_config,
                         "--checkpoint", os.path.join(st.ckpt_dir, "checkpoint.npz"),
                         "--seed", str(PROGRAM_SEED), "--out", evaluate_out, "--quiet"]
        evaluated = []
        for _ in range(self.QUERIES):
            _collect()
            with _region(tracer, "query"):
                start = _perf()
                self._cli(cli, evaluate_argv)
                rec.query_s.append(_perf() - start)
            _next_unit(tracer)
            evaluated.append(_read_csv(os.path.join(evaluate_out, "metrics.csv")))
        return {"rows": rows, "metrics": evaluated}

    def check_round(self, st, result, first, traced):
        unseen = range(self.TARGET, len(st.times))
        floor = checks.gaussian_floor(st.samples, unseen)
        serial, _ = checks.parse_comparison(st.serial)
        cells, means = checks.parse_comparison(result["rows"])
        checks.check_same_cells(cells, serial)
        checks.check_mean_rows(cells, means)
        for key, value in cells.items():
            checks.check_at_least(f"compare test-MSE of {key}", value, floor)
        for rows in result["metrics"]:
            mse = float(np.mean([float(row[1]) for row in rows if row[2] == "1"]))
            checks.check_at_least("evaluate unseen test-MSE", mse, floor)

    def check(self, st, first):
        cells, _ = checks.parse_comparison(first["rows"])
        return float(np.mean(list(cells.values())))


WORKLOADS = {
    "train_snodep_rk4": TrainSnodepRk4,
    "flux_knockout": FluxKnockout,
    "compare_irregular": CompareIrregular,
}


# ---------------------------------------------------------------------------
def timed_phase(workload, st, rec, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed; returns the first round's result.

    Garbage left by the previous round is collected before each round, so
    every round starts from the same heap and collections fall at the same
    points inside it.
    """
    first = None
    deadline = _perf() + seconds
    while True:
        gc.collect()
        result = workload.round(st, rec, tracer)
        rec.rounds += 1
        workload.check_round(st, result, first or result, tracer is not None)
        first = first or result
        if _perf() >= deadline:
            return first


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _phases(wl, st, seconds, tracer, recs):
    """Timed phases of one run; returns the workload's quality figure.

    A traced run splits its ``seconds`` between an untraced and a traced
    phase, so it takes about as long as an untraced run.
    """
    if tracer is None:
        first = timed_phase(wl, st, recs["timed"], seconds)
        return wl.check(st, first)
    first = timed_phase(wl, st, recs["untraced"], seconds / 2)
    quality = wl.check(st, first)
    tracing.instrument(tracer)
    try:
        first = timed_phase(wl, st, recs["traced"], seconds / 2, tracer)
    finally:
        tracer.restore()
    if wl.check(st, first) != quality:
        raise checks.CheckFailed("the traced phase changed the workload's result")
    return quality


def run(name, seed, seconds, traced, workdir):
    """One benchmark run. Returns (result line, details for the result file).

    A failed output check ends the run with ``correct`` false and is named in
    the details.
    """
    wl = WORKLOADS[name]()
    details = {}
    tracer = None
    if not traced:
        setup_s = []
        for i in range(SETUP_REPEATS):
            _collect()
            start = _perf()
            st = wl.setup(seed, _fresh(os.path.join(workdir, f"setup{i}")))
            setup_s.append(_perf() - start)
        details["setup_s"] = setup_s
        recs = {"timed": Recorder()}
    else:
        tracer = details["tracer"] = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            with tracer.region("setup"):
                st = wl.setup(seed, _fresh(os.path.join(workdir, "setup0")))
        finally:
            tracer.restore()
        recs = {"untraced": Recorder(), "traced": Recorder()}
    wl.prepare(st)
    try:
        quality = _phases(wl, st, seconds, tracer, recs)
    except checks.CheckFailed as exc:
        details["check_failed"] = str(exc)
    details["phases"] = {k: {"op_s": r.op_s, "query_s": r.query_s,
                             "op_phase_s": r.op_phase_s, "rounds": r.rounds}
                         for k, r in recs.items()}
    attempted = sum(len(r.op_s) + len(r.query_s) for r in recs.values())
    line = {"correct": "check_failed" not in details, "attempted": max(1, attempted),
            "failed": 0, "metrics": {}}
    if not line["correct"]:
        return line, details
    if not traced:
        rec = recs["timed"]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (rec.ops_per_s, "1/s"),
            "op_ms.p50": (1e3 * statistics.median(rec.op_s), "ms"),
            "query_ms.p50": (1e3 * statistics.median(rec.query_s), "ms"),
            "quality_loss": (quality, "loss"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        line["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        rec, base = recs["traced"], recs["untraced"]
        line["metrics"] = tracing.layer_metrics(tracer, len(rec.op_s), len(rec.query_s),
                                                rec.ops_per_s, base.ops_per_s)
    return line, details
