import csv
import json

import numpy as np
import pytest

from snodep import cli, training
from snodep.tensor import (NumericsError, Tensor, checkpoint_record, load_checkpoint,
                           save_checkpoint)


def run(args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SMALL_CFG = {
    "model": {"kind": "snodep", "d_r": 8, "d_z": 4, "d_d": 4, "hidden": 8},
    "solver": {"method": "euler", "steps_per_unit": 2},
    "train": {"steps": 8, "batch_size": 4, "context_len": 3, "target_len": 5},
    "eval": {"contexts": 3},
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(SMALL_CFG))
    return p


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "gen"
    assert run(["generate", "--kind", "poisson", "--cells", "20",
                "--timesteps", "8", "--features", "3", "--out", out,
                "--quiet"]) == 0
    return out / "dataset.csv"


class TestGenerate:
    def test_outputs_and_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(["generate", "--kind", "gaussian", "--cells", "10",
                        "--timesteps", "5", "--features", "2", "--out", out,
                        "--quiet"]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()
        header = read_csv(a / "truth.csv")[0]
        assert header == ["time", "mu_f0", "mu_f1", "sigma_f0", "sigma_f1"]

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(["generate", "--kind", "poisson", "--out", a, "--quiet",
             "--cells", "5", "--timesteps", "4", "--features", "2"])
        run(["generate", "--kind", "poisson", "--out", b, "--quiet",
             "--cells", "5", "--timesteps", "4", "--features", "2",
             "--seed", "1"])
        assert (a / "dataset.csv").read_bytes() != (b / "dataset.csv").read_bytes()


class TestTrainEvaluate:
    def test_pipeline(self, tmp_path, dataset, cfg_path):
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, "--config", cfg_path,
                    "--out", out, "--quiet"]) == 0
        assert (out / "checkpoint.npz").exists()
        loss_rows = read_csv(out / "loss.csv")
        assert loss_rows[0] == ["step", "loss"]
        assert len(loss_rows) == 1 + SMALL_CFG["train"]["steps"]
        metrics = read_csv(out / "metrics.csv")
        assert metrics[0][:3] == ["timestep", "mse", "unseen"]
        assert len(metrics) == 1 + 8

        ev = tmp_path / "ev"
        assert run(["evaluate", "--data", dataset, "--config", cfg_path,
                    "--checkpoint", out / "checkpoint.npz", "--out", ev,
                    "--quiet"]) == 0
        # same seed and checkpoint reproduce the training-time evaluation
        assert (ev / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()

    def test_seed_flag_recorded_in_config(self, tmp_path, dataset, cfg_path):
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, "--config", cfg_path, "--seed", "3",
                    "--out", out, "--quiet"]) == 0
        saved = json.loads((out / "config.json").read_text())
        assert saved["train"]["seed"] == 3
        # the saved config alone reproduces the training-time evaluation
        ev = tmp_path / "ev"
        assert run(["evaluate", "--data", dataset, "--config", out / "config.json",
                    "--checkpoint", out / "checkpoint.npz", "--out", ev,
                    "--quiet"]) == 0
        assert (ev / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()

    def test_no_unseen_timestep_is_said(self, tmp_path, dataset, capsys):
        # target_len 8 on 8 timesteps leaves none unseen: say so instead of nan
        cfg = {**SMALL_CFG, "train": {**SMALL_CFG["train"], "target_len": 8}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        out, ev = tmp_path / "run", tmp_path / "ev"
        assert run(["train", "--data", dataset, "--config", p, "--out", out]) == 0
        assert run(["evaluate", "--data", dataset, "--config", p,
                    "--checkpoint", out / "checkpoint.npz", "--out", ev]) == 0
        printed = capsys.readouterr().out
        assert "nan" not in printed.lower()
        assert printed.count("no unseen timestep to score: train.target_len 8 "
                             "covers all 8 timesteps\n") == 2
        metrics = read_csv(out / "metrics.csv")
        assert len(metrics) == 1 + 8 and all(row[2] == "0" for row in metrics[1:])
        assert (ev / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()

    def test_preprocess_then_train_gaussian(self, tmp_path, dataset, cfg_path):
        pre = tmp_path / "pre"
        assert run(["preprocess", "--data", dataset, "--config", cfg_path,
                    "--out", pre, "--quiet"]) == 0
        norm_cfg = dict(SMALL_CFG)
        norm_cfg["data"] = {"kind": "expression", "normalized": True}
        p = tmp_path / "norm_cfg.json"
        p.write_text(json.dumps(norm_cfg))
        out = tmp_path / "run_norm"
        assert run(["train", "--data", pre / "normalized.csv", "--config", p,
                    "--out", out, "--quiet"]) == 0


class TestCheckpointRecord:
    """A checkpoint records the model section it was trained with; ``evaluate``
    rejects one whose record differs from its own, except in the solver."""

    def write_cfg(self, tmp_path, name, **model):
        cfg = {**SMALL_CFG, "model": {**SMALL_CFG["model"], "kind": "nodep", **model}}
        p = tmp_path / name
        p.write_text(json.dumps(cfg))
        return p

    @pytest.fixture
    def trained(self, tmp_path, dataset):
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, "--config",
                    self.write_cfg(tmp_path, "nodep.json"), "--out", out, "--quiet"]) == 0
        return out

    def evaluate(self, tmp_path, dataset, checkpoint, cfg):
        return run(["evaluate", "--data", dataset, "--config", cfg, "--checkpoint",
                    checkpoint, "--out", tmp_path / "ev", "--quiet"])

    @pytest.mark.parametrize("key, value", [("kind", "np"),
                                            ("latent_family", "normal")])
    def test_other_model_rejected(self, tmp_path, dataset, trained, capsys, key, value):
        # np and nodep share every parameter name and shape
        cfg = self.write_cfg(tmp_path, "other.json", **{key: value})
        assert self.evaluate(tmp_path, dataset, trained / "checkpoint.npz", cfg) == 2
        assert f"model.{key}" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "metrics.csv").exists()

    def test_other_solver_accepted(self, tmp_path, dataset, trained):
        cfg = json.loads((trained / "config.json").read_text())
        cfg["solver"] = {"method": "rk4", "steps_per_unit": 3}
        p = tmp_path / "rk4.json"
        p.write_text(json.dumps(cfg))
        assert self.evaluate(tmp_path, dataset, trained / "checkpoint.npz", p) == 0

    def test_checkpoint_without_record_loads(self, tmp_path, dataset, trained):
        bare = tmp_path / "bare.npz"
        save_checkpoint(bare, {k: Tensor(v) for k, v in
                               load_checkpoint(trained / "checkpoint.npz").items()})
        assert checkpoint_record(bare) is None
        assert self.evaluate(tmp_path, dataset, bare, trained / "config.json") == 0
        assert (tmp_path / "ev" / "metrics.csv").read_bytes() == \
            (trained / "metrics.csv").read_bytes()


class TestCompare:
    def test_diff_column(self, tmp_path, dataset, cfg_path):
        out = tmp_path / "cmp"
        assert run(["compare", "--data", dataset, "--config", cfg_path,
                    "--models", "nodep,snodep", "--seeds", "2", "--out", out,
                    "--quiet"]) == 0
        rows = read_csv(out / "comparison.csv")
        by_model = {}
        means = {}
        for model, seed, value in rows[1:]:
            if model == "nodep_minus_snodep":
                diff = float(value)
            elif seed == "mean":
                means[model] = float(value)
            else:
                by_model.setdefault(model, []).append(float(value))
        assert len(by_model["nodep"]) == 2 and len(by_model["snodep"]) == 2
        assert means["nodep"] == pytest.approx(np.mean(by_model["nodep"]))
        assert diff == pytest.approx(means["nodep"] - means["snodep"])


class TestSweep:
    def test_rows(self, tmp_path, dataset, cfg_path):
        out = tmp_path / "sw"
        assert run(["sweep-context", "--data", dataset, "--config", cfg_path,
                    "--contexts", "2,3", "--out", out, "--quiet"]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["context_len", "test_mse"]
        assert [r[0] for r in rows[1:]] == ["2", "3"]

    def test_one_finite_row_per_context(self, tmp_path):
        # np on gaussian data: every C trains and scores its own cell
        gen = tmp_path / "gen"
        assert run(["generate", "--kind", "gaussian", "--cells", "15", "--timesteps",
                    "8", "--features", "2", "--out", gen, "--quiet"]) == 0
        cfg = {"model": {"kind": "np", "d_r": 8, "d_z": 4, "d_d": 4, "hidden": 8},
               "train": {"steps": 3, "batch_size": 4}, "eval": {"contexts": 3},
               "data": {"kind": "flux"}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(["sweep-context", "--data", gen / "dataset.csv", "--config", p,
                    "--contexts", "2,3", "--out", tmp_path / "sw", "--quiet"]) == 0
        rows = read_csv(tmp_path / "sw" / "sweep.csv")[1:]
        assert [r[0] for r in rows] == ["2", "3"]
        assert all(np.isfinite(float(r[1])) for r in rows)

    def test_matches_train_at_eval_frequency(self, tmp_path, dataset):
        # training drops half the points; evaluation sees them all
        cfg = {**SMALL_CFG, "model": {**SMALL_CFG["model"], "kind": "nodep"},
               "train": {**SMALL_CFG["train"], "context_len": 4, "target_len": 6,
                         "frequency": 0.5},
               "eval": {"contexts": 3, "frequency": 1.0}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(["sweep-context", "--data", dataset, "--config", p,
                    "--contexts", "4", "--out", tmp_path / "sw", "--quiet"]) == 0
        assert run(["train", "--data", dataset, "--config", p,
                    "--out", tmp_path / "run", "--quiet"]) == 0
        assert run(["compare", "--data", dataset, "--config", p, "--models", "nodep",
                    "--out", tmp_path / "cmp", "--quiet"]) == 0
        swept = float(read_csv(tmp_path / "sw" / "sweep.csv")[1][1])
        compared = float(read_csv(tmp_path / "cmp" / "comparison.csv")[1][2])
        unseen = [float(r[1]) for r in read_csv(tmp_path / "run" / "metrics.csv")[1:]
                  if r[2] == "1"]
        assert swept == pytest.approx(np.mean(unseen), rel=1e-12)
        assert compared == swept


@pytest.fixture
def trains(monkeypatch):
    """One entry per training run, through ``cli.train`` or ``training.train``."""
    calls = []
    real = training.train

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (cli, training):
        monkeypatch.setattr(module, "train", counted)
    return calls


class TestCellsCheckedFirst:
    """A multi-cell command checks every cell before the first one trains."""

    @pytest.mark.parametrize("argv, output, message", [
        # C=6 has target length 9 on 8 timesteps: no unseen timestep to score
        (["sweep-context", "--contexts", "2,6"], "sweep.csv",
         "train.target_len 9 leaves no unseen timesteps of the 8"),
        (["compare", "--models", "nodep,bogus"], "comparison.csv",
         "config section 'model': unknown model kind 'bogus'"),
    ], ids=["sweep-context", "compare"])
    def test_later_bad_cell_trains_nothing(self, tmp_path, dataset, cfg_path, trains,
                                           capsys, argv, output, message):
        assert run(argv + ["--data", dataset, "--config", cfg_path,
                           "--out", tmp_path / "o", "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert trains == []
        assert not (tmp_path / "o" / output).exists()

    def test_compare_needs_unseen_timesteps(self, tmp_path, dataset, capsys):
        # the unseen MSE is compare's only output
        cfg = {**SMALL_CFG, "train": {**SMALL_CFG["train"], "target_len": 8}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(["compare", "--data", dataset, "--config", p, "--models", "np",
                    "--out", tmp_path / "cmp", "--quiet"]) == 2
        assert "train.target_len 8 leaves no unseen timesteps of the 8" in \
            capsys.readouterr().err
        assert not (tmp_path / "cmp" / "comparison.csv").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["compare", "--seeds", "0"], "--seeds"),
        (["compare", "--seeds", "-2"], "--seeds"),
        (["compare", "--models", ","], "--models"),
        (["sweep-context", "--contexts", ","], "--contexts"),
        (["sweep-context", "--contexts", "2,x"], "--contexts"),
    ], ids=["seeds-zero", "seeds-negative", "models-empty", "contexts-empty",
            "contexts-not-int"])
    def test_bad_grid_flag_names_itself(self, tmp_path, dataset, cfg_path, trains,
                                        capsys, argv, flag):
        assert run(argv + ["--data", dataset, "--config", cfg_path,
                           "--out", tmp_path / "o", "--quiet"]) == 2
        assert f"error: {flag} " in capsys.readouterr().err
        assert trains == []
        assert not list(tmp_path.glob("o/*.csv"))


class TestLstmSampling:
    """The LSTM encoder needs every context timestep, so an LSTM kind is
    rejected at a frequency below 1 before any work; other kinds are not."""

    # train.frequency 0.5 needs context_len >= 4
    FREQ_CFG = {**SMALL_CFG, "train": {**SMALL_CFG["train"], "context_len": 4,
                                       "target_len": 6}}

    def write_cfg(self, tmp_path, key, kind="snodep"):
        section, _ = key.split(".")
        cfg = {**self.FREQ_CFG, "model": {**SMALL_CFG["model"], "kind": kind}}
        cfg[section] = {**cfg.get(section, {}), "frequency": 0.5}
        p = tmp_path / f"{section}_{kind}.json"
        p.write_text(json.dumps(cfg))
        return p

    @pytest.mark.parametrize("key", ["train.frequency", "eval.frequency"])
    def test_train_rejected_before_work(self, tmp_path, dataset, capsys, key):
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, "--config",
                    self.write_cfg(tmp_path, key), "--out", out, "--quiet"]) == 2
        assert f"needs {key} 1, got 0.5" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["train.frequency", "eval.frequency"])
    def test_compare_rejects_lstm_cell_only(self, tmp_path, dataset, capsys, key,
                                            trains):
        # the base config's kind is snodep; only its cells' kinds count
        cfg = self.write_cfg(tmp_path, key)
        assert run(["compare", "--data", dataset, "--config", cfg, "--models",
                    "nodep,snodep", "--out", tmp_path / "cmp", "--quiet"]) == 2
        assert f"model.kind 'snodep' encodes with an LSTM, which needs {key} 1" in \
            capsys.readouterr().err
        assert trains == []
        assert not (tmp_path / "cmp" / "comparison.csv").exists()
        assert run(["compare", "--data", dataset, "--config", cfg, "--models",
                    "nodep,snodep_gruode", "--out", tmp_path / "cmp", "--quiet"]) == 0

    def test_evaluate_checks_eval_frequency_only(self, tmp_path, dataset, cfg_path,
                                                 capsys):
        out = tmp_path / "run"
        assert run(["train", "--data", dataset, "--config", cfg_path, "--out", out,
                    "--quiet"]) == 0
        for key, code in (("eval.frequency", 2), ("train.frequency", 0)):
            assert run(["evaluate", "--data", dataset, "--config",
                        self.write_cfg(tmp_path, key), "--checkpoint",
                        out / "checkpoint.npz", "--out", tmp_path / key,
                        "--quiet"]) == code
        assert "needs eval.frequency 1, got 0.5" in capsys.readouterr().err
        assert not (tmp_path / "eval.frequency" / "metrics.csv").exists()


class TestFluxCommands:
    @pytest.fixture
    def pathway(self, tmp_path):
        p = tmp_path / "pw.json"
        p.write_text(json.dumps({
            "genes": ["f0", "f1", "f2"],
            "modules": [{"name": "M1", "genes": ["f0"]},
                        {"name": "M2", "genes": ["f1", "f2"]}],
            "metabolites": [{"name": "A", "in_modules": ["M1"],
                             "out_modules": ["M2"]}],
        }))
        return p

    def test_estimate_flux(self, tmp_path, dataset, pathway):
        cfg = tmp_path / "scfea_cfg.json"
        cfg.write_text(json.dumps({"scfea": {"steps": 10}}))
        out = tmp_path / "flux"
        assert run(["estimate-flux", "--data", dataset, "--pathway", pathway,
                    "--config", cfg, "--out", out, "--quiet"]) == 0
        flux = read_csv(out / "flux.csv")
        assert flux[0] == ["time", "sample_id", "M1", "M2"]
        bal = read_csv(out / "balance.csv")
        assert bal[0] == ["time", "sample_id", "A"]

    def test_knockout(self, tmp_path, dataset, pathway):
        cfg = tmp_path / "scfea_cfg.json"
        cfg.write_text(json.dumps({"scfea": {"steps": 2}}))
        out = tmp_path / "ko"
        assert run(["knockout", "--data", dataset, "--pathway", pathway,
                    "--config", cfg, "--k", "3", "--subsets", "3",
                    "--out", out, "--quiet"]) == 0
        metas = sorted(out.glob("config_*/meta.json"))
        assert len(metas) == 3
        meta = json.loads(metas[0].read_text())
        assert set(meta) == {"knocked_genes", "indicator", "split"}
        flux = read_csv(metas[0].parent / "flux.csv")
        assert flux[0] == ["time", "sample_id", "M1", "M2",
                           "ko_f0", "ko_f1", "ko_f2"]

    def test_config_seed_matches_flag(self, tmp_path, dataset, pathway):
        # knockout.seed in the config file counts when --seed is not given
        metas = []
        for name, seed_cfg, flags in (("flag", {}, ["--seed", "4"]),
                                      ("file", {"seed": 4}, [])):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"scfea": {"steps": 1},
                                       "knockout": {"k": 3, "subsets": 3, **seed_cfg}}))
            out = tmp_path / name
            assert run(["knockout", "--data", dataset, "--pathway", pathway,
                        "--config", cfg, *flags, "--out", out, "--quiet"]) == 0
            metas.append([p.read_text() for p in sorted(out.glob("config_*/meta.json"))])
        assert metas[0] == metas[1]

    def test_estimate_flux_seed_flag(self, tmp_path, dataset, pathway):
        # --seed sets scfea.seed: it matches the config file's seed and moves the flux
        flux = {}
        for name, seed_cfg, flags in (("none", {}, []), ("flag", {}, ["--seed", "3"]),
                                      ("file", {"seed": 3}, [])):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"scfea": {"steps": 5, **seed_cfg}}))
            out = tmp_path / name
            assert run(["estimate-flux", "--data", dataset, "--pathway", pathway,
                        "--config", cfg, *flags, "--out", out, "--quiet"]) == 0
            flux[name] = (out / "flux.csv").read_bytes()
        assert flux["flag"] == flux["file"]
        assert flux["flag"] != flux["none"]

    @pytest.mark.parametrize("flag", ["--k", "--subsets"])
    def test_knockout_zero_count_rejected(self, tmp_path, dataset, pathway, flag):
        # an explicit 0 is not "unset": the configured 3 must not stand in for it
        cfg = tmp_path / "ko_cfg.json"
        cfg.write_text(json.dumps({"scfea": {"steps": 2},
                                   "knockout": {"k": 3, "subsets": 3}}))
        assert run(["knockout", "--data", dataset, "--pathway", pathway,
                    "--config", cfg, flag, "0", "--out", tmp_path / "ko",
                    "--quiet"]) == 2
        assert not (tmp_path / "ko" / "config_00").exists()


class TestExitCodes:
    def test_missing_file_is_validation(self, tmp_path, cfg_path):
        assert run(["train", "--data", tmp_path / "nope.csv",
                    "--config", cfg_path, "--out", tmp_path / "o"]) == 2

    def test_bad_config_key(self, tmp_path, dataset):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"train": {"stepz": 1}}))
        assert run(["train", "--data", dataset, "--config", p,
                    "--out", tmp_path / "o"]) == 2

    def test_preprocess_takes_no_seed(self, tmp_path, dataset):
        # preprocessing draws nothing, so a seed flag is a usage error
        with pytest.raises(SystemExit) as exc:
            run(["preprocess", "--data", dataset, "--seed", "7", "--out", tmp_path / "n"])
        assert exc.value.code == 2
        assert not (tmp_path / "n").exists()

    def test_generate_takes_no_config(self, tmp_path):
        # generate reads no config, so a --config flag is a usage error
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--kind", "poisson", "--cells", "5", "--timesteps", "3",
                 "--features", "2", "--config", tmp_path / "does_not_exist.json",
                 "--out", tmp_path / "gen", "--quiet"])
        assert exc.value.code == 2
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("argv", [
        ["preprocess"],
        ["estimate-flux", "--pathway", "p.json"],
        ["knockout", "--pathway", "p.json"],
        ["train"],
        ["evaluate", "--checkpoint", "c.npz"],
        ["compare"],
        ["sweep-context"],
    ], ids=lambda argv: argv[0])
    def test_data_is_required(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", tmp_path / "o", "--quiet"])
        assert exc.value.code == 2
        assert "the following arguments are required: --data" in capsys.readouterr().err

    def test_generate_takes_no_data(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--kind", "poisson", "--data", tmp_path / "d.csv",
                 "--out", tmp_path / "gen", "--quiet"])
        assert exc.value.code == 2

    def test_malformed_json(self, tmp_path, dataset):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run(["train", "--data", dataset, "--config", p,
                    "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("section, key, value, message", [
        ("train", "steps", "5", "config key 'train.steps' must be int"),
        ("data", "normalized", "no", "config key 'data.normalized' must be bool"),
        ("train", "batch_size", 0, "section 'train': batch_size must be >= 1"),
        ("model", "d_z", 0, "section 'model': d_z must be >= 1"),
        ("model", "hidden", 0, "section 'model': hidden must be >= 1"),
        ("eval", "contexts", 0, "eval.contexts must be >= 1"),
    ])
    def test_bad_value_names_key(self, tmp_path, dataset, capsys, section, key,
                                 value, message):
        cfg = {**SMALL_CFG, section: {**SMALL_CFG.get(section, {}), key: value}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert run(["train", "--data", dataset, "--config", p,
                    "--out", tmp_path / "o", "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "checkpoint.npz").exists()

    def test_numerics_failure(self, tmp_path, dataset, cfg_path, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericsError("training loss became non-finite at step 3")

        monkeypatch.setattr(cli, "train", explode)
        assert run(["train", "--data", dataset, "--config", cfg_path,
                    "--out", tmp_path / "o"]) == 3
