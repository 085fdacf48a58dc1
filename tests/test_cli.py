import csv
import json

import numpy as np
import pytest

from snodep import cli
from snodep.tensor import NumericsError


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
        swept = float(read_csv(tmp_path / "sw" / "sweep.csv")[1][1])
        unseen = [float(r[1]) for r in read_csv(tmp_path / "run" / "metrics.csv")[1:]
                  if r[2] == "1"]
        assert swept == pytest.approx(np.mean(unseen), rel=1e-12)


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
