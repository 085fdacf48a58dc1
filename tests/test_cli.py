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

    def test_malformed_json(self, tmp_path, dataset):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run(["train", "--data", dataset, "--config", p,
                    "--out", tmp_path / "o"]) == 2

    def test_numerics_failure(self, tmp_path, dataset, cfg_path, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericsError("training loss became non-finite at step 3")

        monkeypatch.setattr(cli, "train", explode)
        assert run(["train", "--data", dataset, "--config", cfg_path,
                    "--out", tmp_path / "o"]) == 3
