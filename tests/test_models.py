import numpy as np
import pytest

from snodep.distributions import DiagNormal, PoissonD
from snodep.models import ENCODER_FOR_KIND, KINDS, ModelConfig, ProcessModel
from snodep import tensor as T
from snodep.ode import SolverConfig
from snodep.tensor import Tensor, save_checkpoint, restore_checkpoint


def tiny_cfg(kind, **kw):
    base = dict(d_y=2, head="gaussian", latent_family="normal", d_r=6, d_z=4,
                d_d=3, hidden=5, solver=SolverConfig("euler", 2))
    base.update(kw)
    return ModelConfig(kind, **base)


class TestConfig:
    def test_rejects_unknown_choices(self):
        with pytest.raises(ValueError):
            ModelConfig("gp", d_y=2)
        with pytest.raises(ValueError):
            ModelConfig("np", d_y=2, head="beta")
        with pytest.raises(ValueError):
            ModelConfig("np", d_y=2, latent_family="gamma")

    @pytest.mark.parametrize("size", ["d_y", "d_r", "d_z", "d_d", "hidden"])
    def test_sizes_must_be_positive(self, size):
        with pytest.raises(ValueError, match=f"{size} must be >= 1, got 0"):
            tiny_cfg("snodep", **{size: 0})

    def test_encoder_assignment(self):
        assert ENCODER_FOR_KIND == {"np": "mean", "nodep": "mean",
                                    "snodep": "lstm", "snodep_gruode": "gruode"}


class TestParameters:
    @pytest.mark.parametrize("kind", KINDS)
    def test_named_and_tracked(self, kind):
        model = ProcessModel(tiny_cfg(kind), seed=0)
        params = model.parameters()
        assert all(p.requires_grad for p in params.values())
        prefixes = {name.split(".")[0] for name in params}
        expected = {"encoder", "latent_heads", "trunk", "out_head"}
        if kind == "snodep_gruode":
            expected.add("g_field")
        assert prefixes == expected

    def test_seed_reproducibility(self):
        a = ProcessModel(tiny_cfg("snodep"), seed=5).parameters()
        b = ProcessModel(tiny_cfg("snodep"), seed=5).parameters()
        for name in a:
            np.testing.assert_array_equal(a[name].values, b[name].values)


class TestEncode:
    @pytest.mark.parametrize("kind", KINDS)
    def test_latent_shapes(self, kind):
        model = ProcessModel(tiny_cfg(kind), seed=0)
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 4, 2))
        mask = np.ones((3, 4), dtype=bool)
        l0, d = model.encode_batch(np.arange(4.0), values, mask)
        assert l0.mu.shape == (3, 4) and d.mu.shape == (3, 3)


class TestDecode:
    def test_np_head_kinds(self):
        for head, cls in (("gaussian", DiagNormal), ("poisson", PoissonD)):
            model = ProcessModel(tiny_cfg("np", head=head), seed=0)
            l0 = Tensor(np.zeros((2, 4)))
            d = Tensor(np.zeros((2, 3)))
            dist = model.decode_batch(l0, d, 0.0, [0.0, 1.0, 2.5])
            assert isinstance(dist, cls)
            p = dist.lam if head == "poisson" else dist.mu
            assert p.shape == (3, 2, 2)

    def test_ode_decode_at_origin_skips_integration(self):
        model = ProcessModel(tiny_cfg("nodep"), seed=0)
        l0 = Tensor(np.ones((1, 4)))
        d = Tensor(np.zeros((1, 3)))
        only_origin = model.decode_batch(l0, d, 0.0, [0.0])
        direct = model._head_dist(l0, 1)
        np.testing.assert_array_equal(only_origin.mu.values, direct.mu.values)

    def test_ode_decode_prefix_consistent(self):
        # states along a path agree with integrating straight to each time
        model = ProcessModel(tiny_cfg("snodep"), seed=1)
        l0 = Tensor(np.ones((1, 4)) * 0.3)
        d = Tensor(np.ones((1, 3)) * 0.1)
        path = model.decode_batch(l0, d, 0.0, [1.0, 2.0, 3.0])
        last = model.decode_batch(l0, d, 0.0, [3.0])
        np.testing.assert_allclose(path.mu.values[-1], last.mu.values[0], atol=1e-12)

    @pytest.mark.parametrize("kind", ["np", "nodep"])
    def test_rows_match_single_query_decodes(self, kind):
        # the (T, B, d_y) parameters are time-major: row i is the decode at
        # query time i alone, for every batch element
        model = ProcessModel(tiny_cfg(kind), seed=2)
        rng = np.random.default_rng(3)
        l0, d = Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 3)))
        dist = model.decode_batch(l0, d, 0.0, [1.0, 2.0, 3.0])
        assert dist.mu.shape == dist.sigma.shape == (3, 2, 2)
        for i, t in enumerate([1.0, 2.0, 3.0]):
            one = model.decode_batch(l0, d, 0.0, [t])
            np.testing.assert_allclose(dist.mu.values[i], one.mu.values[0], atol=1e-12)
            np.testing.assert_allclose(dist.sigma.values[i], one.sigma.values[0],
                                       atol=1e-12)

    def test_rejects_queries_before_origin(self):
        model = ProcessModel(tiny_cfg("nodep"), seed=0)
        l0 = Tensor(np.zeros((1, 4)))
        d = Tensor(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            model.decode_batch(l0, d, 1.0, [0.5, 1.5])
        with pytest.raises(ValueError):
            model.decode_batch(l0, d, 0.0, [1.0, 1.0])

    def test_empty_queries(self):
        model = ProcessModel(tiny_cfg("nodep"), seed=0)
        with pytest.raises(ValueError, match="at least one query time"):
            model.decode_batch(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 3))),
                               0.0, [])


class TestPredict:
    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic(self, kind):
        model = ProcessModel(tiny_cfg(kind), seed=0)
        rng = np.random.default_rng(0)
        values, mask = rng.normal(size=(1, 4, 2)), np.ones((1, 4), dtype=bool)
        a = model.predict_batch(np.arange(4.0), values, mask, [0.0, 1.0, 4.0])
        b = model.predict_batch(np.arange(4.0), values, mask, [0.0, 1.0, 4.0])
        assert a.mu.shape == (3, 1, 2)
        np.testing.assert_array_equal(a.mu.values, b.mu.values)

    def test_lognormal_zero_noise_uses_exp_mu(self):
        model = ProcessModel(tiny_cfg("np", latent_family="lognormal"), seed=0)
        rng = np.random.default_rng(0)
        times = np.arange(3.0)
        values = rng.normal(size=(1, 3, 2))
        mask = np.ones((1, 3), dtype=bool)
        l0_dist, d_dist = model.encode_batch(times, values, mask)
        pred = model.predict_batch(times, values, mask, [0.0])
        manual = model.decode_batch(Tensor(np.exp(l0_dist.mu.values)),
                                    Tensor(np.exp(d_dist.mu.values)), 0.0, [0.0])
        np.testing.assert_allclose(pred.mu.values, manual.mu.values, atol=1e-12)

    @pytest.mark.parametrize("family", ["normal", "lognormal"])
    def test_predicts_at_posterior_median(self, family):
        # the median is mu (normal) or exp(mu) (lognormal); the lognormal mean,
        # exp(mu + sigma^2 / 2), is larger and is not what predict_batch uses
        model = ProcessModel(tiny_cfg("snodep", latent_family=family), seed=0)
        rng = np.random.default_rng(1)
        times, values = np.arange(3.0), rng.normal(size=(2, 3, 2))
        mask = np.ones((2, 3), dtype=bool)
        l0_dist, d_dist = model.encode_batch(times, values, mask)
        link = np.exp if family == "lognormal" else (lambda v: v)
        median = [Tensor(link(dist.mu.values)) for dist in (l0_dist, d_dist)]
        pred = model.predict_batch(times, values, mask, [0.0, 2.0])
        at_median = model.decode_batch(*median, 0.0, [0.0, 2.0])
        np.testing.assert_array_equal(pred.mu.values, at_median.mu.values)
        if family == "lognormal":
            mean = [Tensor(np.exp(dist.mu.values + 0.5 * dist.sigma.values ** 2))
                    for dist in (l0_dist, d_dist)]
            at_mean = model.decode_batch(*mean, 0.0, [0.0, 2.0])
            assert not np.allclose(pred.mu.values[1], at_mean.mu.values[1])

    @staticmethod
    def context(kind, rng):
        # ragged presence for the kinds whose encoders take a mask; the
        # backward LSTM reads every context point
        values = rng.normal(size=(3, 5, 2))
        mask = np.ones((3, 5), dtype=bool)
        if kind != "snodep":
            mask[0, [1, 3]] = mask[1, 4] = mask[2, 2] = False
        return np.array([0.0, 0.5, 1.5, 2.0, 3.0]), values, mask

    @pytest.mark.parametrize("kind", KINDS)
    def test_builds_no_tracked_node(self, kind, monkeypatch):
        model = ProcessModel(tiny_cfg(kind), seed=0)
        times, values, mask = self.context(kind, np.random.default_rng(2))
        made = []
        fused = T.fused

        def spy(op, out, parents, bwd):
            made.append(fused(op, out, parents, bwd))
            return made[-1]

        monkeypatch.setattr(T, "fused", spy)
        pred = model.predict_batch(times, values, mask, [0.0, 2.0, 4.0])
        assert made
        assert not any(node.requires_grad or node._parents for node in made)
        for p in (pred.mu, pred.sigma):
            assert not p.requires_grad and p._parents == ()

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_taped_decode_at_median(self, kind):
        # the tape-free prediction is bitwise the decode that a tracked
        # encode and decode give at the posterior median
        model = ProcessModel(tiny_cfg(kind, latent_family="lognormal"), seed=3)
        times, values, mask = self.context(kind, np.random.default_rng(4))
        queries = [0.0, 1.0, 2.5, 4.0]
        l0_dist, d_dist = model.encode_batch(times, values, mask)
        median = [Tensor(np.exp(dist.mu.values)) for dist in (l0_dist, d_dist)]
        ref = model.decode_batch(*median, 0.0, queries)
        pred = model.predict_batch(times, values, mask, queries)
        assert ref.mu.requires_grad and not pred.mu.requires_grad
        np.testing.assert_array_equal(pred.mu.values, ref.mu.values)
        np.testing.assert_array_equal(pred.sigma.values, ref.sigma.values)

    def test_checkpoint_roundtrip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(0)
        ctx = (np.arange(4.0), rng.normal(size=(1, 4, 2)), np.ones((1, 4), dtype=bool))
        model = ProcessModel(tiny_cfg("snodep"), seed=0)
        ref = model.predict_batch(*ctx, [0.0, 2.0])
        path = tmp_path / "ck.npz"
        save_checkpoint(path, model.parameters())
        other = ProcessModel(tiny_cfg("snodep"), seed=99)
        restore_checkpoint(other.parameters(), path)
        out = other.predict_batch(*ctx, [0.0, 2.0])
        np.testing.assert_array_equal(ref.mu.values, out.mu.values)
