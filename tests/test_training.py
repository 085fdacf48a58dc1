import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from snodep import tensor as T
from snodep.data import ValidationError, generate_synthetic
from snodep.distributions import SIGMA_MIN, DiagNormal
from snodep.models import ModelConfig, ProcessModel
from snodep.ode import SolverConfig
from snodep.training import (
    TrainConfig,
    TrajectoryBatch,
    draw_presence_mask,
    elbo_loss,
    evaluate,
    predict_average_params,
    sample_batch,
    test_mse as distribution_mse,
    train,
)


def small_cfg(kind="snodep", **kw):
    base = dict(d_y=2, head="gaussian", latent_family="normal", d_r=6, d_z=4,
                d_d=3, hidden=5, solver=SolverConfig("euler", 2))
    base.update(kw)
    return ModelConfig(kind, **base)


class TestBatches:
    def test_trajectory_batch_validation(self):
        with pytest.raises(ValidationError):
            TrajectoryBatch(np.arange(4.0), np.zeros((2, 4, 1)), 3, 3,
                            np.ones((2, 4), dtype=bool))
        with pytest.raises(ValidationError):
            TrajectoryBatch(np.arange(4.0), np.zeros((2, 4, 1)), 2, 5,
                            np.ones((2, 4), dtype=bool))
        with pytest.raises(ValidationError):
            TrajectoryBatch(np.arange(4.0), np.zeros((2, 3, 1)), 2, 4,
                            np.ones((2, 4), dtype=bool))

    def test_sample_batch_draws_dataset_columns(self):
        ds, _ = generate_synthetic("poisson", 3, 6, 10, seed=0)
        rng = np.random.default_rng(1)
        batch = sample_batch(ds, 5, 2, 4, rng)
        assert batch.values.shape == (5, 4, 3)
        for t in range(4):
            cols = ds.samples[t].T  # (n, d_y)
            for b in range(5):
                assert any(np.array_equal(batch.values[b, t], c) for c in cols)

    def test_sample_batch_rejects_long_target(self):
        ds, _ = generate_synthetic("poisson", 2, 4, 5, seed=0)
        with pytest.raises(ValidationError):
            sample_batch(ds, 2, 2, 5, np.random.default_rng(0))

    def test_train_config_frequency_bounds(self):
        with pytest.raises(ValidationError):
            TrainConfig(frequency=0.0)
        with pytest.raises(ValidationError):
            TrainConfig(frequency=0.1, context_len=8)


    def test_train_config_batch_size(self):
        with pytest.raises(ValidationError, match="batch_size must be >= 1, got 0"):
            TrainConfig(batch_size=0)
        assert TrainConfig(steps=1, batch_size=1).steps == 1


class TestPresenceMask:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 8), st.integers(3, 12), st.floats(0.3, 1.0))
    def test_invariants(self, b, t_total, freq):
        c = min(t_total - 1, 4)
        if freq * c < 2:
            freq = 1.0
        mask = draw_presence_mask(b, t_total, c, freq,
                                  np.random.default_rng(0))
        assert mask.shape == (b, t_total)
        assert mask[:, 0].all()
        assert (mask[:, :c].sum(axis=1) >= 2).all()

    def test_full_frequency_is_all_present(self):
        mask = draw_presence_mask(4, 6, 3, 1.0, np.random.default_rng(0))
        assert mask.all()

    def test_partial_frequency_drops_points(self):
        mask = draw_presence_mask(50, 10, 4, 0.5, np.random.default_rng(0))
        assert not mask.all()


class StubModel:
    """Perfect-reconstruction model: decode returns N(y_t, sigma_min) and both
    posteriors coincide, so the ELBO reduces to the exact log-likelihood."""

    def __init__(self, batch):
        self._batch = batch

    def encode_batch(self, times, values, mask):
        b = values.shape[0]
        d = DiagNormal(np.zeros((b, 1)), np.ones((b, 1)))
        return d, d

    def decode_batch(self, l0, d, t0, query_times):
        mu = self._batch.values[:, :len(query_times)].transpose(1, 0, 2)
        return DiagNormal(mu, np.full(mu.shape, SIGMA_MIN))


class TestElbo:
    def test_stub_model_exact_value(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 4, 2))
        batch = TrajectoryBatch(np.arange(4.0), values, 2, 4,
                                np.ones((3, 4), dtype=bool))
        model = StubModel(batch)
        noise = (np.zeros((3, 1)), np.zeros((3, 1)))
        loss, parts = elbo_loss(model, batch, noise)
        # KL = 0 and each point contributes logpdf at its own mean
        expected = -4 * 2 * scipy.stats.norm.logpdf(0.0, scale=SIGMA_MIN)
        assert loss.values.item() == pytest.approx(expected, rel=1e-12)
        assert parts["kl"] == pytest.approx(0.0, abs=1e-15)

    def test_matches_numpy_assembly(self):
        # re-assemble the loss from the model's own distribution parameters
        model = ProcessModel(small_cfg("nodep"), seed=0)
        ds, _ = generate_synthetic("gaussian", 2, 6, 8, seed=0)
        rng = np.random.default_rng(2)
        batch = sample_batch(ds, 3, 2, 5, rng, frequency=0.8)
        noise = (rng.standard_normal((3, 4)), rng.standard_normal((3, 3)))
        loss, _ = elbo_loss(model, batch, noise, kl_weight=0.7)

        l0_c, d_c = model.encode_batch(batch.times[:2], batch.values[:, :2],
                                       batch.present[:, :2])
        l0_t, d_t = model.encode_batch(batch.times[:5], batch.values[:, :5],
                                       batch.present[:, :5])

        def np_kl(p, q):
            return (np.log(q.sigma.values) - np.log(p.sigma.values)
                    + 0.5 * (p.sigma.values / q.sigma.values) ** 2
                    + 0.5 * ((p.mu.values - q.mu.values) / q.sigma.values) ** 2
                    - 0.5).sum(axis=-1)

        l0 = l0_t.mu.values + l0_t.sigma.values * noise[0]
        d = d_t.mu.values + d_t.sigma.values * noise[1]
        from snodep.tensor import Tensor
        dist = model.decode_batch(Tensor(l0), Tensor(d), batch.times[0],
                                  list(batch.times[:5]))
        loglik = np.zeros(3)
        for i in range(5):
            lp = scipy.stats.norm.logpdf(batch.values[:, i, :], dist.mu.values[i],
                                         dist.sigma.values[i]).sum(axis=1)
            loglik += batch.present[:, i] * lp
        expected = np.mean(0.7 * (np_kl(l0_t, l0_c) + np_kl(d_t, d_c)) - loglik)
        assert loss.values.item() == pytest.approx(expected, rel=1e-10)

    def test_gradient_reaches_every_parameter_family(self):
        from snodep.tensor import backward
        model = ProcessModel(small_cfg("snodep_gruode"), seed=0)
        ds, _ = generate_synthetic("gaussian", 2, 6, 8, seed=0)
        rng = np.random.default_rng(0)
        batch = sample_batch(ds, 2, 3, 5, rng)
        noise = (rng.standard_normal((2, 4)), rng.standard_normal((2, 3)))
        loss, _ = elbo_loss(model, batch, noise)
        backward(loss)
        touched = {name.split(".")[0] for name, p in model.parameters().items()
                   if p.grad is not None and np.any(p.grad != 0)}
        assert {"encoder", "g_field", "latent_heads", "trunk", "out_head"} <= touched


class TestTestMse:
    def test_gaussian_anchor(self):
        # mu*=3, sigma*^2=0.25 from the two-sample set {2.5, 3.5}; mu=1
        report = distribution_mse("gaussian", np.array([[1.0]]), [np.array([[2.5, 3.5]])])
        assert report.per_timestep[0] == 4.25
        assert report.all_mse == 4.25

    @pytest.mark.parametrize("pred", [
        [(np.array([1.0]), np.array([0.1]))],   # a (mu, sigma) pair per timestep
        np.array([1.0]),                        # (V,), not (V, d_y)
        np.array([[1.0, 1.0]]),                 # too many dimensions
        np.array([[1.0], [1.0]]),               # too many timesteps
    ])
    @pytest.mark.parametrize("head", ["poisson", "gaussian"])
    def test_rejects_prediction_that_is_not_v_by_dy(self, head, pred):
        with pytest.raises(ValidationError, match=r"expected \(1, 1\)"):
            distribution_mse(head, pred, [np.array([[2.5, 3.5]])])

    def test_poisson_formula(self):
        rng = np.random.default_rng(0)
        mat = rng.poisson(4.0, size=(3, 50)).astype(float)
        lam = np.array([2.0, 4.0, 6.0])
        report = distribution_mse("poisson", [lam], [mat])
        star = mat.mean(axis=1)
        np.testing.assert_allclose(report.per_dim[0], star + (lam - star) ** 2,
                                   rtol=1e-12)

    def test_perfect_poisson_prediction_attains_noise_floor(self):
        mat = np.array([[1.0, 3.0, 2.0, 2.0]])
        report = distribution_mse("poisson", [mat.mean(axis=1)], [mat])
        assert report.per_timestep[0] == pytest.approx(2.0)

    def test_unseen_headline(self):
        samples = [np.array([[1.0, 3.0]]) for _ in range(4)]
        params = [np.array([2.0])] * 3 + [np.array([5.0])]
        report = distribution_mse("poisson", params, samples, unseen=[3])
        assert report.unseen_mse == pytest.approx(2.0 + 9.0)
        assert report.all_mse == pytest.approx((3 * 2.0 + 11.0) / 4)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            distribution_mse("poisson", [np.array([1.0])], [np.array([[2.0]])])

    def test_length_mismatch_and_bad_head(self):
        with pytest.raises(ValidationError):
            distribution_mse("poisson", [np.array([1.0])], [])
        with pytest.raises(ValidationError):
            distribution_mse("beta", [np.array([1.0])], [np.array([[1.0, 2.0]])])


class TestTrainLoop:
    def test_loss_decreases_on_synthetic(self):
        ds, _ = generate_synthetic("gaussian", 2, 8, 40, seed=0)
        model = ProcessModel(small_cfg("nodep"), seed=0)
        cfg = TrainConfig(steps=150, batch_size=8, context_len=3, target_len=5,
                          lr=3e-3)
        history = train(model, ds, cfg)
        assert len(history) == 150
        assert np.mean(history[-20:]) < np.mean(history[:20])

    def test_target_longer_than_dataset(self):
        ds, _ = generate_synthetic("gaussian", 2, 4, 10, seed=0)
        model = ProcessModel(small_cfg("nodep"), seed=0)
        with pytest.raises(ValidationError):
            train(model, ds, TrainConfig(steps=1, context_len=2, target_len=6))

    def test_callback_sees_every_step(self):
        ds, _ = generate_synthetic("gaussian", 2, 6, 10, seed=0)
        model = ProcessModel(small_cfg("np"), seed=0)
        seen = []
        train(model, ds, TrainConfig(steps=5, batch_size=4, context_len=2,
                                     target_len=4),
              callback=lambda s, l, parts: seen.append(s))
        assert seen == [0, 1, 2, 3, 4]

    def test_evaluating_between_steps_leaves_training_unchanged(self):
        ds, _ = generate_synthetic("gaussian", 2, 8, 20, seed=0)
        cfg = TrainConfig(steps=6, batch_size=4, context_len=3, target_len=5,
                          frequency=0.7)
        plain = train(ProcessModel(small_cfg("snodep_gruode"), seed=0), ds, cfg)
        model = ProcessModel(small_cfg("snodep_gruode"), seed=0)
        params = list(model.parameters().values())

        def evaluate_now(step, loss, parts):
            evaluate(model, ds, 3, 5, np.random.default_rng(step), n_contexts=3,
                     frequency=0.7)
            # evaluating turned no gradient off and left the step's gradients
            assert T.grad_enabled() and all(p.grad is not None for p in params)

        assert train(model, ds, cfg, callback=evaluate_now) == plain


class TestEvaluate:
    def test_report_structure(self):
        ds, _ = generate_synthetic("gaussian", 2, 8, 20, seed=0)
        model = ProcessModel(small_cfg("np"), seed=0)
        report = evaluate(model, ds, 3, 5, np.random.default_rng(0), n_contexts=4)
        assert report.per_timestep.shape == (8,)
        assert report.per_dim.shape == (8, 2)
        np.testing.assert_array_equal(report.unseen_indices, [5, 6, 7])
        assert report.unseen_mse == pytest.approx(report.per_timestep[5:].mean())
        assert report.all_mse == pytest.approx(report.per_timestep.mean())

    @pytest.mark.parametrize("head", ["poisson", "gaussian"])
    def test_predictions_are_one_mean_array(self, head):
        ds, _ = generate_synthetic(head, 2, 8, 20, seed=0)
        model = ProcessModel(small_cfg("nodep", head=head), seed=0)
        pred = predict_average_params(model, ds, 3, np.random.default_rng(0), 4)
        assert isinstance(pred, np.ndarray)
        assert pred.shape == (8, 2) and pred.dtype == np.float64

    def test_needs_a_context(self):
        ds, _ = generate_synthetic("gaussian", 2, 6, 10, seed=0)
        model = ProcessModel(small_cfg("np"), seed=0)
        with pytest.raises(ValidationError, match="n_contexts must be >= 1, got 0"):
            evaluate(model, ds, 3, 4, np.random.default_rng(0), n_contexts=0)
