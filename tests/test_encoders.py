import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snodep import nn
from snodep import tensor as T
from snodep.distributions import DiagNormal, LogNormalD
from snodep.encoders import (
    gru_ode_encode_batch,
    init_latent_heads,
    latent_params,
    lstm_encode_backward_batch,
    np_encode_batch,
)
from snodep.models import ModelConfig, ProcessModel
from snodep.ode import SolverConfig
from snodep.tensor import DomainError, Tensor


def zero_field(t, h, ctx):
    return Tensor(np.zeros(h.shape))


class TestContextSet:
    """The context set a model encodes: ``ProcessModel.encode_batch`` checks it."""

    model = ProcessModel(ModelConfig("nodep", d_y=1, d_r=4, d_z=2, d_d=2, hidden=3))

    def test_mask_shape_must_match(self):
        with pytest.raises(ValueError, match="mask shape"):
            self.model.encode_batch(np.arange(3.0), np.zeros((1, 3, 1)),
                                    np.ones((1, 2), dtype=bool))

    def test_rejects_empty_and_unsorted(self):
        with pytest.raises(ValueError):
            self.model.encode_batch(np.arange(2.0), np.zeros((1, 2, 1)),
                                    np.zeros((1, 2), dtype=bool))
        with pytest.raises(ValueError, match="ascending"):
            self.model.encode_batch(np.array([1.0, 0.0]), np.zeros((1, 2, 1)),
                                    np.ones((1, 2), dtype=bool))

    def test_rejects_value_shape_mismatch(self):
        with pytest.raises(ValueError, match="values shape"):
            self.model.encode_batch(np.arange(3.0), np.zeros((1, 2, 1)),
                                    np.ones((1, 2), dtype=bool))


class TestMeanEncoder:
    rng = np.random.default_rng(0)
    params = nn.init_mlp(rng, [3, 5, 4])

    def test_permutation_invariance(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        values = self.rng.normal(size=(1, 4, 2))
        mask = np.ones((1, 4), dtype=bool)
        r = np_encode_batch(times, values, mask, self.params)
        perm = np.array([2, 0, 3, 1])
        r_p = np_encode_batch(times[perm], values[:, perm], mask, self.params)
        np.testing.assert_allclose(r.values, r_p.values, atol=1e-12)

    def test_masked_mean_equals_subset(self):
        times = np.arange(4.0)
        values = self.rng.normal(size=(1, 4, 2))
        mask = np.array([[True, False, True, False]])
        r = np_encode_batch(times, values, mask, self.params)
        sub = np_encode_batch(times[[0, 2]], values[:, [0, 2]],
                              np.ones((1, 2), dtype=bool), self.params)
        np.testing.assert_allclose(r.values, sub.values, atol=1e-12)

    def test_single_point_context(self):
        r = np_encode_batch(np.array([0.5]), self.rng.normal(size=(1, 1, 2)),
                            np.ones((1, 1), dtype=bool), self.params)
        assert r.shape == (1, 4)

    def test_all_masked_row_rejected(self):
        with pytest.raises(DomainError):
            np_encode_batch(np.arange(2.0), np.zeros((1, 2, 2)),
                            np.zeros((1, 2), dtype=bool), self.params)

    def test_matches_per_point_loop(self):
        # one MLP call on the (B*C, 1+d_y) stack equals one call per point
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0, 4, size=6))
        values = rng.normal(size=(5, 6, 2))
        for _ in range(10):
            mask = rng.random((5, 6)) < 0.5
            mask[:, rng.integers(6)] = True
            acc = None
            for i in range(6):
                x = T.concat([Tensor(np.full((5, 1), times[i])), Tensor(values[:, i])], axis=1)
                contrib = Tensor(mask[:, i:i + 1].astype(np.float64)) * self.params(x)
                acc = contrib if acc is None else acc + contrib
            loop = acc.values / mask.sum(axis=1, keepdims=True)
            r = np_encode_batch(times, values, mask, self.params)
            np.testing.assert_allclose(r.values, loop, rtol=0, atol=1e-12)

    def test_batch_rows_independent(self):
        times = np.arange(3.0)
        values = self.rng.normal(size=(4, 3, 2))
        mask = np.ones((4, 3), dtype=bool)
        r = np_encode_batch(times, values, mask, self.params)
        r1 = np_encode_batch(times, values[1:2], mask[1:2], self.params)
        np.testing.assert_allclose(r.values[1], r1.values[0], atol=1e-12)


class TestLstmEncoder:
    rng = np.random.default_rng(1)
    params = nn.init_lstm(rng, 2, 5)

    def test_matches_manual_backward_unroll(self):
        values = self.rng.normal(size=(1, 3, 2))
        r = lstm_encode_backward_batch(np.arange(3.0), values,
                                       np.ones((1, 3), dtype=bool), self.params)
        state = Tensor(np.zeros((1, 10)))
        for i in (2, 1, 0):
            state = nn.lstm_cell(self.params, Tensor(values[:, i, :]), state)
        np.testing.assert_allclose(r.values, state.values[:, :5], atol=1e-12)

    def test_one_cell_node_per_point_and_one_slice(self):
        c = 4
        r = lstm_encode_backward_batch(np.arange(float(c)), self.rng.normal(size=(2, c, 2)),
                                       np.ones((2, c), dtype=bool), self.params)
        ops = [n.op for n in T.GradientTape.from_output(r).operations if n.op != "leaf"]
        assert ops == ["lstm_cell"] * c + ["slice"]
        assert r.shape == (2, 5)

    def test_order_sensitivity(self):
        values = self.rng.normal(size=(1, 3, 2))
        mask = np.ones((1, 3), dtype=bool)
        r = lstm_encode_backward_batch(np.arange(3.0), values, mask, self.params)
        r_rev = lstm_encode_backward_batch(np.arange(3.0), values[:, ::-1], mask,
                                           self.params)
        assert not np.allclose(r.values, r_rev.values)

    def test_rejects_masked_points(self):
        mask = np.array([[True, False, True]])
        with pytest.raises(DomainError):
            lstm_encode_backward_batch(np.arange(3.0), np.zeros((1, 3, 2)), mask,
                                       self.params)


class TestGruOdeEncoder:
    rng = np.random.default_rng(2)
    gru = nn.init_gru(rng, 2, 5)
    cfg = SolverConfig("euler", 3)

    def _g_mlp_field(self):
        g = nn.init_mlp(self.rng, [5, 4, 5])
        return lambda t, h, ctx: g(h)

    def test_zero_field_equals_backward_gru(self):
        values = self.rng.normal(size=(1, 4, 2))
        r = gru_ode_encode_batch(np.arange(4.0), values, np.ones((1, 4), dtype=bool),
                                 zero_field, self.gru, self.cfg)
        h = Tensor(np.zeros((1, 5)))
        for i in (3, 2, 1, 0):
            h = nn.gru_cell(self.gru, Tensor(values[:, i, :]), h)
        np.testing.assert_allclose(r.values, h.values, atol=1e-10)

    def test_batched_matches_single(self):
        # each row of a masked batch equals a batch of one holding only that
        # row's present points; the field is autonomous, so the step grid
        # between present points is all that matters
        g_field = self._g_mlp_field()
        times = np.arange(5.0)
        values = self.rng.normal(size=(3, 5, 2))
        mask = np.array([[True, True, True, True, True],
                         [True, False, True, False, True],
                         [True, True, False, True, False]])
        r = gru_ode_encode_batch(times, values, mask, g_field, self.gru, self.cfg)
        for b in range(3):
            keep = mask[b]
            single = gru_ode_encode_batch(times[keep], values[b:b + 1, keep],
                                          np.ones((1, keep.sum()), dtype=bool),
                                          g_field, self.gru, self.cfg)
            np.testing.assert_allclose(r.values[b], single.values[0], atol=1e-10)

    def test_masked_points_are_skipped(self):
        g_field = self._g_mlp_field()
        values = self.rng.normal(size=(1, 4, 2))
        mask = np.array([[True, False, True, False]])
        r = gru_ode_encode_batch(np.arange(4.0), values, mask, g_field, self.gru,
                                 self.cfg)
        garbage = values.copy()
        garbage[:, [1, 3]] = 99.0
        r2 = gru_ode_encode_batch(np.arange(4.0), garbage, mask, g_field, self.gru,
                                  self.cfg)
        np.testing.assert_allclose(r.values, r2.values, atol=1e-12)

    def test_batch_requires_first_timestep(self):
        mask = np.array([[False, True, True]])
        with pytest.raises(DomainError):
            gru_ode_encode_batch(np.arange(3.0), np.zeros((1, 3, 2)), mask,
                                 zero_field, self.gru, self.cfg)


class TestLatentHeads:
    rng = np.random.default_rng(3)
    heads = init_latent_heads(rng, 6, 4, 3)

    def test_shapes_and_families(self):
        r = Tensor(self.rng.normal(size=(2, 6)))
        l0, d = latent_params(r, self.heads, "normal")
        assert type(l0) is DiagNormal and type(d) is DiagNormal
        assert l0.mu.shape == (2, 4) and d.mu.shape == (2, 3)
        assert np.all(l0.sigma.values > 0) and np.all(d.sigma.values > 0)
        l0, d = latent_params(r, self.heads, "lognormal")
        assert type(l0) is LogNormalD and type(d) is LogNormalD

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            latent_params(Tensor(np.zeros((1, 6))), self.heads, "gamma")

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 5))
    def test_batch_rows_independent(self, b):
        r = np.random.default_rng(b).normal(size=(b, 6))
        l0, _ = latent_params(Tensor(r), self.heads, "normal")
        l0_first, _ = latent_params(Tensor(r[:1]), self.heads, "normal")
        np.testing.assert_allclose(l0.mu.values[0], l0_first.mu.values[0], atol=1e-12)
