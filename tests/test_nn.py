"""Fused MLP, LSTM and GRU nodes against central differences and against the
same computations composed from tensor primitives."""

import numpy as np
import pytest

from snodep import nn
from snodep import tensor as T
from snodep.tensor import GradientTape, ShapeError, Tensor, backward
from tests.conftest import check_op, tracked


# ---- composed-primitive references ----

def composed_mlp(mlp, x):
    n = len(mlp.layers)
    for i, (w, b) in enumerate(mlp.layers):
        x = x @ w + b
        if i < n - 1:
            x = T.tanh(x)
    return x


def composed_field(trunk, l, d, t):
    t_col = Tensor(np.full((l.shape[0], 1), t))
    return composed_mlp(trunk, T.concat([l, d, t_col], axis=1))


def composed_lstm(p, x, state):
    d = p.d_h
    h, c = state[:, :d], state[:, d:]
    gates = T.concat([x, h], axis=1) @ p.w + p.b
    i = T.sigmoid(gates[:, :d])
    f = T.sigmoid(gates[:, d:2 * d])
    g = T.tanh(gates[:, 2 * d:3 * d])
    o = T.sigmoid(gates[:, 3 * d:])
    c_new = f * c + i * g
    return T.concat([o * T.tanh(c_new), c_new], axis=1)


def composed_gru(p, x, h):
    xh = T.concat([x, h], axis=1)
    z = T.sigmoid(xh @ p.wz + p.bz)
    r = T.sigmoid(xh @ p.wr + p.br)
    h_tilde = T.tanh(T.concat([x, r * h], axis=1) @ p.wh + p.bh)
    return (1.0 - z) * h + z * h_tilde


def tape_ops(out):
    return [n.op for n in GradientTape.from_output(out).operations if n.op != "leaf"]


# ---- MLP ----

class TestFusedMLP:
    rng = np.random.default_rng(11)
    mlp = nn.init_mlp(rng, [4, 6, 5, 3])

    def params(self):
        return [t for pair in self.mlp.layers for t in pair]

    def test_tracked_input(self):
        x = tracked(self.rng, 7, 4)
        check_op(lambda: [self.mlp(x)], lambda: [composed_mlp(self.mlp, x)],
                 [x] + self.params())

    def test_untracked_input(self):
        x = Tensor(self.rng.normal(size=(7, 4)))
        check_op(lambda: [self.mlp(x)], lambda: [composed_mlp(self.mlp, x)],
                 self.params())
        backward(T.tsum(self.mlp(x)))
        assert x.grad is None

    def test_single_linear_layer(self):
        lin = nn.init_mlp(self.rng, [3, 2])
        x = tracked(self.rng, 5, 3)
        check_op(lambda: [lin(x)], lambda: [composed_mlp(lin, x)],
                 [x, lin.layers[0][0], lin.layers[0][1]])

    def test_is_one_tape_node(self):
        out = self.mlp(tracked(self.rng, 2, 4))
        assert tape_ops(out) == ["mlp"]

    def test_untracked_when_nothing_requires_grad(self):
        frozen = nn.MLP([(Tensor(w.values), Tensor(b.values)) for w, b in self.mlp.layers])
        out = frozen(Tensor(self.rng.normal(size=(2, 4))))
        assert not out.requires_grad and out._backward is None and out._parents == ()

    def test_rejects_wrong_width(self):
        with pytest.raises(ShapeError):
            self.mlp(Tensor(np.ones((2, 5))))
        with pytest.raises(ShapeError):
            self.mlp(Tensor(np.ones(4)))


class TestHoistedTrunkField:
    """trunk(l, shift, t) with shift = d @ W0[d_z:d_z+d_d] + b0 against
    trunk(concat[l, d, t])."""

    rng = np.random.default_rng(12)
    d_z, d_d = 4, 3
    trunk = nn.init_mlp(rng, [d_z + d_d + 1, 6, 6, d_z])

    def field(self, l, d, t):
        shift = self.trunk.first_layer_shift(d, self.d_z)
        return self.trunk(l, shift, t)

    @pytest.mark.parametrize("t", [0.0, 0.7, -1.3])
    def test_matches_concat_field(self, t):
        l, d = tracked(self.rng, 5, self.d_z), tracked(self.rng, 5, self.d_d)
        params = [p for pair in self.trunk.layers for p in pair]
        check_op(lambda: [self.field(l, d, t)],
                 lambda: [composed_field(self.trunk, l, d, t)],
                 [l, d] + params)

    def test_time_row_gets_gradient(self):
        l, d = tracked(self.rng, 5, self.d_z), tracked(self.rng, 5, self.d_d)
        w0 = self.trunk.layers[0][0]
        w0.grad = None
        backward(T.tsum(self.field(l, d, 0.9)))
        assert np.all(w0.grad[-1] != 0.0)

    def test_shift_is_reused_across_evaluations(self):
        # two evaluations share one projection of d; gradients still add up
        l, d = tracked(self.rng, 2, self.d_z), tracked(self.rng, 2, self.d_d)
        params = [p for pair in self.trunk.layers for p in pair]

        def fused():
            shift = self.trunk.first_layer_shift(d, self.d_z)
            y = self.trunk(l, shift, 0.0)
            return [self.trunk(l + 0.1 * y, shift, 0.1)]

        def composed():
            y = composed_field(self.trunk, l, d, 0.0)
            return [composed_field(self.trunk, l + 0.1 * y, d, 0.1)]

        check_op(fused, composed, [l, d] + params)

    def test_field_is_one_tape_node(self):
        l, d = tracked(self.rng, 2, self.d_z), Tensor(self.rng.normal(size=(2, self.d_d)))
        shift = Tensor(self.trunk.first_layer_shift(d, self.d_z).values)
        assert tape_ops(self.trunk(l, shift, 0.5)) == ["mlp"]

    def test_rejects_split_wider_than_weight(self):
        shift = Tensor(np.zeros((2, 6)))
        with pytest.raises(ShapeError):
            self.trunk(Tensor(np.ones((2, 8))), shift, 0.5)
        # a split input without its time row
        with pytest.raises(ShapeError):
            self.trunk(Tensor(np.ones((2, self.d_z))), shift)


# ---- recurrent cells ----

class TestFusedLSTM:
    rng = np.random.default_rng(13)
    p = nn.init_lstm(rng, 3, 4)

    def test_cell(self):
        x, state = tracked(self.rng, 5, 3), tracked(self.rng, 5, 8)
        check_op(lambda: [nn.lstm_cell(self.p, x, state)],
                 lambda: [composed_lstm(self.p, x, state)],
                 [x, state, self.p.w, self.p.b])

    def test_unrolled_through_both_outputs(self):
        # h feeds the next step's gates and c its cell update; only h is read
        xs = [Tensor(self.rng.normal(size=(2, 3))) for _ in range(3)]

        def run(cell):
            state = Tensor(np.zeros((2, 8)))
            for x in xs:
                state = cell(self.p, x, state)
            return [state[:, :4]]

        check_op(lambda: run(nn.lstm_cell), lambda: run(composed_lstm),
                 [self.p.w, self.p.b])

    def test_untracked_when_nothing_requires_grad(self):
        frozen = nn.LSTMParams(Tensor(self.p.w.values), Tensor(self.p.b.values), 4)
        state = nn.lstm_cell(frozen, np.ones((1, 3)), np.zeros((1, 8)))
        assert state.shape == (1, 8) and not state.requires_grad


class TestFusedGRU:
    rng = np.random.default_rng(14)
    p = nn.init_gru(rng, 3, 4)

    def params(self):
        return list(self.p.tensors().values())

    def test_cell(self):
        x, h = tracked(self.rng, 5, 3), tracked(self.rng, 5, 4)
        check_op(lambda: [nn.gru_cell(self.p, x, h)],
                 lambda: [composed_gru(self.p, x, h)],
                 [x, h] + self.params())

    def test_unrolled(self):
        xs = [Tensor(self.rng.normal(size=(2, 3))) for _ in range(3)]
        h0 = tracked(self.rng, 2, 4)

        def run(cell):
            h = h0
            for x in xs:
                h = cell(self.p, x, h)
            return [h]

        check_op(lambda: run(nn.gru_cell), lambda: run(composed_gru),
                 [h0] + self.params())

    def test_is_one_tape_node(self):
        out = nn.gru_cell(self.p, np.ones((1, 3)), np.zeros((1, 4)))
        assert tape_ops(out) == ["gru_cell"]
