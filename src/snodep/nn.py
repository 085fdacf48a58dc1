"""Small feed-forward and recurrent building blocks.

Weights initialize uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)). Parameter
structures expose ``tensors()`` so models can assemble named checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


def init_linear(rng, n_in, n_out):
    bound = 1.0 / np.sqrt(n_in)
    w = Tensor(rng.uniform(-bound, bound, size=(n_in, n_out)), requires_grad=True)
    b = Tensor(rng.uniform(-bound, bound, size=(n_out,)), requires_grad=True)
    return w, b


@dataclass
class MLP:
    """tanh hidden layers, linear output."""

    layers: list = field(default_factory=list)  # [(w, b), ...]

    def __call__(self, x, shift=None, t=None):
        """The network on ``x`` (2-d), as one tape node.

        With ``shift`` and ``t``, the first layer takes a split input: ``x``
        meets the leading rows of its weight, ``shift`` (from
        :meth:`first_layer_shift`) stands for the middle rows and the bias, and
        the scalar ``t`` meets the last row. Inputs that stay fixed over many
        calls are projected once.
        """
        x = T._coerce(x)
        ws = [w.values for w, _ in self.layers]
        if x.values.ndim != 2:
            raise ShapeError(f"mlp: expects a 2-d input, got shape {x.shape}")
        n, k, rows = len(ws), x.values.shape[1], ws[0].shape[0]
        if (shift is None) != (t is None):
            raise ShapeError("mlp: a split input takes both shift and t")
        if (k != rows) if shift is None else (k >= rows):
            raise ShapeError(f"mlp: input of width {k} does not fit {rows} weight rows")
        acts = [x.values]                 # the input of each layer, then the output
        for i, (w, b) in enumerate(self.layers):
            if i == 0 and shift is not None:
                z = acts[0] @ ws[0][:k] + shift.values + t * ws[0][-1]
            else:
                z = acts[-1] @ ws[i] + b.values
            acts.append(np.tanh(z) if i < n - 1 else z)

        parents = [x] + ([shift] if shift is not None else [])
        for i, (w, b) in enumerate(self.layers):
            parents += [w] if i == 0 and shift is not None else [w, b]
        bshapes = [b.values.shape for _, b in self.layers]
        need_x = x.requires_grad
        shift_shape = None if shift is None else shift.values.shape

        def bwd(g):
            grads = []                    # per layer, last first: [gb, gw]
            for i in range(n - 1, -1, -1):
                if i < n - 1:
                    g = g * (1.0 - acts[i + 1] * acts[i + 1])
                if i == 0 and shift_shape is not None:
                    gw = np.zeros_like(ws[0])
                    gw[:k] = acts[0].T @ g
                    gw[-1] = t * g.sum(axis=0)
                    grads += [gw, T._unbroadcast(g, shift_shape)]
                    g_in = g @ ws[0][:k].T if need_x else None
                else:
                    grads += [T._unbroadcast(g, bshapes[i]), acts[i].T @ g]
                    g_in = g @ ws[i].T if i > 0 or need_x else None
                g = g_in
            return [g] + grads[::-1]

        return T.fused("mlp", acts[-1], parents, bwd)

    def first_layer_shift(self, c, start):
        """``c @ w0[start:start + c_width] + b0``: the first layer's response to
        the input columns ``start`` onward that ``c`` fills, plus its bias."""
        w, b = self.layers[0]
        return c @ w[start:start + c.values.shape[1]] + b

    def tensors(self):
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"l{i}.w"] = w
            out[f"l{i}.b"] = b
        return out


def init_mlp(rng, sizes):
    return MLP([init_linear(rng, a, b) for a, b in zip(sizes, sizes[1:])])


@dataclass
class LSTMParams:
    w: Tensor  # (d_in + d_h, 4*d_h), gate order: input, forget, cell, output
    b: Tensor  # (4*d_h,)
    d_h: int

    def tensors(self):
        return {"w": self.w, "b": self.b}


def init_lstm(rng, d_in, d_h):
    w, b = init_linear(rng, d_in + d_h, 4 * d_h)
    return LSTMParams(w, b, d_h)


def lstm_cell(p, x, state):
    """One LSTM step on the ``(B, 2·d_h)`` state ``[h | c]`` -> ``[h_new | c_new]``,
    as a single tape node."""
    x, state = T._coerce(x), T._coerce(state)
    w, d, dx = p.w.values, p.d_h, x.values.shape[1]
    xh = np.concatenate([x.values, state.values[:, :d]], axis=1)
    gates = xh @ w + p.b.values
    i = T._expit(gates[:, :d])
    f = T._expit(gates[:, d:2 * d])
    g = np.tanh(gates[:, 2 * d:3 * d])
    o = T._expit(gates[:, 3 * d:])
    c_prev = state.values[:, d:]
    c_new = f * c_prev + i * g
    tc = np.tanh(c_new)
    bshape = p.b.values.shape

    def bwd(grad):
        g_h, g_c = grad[:, :d], grad[:, d:]
        g_c = g_c + g_h * o * (1.0 - tc * tc)
        g_gates = np.concatenate([g_c * g * i * (1.0 - i),
                                  g_c * c_prev * f * (1.0 - f),
                                  g_c * i * (1.0 - g * g),
                                  g_h * tc * o * (1.0 - o)], axis=1)
        g_xh = g_gates @ w.T
        return (g_xh[:, :dx], np.concatenate([g_xh[:, dx:], g_c * f], axis=1),
                xh.T @ g_gates, T._unbroadcast(g_gates, bshape))

    return T.fused("lstm_cell", np.concatenate([o * tc, c_new], axis=1),
                   (x, state, p.w, p.b), bwd)


@dataclass
class GRUParams:
    wz: Tensor
    bz: Tensor
    wr: Tensor
    br: Tensor
    wh: Tensor
    bh: Tensor

    def tensors(self):
        return {"wz": self.wz, "bz": self.bz, "wr": self.wr, "br": self.br,
                "wh": self.wh, "bh": self.bh}


def init_gru(rng, d_in, d_h):
    wz, bz = init_linear(rng, d_in + d_h, d_h)
    wr, br = init_linear(rng, d_in + d_h, d_h)
    wh, bh = init_linear(rng, d_in + d_h, d_h)
    return GRUParams(wz, bz, wr, br, wh, bh)


def gru_cell(p, x, h):
    """One GRU step as a single tape node."""
    x, h = T._coerce(x), T._coerce(h)
    wz, wr, wh = p.wz.values, p.wr.values, p.wh.values
    dx, hv = x.values.shape[1], h.values
    xh = np.concatenate([x.values, hv], axis=1)
    z = T._expit(xh @ wz + p.bz.values)
    r = T._expit(xh @ wr + p.br.values)
    xrh = np.concatenate([x.values, r * hv], axis=1)
    h_tilde = np.tanh(xrh @ wh + p.bh.values)
    shapes = [b.values.shape for b in (p.bz, p.br, p.bh)]

    def bwd(g):
        g_a = g * z * (1.0 - h_tilde * h_tilde)          # at h_tilde's pre-activation
        g_xrh = g_a @ wh.T
        g_rh = g_xrh[:, dx:]
        g_az = g * (h_tilde - hv) * z * (1.0 - z)
        g_ar = g_rh * hv * r * (1.0 - r)
        g_xh = g_az @ wz.T + g_ar @ wr.T
        g_x = g_xh[:, :dx] + g_xrh[:, :dx]
        g_h = g_xh[:, dx:] + g * (1.0 - z) + g_rh * r
        return (g_x, g_h,
                xh.T @ g_az, T._unbroadcast(g_az, shapes[0]),
                xh.T @ g_ar, T._unbroadcast(g_ar, shapes[1]),
                xrh.T @ g_a, T._unbroadcast(g_a, shapes[2]))

    return T.fused("gru_cell", (1.0 - z) * hv + z * h_tilde,
                   (x, h, p.wz, p.bz, p.wr, p.br, p.wh, p.bh), bwd)


def named_tensors(struct, prefix):
    return {f"{prefix}.{k}": v for k, v in struct.tensors().items()}
