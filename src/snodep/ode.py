"""Fixed-step explicit ODE integration as one tape node per path.

A vector field is any callable ``f(t, state, ctx) -> Tensor`` returning a
derivative with the same shape as ``state``. The solver steps euler or rk4 in
plain numpy and records the whole path as a single tape node. Its backward
pass is discretise-then-optimise: one reverse sweep over the stage
coefficients gives the exact gradient of the discrete solution, not the
continuous adjoint.

Stages are recorded only when gradients are on. Then each stage calls the
field on a fresh tracked leaf holding the stage state, and the stage's
vector-Jacobian product is read from the nodes the field built,
with the same walk and pull that ``tensor.backward`` uses, stopped at tracked
leaves and at ``ctx``; for a fused MLP field this is the MLP node's own
backward pass. Tracked non-leaf inputs must reach a field through ``ctx``:
anything else the field closes over is a node the walk passes through, so its
backward pass reruns at every stage. Inside ``tensor.no_grad`` the same
stepping loop keeps no stage and returns an untracked path, with the same
values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import NumericsError, ShapeError, Tensor


@dataclass(frozen=True)
class SolverConfig:
    method: str = "rk4"
    steps_per_unit: int = 10

    def __post_init__(self):
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"solver method must be 'euler' or 'rk4', got {self.method!r}")
        if self.steps_per_unit < 1:
            raise ValueError("steps_per_unit must be >= 1")


class _Stage:
    """One recorded field evaluation: its state leaf, its output, and the tape
    walk from that output back to the stage's boundary."""

    __slots__ = ("leaf", "out", "order", "stop")

    def __init__(self, leaf, out, stop, externals):
        self.leaf = leaf
        self.out = out
        self.stop = stop
        self.order = T._reach(out, stop)
        for node in reversed(self.order):
            if node.requires_grad and node is not leaf and (
                    not node._parents or id(node) in stop):
                externals.setdefault(id(node), node)

    def vjp(self, g, ext_grads):
        """Add the field's gradient for output cotangent ``g`` into
        ``ext_grads``; return the cotangent of the stage state (0.0 if none)."""
        grads = T._pull(self.order, self.out, g, self.stop)
        g_state = grads.pop(id(self.leaf), 0.0)
        for k, pg in grads.items():
            ext_grads[k] += pg
        return g_state


def _solve(f, y0, times, ctx, cfg, stacked):
    """The states at ``times`` stacked along a new first axis, ``y0`` as row 0,
    or with ``stacked`` false just the state at ``times[-1]``.

    ``times`` is monotone, ascending or descending; ``times[0]`` is the time
    of ``y0``. With gradients on, the result is one node whose parents are
    ``y0`` and the tracked leaves and ``ctx`` that the field's stages reach;
    inside ``tensor.no_grad`` it is an untracked tensor and no stage is kept.
    """
    rk4 = cfg.method == "rk4"
    record = T.grad_enabled()
    stop = (id(ctx),) if isinstance(ctx, Tensor) else ()
    externals = {}
    steps = []        # (h, stages) per step, in order, when recording
    pending = []      # the stages of the current step
    ends = {}         # number of steps taken -> index of the path time reached
    taken = 0
    y = y0.values
    path = [y]

    def field(t, state):
        leaf = Tensor(state, requires_grad=record)
        out = T._coerce(f(t, leaf, ctx))
        if out.shape != state.shape:
            raise ShapeError(
                f"vector field returned shape {out.shape}, state has {state.shape}")
        if record:
            pending.append(_Stage(leaf, out, stop, externals))
        return out.values

    for a, b in zip(times, times[1:]):
        n = max(1, int(round(abs(b - a) * cfg.steps_per_unit)))
        h = (b - a) / n
        for i in range(n):
            t = a + i * h
            if rk4:
                k1 = field(t, y)
                k2 = field(t + 0.5 * h, y + (0.5 * h) * k1)
                k3 = field(t + 0.5 * h, y + (0.5 * h) * k2)
                k4 = field(t + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                y = y + h * field(t, y)
            if record:
                steps.append((h, tuple(pending)))
                pending.clear()
            if not np.all(np.isfinite(y)):
                raise NumericsError(f"non-finite state at step {i} of the interval "
                                    f"[{a:g}, {b:g}] (t={t + h:g})")
        taken += n
        ends[taken] = len(path)
        path.append(y)

    out = np.stack(path) if stacked else y
    if not record:
        return Tensor(out, op="ode_path")

    ext = list(externals.values())
    shape = y0.shape

    def bwd(g):
        if not stacked:
            g = np.stack([np.zeros(shape), g])
        ext_grads = {k: np.zeros_like(p.values) for k, p in externals.items()}
        gy = np.zeros(shape)
        for j in range(len(steps) - 1, -1, -1):
            if j + 1 in ends:
                gy = gy + g[ends[j + 1]]
            h, stages = steps[j]
            if rk4:
                s1, s2, s3, s4 = stages
                c = h / 6.0
                g4 = s4.vjp(c * gy, ext_grads)
                g3 = s3.vjp(2.0 * c * gy + h * g4, ext_grads)
                g2 = s2.vjp(2.0 * c * gy + (0.5 * h) * g3, ext_grads)
                g1 = s1.vjp(c * gy + (0.5 * h) * g2, ext_grads)
                gy = gy + g1 + g2 + g3 + g4
            else:
                gy = gy + stages[0].vjp(h * gy, ext_grads)
        return [gy + g[0]] + [ext_grads[k] for k in externals]

    return T.fused("ode_path", out, [y0] + ext, bwd)


def integrate(f, y0, t0, t1, ctx, cfg):
    """Advance ``y0`` from ``t0`` to ``t1`` (either direction) and return y(t1)."""
    if t0 == t1:
        return y0
    return _solve(f, y0, [t0, t1], ctx, cfg, stacked=False)


def integrate_path(f, y0, times, ctx, cfg):
    """The states at each of ``times`` as one ``(len(times), *y0.shape)``
    tensor; ``times[0]`` is the initial time of ``y0``, which is row 0."""
    times = list(times)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"integrate_path: times must be strictly ascending, got {times}")
    if not times:
        raise ValueError("integrate_path: needs at least the initial time")
    return _solve(f, y0, times, ctx, cfg, stacked=True)
