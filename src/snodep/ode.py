"""Fixed-step explicit ODE integration as one tape node per path.

A vector field is any callable ``f(t, state, ctx) -> Tensor`` returning a
derivative with the same shape as ``state``. The solver steps euler or rk4 in
plain numpy and records the whole path as a single tape node. Its backward
pass is discretise-then-optimise: one reverse sweep over the stage
coefficients gives the exact gradient of the discrete solution, not the
continuous adjoint.

Each stage calls the field on a fresh tracked leaf holding the stage state.
The stage's vector-Jacobian product is read from the nodes the field built,
with the same walk and pull that ``tensor.backward`` uses, stopped at tracked
leaves and at ``ctx``; for a fused MLP field this is the MLP node's own
backward pass. Tracked non-leaf inputs must reach a field through ``ctx``:
anything else the field closes over is a node the walk passes through, so its
backward pass reruns at every stage.
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
    """One field evaluation: its state leaf, its output, and the tape walk
    from that output back to the stage's boundary."""

    __slots__ = ("leaf", "out", "order", "stop")

    def __init__(self, f, t, y, ctx, stop, externals):
        self.leaf = Tensor(y, requires_grad=True)
        self.out = T._coerce(f(t, self.leaf, ctx))
        if self.out.shape != y.shape:
            raise ShapeError(
                f"vector field returned shape {self.out.shape}, state has {y.shape}")
        self.stop = stop
        self.order = T._reach(self.out, stop)
        for node in reversed(self.order):
            if node.requires_grad and node is not self.leaf and (
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
    """One node holding the states at ``times`` stacked along a new first axis,
    ``y0`` as row 0, or with ``stacked`` false just the state at ``times[-1]``.

    ``times`` is monotone, ascending or descending; ``times[0]`` is the time
    of ``y0``. The node's parents are ``y0`` and the tracked leaves and
    ``ctx`` that the field's stages reach.
    """
    rk4 = cfg.method == "rk4"
    stop = (id(ctx),) if isinstance(ctx, Tensor) else ()
    externals = {}
    steps = []        # (h, stages) per step, in order
    ends = {}         # number of steps taken -> index of the path time reached
    y = y0.values
    path = [y]

    def stage(t, state):
        return _Stage(f, t, state, ctx, stop, externals)

    for a, b in zip(times, times[1:]):
        n = max(1, int(round(abs(b - a) * cfg.steps_per_unit)))
        h = (b - a) / n
        for i in range(n):
            t = a + i * h
            if rk4:
                s1 = stage(t, y)
                s2 = stage(t + 0.5 * h, y + (0.5 * h) * s1.out.values)
                s3 = stage(t + 0.5 * h, y + (0.5 * h) * s2.out.values)
                s4 = stage(t + h, y + h * s3.out.values)
                y = y + (h / 6.0) * (s1.out.values + 2.0 * s2.out.values
                                     + 2.0 * s3.out.values + s4.out.values)
                steps.append((h, (s1, s2, s3, s4)))
            else:
                s1 = stage(t, y)
                y = y + h * s1.out.values
                steps.append((h, (s1,)))
            if not np.all(np.isfinite(y)):
                raise NumericsError(f"non-finite state at step {i} of the interval "
                                    f"[{a:g}, {b:g}] (t={t + h:g})")
        ends[len(steps)] = len(path)
        path.append(y)

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

    out = np.stack(path) if stacked else y
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


def linear_field(matrix):
    """Vector field y' = y @ A^T for a constant matrix A; handy in tests."""
    a_t = Tensor(np.asarray(matrix, dtype=np.float64).T)

    def f(t, y, ctx):
        return y @ a_t

    return f
