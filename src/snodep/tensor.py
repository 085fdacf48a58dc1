"""Dense float64 tensors with reverse-mode automatic differentiation.

Every learnable quantity in this package lives in a :class:`Tensor`. Operations
on tracked tensors build a computation graph; ``backward`` replays it in
reverse topological order to accumulate gradients. Values are always float64
and row-major.

This module alone builds and walks the graph. Every op makes its node through
:func:`fused`, so a node with parents is always tracked. One walk
(``_reach``) orders the nodes behind an output and one pull (``_pull``)
carries a cotangent back through that order; ``backward`` and the stage
vector-Jacobian products of the ODE solver (``ode.py``) both use them.

Inside a ``with no_grad():`` block every op returns an untracked tensor with
no parents, so inference builds no graph. The switch is per thread: a block in
one thread leaves gradients on in every other.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class NumericsError(ArithmeticError):
    """A computation produced or would produce non-finite values."""


def _unbroadcast(grad, shape):
    # Reduce a broadcast gradient back to the original operand shape.
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None, op="leaf"):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self.op = op

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, tracked={self.requires_grad})"

    def item(self):
        """The single value of a one-element tensor, as a Python float.

        Any shape holding exactly one element is accepted (``()``, ``(1,)``,
        ``(1, 1)``, ...). Raises :class:`ShapeError` naming the shape otherwise.
        """
        if self.values.size != 1:
            raise ShapeError(f"item: need exactly one element, got shape {self.shape}")
        return self.values.item()

    def backward(self):
        backward(self)

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tslice(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _coerce(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Turn off graph building in this thread for the block; blocks nest, and
    the previous state returns on exit, also when the block raises."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def grad_enabled():
    """Whether ops in this thread build graph nodes (False inside ``no_grad``)."""
    return _GRAD_MODE.enabled


def fused(op, out, parents, bwd):
    """One tape node with a hand-written backward pass; every op builds its
    node here.

    ``bwd(g)`` returns one gradient (or None) per parent. The result is an
    untracked tensor without parents when no parent requires grad or inside
    ``no_grad``, so a node with parents is always tracked.
    """
    if _GRAD_MODE.enabled:
        for p in parents:
            if p.requires_grad:
                return Tensor(out, True, tuple(parents), bwd, op)
    return Tensor(out, op=op)


def _check_broadcast(op, a_vals, b_vals):
    try:
        np.broadcast_shapes(a_vals.shape, b_vals.shape)
    except ValueError:
        raise ShapeError(
            f"{op}: incompatible shapes {a_vals.shape} and {b_vals.shape}"
        ) from None


def add(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_broadcast("add", a.values, b.values)
    ash, bsh = a.values.shape, b.values.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return fused("add", a.values + b.values, (a, b), bwd)


def sub(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_broadcast("sub", a.values, b.values)
    ash, bsh = a.values.shape, b.values.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(-g, bsh)

    return fused("sub", a.values - b.values, (a, b), bwd)


def mul(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_broadcast("mul", a.values, b.values)
    av, bv = a.values, b.values

    def bwd(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return fused("mul", av * bv, (a, b), bwd)


def div(a, b):
    a, b = _coerce(a), _coerce(b)
    _check_broadcast("div", a.values, b.values)
    if np.any(b.values == 0.0):
        raise DomainError("div: division by zero denominator")
    av, bv = a.values, b.values

    def bwd(g):
        return _unbroadcast(g / bv, av.shape), _unbroadcast(-g * av / (bv * bv), bv.shape)

    return fused("div", av / bv, (a, b), bwd)


def matmul(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(
            f"matmul: expects 2-d operands, got {a.values.shape} and {b.values.shape}"
        )
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.values.shape} @ {b.values.shape}"
        )
    av, bv = a.values, b.values

    def bwd(g):
        return g @ bv.T, av.T @ g

    return fused("matmul", av @ bv, (a, b), bwd)


def tanh(a):
    a = _coerce(a)
    out = np.tanh(a.values)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return fused("tanh", out, (a,), bwd)


def _expit(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def sigmoid(a):
    a = _coerce(a)
    out = _expit(a.values)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return fused("sigmoid", out, (a,), bwd)


def _softplus(x):
    # max(x, 0) + log1p(exp(-|x|)): overflow-safe for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a):
    a = _coerce(a)
    x = a.values

    def bwd(g):
        return (g * _expit(x),)

    return fused("softplus", _softplus(x), (a,), bwd)


def exp(a):
    a = _coerce(a)
    out = np.exp(a.values)

    def bwd(g):
        return (g * out,)

    return fused("exp", out, (a,), bwd)


def log(a):
    a = _coerce(a)
    av = a.values
    if np.any(av <= 0.0):
        idx = np.argwhere(av <= 0.0)[0]
        raise DomainError(f"log: non-positive input at index {tuple(idx)}")

    def bwd(g):
        return (g / av,)

    return fused("log", np.log(av), (a,), bwd)


def square(a):
    a = _coerce(a)
    av = a.values

    def bwd(g):
        return (2.0 * g * av,)

    return fused("square", av * av, (a,), bwd)


def tsum(a, axis=None, keepdims=False):
    a = _coerce(a)
    ash = a.values.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, ash).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, ash).copy(),)

    return fused("sum", a.values.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    a = _coerce(a)
    if axis is None:
        n = a.values.size
    else:
        n = a.values.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def concat(tensors, axis=-1):
    tensors = tuple(_coerce(t) for t in tensors)
    if not tensors:
        raise ShapeError("concat: empty input list")
    try:
        out = np.concatenate([t.values for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: incompatible shapes {[t.values.shape for t in tensors]}"
        ) from None
    sizes = [t.values.shape[axis] for t in tensors]

    def bwd(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return fused("concat", out, tensors, bwd)


def tslice(a, key):
    a = _coerce(a)
    ash = a.values.shape

    def bwd(g):
        z = np.zeros(ash)
        z[key] = g
        return (z,)

    return fused("slice", a.values[key], (a,), bwd)


def reshape(a, shape):
    a = _coerce(a)
    try:
        out = a.values.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.values.shape} as {shape}") from None
    ash = a.values.shape

    def bwd(g):
        return (g.reshape(ash),)

    return fused("reshape", out, (a,), bwd)


# ln(n!) cache, extended on demand; entry i holds ln(i!)
_LN_FACT = np.zeros(1)


def _ln_factorial_table(n_max):
    # Read the shared table once and return what was extended locally: another
    # thread may store a different (shorter) table between any two reads.
    global _LN_FACT
    table = _LN_FACT
    if n_max >= table.size:
        start = table.size
        ext = table[-1] + np.cumsum(np.log(np.arange(start, n_max + 1, dtype=np.float64)))
        table = np.concatenate([table, ext])
        _LN_FACT = table
    return table


def lgamma_int(k):
    """ln(Gamma(k)) = ln((k-1)!) for integer k >= 1.

    Constant with respect to any tracked input; the result is never tracked.
    """
    kv = k.values if isinstance(k, Tensor) else np.asarray(k, dtype=np.float64)
    if np.any(kv != np.round(kv)):
        idx = np.argwhere(kv != np.round(kv))[0]
        raise DomainError(f"lgamma_int: non-integer input at index {tuple(idx)}")
    if np.any(kv < 1):
        idx = np.argwhere(kv < 1)[0]
        raise DomainError(f"lgamma_int: input < 1 at index {tuple(idx)}")
    ki = kv.astype(np.int64)
    table = _ln_factorial_table(int(ki.max()) - 1 if ki.size else 0)
    return Tensor(table[ki - 1], op="lgamma_int")


def _reach(out, stop=()):
    """Every node reachable from ``out``, each after its inputs. A node whose
    id is in ``stop`` is included but not walked through."""
    order, seen, stack = [], set(), [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        k = id(node)
        if k in seen:
            continue
        seen.add(k)
        if not node._parents or k in stop:
            order.append(node)
            continue
        stack.append((node, True))
        # this order fixes the order in which _pull sums a node's cotangents,
        # and so the last bits of every gradient
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _pull(order, out, g, stop=()):
    """Carry the cotangent ``g`` of ``out`` back through ``order`` (from
    :func:`_reach` with the same ``stop``) and return {id: cotangent} for the
    boundary it reaches: tracked leaves and the nodes whose id is in ``stop``."""
    grads = {id(out): g}
    edge = {}
    for node in reversed(order):
        k = id(node)
        gn = grads.pop(k, None)
        if gn is None:
            continue
        if node._parents and k not in stop:
            for p, pg in zip(node._parents, node._backward(gn)):
                if pg is None or not p.requires_grad:
                    continue
                kp = id(p)
                grads[kp] = grads[kp] + pg if kp in grads else pg
        elif node.requires_grad:
            edge[k] = gn
    return edge


class GradientTape:
    """Ordered record of the operations reachable from one output.

    The order is topological: every operation's inputs precede it.
    """

    __slots__ = ("operations",)

    def __init__(self, operations):
        self.operations = operations

    @classmethod
    def from_output(cls, out):
        return cls(_reach(out))


def backward(loss):
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every tracked leaf."""
    if np.size(loss.values) != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = GradientTape.from_output(loss)
    grads = _pull(tape.operations, loss, np.ones_like(loss.values))
    for node in tape.operations:
        g = grads.get(id(node))
        if g is not None:
            node.grad = g.copy() if node.grad is None else node.grad + g


def gradients(loss, params):
    """Gradient of ``loss`` for each tensor in ``params``; zeros if unreachable."""
    for p in params:
        p.grad = None
    backward(loss)
    return [p.grad if p.grad is not None else np.zeros_like(p.values) for p in params]


class Adam:
    """Adam with bias correction. Defaults: lr 1e-3, betas (0.9, 0.999), eps 1e-8."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        if isinstance(params, dict):
            self.names = list(params)
            self.params = list(params.values())
        else:
            self.params = list(params)
            self.names = [f"#{i}" for i in range(len(self.params))]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One update. Raises :class:`NumericsError` naming the parameter and the
        step, before any parameter changes, if a gradient is not finite."""
        grads = []
        for p in self.params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.values)
            if g.shape != p.values.shape:
                raise ShapeError(
                    f"adam: gradient shape {g.shape} does not match parameter {p.values.shape}"
                )
            grads.append(g)
        # one check over all gradients: a call per parameter costs more than
        # the update itself when there are many small parameters
        if grads and not np.isfinite(np.concatenate([g.ravel() for g in grads])).all():
            name = next(n for n, g in zip(self.names, grads) if not np.isfinite(g).all())
            raise NumericsError(
                f"adam: non-finite gradient for parameter {name!r} at step {self.t + 1}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1 ** self.t)
            v_hat = self.v[i] / (1.0 - b2 ** self.t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def save_checkpoint(path, params):
    """Write named parameters as an .npz map {name -> float64 array}."""
    np.savez(path, **{name: p.values for name, p in params.items()})


def load_checkpoint(path):
    with np.load(path) as data:
        return {name: data[name].astype(np.float64) for name in data.files}


def restore_checkpoint(params, path):
    """Load values from ``path`` into an existing named parameter map."""
    loaded = load_checkpoint(path)
    for name, p in params.items():
        if name not in loaded:
            raise KeyError(f"checkpoint missing parameter '{name}'")
        if loaded[name].shape != p.values.shape:
            raise ShapeError(
                f"checkpoint parameter '{name}' has shape {loaded[name].shape}, "
                f"expected {p.values.shape}"
            )
        p.values[...] = loaded[name]
