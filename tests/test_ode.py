import contextlib
import math

import numpy as np
import pytest
import scipy.integrate

from snodep import encoders, models, nn
from snodep import tensor as T
from snodep.ode import SolverConfig, integrate, integrate_path
from snodep.tensor import GradientTape, NumericsError, ShapeError, Tensor, backward
from tests.conftest import check_op, linear_field, tracked


def exp_field(t, y, ctx):
    return y


class TestSolverConfig:
    def test_rejects_bad_method_and_steps(self):
        with pytest.raises(ValueError):
            SolverConfig("heun")
        with pytest.raises(ValueError):
            SolverConfig("rk4", 0)


class TestAccuracy:
    def test_rk4_exponential(self):
        y = integrate(exp_field, Tensor([[1.0]]), 0.0, 1.0, None,
                      SolverConfig("rk4", 20))
        assert y.values.item() == pytest.approx(math.e, rel=1e-7)

    def test_euler_exponential_coarse(self):
        y = integrate(exp_field, Tensor([[1.0]]), 0.0, 1.0, None,
                      SolverConfig("euler", 100))
        # Euler underestimates e with global error O(h)
        assert y.values.item() == pytest.approx(math.e, rel=2e-2)
        assert y.values.item() < math.e

    def test_rk4_matches_scipy_on_rotation(self):
        a = np.array([[-0.1, 1.0], [-1.0, -0.1]])
        y0 = np.array([1.0, 0.0])
        ref = scipy.integrate.solve_ivp(lambda t, y: a @ y, (0.0, 3.0), y0,
                                        rtol=1e-11, atol=1e-12).y[:, -1]
        out = integrate(linear_field(a), Tensor(y0[None, :]), 0.0, 3.0, None,
                        SolverConfig("rk4", 50))
        np.testing.assert_allclose(out.values[0], ref, atol=1e-7)

    def test_backward_in_time(self):
        y = integrate(exp_field, Tensor([[math.e]]), 1.0, 0.0, None,
                      SolverConfig("rk4", 20))
        assert y.values.item() == pytest.approx(1.0, rel=1e-7)

    def test_zero_span_returns_initial_state(self):
        y0 = Tensor([[2.0]])
        assert integrate(exp_field, y0, 1.5, 1.5, None, SolverConfig()) is y0


def convergence_slope(method, n):
    def err(steps):
        cfg = SolverConfig(method, steps)
        y = integrate(exp_field, Tensor([[1.0]]), 0.0, 1.0, None, cfg)
        return abs(y.values.item() - math.e)

    return math.log2(err(n) / err(2 * n))


class TestOrder:
    def test_rk4_fourth_order(self):
        assert 3.8 <= convergence_slope("rk4", 8) <= 4.2

    def test_euler_first_order(self):
        assert 0.9 <= convergence_slope("euler", 8) <= 1.1


class TestPath:
    def test_segments_compose_exactly(self):
        # unit-spaced grid: stepping through intermediate times reuses the same
        # step grid as one long integration, so states agree bitwise
        cfg = SolverConfig("rk4", 4)
        times = [0.0, 1.0, 2.0, 3.0]
        y0 = Tensor([[1.0, 0.5]])
        states = integrate_path(exp_field, y0, times, None, cfg)
        direct = integrate(exp_field, y0, 0.0, 3.0, None, cfg)
        np.testing.assert_array_equal(states.values[-1], direct.values)
        np.testing.assert_array_equal(states.values[0], y0.values)
        assert states.shape == (4, 1, 2)

    def test_rejects_non_ascending(self):
        with pytest.raises(ValueError):
            integrate_path(exp_field, Tensor([[1.0]]), [0.0, 2.0, 1.0], None,
                           SolverConfig())


class TestErrors:
    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_nonfinite_state_reports_step(self):
        def blowup(t, y, ctx):
            return y * 1e200

        with pytest.raises(NumericsError, match="step"):
            integrate(blowup, Tensor([[1e200]]), 0.0, 1.0, None,
                      SolverConfig("euler", 4))

    def test_field_shape_mismatch(self):
        def bad(t, y, ctx):
            return Tensor(np.ones((1, 3)))

        with pytest.raises(ShapeError):
            integrate(bad, Tensor([[1.0]]), 0.0, 1.0, None, SolverConfig("euler", 2))


class TestNoGrad:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_untracked_path_bitwise_equal(self, method):
        rng = np.random.default_rng(4)
        w = tracked(rng, 3, 3)
        y0 = tracked(rng, 2, 3)
        stages = []

        def f(t, y, ctx):
            stages.append(y)
            return T.tanh(y @ w) * (1.0 + t)

        times, cfg = [0.0, 0.5, 1.5], SolverConfig(method, 3)
        ref = integrate_path(f, y0, times, None, cfg)
        with T.no_grad():
            out = integrate_path(f, y0, times, None, cfg)
        assert ref.requires_grad
        assert not out.requires_grad and out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.values, ref.values)
        half = len(stages) // 2
        assert all(s.requires_grad for s in stages[:half])
        assert not any(s.requires_grad for s in stages[half:])

    def test_wrong_shape_field_raises(self):
        def bad(t, y, ctx):
            return Tensor(np.ones((1, 3)))

        with T.no_grad(), pytest.raises(ShapeError, match=r"returned shape \(1, 3\)"):
            integrate(bad, Tensor([[1.0]]), 0.0, 1.0, None, SolverConfig("euler", 2))

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_nonfinite_state_same_message(self):
        def late_blowup(t, y, ctx):
            return y * (1e200 if t >= 1.0 else 0.0)

        messages = []
        for mode in (contextlib.nullcontext, T.no_grad):
            with mode(), pytest.raises(NumericsError) as exc:
                integrate_path(late_blowup, Tensor([[1e200]], requires_grad=True),
                               [0.0, 1.0, 2.0], None, SolverConfig("rk4", 4))
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("step 3 of the interval [0, 1] (t=1)")


class TestGradientsThroughSolver:
    def test_matches_analytic_sensitivity(self):
        # y' = a y, y(0)=y0 => y(1) = y0 e^a; dy/da = y0 e^a
        a = Tensor(0.7, requires_grad=True)

        def f(t, y, ctx):
            return a * y

        out = integrate(f, Tensor([[2.0]]), 0.0, 1.0, None, SolverConfig("rk4", 30))
        backward(T.tsum(out))
        assert a.grad.item() == pytest.approx(2.0 * math.exp(0.7), rel=1e-5)

    def test_initial_state_sensitivity(self):
        y0 = Tensor([[2.0]], requires_grad=True)
        out = integrate(exp_field, y0, 0.0, 1.0, None, SolverConfig("rk4", 30))
        backward(T.tsum(out))
        assert y0.grad.item() == pytest.approx(math.e, rel=1e-6)


# ---- the solver node against the solver composed from tensor primitives ----

def composed_integrate(f, y0, t0, t1, ctx, cfg):
    """Reference solver: every stage's arithmetic is a node on the tape."""
    if t0 == t1:
        return y0
    n = max(1, int(round(abs(t1 - t0) * cfg.steps_per_unit)))
    h = (t1 - t0) / n
    y = y0
    for i in range(n):
        t = t0 + i * h
        if cfg.method == "euler":
            y = y + h * f(t, y, ctx)
        else:
            k1 = f(t, y, ctx)
            k2 = f(t + 0.5 * h, y + (0.5 * h) * k1, ctx)
            k3 = f(t + 0.5 * h, y + (0.5 * h) * k2, ctx)
            k4 = f(t + h, y + h * k3, ctx)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def composed_integrate_path(f, y0, times, ctx, cfg):
    states = [y0]
    for a, b in zip(times, times[1:]):
        states.append(composed_integrate(f, states[-1], a, b, ctx, cfg))
    return T.concat([T.reshape(s, (1,) + s.shape) for s in states], axis=0)


def composed_run(module, attr, build):
    """``build()`` with ``module.attr`` swapped for its composed reference."""
    ref = {"integrate": composed_integrate, "integrate_path": composed_integrate_path}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, attr, ref[attr])
        return build()


def ops_on_tape(out):
    return [n.op for n in GradientTape.from_output(out).operations if n.op != "leaf"]


RNG = np.random.default_rng(21)
A = tracked(RNG, 3, 3)
C = tracked(RNG, 2, 3)
B = tracked(RNG, 2, 3)


# vector fields of several kinds: each returns (field, ctx)

def multi_node():
    return (lambda t, y, ctx: T.tanh(y @ A) * ctx), T.exp(C)


def closes_over_non_leaf():
    e = T.exp(C)
    return (lambda t, y, ctx: T.tanh(y) * e - 0.1 * y), None


def state_free():
    return (lambda t, y, ctx: B * t), None


def untracked():
    return (lambda t, y, ctx: Tensor(np.zeros(y.shape))), None


def identity():
    return exp_field, None


def returns_ctx():
    # the stage's output is the walk's stop node itself
    return (lambda t, y, ctx: ctx), T.exp(C)


def returns_leaf():
    # the stage's output is a tracked external leaf
    return (lambda t, y, ctx: B), None


def two_paths():
    # B and the state each reach the output along two paths
    return (lambda t, y, ctx: T.tanh(y @ A) * B + T.square(B) * y), None


def long_chain(t, y, ctx):
    # 2,000 nodes between the output and the stage state: deeper than the
    # recursion limit, so only an iterative walk gets through
    z = y
    for _ in range(1000):
        z = T.tanh(z + B)
    return z


# name -> (factory returning (field, ctx), tensors the field depends on)
FIELDS = {
    "multi_node": (multi_node, [A, C]),
    "closes_over_non_leaf": (closes_over_non_leaf, [C]),
    "state_free": (state_free, [B]),
    "untracked": (untracked, []),
    "identity": (identity, []),
    "returns_ctx": (returns_ctx, [C]),
    "returns_leaf": (returns_leaf, [B]),
    "two_paths": (two_paths, [A, B]),
}


class TestSolverNode:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("kind", sorted(FIELDS))
    def test_path_matches_composed(self, method, kind):
        make, tensors = FIELDS[kind]
        y0 = tracked(RNG, 2, 3)
        cfg = SolverConfig(method, 4)
        times = [0.0, 0.3, 1.0]

        def run(solve):
            f, ctx = make()
            return [solve(f, y0, times, ctx, cfg)]

        check_op(lambda: run(integrate_path), lambda: run(composed_integrate_path),
                 [y0] + tensors)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("kind", sorted(FIELDS))
    def test_backward_in_time_matches_composed(self, method, kind):
        make, tensors = FIELDS[kind]
        y0 = tracked(RNG, 2, 3)
        cfg = SolverConfig(method, 3)

        def run(solve):
            f, ctx = make()
            return [solve(f, y0, 1.0, 0.2, ctx, cfg)]

        check_op(lambda: run(integrate), lambda: run(composed_integrate),
                 [y0] + tensors)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_deep_stage_matches_composed(self, method):
        y0 = tracked(RNG, 2, 3)
        cfg = SolverConfig(method, 2)

        def run(solve):
            return [solve(long_chain, y0, 0.0, 0.5, None, cfg)]

        check_op(lambda: run(integrate), lambda: run(composed_integrate), [y0, B])

    def test_output_boundary_parents(self):
        # a stage whose output is ctx or an external leaf still lists it as a parent
        y0 = tracked(RNG, 2, 3)

        def parents(f, ctx):
            return integrate(f, y0, 0.0, 0.5, ctx, SolverConfig("rk4", 2))._parents

        f, ctx = returns_ctx()
        assert parents(f, ctx) == (y0, ctx)
        assert parents(*returns_leaf()) == (y0, B)
        assert parents(*two_paths()) == (y0, A, B)

    def test_path_is_one_tape_node(self):
        trunk = nn.init_mlp(RNG, [4 + 3 + 1, 5, 5, 4])
        (w0, _), (w1, b1), (w2, b2) = trunk.layers
        l0 = tracked(RNG, 2, 4)
        shift = Tensor(trunk.first_layer_shift(Tensor(RNG.normal(size=(2, 3))), 4).values)
        states = integrate_path(lambda t, l, s: trunk(l, s, t), l0, [0.0, 0.5, 1.2],
                                shift, SolverConfig("rk4", 4))
        assert states.op == "ode_path" and states.shape == (3, 2, 4)
        np.testing.assert_array_equal(states.values[0], l0.values)
        assert states._parents == (l0, w0, w1, b1, w2, b2)
        assert ops_on_tape(states) == ["ode_path"]

    def test_walk_stops_at_ctx(self):
        # a tracked non-leaf ctx is a parent of the solver node, so the nodes
        # that built it are on the tape once, not walked at every stage
        trunk = nn.init_mlp(RNG, [4 + 3 + 1, 5, 5, 4])
        (w0, _), (w1, b1), (w2, b2) = trunk.layers
        l0 = tracked(RNG, 2, 4)
        shift = trunk.first_layer_shift(tracked(RNG, 2, 3), 4)
        y1 = integrate(lambda t, l, s: trunk(l, s, t), l0, 0.0, 0.5, shift,
                       SolverConfig("rk4", 4))
        assert y1._parents == (l0, shift, w0, w1, b1, w2, b2)

    def test_single_interval_is_the_node_itself(self):
        y0 = tracked(RNG, 2, 3)
        y1 = integrate(exp_field, y0, 0.0, 0.5, None, SolverConfig("rk4", 4))
        assert y1.op == "ode_path" and y1.shape == y0.shape
        assert integrate_path(exp_field, y0, [0.0, 0.5], None, SolverConfig()).op == "ode_path"

    def test_untracked_when_nothing_requires_grad(self):
        f = linear_field(np.eye(2))
        out = integrate(f, Tensor(np.ones((1, 2))), 0.0, 1.0, None, SolverConfig("euler", 2))
        assert not out.requires_grad and out._parents == ()

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_nonfinite_names_step_interval_and_time(self):
        def late_blowup(t, y, ctx):
            return y * (1e200 if t >= 1.0 else 0.0)

        with pytest.raises(NumericsError,
                           match=r"step 0 of the interval \[1, 2\] \(t=1\.25\)"):
            integrate_path(late_blowup, Tensor([[1e200]]), [0.0, 1.0, 2.0], None,
                           SolverConfig("euler", 4))


class TestDecoderAndEncoderPaths:
    @staticmethod
    def model(method):
        cfg = models.ModelConfig("snodep", d_y=2, head="gaussian", latent_family="normal",
                                 d_r=6, d_z=4, d_d=3, hidden=5,
                                 solver=SolverConfig(method, 3))
        return models.ProcessModel(cfg, seed=3)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("t0, query", [(0.5, [0.5, 1.0, 1.7]), (0.0, [0.4, 1.0])],
                             ids=["at_origin", "prepended_t0"])
    def test_decoder_matches_composed(self, method, t0, query):
        m = self.model(method)
        l0, d = tracked(RNG, 2, 4), tracked(RNG, 2, 3)

        def run():
            dist = m.decode_batch(l0, d, t0, query)
            return [dist.mu, dist.sigma]

        check_op(run, lambda: composed_run(models, "integrate_path", run),
                 [l0, d, m.trunk.layers[0][0], m.trunk.layers[-1][1]])

    def test_decoder_path_is_one_tape_node(self):
        m = self.model("rk4")
        for query in ([0.0], [0.4], [0.4, 1.0, 1.5], [0.2 * i for i in range(1, 13)]):
            dist = m.decode_batch(tracked(RNG, 2, 4), tracked(RNG, 2, 3), 0.0, query)
            assert dist.mu.shape == (len(query), 2, 2)
            ops = ops_on_tape(T.tsum(dist.mu))
            assert ops.count("ode_path") == 1
            assert ops.count("mlp") == 1      # the output head, once per decode

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_masked_gru_ode_matches_composed(self, method):
        rng = np.random.default_rng(22)
        gru = nn.init_gru(rng, 2, 5)
        g_mlp = nn.init_mlp(rng, [5, 4, 5])
        values = rng.normal(size=(3, 5, 2))
        mask = np.array([[True, True, True, True, True],
                         [True, False, True, False, True],
                         [True, True, False, True, False]])
        cfg = SolverConfig(method, 2)

        def run():
            return [encoders.gru_ode_encode_batch(np.arange(5.0) * 0.5, values, mask,
                                                  lambda t, h, ctx: g_mlp(h), gru, cfg)]

        check_op(run, lambda: composed_run(encoders, "integrate", run),
                 [gru.wz, gru.bh, g_mlp.layers[0][0], g_mlp.layers[-1][1]])
