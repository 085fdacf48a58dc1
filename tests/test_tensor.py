import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from snodep import tensor as T
from snodep.tensor import (
    Adam,
    DomainError,
    GradientTape,
    NumericsError,
    ShapeError,
    Tensor,
    backward,
    gradients,
    load_checkpoint,
    restore_checkpoint,
    save_checkpoint,
)
from tests.conftest import at_index, finite_diff


def grad_of(build_loss, x0):
    """Analytic gradient of build_loss(Tensor) at x0."""
    x = Tensor(np.array(x0, dtype=np.float64), requires_grad=True)
    loss = build_loss(x)
    backward(loss)
    return x.grad


def check_against_fd(build_loss, x0, tol=1e-6):
    x0 = np.asarray(x0, dtype=np.float64)
    an = grad_of(build_loss, x0)
    fd = finite_diff(lambda v: float(build_loss(Tensor(v)).values), x0)
    np.testing.assert_allclose(an, fd, rtol=tol, atol=tol)


class TestAnchors:
    def test_softplus_zero_is_ln2(self):
        assert T.softplus(Tensor(0.0)).item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_lgamma_int_five_is_ln24(self):
        assert T.lgamma_int(5).item() == pytest.approx(math.log(24.0), abs=1e-12)

    def test_item_reads_one_element_tensor(self):
        v = Tensor([[2.5]]).item()
        assert type(v) is float
        assert v == 2.5

    def test_item_rejects_many_elements(self):
        with pytest.raises(ShapeError, match=r"item.*\(2,\)"):
            Tensor(np.ones(2)).item()

    def test_lgamma_int_matches_scipy(self):
        k = np.arange(1, 80, dtype=np.float64)
        np.testing.assert_allclose(T.lgamma_int(k).values, scipy.special.gammaln(k),
                                   rtol=1e-12)

    def test_softplus_matches_scipy_and_is_overflow_safe(self):
        x = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
        out = T.softplus(Tensor(x)).values
        np.testing.assert_allclose(out[1:4], np.logaddexp(0.0, x[1:4]), rtol=1e-12)
        assert out[0] == 0.0
        assert out[4] == 800.0
        assert np.all(np.isfinite(out))

    def test_sigmoid_matches_scipy(self):
        x = np.linspace(-30, 30, 13)
        np.testing.assert_allclose(T.sigmoid(Tensor(x)).values,
                                   scipy.special.expit(x), rtol=1e-12)


class TestGradients:
    rng = np.random.default_rng(7)

    @pytest.mark.parametrize("build", [
        lambda x: T.tsum(x + Tensor([1.0, 2.0, 3.0])),
        lambda x: T.tsum(Tensor([1.0, 2.0, 3.0]) - x),
        lambda x: T.tsum(x * Tensor([0.5, -2.0, 3.0])),
        lambda x: T.tsum(x / Tensor([0.5, -2.0, 3.0])),
        lambda x: T.tsum(T.tanh(x)),
        lambda x: T.tsum(T.sigmoid(x)),
        lambda x: T.tsum(T.softplus(x)),
        lambda x: T.tsum(T.exp(x)),
        lambda x: T.tsum(T.square(x)),
        lambda x: T.tmean(x * x),
        lambda x: T.tsum(x[1:]),
    ], ids=["add", "rsub", "mul", "div", "tanh", "sigmoid", "softplus", "exp",
            "square", "mean", "slice"])
    def test_elementwise_fd(self, build):
        check_against_fd(build, [0.3, -1.2, 2.0])

    def test_log_fd(self):
        check_against_fd(lambda x: T.tsum(T.log(x)), [0.3, 1.2, 2.0])

    def test_matmul_fd(self):
        b = Tensor(self.rng.normal(size=(3, 2)))
        check_against_fd(lambda x: T.tsum(T.square(x @ b)),
                         self.rng.normal(size=(2, 3)))

    def test_matmul_right_operand_fd(self):
        a = Tensor(self.rng.normal(size=(2, 3)))
        check_against_fd(lambda x: T.tsum(T.square(a @ x)),
                         self.rng.normal(size=(3, 2)))

    def test_concat_fd(self):
        other = Tensor(self.rng.normal(size=(2, 2)))
        check_against_fd(
            lambda x: T.tsum(T.square(T.concat([x, other], axis=1))),
            self.rng.normal(size=(2, 3)))

    def test_reshape_fd(self):
        check_against_fd(lambda x: T.tsum(T.square(T.reshape(x, (3, 2)))),
                         self.rng.normal(size=(2, 3)))

    def test_sum_axis_keepdims_fd(self):
        check_against_fd(lambda x: T.tsum(T.square(T.tsum(x, axis=0, keepdims=True))),
                         self.rng.normal(size=(3, 2)))

    def test_broadcast_fd(self):
        col = Tensor(self.rng.normal(size=(3, 1)))
        check_against_fd(lambda x: T.tsum(T.square(col + x)),
                         self.rng.normal(size=(1, 4)))

    def test_broadcast_scalar_fd(self):
        mat = Tensor(self.rng.normal(size=(2, 3)))
        check_against_fd(lambda x: T.tsum(mat * x), 1.7)

    def test_reused_node_accumulates(self):
        # y = x*x + x  ->  dy/dx = 2x + 1
        x = Tensor(3.0, requires_grad=True)
        backward(x * x + x)
        assert x.grad == pytest.approx(7.0, abs=1e-12)

    def test_diamond_graph(self):
        x = Tensor(2.0, requires_grad=True)
        a = x * 3.0
        b = x + 1.0
        backward(a * b)
        # d/dx (3x * (x+1)) = 6x + 3
        assert x.grad == pytest.approx(15.0, abs=1e-12)

    def test_gradients_helper_unreachable_gives_zeros(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0], requires_grad=True)
        g = gradients(T.tsum(T.square(x)), [x, y])
        np.testing.assert_allclose(g[0], [2.0, 4.0])
        np.testing.assert_allclose(g[1], [0.0])

    @pytest.mark.parametrize("op", [
        lambda x: x + 1.0, lambda x: 1.0 - x, lambda x: x * 2.0, lambda x: x / 2.0,
        lambda x: x @ Tensor(np.ones((2, 2))), T.tanh, T.sigmoid, T.softplus, T.exp,
        T.log, T.square, T.tsum, lambda x: T.concat([x, Tensor(np.ones((2, 1)))]),
        lambda x: x[0], lambda x: T.reshape(x, (4,)),
    ], ids=["add", "sub", "mul", "div", "matmul", "tanh", "sigmoid", "softplus", "exp",
            "log", "square", "sum", "concat", "slice", "reshape"])
    def test_node_has_parents_iff_tracked(self, op):
        vals = np.array([[0.5, 1.5], [2.0, 0.25]])
        plain = op(Tensor(vals))
        assert not plain.requires_grad and plain._parents == ()
        node = op(Tensor(vals, requires_grad=True))
        assert node.requires_grad and node._parents and node._backward is not None

    def test_untracked_graphs_record_nothing(self):
        x = Tensor([1.0, 2.0])
        y = T.tanh(x) * 2.0
        assert not y.requires_grad and y._parents == ()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4))
    def test_broadcast_grad_shapes(self, r, c):
        a = Tensor(np.ones((r, 1)), requires_grad=True)
        b = Tensor(np.ones((1, c)), requires_grad=True)
        backward(T.tsum(a * b))
        assert a.grad.shape == (r, 1) and b.grad.shape == (1, c)
        np.testing.assert_allclose(a.grad, np.full((r, 1), c))
        np.testing.assert_allclose(b.grad, np.full((1, c), r))


class TestTape:
    def test_topological_order(self):
        x = Tensor(1.0, requires_grad=True)
        y = T.tanh(x * 2.0) + T.exp(x)
        tape = GradientTape.from_output(y)
        pos = {id(n): i for i, n in enumerate(tape.operations)}
        for node in tape.operations:
            for p in node._parents:
                assert pos[id(p)] < pos[id(node)]

    def test_backward_twice_accumulates(self):
        # a second backward adds into the existing .grad: the same as one
        # backward of the summed losses
        def losses(x, w):
            return T.tsum(T.tanh(x @ w)), T.tsum(T.square(x) @ w)

        rng = np.random.default_rng(5)
        x0, w0 = rng.normal(size=(2, 3)), rng.normal(size=(3, 3))
        x, w = Tensor(x0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
        first, second = losses(x, w)
        backward(first)
        backward(second)
        xr, wr = Tensor(x0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
        first, second = losses(xr, wr)
        backward(first + second)
        np.testing.assert_allclose(x.grad, xr.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w.grad, wr.grad, rtol=1e-12, atol=1e-12)

    def test_walk_stops_at_boundary(self):
        # the walk lists a stop node once and not its inputs; the pull returns
        # the cotangents of the stop node and of the tracked leaves
        x = Tensor(np.array([0.3, -1.2]), requires_grad=True)
        v = Tensor(np.array([1.0, 4.0]), requires_grad=True)
        c = Tensor(np.array([2.0, 5.0]))
        u = T.exp(x)
        y = T.tsum(u * u * c + v)
        order = T._reach(y, (id(u),))
        assert [n for n in order if n is u] == [u]
        assert not any(n is x for n in order)
        edge = T._pull(order, y, np.ones(()), (id(u),))
        assert set(edge) == {id(u), id(v)}
        np.testing.assert_allclose(edge[id(u)], 2.0 * u.values * c.values, rtol=1e-12)
        np.testing.assert_allclose(edge[id(v)], np.ones(2), rtol=1e-12)
        full = T._pull(T._reach(y), y, np.ones(()))
        assert set(full) == {id(x), id(v)}
        np.testing.assert_allclose(full[id(x)], 2.0 * u.values ** 2 * c.values,
                                   rtol=1e-12)

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(0.5, requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1e-6
        backward(y)
        assert x.grad == pytest.approx(1.0)


class TestValidation:
    def test_backward_needs_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x * 2.0)

    def test_matmul_rejects_vectors_and_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones((2, 4)))

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            Tensor([1.0]) / Tensor([0.0])

    def test_log_domain(self):
        with pytest.raises(DomainError):
            T.log(Tensor([1.0, -1.0]))

    def test_lgamma_int_domain(self):
        with pytest.raises(DomainError):
            T.lgamma_int(np.array([1.5]))
        with pytest.raises(DomainError):
            T.lgamma_int(np.array([0.0]))

    def test_lgamma_int_rejects_non_finite(self):
        with pytest.raises(DomainError, match="lgamma_int: non-integer input " + at_index(1)):
            T.lgamma_int(np.array([2.0, np.inf]))

    def test_lgamma_int_never_tracked(self):
        out = T.lgamma_int(Tensor([3.0], requires_grad=True))
        assert not out.requires_grad


class TestLgammaIntState:
    def test_values_do_not_depend_on_earlier_calls(self):
        # One interpreter computes ln((k-1)!) for k < 400 first; another after
        # calls on 2, 9, 16, ... 394. Each k has one value, bit for bit.
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from snodep import tensor as T\n"
                  "if sys.argv[1] == 'after':\n"
                  "    for k in range(2, 400, 7):\n"
                  "        T.lgamma_int(k)\n"
                  "print(T.lgamma_int(np.arange(1, 400)).values.tobytes().hex())\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(T.__file__))}
        first, after = (subprocess.run([sys.executable, "-c", script, mode], env=env,
                                       capture_output=True, text=True, check=True).stdout
                        for mode in ("first", "after"))
        assert len(first) == 2 * 8 * 399 + 1
        assert first == after


class TestThreads:
    def test_lgamma_int_under_threads(self):
        # Three threads call lgamma_int while the interpreter switches threads
        # as often as it can. Each must get back the right value for its own
        # request.
        ref = scipy.special.gammaln(np.arange(1.0, 5001.0))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                errors = []
                start = threading.Barrier(3)

                def work(n):
                    start.wait(timeout=60)
                    try:
                        for k in range(1, n + 1):
                            got = T.lgamma_int(k).item()
                            if abs(got - ref[k - 1]) > 1e-9 * max(1.0, ref[k - 1]):
                                raise AssertionError(f"lgamma_int({k}) = {got}")
                    except (IndexError, AssertionError) as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=work, args=(n,))
                           for n in (5000, 50, 2000)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert not errors, errors[0]
        finally:
            sys.setswitchinterval(old)


class TestNoGrad:
    def test_nests_and_restores(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                inner = x * 2.0
            outer = T.tanh(x)
            assert not T.grad_enabled()
        for y in (inner, outer):
            assert not y.requires_grad and y._parents == ()
        y = x * 2.0
        assert T.grad_enabled() and y.requires_grad and y._parents[0] is x

    def test_restores_when_the_block_raises(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ShapeError):
            with T.no_grad():
                T.matmul(x, x)
        assert T.grad_enabled() and (x * 2.0).requires_grad

    def test_is_per_thread(self):
        # a worker holds no_grad open while this thread builds a node
        x = Tensor(np.ones(2), requires_grad=True)
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def work():
            with T.no_grad():
                seen["worker"] = (x * 2.0).requires_grad
                inside.set()
                release.wait(10)

        worker = threading.Thread(target=work)
        worker.start()
        try:
            assert inside.wait(10)
            seen["main"] = (x * 2.0).requires_grad
        finally:
            release.set()
            worker.join()
        assert seen == {"worker": False, "main": True}


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = Tensor(np.array([1.0, -1.0, 2.0]), requires_grad=True)
        opt = Adam([p], lr=0.01)
        p.grad = np.array([0.5, -3.0, 1e-4])
        opt.step()
        # bias correction makes the first update ~ -lr * sign(grad)
        np.testing.assert_allclose(p.values, [1.0 - 0.01, -1.0 + 0.01, 2.0 - 0.01],
                                   atol=1e-5)

    def test_matches_reference_updates(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=4)
        grads = [rng.normal(size=4) for _ in range(5)]
        p = Tensor(x0.copy(), requires_grad=True)
        opt = Adam([p], lr=0.05)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        # reference Adam in plain numpy
        ref = x0.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(p.values, ref, rtol=1e-12)

    def test_none_grad_treated_as_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_allclose(p.values, [1.0])

    def test_non_finite_gradient_named_by_key_and_step(self):
        good = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        bad = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        opt = Adam({"trunk.l0.b": good, "trunk.l1.w": bad}, lr=0.1)
        good.grad, bad.grad = np.ones(2), np.ones(2)
        opt.step()
        before = [good.values.copy(), bad.values.copy()]
        good.grad, bad.grad = np.ones(2), np.array([0.5, np.nan])
        with pytest.raises(NumericsError, match=r"'trunk\.l1\.w'.*step 2"):
            opt.step()
        np.testing.assert_array_equal(good.values, before[0])
        np.testing.assert_array_equal(bad.values, before[1])

    def test_non_finite_gradient_named_by_position(self):
        ps = [Tensor(np.zeros(3), requires_grad=True) for _ in range(2)]
        opt = Adam(ps)
        ps[1].grad = np.array([0.0, np.inf, 0.0])
        with pytest.raises(NumericsError, match=r"'#1'.*step 1"):
            opt.step()

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0, -4.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(800):
            opt.zero_grad()
            backward(T.tsum(T.square(p)))
            opt.step()
        assert np.all(np.abs(p.values) < 1e-3)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = {"a.w": Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
                  "a.b": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        path = tmp_path / "ck.npz"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a.w", "a.b"}
        fresh = {k: Tensor(np.zeros_like(v.values), requires_grad=True)
                 for k, v in params.items()}
        restore_checkpoint(fresh, path)
        for k in params:
            np.testing.assert_array_equal(fresh[k].values, params[k].values)

    def test_missing_and_mismatched(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, {"w": Tensor(np.ones(2), requires_grad=True)})
        with pytest.raises(KeyError):
            restore_checkpoint({"other": Tensor(np.ones(2))}, path)
        with pytest.raises(ShapeError):
            restore_checkpoint({"w": Tensor(np.ones(3))}, path)
