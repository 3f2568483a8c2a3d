"""Autodiff core: forward values, backward rules, and tape semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdrs import tensor as T
from oracles import finite_difference_grad, rel_grad_error


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestElementwise:
    def test_add(self):
        out = t([1.0, 2.0]) + t([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_sigmoid_at_zero(self):
        assert T.sigmoid(t(0.0)).item() == 0.5

    def test_sigmoid_matches_float64_logistic(self):
        x = np.linspace(-40.0, 40.0, 200001)
        s = T.sigmoid(t(x)).data
        np.testing.assert_allclose(s, 1.0 / (1.0 + np.exp(-x)), rtol=0, atol=1e-15)
        assert np.all(np.diff(s) >= 0.0)

    def test_leaky_relu_negative(self):
        assert T.leaky_relu(t(-2.0), 0.01).item() == pytest.approx(-0.02)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_bit_equals_piecewise_form(self, dtype):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(64).astype(dtype)
        x0[:4] = [0.0, -0.0, np.nan, -np.nan]
        g = rng.standard_normal(64).astype(dtype)
        for slope in [0.0, 0.01, 0.1, 1.0]:
            s = dtype(slope)
            x = T.Tensor(x0, requires_grad=True)
            y = T.leaky_relu(x, slope)
            T.backward((y * T.Tensor(g)).sum())
            np.testing.assert_array_equal(np.where(x0 > 0, x0, x0 * s).view(np.uint8),
                                          y.data.view(np.uint8))
            np.testing.assert_array_equal(g * np.where(x0 > 0, dtype(1.0), s), x.grad)

    @pytest.mark.parametrize("slope", [-0.01, 1.5])
    def test_leaky_relu_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError):
            T.leaky_relu(t([1.0, -1.0]), slope)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeMismatch):
            t([1.0, 2.0]) + t([1.0, 2.0, 3.0])

    def test_log_domain(self):
        with pytest.raises(T.DomainError):
            T.log(t([1.0, 0.0]))

    def test_broadcast_trailing_axis(self):
        a = t(np.ones((3, 4)), rg=True)
        b = t(np.arange(3.0).reshape(3, 1), rg=True)
        out = (a * b).sum()
        T.backward(out)
        np.testing.assert_allclose(b.grad, np.full((3, 1), 4.0))
        np.testing.assert_allclose(a.grad, np.broadcast_to(np.arange(3.0)[:, None], (3, 4)))


class TestReduce:
    def test_frobenius_345(self):
        assert T.frobenius_norm(t([[3.0, 4.0]])).item() == pytest.approx(5.0)

    def test_std_constant_is_zero(self):
        assert T.std(t(np.full(17, 2.5))).item() == 0.0

    def test_std_population(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert T.std(t(x)).item() == pytest.approx(np.sqrt(np.mean((x - x.mean()) ** 2)))

    def test_l1_norm(self):
        assert T.l1_norm(t([1.0, -2.0, 3.0])).item() == pytest.approx(6.0)

    def test_empty_reduction(self):
        with pytest.raises(T.EmptyReduction):
            T.sum_(t(np.zeros((0, 3))))

    def test_axis_reduction_shapes(self):
        x = t(np.arange(12.0).reshape(3, 4))
        assert T.sum_(x, axes=1).shape == (3,)
        assert T.mean(x, axes=0, keepdims=True).shape == (1, 4)


class TestBackward:
    def test_square_sum(self):
        x = t([3.0], rg=True)
        T.backward((x * x).sum())
        np.testing.assert_allclose(x.grad, [6.0])

    def test_fanout_accumulates(self):
        x = t([1.0, 2.0], rg=True)
        T.backward((x + x).sum())
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_not_scalar_root(self):
        x = t([1.0, 2.0], rg=True)
        with pytest.raises(T.NotScalarRoot):
            T.backward(x + x)

    def test_detached_root(self):
        with pytest.raises(T.DetachedRoot):
            T.backward(t(1.0))

    def test_second_backward_over_spent_tape_raises(self):
        # the first sweep releases the tape: a second one would reuse nothing
        # (and, on a retained tape, stale intermediate grads: 18, not 6 or 12)
        x = t([3.0], rg=True)
        y = (x * x).sum()
        T.backward(y)
        np.testing.assert_allclose(x.grad, [6.0])
        with pytest.raises(T.DetachedRoot, match="consumed"):
            T.backward(y)
        np.testing.assert_allclose(x.grad, [6.0])
        np.testing.assert_allclose(y.grad, 1.0)

    def test_independent_graphs_are_linear(self):
        # backward(f + g) == backward(f) then backward(g), graph by graph
        rng = np.random.default_rng(3)
        xa = rng.standard_normal(5)
        xb = rng.standard_normal(5)

        a1, b1 = t(xa, rg=True), t(xb, rg=True)
        T.backward(((a1 * a1).sum() + T.sigmoid(b1).sum()))

        a2, b2 = t(xa, rg=True), t(xb, rg=True)
        T.backward((a2 * a2).sum())
        T.backward(T.sigmoid(b2).sum())

        np.testing.assert_array_equal(a1.grad, a2.grad)
        np.testing.assert_array_equal(b1.grad, b2.grad)

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(11)
            x = t(rng.standard_normal(16), rg=True)
            y = (T.leaky_relu(x, 0.1) * T.sigmoid(x) + T.log(x * x + 1.0)).sum()
            T.backward(y)
            return y.item(), x.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)

    def test_no_grad_blocks_recording(self):
        x = t([1.0], rg=True)
        with T.no_grad():
            y = (x * x).sum()
        assert y._backward is None
        with pytest.raises(T.DetachedRoot):
            T.backward(y)


UNARIES = [
    ("abs", T.abs_, lambda r: r.uniform(0.5, 2.0, 6) * np.sign(r.standard_normal(6))),
    ("log", T.log, lambda r: r.uniform(0.2, 3.0, 6)),
    ("sigmoid", T.sigmoid, lambda r: r.standard_normal(6) * 2),
    ("relu", T.relu, lambda r: r.uniform(0.3, 2.0, 6) * np.sign(r.standard_normal(6))),
    ("leaky", lambda x: T.leaky_relu(x, 0.01),
     lambda r: r.uniform(0.3, 2.0, 6) * np.sign(r.standard_normal(6))),
]


@pytest.mark.parametrize("name,op,sample", UNARIES, ids=[u[0] for u in UNARIES])
def test_unary_grads_match_finite_differences(name, op, sample):
    # inputs are sampled away from the non-smooth points of abs/relu/leaky
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    x0 = sample(rng)

    def f(x):
        return float(op(t(x)).sum().data)

    x = t(x0, rg=True)
    T.backward(op(x).sum())
    assert rel_grad_error(x.grad, finite_difference_grad(f, x0)) < 1e-4


REDUCERS = [
    ("sum", lambda x: T.sum_(x)),
    ("mean", lambda x: T.mean(x)),
    ("l1", lambda x: T.l1_norm(x)),
    ("fro", lambda x: T.frobenius_norm(x)),
    ("std", lambda x: T.std(x)),
    ("sum_ax", lambda x: T.sum_(x, axes=1).frobenius_norm()),
    ("std_ax", lambda x: T.std(x, axes=0).sum()),
]


@pytest.mark.parametrize("name,red", REDUCERS, ids=[r[0] for r in REDUCERS])
def test_reduce_grads_match_finite_differences(name, red):
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0.3, 2.0, (4, 5)) * np.sign(rng.standard_normal((4, 5)))

    def f(x):
        return float(red(t(x)).data)

    x = t(x0, rg=True)
    T.backward(red(x))
    assert rel_grad_error(x.grad, finite_difference_grad(f, x0)) < 1e-4


@pytest.mark.parametrize("op", ["narrow", "pad", "concat", "reshape", "transpose"])
def test_plumbing_grads(op):
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((3, 8))

    def build(x):
        if op == "narrow":
            return T.narrow(x, 1, 2, 4)
        if op == "pad":
            return T.pad_axis(x, 1, 3, 2)
        if op == "concat":
            return T.concat([x, x * 2.0], axis=0)
        if op == "reshape":
            return T.reshape(x, (6, 4))
        return T.transpose(x)

    def f(x):
        return float((build(t(x)) * 1.5).frobenius_norm().data)

    x = t(x0, rg=True)
    T.backward((build(x) * 1.5).frobenius_norm())
    assert rel_grad_error(x.grad, finite_difference_grad(f, x0)) < 1e-4


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=16))
def test_chain_rule_property(values):
    """sigmoid/log/mul composites match finite differences on random data."""
    x0 = np.asarray(values, dtype=np.float64)

    def build(a):
        return (T.sigmoid(a) * T.log(a * a + 1.0) + a * 0.3).sum()

    def f(x):
        return float(build(t(x)).data)

    x = t(x0, rg=True)
    T.backward(build(x))
    assert rel_grad_error(x.grad, finite_difference_grad(f, x0)) < 1e-4


def test_float32_ops_stay_float32():
    x = T.Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    y = ((x * 2.0 + 1e-5).sigmoid()).sum()
    assert y.dtype == np.float32
    T.backward(y)
    assert x.grad.dtype == np.float32
