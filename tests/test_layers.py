"""Convolutions, GLU, and LSTM: values, adjointness, and gradients."""

import os
import threading
import warnings

import numpy as np
import pytest

from hdrs import layers as L
from hdrs import tensor as T
from hdrs.tensor import Tensor, backward
from oracles import (finite_difference_grad, naive_conv1d,
                     naive_conv_transpose1d, naive_lstm, rel_grad_error)


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def conv_params(w, b=None, stride=1, padding=0, dilation=1, rg=False):
    return L.Conv1dParams(t(w, rg), None if b is None else t(b, rg),
                          stride, padding, dilation)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_blas_runs_on_one_thread():
    """The root conftest pins OpenBLAS to one thread, on which the tests'
    byte-identity holds: after a large product the process runs no thread
    beyond Python's own (a second BLAS thread would be one more)."""
    a = np.ones((512, 512))
    a @ a
    assert len(os.listdir("/proc/self/task")) == threading.active_count()


class TestConv1d:
    def test_length_formula(self):
        assert L.conv1d_length(16, 8, 4, 0, 1) == 3

    def test_all_ones_window_sum(self):
        p = conv_params(np.ones((1, 1, 8)), np.zeros(1), stride=4)
        out = L.conv1d(t(np.ones((1, 16))), p)
        np.testing.assert_allclose(out.data, np.full((1, 3), 8.0))

    def test_matches_naive(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 20))
        xb = rng.standard_normal((2, 3, 20))  # two distinct items
        w = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal(5)
        cases = [(1, 0, 1), (2, 3, 1), (4, 2, 1), (1, 4, 3), (3, 5, 2)]
        # first in one im2col block per call, then in blocks of two float64
        # columns of each item's [12, L'] im2col
        for block_bytes in [None, 2 * 12 * 8]:
            if block_bytes:
                monkeypatch.setattr(L, "_IM2COL_BYTES", block_bytes)
            for stride, pad, dil in cases:
                if block_bytes:
                    assert L.conv1d_length(20, 4, stride, pad, dil) >= 3 * 2
                p = conv_params(w, b, stride, pad, dil)
                got = L.conv1d(t(x), p).data
                np.testing.assert_allclose(got, naive_conv1d(x, w, b, stride, pad, dil),
                                           atol=1e-12)
                batched = L.conv1d(t(xb), p).data
                for i in range(2):
                    np.testing.assert_allclose(batched[i], L.conv1d(t(xb[i]), p).data,
                                               atol=1e-12)
                    np.testing.assert_allclose(
                        batched[i], naive_conv1d(xb[i], w, b, stride, pad, dil),
                        atol=1e-12)

    def test_too_short(self):
        p = conv_params(np.ones((1, 1, 8)), stride=4)
        with pytest.raises(L.InputTooShort):
            L.conv1d(t(np.ones((1, 4))), p)

    # (lead, c_out, stride, padding, dilation), strided and stride 1,
    # including the rank-1 c_out == 1 tap products
    GRAD_CASES = [((), 3, 2, 3, 2), ((), 3, 1, 0, 1), ((), 3, 1, 1, 2), ((), 1, 1, 1, 1),
                  ((2,), 3, 1, 1, 2), ((2,), 1, 1, 0, 2), ((2,), 3, 2, 3, 2)]

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for lead, c_out, stride, pad, dil in self.GRAD_CASES:
            x0 = rng.standard_normal(lead + (2, 14))
            w0 = rng.standard_normal((c_out, 2, 5))
            b0 = rng.standard_normal(c_out)
            mix = rng.standard_normal(lead + (c_out, L.conv1d_length(14, 5, stride, pad, dil)))

            def run(x, w, b):
                p = L.Conv1dParams(Tensor(w), Tensor(b), stride, pad, dil)
                return float((L.conv1d(Tensor(x), p).data * mix).sum())

            xt, wt, bt = t(x0, True), t(w0, True), t(b0, True)
            out = L.conv1d(xt, L.Conv1dParams(wt, bt, stride, pad, dil))
            backward((out * Tensor(mix)).sum())
            case = f"lead {lead} c_out {c_out} stride {stride} pad {pad} dil {dil}"
            assert rel_grad_error(xt.grad, finite_difference_grad(
                lambda x: run(x, w0, b0), x0)) < 1e-4, case
            assert rel_grad_error(wt.grad, finite_difference_grad(
                lambda w: run(x0, w, b0), w0)) < 1e-4, case
            assert rel_grad_error(bt.grad, finite_difference_grad(
                lambda b: run(x0, w0, b), b0)) < 1e-4, case

    def test_stride1_input_gradient_is_adjoint(self):
        """With zero bias conv1d is linear in x, so the input gradient of
        <conv1d(x), g> is the adjoint applied to g: <x, x.grad> = <conv1d(x), g>.
        Every GRAD_CASES stride, 1 and 2, is checked."""
        rng = np.random.default_rng(2)
        for lead, c_out, stride, pad, dil in self.GRAD_CASES:
            x0 = rng.standard_normal(lead + (3, 40))
            p = conv_params(rng.standard_normal((c_out, 3, 4)), np.zeros(c_out), stride, pad,
                            dil)
            g = rng.standard_normal(lead + (c_out, L.conv1d_length(40, 4, stride, pad, dil)))
            xt = t(x0, True)
            y = L.conv1d(xt, p)
            backward((y * Tensor(g)).sum())
            lhs, rhs = np.vdot(x0, xt.grad), np.vdot(y.data, g)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestConvTranspose1d:
    def test_length_formulas(self):
        assert L.conv_transpose1d_length(3, 8, 4, 2, 1) == 12
        assert L.conv_transpose1d_length(3, 8, 4, 9, 3) == 12

    def test_matches_naive(self, monkeypatch):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 6))
        xb = rng.standard_normal((2, 3, 6))  # two distinct items
        w = rng.standard_normal((3, 2, 8))
        b = rng.standard_normal(2)
        cases = [(4, 2, 1), (4, 9, 3), (4, 30, 9), (1, 0, 1), (2, 1, 2)]
        whole = {}
        # first in one block of input columns per call, then in blocks of two
        # float64 columns of the [16, L] tap products (the fewest columns a
        # block takes, batched too), so every call spans at least three blocks
        for block_bytes in [None, 2 * 16 * 8]:
            if block_bytes:
                monkeypatch.setattr(L, "_IM2COL_BYTES", block_bytes)
                assert x.shape[-1] >= 3 * 2
            for stride, pad, dil in cases:
                p = conv_params(w, b, stride, pad, dil)
                got = L.conv_transpose1d(t(x), p).data
                np.testing.assert_allclose(
                    got, naive_conv_transpose1d(x, w, b, stride, pad, dil), atol=1e-12)
                batched = L.conv_transpose1d(t(xb), p).data
                for i in range(2):
                    np.testing.assert_allclose(batched[i],
                                               L.conv_transpose1d(t(xb[i]), p).data,
                                               atol=1e-12)
                    np.testing.assert_allclose(
                        batched[i], naive_conv_transpose1d(xb[i], w, b, stride, pad, dil),
                        atol=1e-12)
                if not block_bytes:
                    whole[stride, dil] = got, batched
                elif stride == 4:
                    # kernel 8, stride 4, odd dilation: each output sums two
                    # products, so blocking keeps every bit
                    np.testing.assert_array_equal(got, whole[stride, dil][0])
                    np.testing.assert_array_equal(batched, whole[stride, dil][1])

    def test_negative_output_length(self):
        p = conv_params(np.ones((1, 1, 2)), stride=1, padding=5)
        with pytest.raises(L.NegativeOutputLength):
            L.conv_transpose1d(t(np.ones((1, 3))), p)

    @pytest.mark.parametrize("kernel,stride,dilation,pad", [
        (8, 4, 1, 2),   # encoder block / suppression transposed conv
        (8, 4, 3, 9), (8, 4, 5, 16), (8, 4, 7, 23), (8, 4, 9, 30),  # refinement
        (1, 1, 1, 0),   # in-block 1x1 mixers
        (3, 1, 1, 1),   # fusion stack
    ])
    def test_adjoint_identity(self, kernel, stride, dilation, pad):
        # <conv(x), y> == <x, conv_transpose(y)> with a shared weight array
        rng = np.random.default_rng(kernel * 100 + dilation)
        c_in, c_out, l_in = 3, 4, 48
        w = t(rng.standard_normal((c_out, c_in, kernel)))
        x = rng.standard_normal((c_in, l_in))
        fwd = L.conv1d(t(x), L.Conv1dParams(w, None, stride, pad, dilation))
        y = rng.standard_normal(fwd.shape)
        back = L.conv_transpose1d(t(y), L.Conv1dParams(w, None, stride, pad, dilation))
        lhs = float((fwd.data * y).sum())
        rhs = float((x * back.data).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("dilation,pad", [(1, 2), (3, 9)])
    def test_input_gradient_is_adjoint(self, dilation, pad):
        """With zero bias conv_transpose1d is linear in x, so the input
        gradient of <conv_transpose1d(x), g> is its adjoint, conv1d, applied
        to g: <x, x.grad> = <conv_transpose1d(x), g>, batched."""
        rng = np.random.default_rng(5 + dilation)
        x0 = rng.standard_normal((2, 3, 30))
        p = conv_params(rng.standard_normal((3, 4, 8)), np.zeros(4), 4, pad, dilation)
        g = rng.standard_normal((2, 4, L.conv_transpose1d_length(30, 8, 4, pad, dilation)))
        xt = t(x0, True)
        y = L.conv_transpose1d(xt, p)
        backward((y * Tensor(g)).sum())
        lhs, rhs = np.vdot(x0, xt.grad), np.vdot(y.data, g)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        # (lead, padding, dilation) at kernel 8, stride 4
        for lead, pad, dil in [((), 9, 3), ((2,), 9, 3), ((), 2, 1)]:
            x0 = rng.standard_normal(lead + (2, 5))
            w0 = rng.standard_normal((2, 3, 8))
            b0 = rng.standard_normal(3)
            l_out = L.conv_transpose1d_length(5, 8, 4, pad, dil)
            mix = rng.standard_normal(lead + (3, l_out))

            def run(x, w, b):
                p = L.Conv1dParams(Tensor(w), Tensor(b), 4, pad, dil)
                return float((L.conv_transpose1d(Tensor(x), p).data * mix).sum())

            xt, wt, bt = t(x0, True), t(w0, True), t(b0, True)
            out = L.conv_transpose1d(xt, L.Conv1dParams(wt, bt, 4, pad, dil))
            backward((out * Tensor(mix)).sum())
            case = f"lead {lead} pad {pad} dil {dil}"
            assert rel_grad_error(xt.grad, finite_difference_grad(
                lambda x: run(x, w0, b0), x0)) < 1e-4, case
            assert rel_grad_error(wt.grad, finite_difference_grad(
                lambda w: run(x0, w, b0), w0)) < 1e-4, case
            assert rel_grad_error(bt.grad, finite_difference_grad(
                lambda b: run(x0, w0, b), b0)) < 1e-4, case


class TestGlu:
    def test_zero_gate_halves(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 6))
        x = np.vstack([a, np.zeros((2, 6))])
        np.testing.assert_allclose(L.glu(t(x)).data, 0.5 * a)

    def test_large_negative_gate_closes(self):
        x = np.vstack([np.ones((1, 4)), np.full((1, 4), -50.0)])
        assert np.max(np.abs(L.glu(t(x)).data)) < 1e-20

    def test_odd_channels(self):
        with pytest.raises(L.OddChannels):
            L.glu(t(np.zeros((3, 4))))

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((4, 7))
        mix = rng.standard_normal((2, 7))

        def f(x):
            return float((L.glu(Tensor(x)).data * mix).sum())

        xt = t(x0, True)
        backward((L.glu(xt) * Tensor(mix)).sum())
        assert rel_grad_error(xt.grad, finite_difference_grad(f, x0)) < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bytes_equal_gated_product(self, dtype):
        x = np.random.default_rng(6).standard_normal((2, 6, 9)).astype(dtype)
        got = L.glu(Tensor(x)).data
        want = x[..., :3, :] * T.stable_sigmoid(x[..., 3:, :])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_bytes_equal_product_rule(self, dtype):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 6, 9)).astype(dtype)
        g = rng.standard_normal((2, 3, 9)).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        backward((L.glu(xt) * Tensor(g)).sum())
        a, gate = x[..., :3, :], T.stable_sigmoid(x[..., 3:, :])
        want = np.concatenate([g * gate, g * a * gate * (1.0 - gate)], axis=-2)
        assert xt.grad.dtype == want.dtype
        np.testing.assert_array_equal(xt.grad, want)


def lstm_params(rng, in_dim, h_dim, n_layers, rg=False, zero=False):
    layers = []
    d = in_dim
    for _ in range(n_layers):
        if zero:
            w_ih = np.zeros((4 * h_dim, d))
            w_hh = np.zeros((4 * h_dim, h_dim))
        else:
            w_ih = rng.standard_normal((4 * h_dim, d)) * 0.4
            w_hh = rng.standard_normal((4 * h_dim, h_dim)) * 0.4
        b = np.zeros(4 * h_dim)
        layers.append((t(w_ih, rg), t(w_hh, rg), t(b, rg)))
        d = h_dim
    return L.LstmParams(layers)


def ref_lstm_cell(x_t, h, c, w_ih, w_hh, b):
    """Single-cell reference with (i, f, g, o) gate layout."""
    z = w_ih @ x_t + w_hh @ h + b
    hd = len(h)
    sig = lambda v: 1 / (1 + np.exp(-v))
    i, f = sig(z[:hd]), sig(z[hd:2 * hd])
    g, o = np.tanh(z[2 * hd:3 * hd]), sig(z[3 * hd:])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


class TestLstm:
    def test_zero_weights_give_zero_output(self):
        rng = np.random.default_rng(6)
        p = lstm_params(rng, 3, 4, 2, zero=True)
        out = L.lstm_forward(t(rng.standard_normal((5, 3))), p)
        np.testing.assert_allclose(out.data, 0.0)

    def test_single_step_matches_cell(self):
        rng = np.random.default_rng(7)
        p = lstm_params(rng, 3, 4, 1)
        x = rng.standard_normal((1, 3))
        out = L.lstm_forward(t(x), p).data
        w_ih, w_hh, b = (a.data for a in p.layers[0])
        h_ref, _ = ref_lstm_cell(x[0], np.zeros(4), np.zeros(4), w_ih, w_hh, b)
        np.testing.assert_allclose(out[0], h_ref, atol=1e-12)

    def test_sequence_matches_unrolled_cell(self):
        rng = np.random.default_rng(8)
        p = lstm_params(rng, 3, 4, 2)

        def unrolled(x):
            seq = x
            for w_ih, w_hh, b in [(a.data, bb.data, c.data) for a, bb, c in p.layers]:
                h, c = np.zeros(4), np.zeros(4)
                nxt = []
                for row in seq:
                    h, c = ref_lstm_cell(row, h, c, w_ih, w_hh, b)
                    nxt.append(h)
                seq = np.array(nxt)
            return seq

        x = rng.standard_normal((6, 3))
        np.testing.assert_allclose(L.lstm_forward(t(x), p).data, unrolled(x), atol=1e-12)
        # two distinct sequences stepped together: no state bleeds between rows
        xb = rng.standard_normal((2, 6, 3))
        batched = L.lstm_forward(t(xb), p).data
        assert batched.shape == (2, 6, 4)
        for i in range(2):
            np.testing.assert_allclose(batched[i], L.lstm_forward(t(xb[i]), p).data,
                                       atol=1e-12)
            np.testing.assert_allclose(batched[i], unrolled(xb[i]), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_carried_state_splits_a_sequence_exactly(self, dtype, lead):
        """Stepping a sequence in two calls that carry the state is bit-equal
        to one call, at every split point (one-step calls included)."""
        rng = np.random.default_rng(10)
        p = lstm_params(rng, 3, 5, 2)
        p = L.LstmParams([tuple(Tensor(a.data.astype(dtype)) for a in layer)
                          for layer in p.layers])
        x = rng.standard_normal(lead + (7, 3)).astype(dtype)
        with T.no_grad():
            whole = L.lstm_forward(Tensor(x), p).data
            for cut in range(1, 7):
                state = []
                head = L.lstm_forward(Tensor(x[..., :cut, :]), p, state)
                assert len(state) == 2 and state[0][0].shape == (int(np.prod(lead)), 5)
                tail = L.lstm_forward(Tensor(x[..., cut:, :]), p, state)
                split = np.concatenate([head.data, tail.data], axis=-2)
                assert split.dtype == dtype
                assert split.tobytes() == whole.tobytes(), cut

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lead, t_len", [((), 6), ((2,), 6), ((), 1), ((2,), 1)])
    def test_bytes_match_naive_steps(self, dtype, lead, t_len):
        """Byte-equal to the oracle stepped one timestep at a time, from a
        zero state and with a state carried across two calls; ((), 1) is
        the lone-row input projection."""
        rng = np.random.default_rng(12)
        arrays = [tuple(a.data.astype(dtype) for a in layer)
                  for layer in lstm_params(rng, 4, 16, 2).layers]
        for _, _, b in arrays:
            b[:] = rng.standard_normal(b.shape) * 0.4
        p = L.LstmParams([tuple(Tensor(a) for a in layer) for layer in arrays])
        x = rng.standard_normal(lead + (2 * t_len, 4)).astype(dtype)
        xb = x.reshape((-1,) + x.shape[-2:])
        want, _ = naive_lstm(xb[:, :t_len], arrays)
        got = L.lstm_forward(Tensor(x[..., :t_len, :]), p).data
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        state, ref_state = [], None
        for part in (slice(0, t_len), slice(t_len, 2 * t_len)):
            with T.no_grad():
                got = L.lstm_forward(Tensor(x[..., part, :]), p, state).data
            want, ref_state = naive_lstm(xb[:, part], arrays, ref_state)
            assert got.tobytes() == want.tobytes(), part

    @pytest.mark.parametrize("pre", [-1e4, 1e4])
    def test_saturated_float32_gates_raise_nothing(self, pre):
        """Forward and backward at float32 pre-activations of +-1e4 raise no
        floating-point error: every gate saturates to 0, 1 or +-1."""
        rng = np.random.default_rng(13)
        layers = []
        for layer in lstm_params(rng, 3, 4, 2).layers:
            arrays = [a.data.astype(np.float32) for a in layer]
            arrays[2][:] = pre  # the bias
            layers.append(tuple(Tensor(a, requires_grad=True) for a in arrays))
        x = Tensor(rng.standard_normal((2, 5, 3)).astype(np.float32), requires_grad=True)
        with np.errstate(all="raise"):
            out = L.lstm_forward(x, L.LstmParams(layers))
            backward(out.sum())
        assert out.dtype == np.float32 and np.all(np.abs(out.data) <= 1.0)
        assert np.all(np.isfinite(x.grad))
        for a in (a for layer in layers for a in layer):
            assert np.all(np.isfinite(a.grad))

    def test_carried_state_refused_on_a_recording_tape(self):
        rng = np.random.default_rng(11)
        p = lstm_params(rng, 3, 4, 1, rg=True)
        with pytest.raises(ValueError, match="no_grad"):
            L.lstm_forward(t(rng.standard_normal((4, 3)), True), p, [])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        t_len, in_dim, h_dim = 4, 2, 3
        x_single = rng.standard_normal((t_len, in_dim))
        p = lstm_params(rng, in_dim, h_dim, 2, rg=True)
        mix_single = rng.standard_normal((t_len, h_dim))
        flat_params = [a for layer in p.layers for a in layer]
        base = [a.data.copy() for a in flat_params]
        # one sequence, then a batch of two distinct sequences stepped together
        cases = [(x_single, mix_single),
                 (rng.standard_normal((2, t_len, in_dim)),
                  rng.standard_normal((2, t_len, h_dim)))]
        for x0, mix in cases:
            def run(arrays, x, mix=mix):
                q = L.LstmParams([(Tensor(arrays[3 * i]), Tensor(arrays[3 * i + 1]),
                                   Tensor(arrays[3 * i + 2])) for i in range(2)])
                return float((L.lstm_forward(Tensor(x), q).data * mix).sum())

            for a in flat_params:
                a.grad = None
            xt = t(x0, True)
            backward((L.lstm_forward(xt, p) * Tensor(mix)).sum())

            assert rel_grad_error(xt.grad, finite_difference_grad(
                lambda x: run(base, x), x0)) < 1e-4
            for idx, param in enumerate(flat_params):
                def f(arr, idx=idx, x0=x0, run=run):
                    arrays = [a.copy() for a in base]
                    arrays[idx] = arr
                    return run(arrays, x0)

                num = finite_difference_grad(f, base[idx])
                assert rel_grad_error(param.grad, num) < 1e-4, f"param {idx}, {x0.shape}"


def test_uniform_init_bounds_and_determinism():
    rng = np.random.default_rng(42)
    w = L.uniform_init(rng, (50, 100), 100, np.float64)
    assert np.max(np.abs(w)) <= 0.1
    w2 = L.uniform_init(np.random.default_rng(42), (50, 100), 100, np.float64)
    np.testing.assert_array_equal(w, w2)


@pytest.mark.parametrize("pre", [-800.0, 800.0])
def test_extreme_preactivations_raise_no_warnings(pre):
    """Sigmoid gates saturate to 0 or 1 without overflowing exp."""
    rng = np.random.default_rng(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = t(np.full(6, pre), rg=True)
        s = T.sigmoid(z)
        backward(s.sum())
        assert np.all((s.data >= 0.0) & (s.data <= 1.0))
        assert np.all(np.isfinite(z.grad))

        # with a == 1 the GLU output is the gate itself
        x = t(np.concatenate([np.ones((2, 5)), np.full((2, 5), pre)]), rg=True)
        gate = L.glu(x)
        backward(gate.sum())
        assert np.all((gate.data >= 0.0) & (gate.data <= 1.0))
        assert np.all(np.isfinite(x.grad))

        p = lstm_params(rng, 3, 4, 2, rg=True)
        for _, _, b in p.layers:
            b.data[:] = pre
        seq = t(rng.standard_normal((5, 3)), rg=True)
        out = L.lstm_forward(seq, p)
        backward(out.sum())
        assert np.all(np.abs(out.data) <= 1.0)
        assert np.all(np.isfinite(seq.grad))
