"""Model topology: parameter accounting, shape contracts, variant behavior."""

import itertools
import struct
import threading
import zlib

import numpy as np
import pytest

from hdrs import layers as L
from hdrs import model as M
from hdrs import tensor as T
from hdrs.checkpoint import (Corrupt, FormatVersionMismatch, config_from_text, config_text,
                             load_container, save_container)
from hdrs.dsp import downsample_4x, upsample_4x
from hdrs.loss import loss_total
from hdrs.tensor import Tensor, backward
from oracles import finite_difference_grad, rel_grad_error


def tiny_cfg(variant="hd_demucs", hidden=4, depth=3, sr=16000):
    return M.ModelConfig(hidden_ch=hidden, depth=depth, variant=variant, sample_rate=sr)


SIGNALS = ("y_up", "x_hat_up", "mask", "refined", "w")


def traced_forward(y, params, cfg, **kw):
    """``forward`` plus its 4x-rate signals, stitched from the ``on_window``
    calls: (x_hat, {name: array or None}, number of calls). The windows must
    tile the padded input in order, each called on the calling thread."""
    calls, caller = [], threading.get_ident()
    x_hat = M.forward(y, params, cfg, on_window=lambda start, sigs: calls.append(
        (start, [None if s is None else s.copy() for s in sigs], threading.get_ident())), **kw)
    end = 0
    for start, sigs, thread in calls:
        assert thread == caller
        assert start == end
        assert sigs[0].shape[-1] > 0
        end += sigs[0].shape[-1]
        assert all(s is None or s.shape == sigs[0].shape for s in sigs)
    signals = {}
    for i, name in enumerate(SIGNALS):
        parts = [sigs[i] for _, sigs, _ in calls]
        signals[name] = None if parts[0] is None else np.concatenate(parts, axis=-1)
    return x_hat, signals, len(calls)


MODES = ("inline", "pipelined")


def set_windows(monkeypatch, cfg, frames, mode):
    """No-grad forwards in windows of ``frames`` bottleneck frames, their
    encoder and LSTM run on the calling thread ("inline") or one window
    ahead on a helper ("pipelined"), where two windows in flight share
    ``_WINDOW_BYTES``."""
    pipelined = mode == "pipelined"
    monkeypatch.setattr(M, "_PIPELINE_WIDTH", 0 if pipelined else 1 << 30)
    monkeypatch.setattr(M, "_WINDOW_BYTES", (1 + pipelined) * frames * 4 * M.frame_width(cfg))


class TestParamCounts:
    # frozen totals for the reference sizes; tolerance bands follow the
    # 18M / 33M / 24M targets
    def test_baseline_48(self):
        n = M.count_params(M.ModelConfig(hidden_ch=48, variant="demucs_baseline"))
        assert n == 18_861_793
        assert abs(n - 18e6) <= 0.10 * 18e6

    def test_baseline_64(self):
        n = M.count_params(M.ModelConfig(hidden_ch=64, variant="demucs_baseline"))
        assert n == 33_525_377
        assert abs(n - 33e6) <= 0.10 * 33e6

    def test_hd_48(self):
        n = M.count_params(M.ModelConfig(hidden_ch=48))
        assert n == 23_571_587
        assert abs(n - 24e6) <= 0.15 * 24e6

    def test_dual_decoder_overhead_is_exactly_extra_submodules(self):
        hd = M.ModelConfig(hidden_ch=48)
        base = M.ModelConfig(hidden_ch=48, variant="demucs_baseline")
        extra = M.count_params(hd, "dr.") + M.count_params(hd, "fusion.")
        assert M.count_params(hd) > M.count_params(base)
        assert M.count_params(hd) - M.count_params(base) == extra

    def test_counts_match_materialized_params(self):
        cfg = tiny_cfg()
        params = M.init_params(cfg, 0)
        assert sum(p.size for p in params.values()) == M.count_params(cfg)


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = tiny_cfg()
        a = M.init_params(cfg, 7)
        b = M.init_params(cfg, 7)
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)

    def test_distinct_seeds_differ(self):
        cfg = tiny_cfg()
        a = M.init_params(cfg, 7)
        b = M.init_params(cfg, 8)
        assert any(not np.array_equal(a[k].data, b[k].data) for k in a)

    def test_fan_in_bound_and_zero_biases(self):
        cfg = tiny_cfg()
        params = M.init_params(cfg, 3)
        for name, shape, fan_in in M.param_shapes(cfg):
            if fan_in:
                assert np.max(np.abs(params[name].data)) <= 1 / np.sqrt(fan_in)
            else:
                assert np.all(params[name].data == 0)


class TestConfigValidation:
    def test_variant_checked(self):
        with pytest.raises(ValueError):
            M.ModelConfig(variant="bogus")

    def test_dilation_count_checked(self):
        with pytest.raises(ValueError):
            M.ModelConfig(depth=3, refinement_dilations=(1, 3))

    def test_even_dilations_rejected_by_padding_rule(self):
        with pytest.raises(ValueError):
            M.ModelConfig(depth=2, refinement_dilations=(1, 2))

    def test_default_dilations_trimmed_to_depth(self):
        assert M.ModelConfig(depth=3).refinement_dilations == (1, 3, 5)

    def test_dilated_span_grows(self):
        cfg = M.ModelConfig()
        spans = [d * (M.KERNEL - 1) + 1 for d in cfg.refinement_dilations]
        assert spans == [8, 22, 36, 50, 64]

    def test_round_trip_text_dict(self):
        for variant in M.VARIANTS:
            cfg = M.ModelConfig(hidden_ch=12, depth=4, variant=variant)
            assert config_from_text(M.ModelConfig, "model", config_text(cfg, "model")) == cfg

    def test_default_text_is_pinned(self):
        """The checkpoint text of the default config, key order included."""
        assert list(config_text(M.ModelConfig(), "model").items()) == [
            ("model.hidden_ch", "48"), ("model.depth", "5"),
            ("model.refinement_dilations", "1,3,5,7,9"), ("model.variant", "hd_demucs"),
            ("model.sample_rate", "16000")]

    def test_text_reader_parses_annotations(self):
        text = {"model.refinement_dilations": "1, 3,5", "model.depth": "3",
                "model.variant": "no_fusion", "train.lr": "0.5"}
        cfg = config_from_text(M.ModelConfig, "model", text)
        assert cfg == M.ModelConfig(depth=3, refinement_dilations=(1, 3, 5),
                                    variant="no_fusion")
        with pytest.raises(ValueError, match="unknown key 'bogus'"):
            config_from_text(M.ModelConfig, "model", {"model.bogus": "1"})


class TestEncode:
    def test_bottleneck_time_length(self):
        cfg = tiny_cfg(hidden=2, depth=5)
        params = M.init_params(cfg, 0, np.float64)
        n = 3
        h = Tensor(np.random.default_rng(0).standard_normal((1, 4 ** 5 * n)))
        bottleneck, skips = M.encode(h, params, cfg)
        assert bottleneck.shape == (2 * 2 ** 4, n)
        assert len(skips) == 5

    def test_invalid_length(self):
        cfg = tiny_cfg(hidden=2, depth=2)
        params = M.init_params(cfg, 0, np.float64)
        with pytest.raises(M.InvalidLength):
            M.encode(Tensor(np.zeros((1, 30))), params, cfg)

    def test_zero_input_zero_bottleneck(self):
        cfg = tiny_cfg(hidden=2, depth=2)
        params = M.init_params(cfg, 1, np.float64)
        bottleneck, skips = M.encode(Tensor(np.zeros((1, 64))), params, cfg)
        assert np.max(np.abs(bottleneck.data)) == 0
        assert all(np.max(np.abs(s.data)) == 0 for s in skips)

    def test_gradient_through_encode(self):
        cfg = tiny_cfg(hidden=2, depth=2)
        params = M.init_params(cfg, 2, np.float64)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((1, 32))
        names = list(params)
        mix = None

        def run(x, arrays):
            q = {k: Tensor(v) for k, v in zip(names, arrays)}
            out, _ = M.encode(Tensor(x), q, cfg)
            return float((out.data * mix).sum())

        xt = Tensor(x0, requires_grad=True)
        out, _ = M.encode(xt, params, cfg)
        mix = rng.standard_normal(out.shape)
        backward((out * Tensor(mix)).sum())

        base = [params[k].data.copy() for k in names]
        assert rel_grad_error(xt.grad, finite_difference_grad(
            lambda x: run(x, base), x0)) < 1e-4
        for i, k in enumerate(names):
            def f(arr, i=i):
                arrays = list(base)
                arrays[i] = arr
                return run(x0, arrays)

            grad = params[k].grad if params[k].grad is not None else np.zeros_like(base[i])
            assert rel_grad_error(grad, finite_difference_grad(f, base[i])) < 1e-4, k


class TestForward:
    @pytest.mark.parametrize("length", [1000, 4096, 16000])
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_output_length_and_ranges(self, variant, length):
        cfg = tiny_cfg(variant, hidden=2, depth=5)
        params = M.init_params(cfg, 5, np.float32)
        rng = np.random.default_rng(length)
        x = (rng.standard_normal(length) * 0.2).astype(np.float32)
        with T.no_grad():
            x_hat, sig, _ = traced_forward(x, params, cfg)
        assert x_hat.shape == (length,)
        assert np.all(np.isfinite(x_hat.data))
        assert (sig["mask"] is None) == (variant in ("demucs_baseline", "refinement_only"))
        assert (sig["w"] is None) == (variant != "hd_demucs")
        if sig["mask"] is not None:
            assert sig["mask"].min() >= 0.0 and sig["mask"].max() <= 1.0
        if sig["w"] is not None:
            assert sig["w"].min() > 0.0 and sig["w"].max() < 1.0

    def test_zero_input_zero_output(self):
        cfg = tiny_cfg(hidden=2, depth=3)
        params = M.init_params(cfg, 9, np.float64)
        with T.no_grad():
            x_hat = M.forward(np.zeros(1000), params, cfg)
        assert np.max(np.abs(x_hat.data)) < 1e-6

    def test_scaling_symmetry(self):
        cfg = tiny_cfg(hidden=2, depth=3)
        params = M.init_params(cfg, 11, np.float64)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(2000) * 0.3
        with T.no_grad():
            out1 = M.forward(x, params, cfg).data
            out3 = M.forward(3.0 * x, params, cfg).data
        scale = np.max(np.abs(3.0 * out1)) + 1e-12
        assert np.max(np.abs(out3 - 3.0 * out1)) / scale < 1e-3

    def test_empty_input(self):
        cfg = tiny_cfg(hidden=2, depth=2)
        params = M.init_params(cfg, 0)
        with pytest.raises(M.EmptyInput):
            M.forward(np.zeros(0), params, cfg)

    def test_no_fusion_equals_bypassed_fusion(self):
        # direct construction: same decoder weights, fused path pinned at 0.5
        hd_cfg = tiny_cfg("hd_demucs", hidden=2, depth=3)
        hd_params = M.init_params(hd_cfg, 21, np.float64)
        nf_cfg = tiny_cfg("no_fusion", hidden=2, depth=3)
        nf_params = {name: hd_params[name] for name, _, _ in M.param_shapes(nf_cfg)}
        rng = np.random.default_rng(22)
        x = rng.standard_normal(1500)
        with T.no_grad():
            a = M.forward(x, hd_params, hd_cfg, w_override=0.5).data
            b = M.forward(x, nf_params, nf_cfg).data
        np.testing.assert_array_equal(a, b)

    def test_no_skip_variant_differs_from_full(self):
        cfg_full = tiny_cfg("no_fusion", hidden=2, depth=3)
        cfg_cut = tiny_cfg("no_fusion_no_skip", hidden=2, depth=3)
        params = M.init_params(cfg_full, 4, np.float64)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1200)
        with T.no_grad():
            a = M.forward(x, params, cfg_full).data
            b = M.forward(x, params, cfg_cut).data
        assert not np.allclose(a, b)

    def test_suppression_only_never_amplifies(self):
        cfg = tiny_cfg("suppression_only", hidden=2, depth=3)
        params = M.init_params(cfg, 6, np.float64)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(2000) * 0.4
        with T.no_grad():
            x_hat, sig, _ = traced_forward(x, params, cfg)
            # identity path through the same resampler round trip
            ref = downsample_4x(sig["y_up"]).data[:2000] * (x.std() + M.STD_FLOOR)
        assert np.all(np.abs(x_hat.data) <= np.abs(ref) + 1e-3)

    def test_masked_magnitude_bounded_by_input_in_up_domain(self):
        cfg = tiny_cfg("suppression_only", hidden=2, depth=3)
        params = M.init_params(cfg, 8, np.float64)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1024)
        with T.no_grad():
            _, sig, _ = traced_forward(x, params, cfg)
        assert np.all(np.abs(sig["x_hat_up"]) <= np.abs(sig["y_up"]) + 1e-12)

    def test_branch_signals_match_upsampled_length(self):
        cfg = tiny_cfg(hidden=2, depth=3)
        params = M.init_params(cfg, 10, np.float64)
        _, sig, calls = traced_forward(np.random.default_rng(11).standard_normal(900),
                                       params, cfg)  # recording: one call
        assert calls == 1
        assert sig["y_up"].shape == (4 * 960,)  # padded to whole 64-sample frames
        for name in SIGNALS:
            assert sig[name].shape == sig["y_up"].shape, name


class TestBatchedForward:
    @pytest.mark.parametrize("w_override", [0.5, None])
    def test_batch_equals_mean_of_items(self, w_override):
        """One [2, N] forward and backward equals the mean of the two per-item
        runs: the loss and every parameter gradient, in float32 as trained.
        The gradient tolerance is 1e-5 of each tensor's largest entry, since
        float32 sums cancel on its near-zero entries."""
        cfg = tiny_cfg(hidden=4, depth=3)
        rng = np.random.default_rng(40)
        t = np.arange(4000) / 16000
        clean = np.stack([0.3 * np.sin(2 * np.pi * 220 * t),
                          0.2 * np.sin(2 * np.pi * 330 * t) + 0.1 * np.sin(2 * np.pi * 95 * t)])
        dist = (clean + 0.1 * rng.standard_normal(clean.shape)).astype(np.float32)
        clean = clean.astype(np.float32)

        def run(y, x):
            params = M.init_params(cfg, 41, np.float32)
            rep = loss_total(Tensor(x), M.forward(y, params, cfg, w_override=w_override))
            backward(rep.tensor)
            return rep.total, {k: np.zeros_like(p.data) if p.grad is None else p.grad
                               for k, p in params.items()}

        total, grads = run(dist, clean)
        items = [run(dist[i], clean[i]) for i in range(2)]
        assert total == pytest.approx((items[0][0] + items[1][0]) / 2, rel=1e-5)
        for k, g in grads.items():
            want = (items[0][1][k] + items[1][1][k]) / 2
            np.testing.assert_allclose(g, want, rtol=1e-5,
                                       atol=1e-5 * float(np.max(np.abs(want))), err_msg=k)


class TestInferenceMemory:
    # Traced heap peak of a no-grad hd_demucs forward at H=8, depth 3 on 2 s
    # of audio, in MiB: 7.6 with each decoder input freed after its last
    # read, 9.3 when the skips and suppression-block inputs stay alive to
    # the end of the decoders (numpy 2.4).
    PEAK_BOUND_MB = 8.5

    def test_no_grad_forward_peak_bounded(self):
        import tracemalloc
        cfg = tiny_cfg(hidden=8, depth=3)
        params = M.init_params(cfg, 0)
        y = np.random.default_rng(40).standard_normal(32000).astype(np.float32) * 0.1
        with T.no_grad():
            tracemalloc.start()
            try:
                M.forward(y, params, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak / 2**20 < self.PEAK_BOUND_MB

    def test_no_grad_forward_peak_flat_in_windows(self, monkeypatch):
        """Over 8 windows the traced heap peak is within 10% of the 2-window
        peak: a windowed forward keeps no whole-file array at the 4x rate,
        only ``x_hat`` (2.28 against 2.17 MB at numpy 2.4). In one pass it
        grows about 4x (2.14 -> 7.95 MB). The input is made before tracing
        starts: it is the caller's, not the forward's."""
        import tracemalloc
        cfg = tiny_cfg(hidden=8, depth=3)
        params = M.init_params(cfg, 0)
        frames = 250  # of 64 upsampled samples: 4000 input samples a window
        monkeypatch.setattr(M, "_WINDOW_BYTES", frames * 4 * M.frame_width(cfg), raising=False)

        def y(n):
            return np.random.default_rng(40).standard_normal(n).astype(np.float32) * 0.1

        def peak(n):
            x = y(n)
            with T.no_grad():
                tracemalloc.start()
                try:
                    M.forward(x, params, cfg)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        # the first forward in a process builds and keeps the float32 resampling
        # kernels (dsp._sinc_kernels); build them before either traced forward
        with T.no_grad():
            M.forward(y(8000), params, cfg)
        assert peak(32000) <= 1.1 * peak(8000)

    def test_pipelined_forward_peak_flat_in_windows(self, monkeypatch):
        """The pipelined forward's two windows in flight share the budget:
        over 8 windows of the budget its traced heap peak, on both threads,
        is within 10% of its 2-window peak and of the inline peak over the
        same 8 windows (2.07 against 1.97 and 2.27 MB at numpy 2.4).

        Where the caller's fusion block meets the helper's encoder, which
        depends on how the threads interleave, a forward peaks higher: 2.24
        and 2.31 MB in 2 of 65 forwards over 8 windows. So each peak is the
        least of three forwards."""
        import tracemalloc
        cfg = tiny_cfg(hidden=8, depth=3)
        params = M.init_params(cfg, 0)

        def y(n):
            return np.random.default_rng(40).standard_normal(n).astype(np.float32) * 0.1

        def peak(n, mode):
            set_windows(monkeypatch, cfg, 250 if mode == "inline" else 125, mode)
            x = y(n)
            peaks = []
            for _ in range(3):
                with T.no_grad():
                    tracemalloc.start()
                    try:
                        M.forward(x, params, cfg)
                        peaks.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
            return min(peaks)

        with T.no_grad():
            M.forward(y(8000), params, cfg)  # builds the resampling kernels
        pipelined = peak(32000, "pipelined")
        assert pipelined <= 1.1 * peak(8000, "pipelined")
        assert pipelined <= 1.1 * peak(32000, "inline")

    def test_small_model_windows_bound_peak(self):
        """At H=4 windows are sized by ``frame_width``'s fusion term, 3.84 s
        long, and bound the peak: 15.9 MB at 24 s against 14.9 MB at 8 s,
        where windows sized by the widest mix-conv output alone (30.7 s
        long) read 54.3 against 18.5 MB (numpy 2.4)."""
        import tracemalloc
        cfg = tiny_cfg()
        params = M.init_params(cfg, 0)

        def peak(seconds):
            y = np.random.default_rng(40).standard_normal(16000 * seconds).astype(np.float32)
            y *= 0.1
            with T.no_grad():
                tracemalloc.start()
                try:
                    M.forward(y, params, cfg)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert peak(24) <= 1.5 * peak(8)

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_no_grad_and_recording_outputs_byte_equal(self, monkeypatch, variant):
        """In float32 as restored, a one-window no-grad forward gives the
        recording forward's bits: x_hat and each 4x-rate signal. The fusion
        stack runs in 7 blocks of its 6144 samples, so both modes cross
        block edges."""
        monkeypatch.setattr(M, "_FUSION_BLOCK", 1000)
        cfg = tiny_cfg(variant)
        params = M.init_params(cfg, 41)
        y = np.random.default_rng(42).standard_normal((2, 1500)).astype(np.float32)
        with T.no_grad():
            quiet, got, calls = traced_forward(y, params, cfg)
        recorded, want, _ = traced_forward(y, params, cfg)
        assert recorded._parents
        assert calls == 1
        assert quiet.data.tobytes() == recorded.data.tobytes()
        for name in SIGNALS:
            assert (got[name] is None) == (want[name] is None), name
            if want[name] is not None:
                assert got[name].tobytes() == want[name].tobytes(), name


class TestTrainingMemory:
    """Backward over a drill-config joint-phase loss: H=4, depth 3, [2, 4000]."""
    # Traced backward peak over the forward-plus-loss tape: 1.81 when every
    # node keeps its grad, closure and parents to the end of the sweep, 1.15
    # with them released as the sweep passes (numpy 2.4).
    PEAK_OVER_TAPE = 1.4

    @staticmethod
    def drill_loss():
        cfg = tiny_cfg()
        params = M.init_params(cfg, 50)
        rng = np.random.default_rng(51)
        clean = (rng.standard_normal((2, 4000)) * 0.3).astype(np.float32)
        dist = (clean + 0.1 * rng.standard_normal(clean.shape)).astype(np.float32)
        x_hat = M.forward(dist, params, cfg)
        return params, x_hat, loss_total(Tensor(clean, dtype=np.float32), x_hat).tensor

    def test_backward_releases_tape_and_keeps_leaf_grads(self):
        params, x_hat, root = self.drill_loss()
        assert x_hat._parents
        backward(root)
        for name, p in params.items():
            assert p.grad is not None and p.grad.shape == p.shape, name
        np.testing.assert_array_equal(root.grad, np.ones_like(root.data))
        assert x_hat.grad is None and x_hat._backward is None and x_hat._parents == ()

    def test_backward_peak_bounded_by_tape(self):
        import tracemalloc
        tracemalloc.start()
        try:
            _, _, root = self.drill_loss()
            tape = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_OVER_TAPE * tape

    def test_no_view_made_by_as_strided(self, monkeypatch):
        """A drill-config forward, loss and backward, and a no-grad forward,
        build every strided view by ``tensor.strided_view``, none by numpy's
        ``as_strided``, whose __array_interface__ round trip regrows the
        interpreter's table of interned strings every ten thousand or so
        calls. ``sliding_window_view`` calls it too."""
        def refuse(*a, **kw):
            raise AssertionError("as_strided called")

        monkeypatch.setitem(np.lib.stride_tricks.as_strided.__globals__, "as_strided", refuse)
        params, _, root = self.drill_loss()
        backward(root)
        with T.no_grad():
            M.forward(np.random.default_rng(52).standard_normal((2, 4000)), params, tiny_cfg())

    # Traced backward peak of one stride-4 conv over its input's bytes. The
    # input gradient is 1x; the transposed conv also pads a copy of its
    # output gradient, 2x here. Beyond those the backward holds one
    # im2col or tap-product block at a time: 1.05 and 3.08 (numpy 2.4),
    # against 5.0 and 7.0 for a full-length im2col and tap-product pair.
    @pytest.mark.parametrize("op,x_shape,peak_over_input", [
        ("conv1d", (2, 16, 16384), 1.5),
        ("conv_transpose1d", (2, 32, 4096), 3.5),
    ])
    def test_strided_conv_backward_peak_bounded_by_input(self, monkeypatch, op, x_shape,
                                                          peak_over_input):
        import tracemalloc
        monkeypatch.setattr(L, "_IM2COL_BYTES", 64 << 10)
        rng = np.random.default_rng(52)
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True, dtype=np.float32)
        w = Tensor(rng.standard_normal((32, 16, 8)), requires_grad=True, dtype=np.float32)
        y = getattr(L, op)(x, L.Conv1dParams(w, None, stride=4, padding=2))
        g = rng.standard_normal(y.shape).astype(np.float32)
        tracemalloc.start()
        try:
            y._backward(g)  # this op's backward alone, given its output gradient
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert peak <= peak_over_input * x.data.nbytes, peak / x.data.nbytes


class TestWindowedForward:
    """A no-grad forward against the recording forward's one pass, in
    float64: ``x_hat`` and every 4x-rate signal stitched from ``on_window``
    byte-equal in one window, and in several within 1e-15 of each one's
    peak: a window's shorter matrix products round a few values otherwise,
    by up to 0.07 of the peak's float64 epsilon where measured."""
    # Depth-3 frames are 16 input samples, and inputs are padded to whole
    # multiples of 4 frames. With 7-frame windows, 448 samples are exactly 4
    # windows, 449 samples add a fifth window of 4 frames, 576 samples end
    # in a window of 1 frame, shorter than every variant's halo, and the last
    # window of 520 samples lies wholly in the padding.
    WINDOW = 7
    LENGTHS = {448: 4, 449: 5, 576: 6, 520: 6}

    @pytest.mark.parametrize("w_override", [None, 0.5])
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_windows_match_one_pass(self, monkeypatch, variant, lead, w_override):
        cfg = tiny_cfg(variant)
        params = M.init_params(cfg, 43, np.float64)
        assert sum(M.halo_frames(cfg)) > 1
        calls = []
        encode = M.encode
        monkeypatch.setattr(M, "encode", lambda *a: calls.append(1) or encode(*a))
        rng = np.random.default_rng(44)
        for n, windows in self.LENGTHS.items():
            y = rng.standard_normal(lead + (n,)) * 0.3
            recorded, want, _ = traced_forward(y, params, cfg, w_override=w_override)
            for frames, mode in itertools.product((10**6, self.WINDOW), MODES):
                set_windows(monkeypatch, cfg, frames, mode)
                calls.clear()
                with T.no_grad():
                    x_hat, got, _ = traced_forward(y, params, cfg, w_override=w_override)
                assert len(calls) == (1 if frames > self.WINDOW else windows)
                got["x_hat"], want["x_hat"] = x_hat.data, recorded.data
                if mode == "inline":
                    inline = got
                else:  # the same windows give the same bits in either mode
                    for name, a in inline.items():
                        assert (a is None) == (got[name] is None), name
                        assert a is None or a.tobytes() == got[name].tobytes(), (name, n)
                for name, a in want.items():
                    b = got[name]
                    assert (a is None) == (b is None), name
                    if a is None:
                        continue
                    assert a.shape == b.shape, name
                    if frames > self.WINDOW:
                        assert a.tobytes() == b.tobytes(), (name, n)
                    else:
                        err = np.max(np.abs(a - b))
                        assert err <= 1e-15 * np.max(np.abs(a)), (name, n, err)

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_resampling_per_window_matches_whole_file(self, monkeypatch, lead):
        """Per-window normalisation and resampling give the bits of the
        whole-file arithmetic they replace: ``y_up`` equals the upsampled,
        normalised, padded input, and ``x_hat`` the decimated stitched core,
        in float32 as restored, so no restored 16-bit sample differs. Inline
        and pipelined windows give the same bits."""
        cfg = tiny_cfg(hidden=8)
        params = M.init_params(cfg, 49)
        y = (np.random.default_rng(50).standard_normal(lead + (9001,)) * 0.4).astype(np.float32)
        runs = []
        for mode in MODES:
            set_windows(monkeypatch, cfg, 37, mode)
            with T.no_grad():
                x_hat, sig, calls = traced_forward(y, params, cfg)
                x = Tensor(y)
                sigma = T.std(x, -1, keepdims=True)
                xn = T.pad_axis(x / (sigma + M.STD_FLOOR), -1, 0, (-9001) % 64)
                want_up = upsample_4x(xn).data
                want = downsample_4x(sig["x_hat_up"]).data[..., :9001] * sigma.data
            assert calls > 1
            np.testing.assert_array_equal(sig["y_up"], want_up)
            np.testing.assert_array_equal(x_hat.data, want)
            runs.append([x_hat.data] + [sig[name] for name in SIGNALS])
        for name, a, b in zip(("x_hat",) + SIGNALS, *runs):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("case", ["clean", "on_window raises", "on_window interrupted",
                                      "encode raises", "encode raises on the first window"])
    def test_no_thread_outlives_forward(self, monkeypatch, case):
        """A pipelined forward's helper, a thread named ``hdrs-encode...``,
        is joined before ``forward`` returns or raises: after a clean run,
        an exception or a KeyboardInterrupt from ``on_window`` on the second
        window, and an exception from ``encode`` on the third or the first.
        The caller sees the original exception, and the helper stops after
        the window it is on: the third, or the first."""
        cfg = tiny_cfg()
        params = M.init_params(cfg, 47)
        set_windows(monkeypatch, cfg, self.WINDOW, "pipelined")
        before = set(threading.enumerate())
        seen, names = [], set()
        err = {"on_window raises": ValueError("on_window"),
               "on_window interrupted": KeyboardInterrupt(),
               "encode raises": ValueError("encode"),
               "encode raises on the first window": ValueError("encode")}.get(case)
        fails_at = {"encode raises": 3, "encode raises on the first window": 1}.get(case)
        encode = M.encode

        def counted(*a):
            seen.append(set(threading.enumerate()) - before)
            names.add(threading.current_thread().name)
            if len(seen) == fails_at:
                raise err
            return encode(*a)

        def on_window(start, sigs):
            if case.startswith("on_window") and start > 0:
                raise err

        monkeypatch.setattr(M, "encode", counted)
        y = np.random.default_rng(48).standard_normal(576)  # 6 windows
        with T.no_grad():
            if err is None:
                M.forward(y, params, cfg, on_window=on_window)
            else:
                with pytest.raises(type(err)) as info:
                    M.forward(y, params, cfg, on_window=on_window)
                assert info.value is err
        assert len(seen) == (6 if err is None else fails_at or 3)
        assert all(seen)  # each encode ran on the helper
        assert len(names) == 1 and names.pop().startswith("hdrs-encode")
        assert set(threading.enumerate()) == before

    def test_recording_forward_runs_in_one_pass(self, monkeypatch):
        cfg = tiny_cfg()
        params = M.init_params(cfg, 45, np.float64)
        monkeypatch.setattr(M, "_WINDOW_BYTES", self.WINDOW * 4 * M.frame_width(cfg))
        calls = []
        encode = M.encode
        monkeypatch.setattr(M, "encode", lambda *a: calls.append(1) or encode(*a))
        M.forward(np.random.default_rng(46).standard_normal(576), params, cfg)
        assert len(calls) == 1


class TestFuse:
    def _setup(self, seed):
        cfg = tiny_cfg(hidden=2, depth=2)
        params = M.init_params(cfg, seed, np.float64)
        rng = np.random.default_rng(seed)
        refined = Tensor(rng.standard_normal((1, 64)))
        masked = Tensor(rng.standard_normal((1, 64)))
        return cfg, params, refined, masked

    def test_saturated_gate_selects_refined(self):
        cfg, params, refined, masked = self._setup(31)
        params["fusion.2.b"].data[:] = 60.0  # drive sigmoid to ~1
        w, out = M.fuse(refined, masked, params, cfg)
        assert w.data.min() > 1 - 1e-12
        np.testing.assert_allclose(out.data, refined.data, atol=1e-10)

    def test_equal_branches_are_fixed_point(self):
        cfg, params, refined, _ = self._setup(32)
        same = Tensor(refined.data.copy())
        _, out = M.fuse(refined, same, params, cfg)
        np.testing.assert_allclose(out.data, refined.data, atol=1e-12)

    def test_convex_combination(self):
        cfg, params, refined, masked = self._setup(33)
        w, out = M.fuse(refined, masked, params, cfg)
        want = w.data * refined.data + (1 - w.data) * masked.data
        np.testing.assert_array_equal(out.data, want)

    @staticmethod
    def six_op_fuse(refined, masked, params):
        """The oracle: the fusion stack as six tape ops over whole arrays."""
        h = T.concat([refined, masked], axis=-2)
        for j in range(3):
            h = L.conv1d(h, M._conv(params, f"fusion.{j}", padding=1))
            h = T.leaky_relu(h, 0.01) if j < 2 else T.sigmoid(h)
        return h, h * refined + (1.0 - h) * masked

    @staticmethod
    def fusion_case(seed, shape):
        """float64 fusion params with nonzero biases, branch signals of
        ``shape`` and weights for a loss over both of fuse's outputs."""
        cfg = tiny_cfg(hidden=2, depth=2)
        params = M.init_params(cfg, seed, np.float64)
        rng = np.random.default_rng(seed)
        for j in range(3):
            params[f"fusion.{j}.b"].data[:] = rng.uniform(-0.5, 0.5, params[f"fusion.{j}.b"].shape)
        refined, masked = (Tensor(rng.standard_normal(shape), requires_grad=True)
                           for _ in range(2))
        loss_w = [rng.standard_normal(shape) for _ in range(2)]
        return cfg, params, refined, masked, loss_w

    @pytest.mark.parametrize("block", [1, 5, 8, 10**6])
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_blocks_match_six_op_stack(self, monkeypatch, block, lead):
        """w, x_hat_up and every gradient equal the six-op stack's within
        1e-12 of their peak, at lengths shorter than the halo, across one
        block edge and across several; 10**6 is one block for every length."""
        monkeypatch.setattr(M, "_FUSION_BLOCK", block)
        b = 8 if block > 8 else block
        for n in sorted({1, 2, 3, 7, b - 1, b, b + 1, 3 * b + 2} - {0}):
            cfg, params, refined, masked, loss_w = self.fusion_case(60 + n, lead + (1, n))
            fusion = {k: p for k, p in params.items() if k.startswith("fusion.")}
            runs = []
            for fn in (lambda r, m: M.fuse(r, m, params, cfg),
                       lambda r, m: self.six_op_fuse(r, m, params)):
                for t in [refined, masked] + list(fusion.values()):
                    t.grad = None
                w, out = fn(refined, masked)
                backward((w * loss_w[0] + out * loss_w[1]).sum())
                runs.append([w.data, out.data, refined.grad, masked.grad]
                            + [p.grad for p in fusion.values()])
            names = ["w", "x_hat_up", "refined", "masked"] + list(fusion)
            for name, got, want in zip(names, *runs):
                assert got.shape == want.shape, (name, n)
                err = np.max(np.abs(got - want))
                assert err <= 1e-12 * np.max(np.abs(want)), (name, n, err)

    def test_gradients_match_finite_differences(self, monkeypatch):
        monkeypatch.setattr(M, "_FUSION_BLOCK", 5)
        cfg, params, refined, masked, loss_w = self.fusion_case(70, (1, 23))
        tensors = {"refined": refined, "masked": masked}
        tensors.update((k, p) for k, p in params.items() if k.startswith("fusion."))
        w, _ = M.fuse(refined, masked, params, cfg)
        backward((w * loss_w[0]).sum())
        for name, t in tensors.items():
            def f(x, t=t):
                saved, t.data = t.data, x
                try:
                    with T.no_grad():
                        return float((M.fuse(refined, masked, params, cfg)[0].data
                                      * loss_w[0]).sum())
                finally:
                    t.data = saved
            assert rel_grad_error(t.grad, finite_difference_grad(f, t.data.copy())) < 1e-7, name

    def test_no_grad_peak_is_a_few_signals(self):
        """A no-grad fuse holds no fusion_ch-channel array of the signal's
        length: its traced peak on 400000 samples is 4.3 single-channel
        arrays (numpy 2.4), w and the mix's temporaries, against 50.6 for
        the six-op stack."""
        import tracemalloc
        cfg = tiny_cfg()
        params = M.init_params(cfg, 71)
        rng = np.random.default_rng(72)
        refined, masked = (Tensor(rng.standard_normal((1, 1, 400000)).astype(np.float32))
                           for _ in range(2))
        with T.no_grad():
            tracemalloc.start()
            try:
                M.fuse(refined, masked, params, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 8 * refined.data.nbytes, peak / refined.data.nbytes


def _section(body: bytes) -> bytes:
    """One container section: u64 length, ``body``, CRC32 of ``body``."""
    return struct.pack("<Q", len(body)) + body + struct.pack("<I", zlib.crc32(body))


def _container(params_body: bytes, moments_body: bytes = struct.pack("<I", 0)) -> bytes:
    """Format-2 bytes with empty text and the given array section bodies."""
    return b"HDRS" + struct.pack("<I", 2) + b"".join(
        map(_section, (b"", params_body, moments_body)))


def _short_record(name: bytes) -> bytes:
    """An array section body whose one record claims 10 floats but carries 3."""
    body = struct.pack("<II", 1, len(name)) + name + struct.pack("<IQ", 1, 10)
    return body + bytes(-len(body) % 64) + np.arange(3, dtype="<f4").tobytes()


def _section_spans(blob) -> list:
    """(start, end) of each section body of a container's bytes: text,
    parameters, moments."""
    spans, at = [], 8
    while at < len(blob):
        (n,) = struct.unpack_from("<Q", blob, at)
        spans.append((at + 8, at + 8 + n))
        at += n + 12
    return spans


def _fix_crc(blob: bytearray, k: int) -> None:
    """Recomputes the CRC of section ``k`` of ``blob`` in place."""
    start, end = _section_spans(blob)[k]
    blob[end:end + 4] = struct.pack("<I", zlib.crc32(blob[start:end]))


class TestCheckpointContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        """Both sections come back in order, bit-exact, as aligned, writeable
        float32 arrays: Adam updates the moments in place."""
        cfg = tiny_cfg()
        params = M.init_params(cfg, 17, np.float32)
        moments = {f"adam.m.{k}": np.full(p.shape, 0.25, np.float32) for k, p in params.items()}
        path = tmp_path / "model.ckpt"
        save_container(path, config_text(cfg, "model"),
                       {k: v.data for k, v in params.items()}, moments)
        text, arrays = load_container(path)
        assert config_from_text(M.ModelConfig, "model", text) == cfg
        assert list(arrays) == list(params) + list(moments)
        want = {**{k: v.data for k, v in params.items()}, **moments}
        for k, arr in arrays.items():
            assert arr.tobytes() == want[k].tobytes() and arr.shape == want[k].shape
            assert arr.dtype == np.float32
            assert arr.flags.writeable and arr.flags.aligned

    def test_save_streams_records(self, tmp_path):
        """Saving 4 MiB of arrays holds less than twice the largest array at
        once; one whole-file buffer plus its CRC copy would hold over 8 MiB."""
        import tracemalloc
        rng = np.random.default_rng(19)
        arrays = {f"a{i}": rng.standard_normal((256, 1024)).astype(np.float32)
                  for i in range(4)}
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            save_container(path, {"k": "v"}, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * max(a.nbytes for a in arrays.values())
        _, loaded = load_container(path)
        for k, a in arrays.items():
            np.testing.assert_array_equal(loaded[k], a)

    def test_zero_rank_array_round_trips(self, tmp_path):
        path = tmp_path / "scalar.ckpt"
        save_container(path, {}, {"s": np.float32(2.5)})
        _, arrays = load_container(path)
        assert arrays["s"].shape == () and arrays["s"] == np.float32(2.5)

    def test_empty_array_round_trips(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        save_container(path, {}, {"e": np.zeros((0, 3), np.float32), "s": np.float32(1)})
        _, arrays = load_container(path)
        assert arrays["e"].shape == (0, 3) and arrays["s"] == np.float32(1)

    def test_truncated_file_is_corrupt(self, tmp_path):
        """Half a file, and a whole one with bytes after its last section."""
        cfg = tiny_cfg()
        params = M.init_params(cfg, 17, np.float32)
        path = tmp_path / "model.ckpt"
        save_container(path, config_text(cfg, "model"),
                       {k: v.data for k, v in params.items()})
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(Corrupt):
            load_container(path)
        path.write_bytes(blob + b"\0")
        with pytest.raises(Corrupt, match="after the moment section"):
            load_container(path)

    def test_truncated_array_record_is_corrupt(self, tmp_path):
        """A record that claims 10 floats but carries 3, under a valid CRC."""
        path = tmp_path / "short.ckpt"
        path.write_bytes(_container(_short_record(b"w")))
        with pytest.raises(Corrupt, match="truncated"):
            load_container(path)

    @pytest.mark.parametrize("sections", [1, 2])
    def test_damaged_section_length_is_corrupt(self, tmp_path, sections):
        """A flipped high byte of the parameter section's length is refused
        before a buffer of that size is made."""
        import tracemalloc
        _, _, path = self._training_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[_section_spans(blob)[1][0] - 8 + 6] ^= 0x01  # its u64 length gains 2**48
        path.write_bytes(bytes(blob))
        tracemalloc.start()
        try:
            with pytest.raises(Corrupt, match="parameter section of .* runs past the file"):
                load_container(path, sections)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(blob)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        path.write_bytes(b"HDRS" + struct.pack("<I", 9) + _section(b"") * 3)
        with pytest.raises(FormatVersionMismatch, match="format version 9"):
            load_container(path)

    def _training_checkpoint(self, tmp_path):
        from hdrs.train import TrainConfig, TrainState, save_checkpoint
        cfg = tiny_cfg()
        params = M.init_params(cfg, 18, np.float32)
        state = TrainState(step=3, phase="warm", seed=18)
        for name, p in params.items():
            state.m[name] = np.full(p.shape, 0.25, np.float32)
            state.v[name] = np.full(p.shape, 0.5, np.float32)
        path = tmp_path / "train.ckpt"
        save_checkpoint(path, params, state, cfg, TrainConfig())
        return cfg, params, path

    @staticmethod
    def _assert_params(path, params) -> None:
        """A params-only load of ``path`` returns exactly ``params``."""
        _, arrays = load_container(path, 1)
        assert list(arrays) == list(params)
        for name, p in params.items():
            assert arrays[name].tobytes() == p.data.tobytes()

    def test_params_only_load_returns_exactly_the_params(self, tmp_path):
        from hdrs.train import load_checkpoint
        cfg, params, path = self._training_checkpoint(tmp_path)
        names = [name for name, _, _ in M.param_shapes(cfg)]
        _, arrays = load_container(path, 1)
        assert list(arrays) == names
        loaded, state, _, _ = load_checkpoint(path, moments=False)
        assert list(loaded) == names
        assert state.m == {} and state.v == {} and state.step == 3
        for name in names:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
        _, full_state, _, _ = load_checkpoint(path)
        assert list(full_state.m) == names
        assert all((m == 0.25).all() for m in full_state.m.values())

    @pytest.mark.parametrize("name, arr", [("fusion.2.b", None),
                                           ("enc.0.conv.b", np.zeros(1, np.float32))])
    def test_bad_param_array_is_corrupt(self, tmp_path, name, arr):
        """A parameter missing, or of a shape that would broadcast, is refused."""
        from hdrs.train import load_checkpoint
        _, _, path = self._training_checkpoint(tmp_path)
        text, arrays = load_container(path)
        if arr is None:
            del arrays[name]
        else:
            arrays[name] = arr
        save_container(path, text, arrays)
        with pytest.raises(Corrupt, match=name):
            load_checkpoint(path, moments=False)

    def test_flip_in_skipped_moment_is_corrupt(self, tmp_path):
        """A flipped moment byte fails a full load; a params-only load, which
        never reads the moments, returns the parameters."""
        _, params, path = self._training_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        at = blob.index(b"adam.v.") + 64  # inside the first second-moment record
        blob[at] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(Corrupt, match="moment section checksum"):
            load_container(path)
        self._assert_params(path, params)

    def test_truncated_file_is_corrupt_params_only(self, tmp_path):
        """A file missing its last 1000 bytes, all moments: a full load fails,
        a params-only load returns the parameters."""
        _, params, path = self._training_checkpoint(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 1000])
        with pytest.raises(Corrupt, match="moment section"):
            load_container(path)
        self._assert_params(path, params)

    def test_short_skipped_record_is_corrupt(self, tmp_path):
        """A moment record that claims 10 floats but carries 3, under a valid
        CRC: a full load fails, a params-only load returns the parameters."""
        path = tmp_path / "short.ckpt"
        params = struct.pack("<II", 1, 1) + b"w" + struct.pack("<I", 0)
        params += bytes(-len(params) % 64) + np.float32(1.5).tobytes()
        path.write_bytes(_container(params, _short_record(b"adam.m.w")))
        with pytest.raises(Corrupt, match="truncated"):
            load_container(path)
        assert {k: a.tolist() for k, a in load_container(path, 1)[1].items()} == {"w": 1.5}

    @pytest.mark.parametrize("field, match", [("name length", "name runs past"),
                                              ("dims", "truncated")])
    @pytest.mark.parametrize("fix_crc", [False, True])
    def test_flip_in_skipped_header_is_corrupt(self, tmp_path, field, match, fix_crc):
        """A flipped high byte in a moment record's name length or first dim
        fails a full load: "checksum mismatch" under the stale CRC, the
        structural fault under a recomputed one. A params-only load returns
        the parameters either way."""
        _, params, path = self._training_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        at = blob.index(b"adam.v.")  # the name; its u32 length ends here
        (nlen,) = struct.unpack_from("<I", blob, at - 4)
        # the length's top byte, or byte 5 of the first u64 dim after the rank
        blob[at - 1 if field == "name length" else at + nlen + 4 + 5] ^= 0x40
        if fix_crc:
            _fix_crc(blob, 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(Corrupt, match=match if fix_crc else "checksum"):
            load_container(path)
        self._assert_params(path, params)

    @pytest.mark.parametrize("bit", [16, 20])
    @pytest.mark.parametrize("fix_crc", [False, True])
    def test_flip_in_rank_is_corrupt(self, tmp_path, bit, fix_crc):
        """A rank flipped to 65537 or 1048577 in front of 9 MiB of ones, so
        its dims fit the section: "checksum mismatch" under the stale CRC;
        under a recomputed one, refused before the dims are read, not
        multiplied out of the float data."""
        path = tmp_path / "rank.ckpt"
        save_container(path, {}, {"a": np.ones(1, np.float32),
                                  "b": np.ones(9 << 18, np.float32)})
        blob = bytearray(path.read_bytes())
        at = _section_spans(blob)[1][0] + 4 + 4 + 1  # count, name length, "a"
        assert struct.unpack_from("<I", blob, at) == (1,)
        blob[at + bit // 8] ^= 1 << (bit % 8)
        if fix_crc:
            _fix_crc(blob, 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(Corrupt, match="has rank" if fix_crc else "checksum"):
            load_container(path)

    @pytest.mark.parametrize("name, arr", [("n" * 1025, np.ones(1, np.float32)),
                                           ("r", np.ones((1,) * 33, np.float32))],
                             ids=["long name", "rank 33"])
    def test_save_refuses_what_load_refuses(self, tmp_path, name, arr):
        """A name over 1024 bytes or a rank over 32 is never written."""
        path = tmp_path / "x.ckpt"
        with pytest.raises(ValueError, match="over"):
            save_container(path, {}, {name: arr})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra", [256, 1 << 20])
    def test_file_shrinking_under_reader_is_corrupt(self, tmp_path, monkeypatch, extra):
        """A file ``extra`` bytes shorter than its size when opened, whole or
        without its last 8 bytes: a full load fails, a params-only load
        returns the parameters."""
        import os
        from types import SimpleNamespace
        from hdrs import checkpoint
        _, params, path = self._training_checkpoint(tmp_path)
        blob = path.read_bytes()
        real = os.fstat
        monkeypatch.setattr(checkpoint.os, "fstat",
                            lambda fd: SimpleNamespace(st_size=real(fd).st_size + extra))
        for cut in (0, 8):
            path.write_bytes(blob[:len(blob) - cut])
            with pytest.raises(Corrupt, match="shrank"):
                load_container(path)
            self._assert_params(path, params)

    def test_failed_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_container(path, {"k": "v"}, {"a": np.ones(2, np.float32)})
        old = path.read_bytes()
        with pytest.raises(ValueError):
            save_container(path, {"k": "v"}, {"a": np.ones(2, np.float32),
                                              "b": np.array(["x"])})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.ckpt"]
        assert path.read_bytes() == old
