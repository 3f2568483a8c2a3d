"""Model topology: parameter accounting, shape contracts, variant behavior."""

import numpy as np
import pytest

from hdrs import model as M
from hdrs import tensor as T
from hdrs.checkpoint import Corrupt, FormatVersionMismatch, load_container, save_container
from hdrs.dsp import downsample_4x
from hdrs.loss import loss_total
from hdrs.tensor import Tensor, backward
from oracles import finite_difference_grad, rel_grad_error


def tiny_cfg(variant="hd_demucs", hidden=4, depth=3, sr=16000):
    return M.ModelConfig(hidden_ch=hidden, depth=depth, variant=variant, sample_rate=sr)


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
        spans = [d * (cfg.kernel - 1) + 1 for d in cfg.refinement_dilations]
        assert spans == [8, 22, 36, 50, 64]

    def test_round_trip_text_dict(self):
        cfg = M.ModelConfig(hidden_ch=12, depth=4, variant="no_fusion")
        assert M.ModelConfig.from_text_dict(cfg.to_text_dict()) == cfg


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
            trace = M.forward(x, params, cfg)
        assert trace.x_hat.shape == (length,)
        assert np.all(np.isfinite(trace.x_hat.data))
        if trace.mask is not None:
            assert trace.mask.data.min() >= 0.0 and trace.mask.data.max() <= 1.0
        if trace.w is not None:
            assert trace.w.data.min() > 0.0 and trace.w.data.max() < 1.0

    def test_zero_input_zero_output(self):
        cfg = tiny_cfg(hidden=2, depth=3)
        params = M.init_params(cfg, 9, np.float64)
        with T.no_grad():
            trace = M.forward(np.zeros(1000), params, cfg)
        assert np.max(np.abs(trace.x_hat.data)) < 1e-6

    def test_scaling_symmetry(self):
        cfg = tiny_cfg(hidden=2, depth=3)
        params = M.init_params(cfg, 11, np.float64)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(2000) * 0.3
        with T.no_grad():
            out1 = M.forward(x, params, cfg).x_hat.data
            out3 = M.forward(3.0 * x, params, cfg).x_hat.data
        scale = np.max(np.abs(3.0 * out1)) + 1e-12
        assert np.max(np.abs(out3 - 3.0 * out1)) / scale < 1e-3

    def test_empty_input(self):
        cfg = tiny_cfg(hidden=2, depth=2)
        params = M.init_params(cfg, 0)
        with pytest.raises(M.EmptyInput):
            M.forward(np.zeros(0), params, cfg)

    def test_sample_rate_mismatch(self):
        from hdrs.audio import AudioBuffer
        cfg = tiny_cfg(hidden=2, depth=2)
        params = M.init_params(cfg, 0)
        with pytest.raises(M.SampleRateMismatch):
            M.forward(AudioBuffer(np.zeros(100), 8000), params, cfg)

    def test_no_fusion_equals_bypassed_fusion(self):
        # direct construction: same decoder weights, fused path pinned at 0.5
        hd_cfg = tiny_cfg("hd_demucs", hidden=2, depth=3)
        hd_params = M.init_params(hd_cfg, 21, np.float64)
        nf_cfg = tiny_cfg("no_fusion", hidden=2, depth=3)
        nf_params = {name: hd_params[name] for name, _, _ in M.param_shapes(nf_cfg)}
        rng = np.random.default_rng(22)
        x = rng.standard_normal(1500)
        with T.no_grad():
            a = M.forward(x, hd_params, hd_cfg, w_override=0.5).x_hat.data
            b = M.forward(x, nf_params, nf_cfg).x_hat.data
        np.testing.assert_array_equal(a, b)

    def test_no_skip_variant_differs_from_full(self):
        cfg_full = tiny_cfg("no_fusion", hidden=2, depth=3)
        cfg_cut = tiny_cfg("no_fusion_no_skip", hidden=2, depth=3)
        params = M.init_params(cfg_full, 4, np.float64)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1200)
        with T.no_grad():
            a = M.forward(x, params, cfg_full).x_hat.data
            b = M.forward(x, params, cfg_cut).x_hat.data
        assert not np.allclose(a, b)

    def test_suppression_only_never_amplifies(self):
        cfg = tiny_cfg("suppression_only", hidden=2, depth=3)
        params = M.init_params(cfg, 6, np.float64)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(2000) * 0.4
        with T.no_grad():
            trace = M.forward(x, params, cfg)
            # identity path through the same resampler round trip
            ref = downsample_4x(trace.y_up).data[:2000] * (x.std() + M.STD_FLOOR)
        assert np.all(np.abs(trace.x_hat.data) <= np.abs(ref) + 1e-3)

    def test_masked_magnitude_bounded_by_input_in_up_domain(self):
        cfg = tiny_cfg("suppression_only", hidden=2, depth=3)
        params = M.init_params(cfg, 8, np.float64)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1024)
        with T.no_grad():
            trace = M.forward(x, params, cfg)
        assert np.all(np.abs(trace.x_hat_up.data) <= np.abs(trace.y_up.data) + 1e-12)

    def test_branch_signals_match_upsampled_length(self):
        cfg = tiny_cfg(hidden=2, depth=3)
        params = M.init_params(cfg, 10, np.float64)
        with T.no_grad():
            trace = M.forward(np.random.default_rng(11).standard_normal(900),
                              params, cfg)
        assert trace.mask.shape == trace.y_up.shape
        assert trace.refined.shape == trace.y_up.shape
        assert trace.w.shape == trace.y_up.shape


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
            trace = M.forward(y, params, cfg, w_override=w_override)
            rep = loss_total(Tensor(x), trace.x_hat)
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
    # of audio: 33.8 MB with each decoder input freed after its last read,
    # 37.4 MB when skips, suppression-block inputs, the transposed-conv tap
    # products and the GLU gates all stay alive (numpy 2.4).
    PEAK_BOUND_MB = 35.0

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
        """Over 8 windows the traced heap peak exceeds the 2-window peak by at
        most the stitched output arrays (x_hat_up, mask, refined, w) plus 10%
        of that peak: the window's working set does not grow with the input.
        In one pass it grows about 4x (12.3 -> 33.8 MB at numpy 2.4)."""
        import tracemalloc
        cfg = tiny_cfg(hidden=8, depth=3)
        params = M.init_params(cfg, 0)
        frames = 250  # of 64 upsampled samples: 4000 input samples a window
        monkeypatch.setattr(M, "_WINDOW_BYTES", frames * 4 * M.frame_width(cfg), raising=False)

        def peak(n):
            y = np.random.default_rng(40).standard_normal(n).astype(np.float32) * 0.1
            with T.no_grad():
                tracemalloc.start()
                try:
                    M.forward(y, params, cfg)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        stitched = 4 * (4 * 32000) * 4  # four float32 arrays at the 4x rate
        assert peak(32000) <= 1.1 * peak(8000) + stitched

    def test_small_model_windows_bound_peak(self):
        """At H=4 the 16-channel fusion stack at the 4x rate is the widest
        activation, so windows sized by it bound the peak: 90.7 MB at 24 s
        against 70.1 MB at 8 s, where windows sized by a hidden_ch activation
        (30.7 s long) read 315.6 against 110.5 MB (numpy 2.4)."""
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
    def test_no_grad_and_recording_outputs_byte_equal(self, variant):
        cfg = tiny_cfg(variant)
        params = M.init_params(cfg, 41)
        y = np.random.default_rng(42).standard_normal((2, 1500)).astype(np.float32)
        with T.no_grad():
            quiet = M.forward(y, params, cfg).x_hat
        recorded = M.forward(y, params, cfg).x_hat
        assert recorded._parents
        assert quiet.data.tobytes() == recorded.data.tobytes()


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
        trace = M.forward(dist, params, cfg)
        return params, trace, loss_total(Tensor(clean, dtype=np.float32), trace.x_hat).tensor

    def test_backward_releases_tape_and_keeps_leaf_grads(self):
        params, trace, root = self.drill_loss()
        assert trace.x_hat._parents
        backward(root)
        for name, p in params.items():
            assert p.grad is not None and p.grad.shape == p.shape, name
        np.testing.assert_array_equal(root.grad, np.ones_like(root.data))
        x_hat = trace.x_hat
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


class TestWindowedForward:
    """A no-grad forward run in several windows against the same forward in
    one window, in float64: every output array within 1e-15 of its peak."""
    # Depth-3 frames are 16 input samples, and inputs are padded to whole
    # multiples of 4 frames. With 7-frame windows, 448 samples are exactly 4
    # windows, 449 samples add a fifth window of 4 frames, and 576 samples end
    # in a window of 1 frame, shorter than every variant's halo.
    WINDOW = 7
    LENGTHS = {448: 4, 449: 5, 576: 6}

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
            traces = []
            for frames in (10**6, self.WINDOW):
                monkeypatch.setattr(M, "_WINDOW_BYTES", frames * 4 * M.frame_width(cfg))
                calls.clear()
                with T.no_grad():
                    traces.append(M.forward(y, params, cfg, w_override=w_override))
                assert len(calls) == (1 if frames > self.WINDOW else windows)
            one, windowed = traces
            for name in ("x_hat", "x_hat_up", "mask", "refined", "w"):
                a, b = getattr(one, name), getattr(windowed, name)
                assert (a is None) == (b is None), name
                if a is not None:
                    assert a.shape == b.shape, name
                    err = np.max(np.abs(a.data - b.data))
                    assert err <= 1e-15 * np.max(np.abs(a.data)), (name, n, err)

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


class TestCheckpointContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_cfg()
        params = M.init_params(cfg, 17, np.float32)
        path = tmp_path / "model.ckpt"
        save_container(path, cfg.to_text_dict(),
                       {k: v.data for k, v in params.items()})
        text, arrays = load_container(path)
        assert M.ModelConfig.from_text_dict(text) == cfg
        assert list(arrays) == list(params)
        for k in params:
            np.testing.assert_array_equal(arrays[k], params[k].data)
            assert arrays[k].dtype == np.float32

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

    def test_truncated_file_is_corrupt(self, tmp_path):
        cfg = tiny_cfg()
        params = M.init_params(cfg, 17, np.float32)
        path = tmp_path / "model.ckpt"
        save_container(path, cfg.to_text_dict(),
                       {k: v.data for k, v in params.items()})
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(Corrupt):
            load_container(path)

    def test_truncated_array_record_is_corrupt(self, tmp_path):
        """A record that claims 10 floats but carries 3, under a valid CRC."""
        import struct
        import zlib
        path = tmp_path / "short.ckpt"
        body = b"HDRS" + struct.pack("<III", 1, 0, 1) + struct.pack("<I", 1) + b"w"
        body += struct.pack("<IQ", 1, 10) + np.arange(3, dtype="<f4").tobytes()
        body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(body)
        with pytest.raises(Corrupt, match="truncated"):
            load_container(path)

    def test_version_mismatch(self, tmp_path):
        import struct
        import zlib
        path = tmp_path / "v9.ckpt"
        body = b"HDRS" + struct.pack("<I", 9) + struct.pack("<I", 0) + struct.pack("<I", 0)
        body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(body)
        with pytest.raises(FormatVersionMismatch):
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

    def test_params_only_load_returns_exactly_the_params(self, tmp_path):
        from hdrs.train import load_checkpoint
        cfg, params, path = self._training_checkpoint(tmp_path)
        names = [name for name, _, _ in M.param_shapes(cfg)]
        _, arrays = load_container(path, lambda name: not name.startswith("adam."))
        assert list(arrays) == names
        loaded, state, _, _ = load_checkpoint(path, moments=False)
        assert list(loaded) == names
        assert state.m == {} and state.v == {} and state.step == 3
        for name in names:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
        _, full_state, _, _ = load_checkpoint(path)
        assert list(full_state.m) == names
        assert all((m == 0.25).all() for m in full_state.m.values())

    def test_flip_in_skipped_moment_is_corrupt(self, tmp_path):
        _, _, path = self._training_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        at = blob.index(b"adam.v.") + 64  # inside the first second-moment record
        blob[at] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(Corrupt, match="checksum"):
            load_container(path, lambda name: not name.startswith("adam."))

    def test_truncated_file_is_corrupt_params_only(self, tmp_path):
        _, _, path = self._training_checkpoint(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 1000])
        with pytest.raises(Corrupt):
            load_container(path, lambda name: not name.startswith("adam."))

    def test_short_skipped_record_is_corrupt(self, tmp_path):
        """A skipped record that claims 10 floats but carries 3, under a valid CRC."""
        import struct
        import zlib
        path = tmp_path / "short.ckpt"
        body = b"HDRS" + struct.pack("<III", 1, 0, 1) + struct.pack("<I", 8) + b"adam.m.w"
        body += struct.pack("<IQ", 1, 10) + np.arange(3, dtype="<f4").tobytes()
        body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(body)
        with pytest.raises(Corrupt, match="truncated"):
            load_container(path, lambda name: not name.startswith("adam."))
