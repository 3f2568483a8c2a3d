"""DSP primitives against naive oracles and analytic filter facts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdrs import dsp
from hdrs.audio import AudioBuffer
from hdrs.tensor import Tensor, backward
from oracles import (LOSS_RESOLUTIONS, finite_difference_grad, naive_biquad_cascade,
                     naive_convolve_full, naive_decimate_4x, naive_dft, naive_interpolate_4x,
                     ref_si_sdr, ref_stft_input_grad, ref_stft_input_grad_complex,
                     ref_stft_mag, rel_grad_error)

SR = 16000.0
BLOCK = dsp._FILTER_BLOCK
FILTER_GRID = ([(order, kind, fc) for order in (2, 4, 6, 8)
                for kind, fc in (("lowpass", 4000.0), ("highpass", 300.0),
                                 ("bandpass", (300.0, 3400.0)))]
               + [(8, "lowpass", 100.0), (8, "lowpass", 7900.0), (8, "highpass", 10.0),
                  (8, "bandpass", (10.0, 7500.0))])


class TestFft:
    def test_impulse(self):
        np.testing.assert_allclose(dsp.fft([1, 0, 0, 0]), np.ones(3), atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(256)
        np.testing.assert_allclose(dsp.fft(dsp.fft(x, 256), 256, inverse=True), x, atol=1e-12)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        full = naive_dft(x)
        assert np.max(np.abs(dsp.fft(x) - full[:33])) < 1e-10
        assert np.max(np.abs(dsp.fft(full[:33], 64, inverse=True)
                             - naive_dft(full, inverse=True))) < 1e-10

    def test_non_power_of_two(self):
        with pytest.raises(dsp.NonPowerOfTwoLength):
            dsp.fft(np.zeros(12))

    def test_batched_axis(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 32))
        batched = dsp.fft(x)
        for i in range(3):
            np.testing.assert_allclose(batched[i], dsp.fft(x[i]), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2 ** 31 - 1))
    def test_parseval(self, log_n, seed):
        # one-sided: DC and Nyquist count once, every other bin twice
        n = 1 << log_n
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        weights = np.full(n // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        lhs = np.sum(x ** 2)
        rhs = np.sum(weights * np.abs(dsp.fft(x)) ** 2) / n
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1.0)


class TestStft:
    CFG = dsp.StftConfig(512, 50, 240)

    def test_zero_input(self):
        out = dsp.stft_magnitude(np.zeros(2000), self.CFG)
        assert out.shape == (1 + (2000 - 240) // 50, 257)
        assert np.all(out.data == 0)

    def test_too_short(self):
        with pytest.raises(dsp.TooShort):
            dsp.stft_magnitude(np.zeros(100), self.CFG)

    def test_sine_energy_concentrates_in_mainlobe(self):
        # Hann windowing spreads a bin-centered tone over the kernel mainlobe
        # (center bin alone carries 2/3 when window_len == fft_bins), so the
        # concentration check covers the mainlobe around the dominant bin.
        t = np.arange(8000) / SR
        cfg = dsp.StftConfig(256, 64, 256)
        x = np.sin(2 * np.pi * (SR * 8 / 256) * t)
        e = dsp.stft_magnitude(x, cfg).data ** 2
        frame = e[3]
        k0 = int(np.argmax(frame))
        assert k0 == 8
        assert frame[k0 - 1:k0 + 2].sum() > 0.9 * frame.sum()

        x = np.sin(2 * np.pi * (SR * 64 / 512) * t)
        e = dsp.stft_magnitude(x, self.CFG).data ** 2
        frame = e[3]
        k0 = int(np.argmax(frame))
        assert k0 == 64
        assert frame[k0 - 3:k0 + 4].sum() > 0.9 * frame.sum()

    def test_repeat_runs_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1600)
        a = dsp.stft_magnitude(x, self.CFG).data
        b = dsp.stft_magnitude(x, self.CFG).data
        np.testing.assert_array_equal(a, b)

    def test_gradient_matches_finite_differences(self):
        cfg = dsp.StftConfig(32, 8, 16)
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal(64)
        # weight the magnitudes so the gradient is not uniform
        w = rng.standard_normal((1 + (64 - 16) // 8, 17))

        def f(x):
            return float((dsp.stft_magnitude(Tensor(x), cfg).data * w).sum())

        xt = Tensor(x0, requires_grad=True)
        backward((dsp.stft_magnitude(xt, cfg) * Tensor(w)).sum())
        assert rel_grad_error(xt.grad, finite_difference_grad(f, x0)) < 1e-4

    @pytest.mark.parametrize("nfft,hop,win", LOSS_RESOLUTIONS)
    def test_gradient_equals_per_frame_overlap_add(self, nfft, hop, win):
        rng = np.random.default_rng(nfft)
        x0 = rng.standard_normal(4000)
        xt = Tensor(x0, requires_grad=True)
        mag = dsp.stft_magnitude(xt, dsp.StftConfig(nfft, hop, win))
        g = rng.standard_normal(mag.shape)
        backward((mag * Tensor(g)).sum())
        np.testing.assert_array_equal(xt.grad, ref_stft_input_grad(x0, g, nfft, hop, win))

    @pytest.mark.parametrize("nfft,hop,win", LOSS_RESOLUTIONS)
    def test_gradient_matches_complex_dft_formula(self, nfft, hop, win):
        # the real-signal backward against the full complex DFT (measured
        # within 1.1e-15 of the peak)
        rng = np.random.default_rng(nfft + 2)
        x0 = rng.standard_normal(4000)
        xt = Tensor(x0, requires_grad=True)
        mag = dsp.stft_magnitude(xt, dsp.StftConfig(nfft, hop, win))
        g = rng.standard_normal(mag.shape)
        backward((mag * Tensor(g)).sum())
        want = ref_stft_input_grad_complex(x0, g, nfft, hop, win)
        assert np.max(np.abs(xt.grad - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("nfft,hop,win", LOSS_RESOLUTIONS)
    def test_batched_rows_match_single_signals(self, nfft, hop, win):
        # two distinct signals in one call: no frame or overlap-add crosses items
        cfg = dsp.StftConfig(nfft, hop, win)
        rng = np.random.default_rng(nfft + 1)
        xb = rng.standard_normal((2, 4000))
        xt = Tensor(xb, requires_grad=True)
        mag = dsp.stft_magnitude(xt, cfg)
        g = rng.standard_normal(mag.shape)
        backward((mag * Tensor(g)).sum())
        for i in range(2):
            np.testing.assert_array_equal(mag.data[i], dsp.stft_magnitude(xb[i], cfg).data)
            np.testing.assert_allclose(mag.data[i], ref_stft_mag(xb[i], nfft, hop, win),
                                       atol=1e-8)
            np.testing.assert_array_equal(
                xt.grad[i], ref_stft_input_grad(xb[i], g[i], nfft, hop, win))


class TestButterworth:
    def test_cutoff_is_half_power(self):
        for order in (2, 4, 6, 8):
            for kind in ("lowpass", "highpass"):
                c = dsp.design_butterworth(order, 2000.0, SR, kind)
                mag_db = 20 * np.log10(abs(dsp.frequency_response(c, [2000.0])[0]))
                assert mag_db == pytest.approx(-3.0103, abs=0.1)

    def test_lowpass_dc_gain(self):
        c = dsp.design_butterworth(4, 2000.0, SR, "lowpass")
        dc_db = 20 * np.log10(abs(dsp.frequency_response(c, [0.0])[0]))
        assert abs(dc_db) < 1e-4

    def test_double_cutoff_attenuation(self):
        # analog prototype: 1/sqrt(1 + 2^8) = -24.1 dB at twice the cutoff.
        # The prewarped bilinear design matches that only while tan() is
        # near-linear: measured -24.44 dB at fc=500 Hz but -30.63 dB at
        # fc=2 kHz (warping steepens the response toward Nyquist). Both
        # values below come from measuring an actual filtered tone.
        analog_db = -10 * np.log10(1 + 2.0 ** 8)

        def measured_gain_db(fc, f):
            c = dsp.design_butterworth(4, fc, SR, "lowpass")
            t = np.arange(16000) / SR
            x = np.sin(2 * np.pi * f * t)
            y = dsp.filter_apply(c, AudioBuffer(x, int(SR))).samples
            tail = slice(8000, None)
            return 20 * np.log10(np.sqrt(np.mean(y[tail] ** 2))
                                 / np.sqrt(np.mean(x[tail] ** 2)))

        assert measured_gain_db(500.0, 1000.0) == pytest.approx(analog_db, abs=1.5)
        assert measured_gain_db(2000.0, 4000.0) == pytest.approx(-30.626, abs=0.1)

    def test_invalid_params(self):
        with pytest.raises(dsp.UnsupportedOrder):
            dsp.design_butterworth(3, 1000.0, SR, "lowpass")
        with pytest.raises(dsp.InvalidCutoff):
            dsp.design_butterworth(4, 9000.0, SR, "lowpass")
        with pytest.raises(dsp.InvalidCutoff):
            dsp.design_butterworth(4, (5000.0, 100.0), SR, "bandpass")

    def test_poles_strictly_stable_across_range(self):
        for kind, cutoffs in (("lowpass", [100, 2000, 7500, 7900]),
                              ("highpass", [10, 55, 100, 4000])):
            for order in (2, 4, 6, 8):
                for fc in cutoffs:
                    c = dsp.design_butterworth(order, float(fc), SR, kind)
                    assert dsp.pole_radius(c) < 1 - 1e-6

    def test_bandpass_is_hp_then_lp(self):
        c = dsp.design_butterworth(4, (100.0, 4000.0), SR, "bandpass")
        assert len(c.sections) == 4
        mid_db = 20 * np.log10(abs(dsp.frequency_response(c, [1000.0])[0]))
        lo_db = 20 * np.log10(abs(dsp.frequency_response(c, [10.0])[0]))
        hi_db = 20 * np.log10(abs(dsp.frequency_response(c, [7500.0])[0]))
        assert mid_db > -1.0
        assert lo_db < -20.0 and hi_db < -20.0


class TestFilterApply:
    @pytest.mark.parametrize("order,kind,cutoff", FILTER_GRID)
    def test_matches_sequential_oracle(self, order, kind, cutoff):
        c = dsp.design_butterworth(order, cutoff, SR, kind)
        rng = np.random.default_rng(order)
        for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 48000):
            x = rng.standard_normal(n)
            y = dsp.filter_apply(c, AudioBuffer(x, int(SR))).samples
            want = naive_biquad_cascade(c.sections, x)
            assert y.shape == (n,) and y.dtype == np.float64
            if n:
                assert np.max(np.abs(y - want)) <= 1e-10 * np.max(np.abs(want)), n

    def test_float32_in_float32_out(self):
        c = dsp.design_butterworth(8, 4000.0, SR, "lowpass")
        x = np.random.default_rng(3).standard_normal(1000).astype(np.float32)
        y = dsp.filter_apply(c, AudioBuffer(x, int(SR))).samples
        assert y.dtype == np.float32
        want = naive_biquad_cascade(c.sections, x)
        assert np.max(np.abs(y - want)) <= 1e-6 * np.max(np.abs(want))
        empty = dsp.filter_apply(c, AudioBuffer(np.zeros(0, np.float32), int(SR))).samples
        assert empty.shape == (0,) and empty.dtype == np.float32

    @pytest.mark.parametrize("delay", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_time_invariant_across_blocks(self, delay):
        c = dsp.design_butterworth(8, (10.0, 7500.0), SR, "bandpass")
        n = 4 * BLOCK
        impulse = np.zeros(n)
        impulse[0] = 1.0
        shifted = np.roll(impulse, delay)
        h = dsp.filter_apply(c, AudioBuffer(impulse, int(SR))).samples
        y = dsp.filter_apply(c, AudioBuffer(shifted, int(SR))).samples
        assert np.all(y[:delay] == 0.0)
        assert np.max(np.abs(y[delay:] - h[:n - delay])) <= 1e-10 * np.max(np.abs(h))

    def test_zero_in_zero_out(self):
        c = dsp.design_butterworth(4, 2000.0, SR, "lowpass")
        out = dsp.filter_apply(c, AudioBuffer(np.zeros(500), int(SR)))
        assert np.all(out.samples == 0)

    def test_dc_passes_lowpass(self):
        c = dsp.design_butterworth(4, 2000.0, SR, "lowpass")
        out = dsp.filter_apply(c, AudioBuffer(np.full(4000, 0.5), int(SR)))
        np.testing.assert_allclose(out.samples[2000:], 0.5, atol=1e-3)

    def test_white_noise_band_attenuation(self):
        # band energies measured with the STFT; >=20 dB above 5 kHz for a
        # 4 kHz order-8 lowpass (the simulator's filter order)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(32000) * 0.1
        c = dsp.design_butterworth(8, 4000.0, SR, "lowpass")
        y = dsp.filter_apply(c, AudioBuffer(x, int(SR))).samples
        cfg = dsp.StftConfig(512, 120, 512)
        freqs = np.arange(cfg.bins) * SR / cfg.fft_bins
        band = freqs > 5000.0
        ein = (dsp.stft_magnitude(x, cfg).data ** 2)[:, band].sum()
        eout = (dsp.stft_magnitude(y, cfg).data ** 2)[:, band].sum()
        assert 10 * np.log10(ein / eout) >= 20.0

    def test_sample_rate_checked(self):
        c = dsp.design_butterworth(4, 2000.0, SR, "lowpass")
        with pytest.raises(ValueError):
            dsp.filter_apply(c, AudioBuffer(np.zeros(10), 8000))


# the last length spans three of _interpolate's blocks of window rows
RESAMPLE_LENGTHS = (1, 2, 16, 17, 33, 34, 4000, 2 * dsp._INTERP_ROWS + 1)


class TestResample:
    def test_constant_upsample(self):
        out = dsp.upsample_4x(np.ones(256)).data
        np.testing.assert_allclose(out[80:-80], 1.0, atol=1e-6)

    def test_constant_downsample(self):
        out = dsp.downsample_4x(np.ones(256)).data
        np.testing.assert_allclose(out[24:-24], 1.0, atol=1e-6)

    def test_lengths(self):
        assert dsp.upsample_4x(np.zeros(100)).shape == (400,)
        assert dsp.downsample_4x(np.zeros(100)).shape == (25,)
        with pytest.raises(dsp.LengthNotDivisible):
            dsp.downsample_4x(np.zeros(101))

    def test_round_trip_si_sdr_on_tone(self):
        t = np.arange(4096) / SR
        x = np.sin(2 * np.pi * 1000.0 * t)
        y = dsp.downsample_4x(dsp.upsample_4x(x)).data
        cut = slice(256, -256)
        assert ref_si_sdr(x[cut], y[cut]) > 40.0
        # a batch of two distinct tones: each row equals its own single call
        xb = np.stack([x, 0.5 * np.sin(2 * np.pi * 2500.0 * t)])
        up = dsp.upsample_4x(xb).data
        yb = dsp.downsample_4x(up).data
        assert up.shape == (2, 4 * 4096) and yb.shape == (2, 4096)
        for i in range(2):
            up_i = dsp.upsample_4x(xb[i]).data
            np.testing.assert_allclose(up[i], up_i, atol=1e-12)
            np.testing.assert_allclose(yb[i], dsp.downsample_4x(up_i).data, atol=1e-12)
            assert ref_si_sdr(xb[i][cut], yb[i][cut]) > 40.0

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    @pytest.mark.parametrize("n", RESAMPLE_LENGTHS)
    def test_all_directions_match_oracles(self, n, lead, dtype, tol):
        """Forward and input gradient of both ops against the per-tap loops,
        within tol x the oracle's peak."""
        up_k, down_k = dsp._sinc_kernels(np.dtype(dtype).name)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(lead + (n,)).astype(dtype)
        x4 = rng.standard_normal(lead + (4 * n,)).astype(dtype)
        xt, x4t = Tensor(x, requires_grad=True), Tensor(x4, requires_grad=True)
        up, down = dsp.upsample_4x(xt), dsp.downsample_4x(x4t)
        backward((up * Tensor(x4)).sum() + (down * Tensor(x)).sum())
        for got, ref in ((up.data, naive_interpolate_4x(x, up_k)),
                         (xt.grad, naive_decimate_4x(x4, up_k)),
                         (down.data, naive_decimate_4x(x4, down_k)),
                         (x4t.grad, naive_interpolate_4x(x, down_k))):
            assert got.dtype == dtype and got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("lead", [(), (2, 3)])
    @pytest.mark.parametrize("which", [0, 1])
    def test_interpolate_is_adjoint_of_decimate(self, which, lead):
        kernel = dsp._sinc_kernels("float64")[which]
        rng = np.random.default_rng(11 + which)
        x = rng.standard_normal(lead + (257,))
        y = rng.standard_normal(lead + (4 * 257,))
        lhs = float(np.sum(dsp._interpolate(x, kernel) * y))
        rhs = float(np.sum(x * dsp._decimate(y, kernel)))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_up_gradient(self):
        # 40 samples reach outputs whose whole 33-sample window is inside the signal
        rng = np.random.default_rng(6)
        for shape in ((12,), (40,), (2, 40)):
            x0 = rng.standard_normal(shape)
            w = rng.standard_normal(shape[:-1] + (4 * shape[-1],))

            def f(x):
                return float((dsp.upsample_4x(Tensor(x)).data * w).sum())

            xt = Tensor(x0, requires_grad=True)
            backward((dsp.upsample_4x(xt) * Tensor(w)).sum())
            assert rel_grad_error(xt.grad, finite_difference_grad(f, x0)) < 1e-6

    def test_down_gradient(self):
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(16)
        w = rng.standard_normal(4)

        def f(x):
            return float((dsp.downsample_4x(Tensor(x)).data * w).sum())

        xt = Tensor(x0, requires_grad=True)
        backward((dsp.downsample_4x(xt) * Tensor(w)).sum())
        assert rel_grad_error(xt.grad, finite_difference_grad(f, x0)) < 1e-6


class TestConvolve:
    def test_unit_impulse_identity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(50)
        np.testing.assert_allclose(dsp.convolve_full(x, [1.0]), x, atol=1e-12)

    def test_delayed_impulse_shifts(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(50)
        r = np.zeros(8)
        r[5] = 1.0
        out = dsp.convolve_full(x, r)
        np.testing.assert_allclose(out[:5], 0.0, atol=1e-12)
        np.testing.assert_allclose(out[5:], x[:-5], atol=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(100)
        r = rng.standard_normal(20)
        ref = naive_convolve_full(x, r)[:100]
        assert np.max(np.abs(dsp.convolve_full(x, r) - ref)) < 1e-10
