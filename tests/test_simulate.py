"""Distortion pipeline: SNR accuracy, reverb synthesis, determinism."""

import numpy as np
import pytest

from hdrs import simulate as S
from hdrs.audio import AudioBuffer, read_wav
from hdrs.dsp import StftConfig, convolve_full, stft_magnitude
from synth import make_clean_dir, synth_voice

SR = 16000

# (seed, snr_db, t60, filter_kind, cutoffs) of each record drawn by
# generate_corpus(..., seed=41, count=4): the RNG draws alone, held across
# refactors so a recipe change cannot pass by matching itself
RECIPE_PINS = {
    ("N", "train"): [
        (3566257030, 0.0, None, None, None),
        (1669946257, 15.0, None, None, None),
        (634230174, 0.0, None, None, None),
        (861991420, 5.0, None, None, None),
    ],
    ("N", "test"): [
        (3566257030, 2.5, None, None, None),
        (1669946257, 17.5, None, None, None),
        (634230174, 2.5, None, None, None),
        (861991420, 7.5, None, None, None),
    ],
    ("R", "train"): [
        (3566257030, 0.0, 0.22616893243523406, None, None),
        (1669946257, 15.0, 0.7143065292148776, None, None),
        (634230174, 0.0, 0.6000449260952406, None, None),
        (861991420, 5.0, 0.45091369336027326, None, None),
    ],
    ("R", "test"): [
        (3566257030, 2.5, 0.22616893243523406, None, None),
        (1669946257, 17.5, 0.7143065292148776, None, None),
        (634230174, 2.5, 0.6000449260952406, None, None),
        (861991420, 7.5, 0.45091369336027326, None, None),
    ],
    ("B", "train"): [
        (3566257030, None, None, "lowpass", 5034.636936617578),
        (1669946257, None, None, "bandpass", (87.14597938223162, 5510.578443934586)),
        (634230174, None, None, "lowpass", 7022.474407065811),
        (861991420, None, None, "highpass", 47.637054004040984),
    ],
    ("B", "test"): [
        (3566257030, None, None, "lowpass", 4000.0),
        (1669946257, None, None, "lowpass", 7000.0),
        (634230174, None, None, "lowpass", 4000.0),
        (861991420, None, None, "lowpass", 5000.0),
    ],
    ("A", "train"): [
        (3566257030, 0.0, 0.22616893243523406, "lowpass", 7223.453425598953),
        (1669946257, 15.0, 0.7143065292148776, "lowpass", 6298.052298173376),
        (634230174, 0.0, 0.6000449260952406, "highpass", 87.72077046740657),
        (861991420, 5.0, 0.45091369336027326, "lowpass", 5625.354791898954),
    ],
    ("A", "test"): [
        (3566257030, 2.5, 0.22616893243523406, "lowpass", 7223.453425598953),
        (1669946257, 17.5, 0.7143065292148776, "lowpass", 6298.052298173376),
        (634230174, 2.5, 0.6000449260952406, "highpass", 87.72077046740657),
        (861991420, 7.5, 0.45091369336027326, "lowpass", 5625.354791898954),
    ],
}


def measured_snr_db(signal, noisy):
    added = noisy - signal
    return 10 * np.log10(np.mean(signal ** 2) / np.mean(added ** 2))


class TestMixAtSnr:
    def test_equal_power_zero_db_gain_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4000)
        n = x[::-1].copy()  # identical power
        out = S.mix_at_snr(AudioBuffer(x, SR), AudioBuffer(n, SR), 0.0, seed=1)
        np.testing.assert_allclose(out.samples, x + n, atol=1e-12)

    def test_equal_power_ten_db_gain(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4000)
        n = x[::-1].copy()
        out = S.mix_at_snr(AudioBuffer(x, SR), AudioBuffer(n, SR), 10.0, seed=1)
        g = (out.samples - x) / n
        np.testing.assert_allclose(g, 10 ** -0.5, atol=1e-12)

    @pytest.mark.parametrize("snr", [0.0, 5.0, 10.0, 15.0, 2.5, 7.5, 12.5, 17.5])
    def test_achieved_snr_within_tenth_db(self, snr):
        x = synth_voice(8000, SR, seed=2)
        noise = np.random.default_rng(3).standard_normal(8000)
        out = S.mix_at_snr(AudioBuffer(x, SR), AudioBuffer(noise, SR), snr, seed=4)
        assert measured_snr_db(x, out.samples) == pytest.approx(snr, abs=0.1)

    def test_short_noise_is_tiled(self):
        x = synth_voice(5000, SR, 5)
        noise = np.random.default_rng(6).standard_normal(1200)
        out = S.mix_at_snr(AudioBuffer(x, SR), AudioBuffer(noise, SR), 5.0, seed=7)
        assert len(out) == 5000
        assert measured_snr_db(x, out.samples) == pytest.approx(5.0, abs=0.1)

    def test_silent_inputs_raise(self):
        x = AudioBuffer(np.zeros(100), SR)
        n = AudioBuffer(np.ones(100), SR)
        with pytest.raises(S.SilentClean):
            S.mix_at_snr(x, n, 0.0, seed=0)
        with pytest.raises(S.SilentNoise):
            S.mix_at_snr(n, x, 0.0, seed=0)


class TestSynthRir:
    def test_direct_path_and_envelope(self):
        t60 = 0.4
        length = int(1.2 * t60 * SR)
        seed = np.random.SeedSequence(8)
        h = S.synth_rir(t60, length, seed, SR)
        assert h[0] == 1.0
        # divide the seeded noise back out to recover the envelope exactly;
        # env[i] sits at time i+1, so extrapolate one sample back to t=0
        noise = np.random.default_rng(np.random.SeedSequence(8)).standard_normal(length - 1)
        env = h[1:] / noise
        k = int(t60 * SR)
        env_at_zero = env[0] * 10 ** (3 / (t60 * SR))
        assert env[k - 1] / env_at_zero == pytest.approx(1e-3, rel=1e-9)

    def test_energy_cap(self):
        h = S.synth_rir(0.6, int(0.7 * SR), np.random.SeedSequence(9), SR)
        assert np.sum(h[1:] ** 2) <= 3.0 + 1e-9
        assert np.sum(h ** 2) <= 4.0 + 1e-9

    def test_click_response_decays_per_frame(self):
        h = S.synth_rir(0.5, int(0.6 * SR), np.random.SeedSequence(10), SR)
        click = np.zeros(len(h))
        click[0] = 1.0
        out = convolve_full(click, h)
        frame = 160  # 10 ms
        n_frames = int(0.5 * SR) // frame
        energies = np.array([np.sum(out[i * frame:(i + 1) * frame] ** 2)
                             for i in range(n_frames)])
        smoothed = np.convolve(energies, np.ones(3) / 3, mode="valid")
        assert np.all(np.diff(smoothed) < 0)


class TestApplyDistortion:
    def test_identity_pipeline(self):
        x = AudioBuffer(synth_voice(3000, SR, 11), SR)
        spec = S.Distortion(seed=1, subset="A")  # no stages set
        out, gain = S.apply_distortion(x, spec)
        np.testing.assert_array_equal(out.samples, x.samples)
        assert gain == 1.0

    def test_subset_n_residual_is_scaled_noise(self):
        x = AudioBuffer(synth_voice(4000, SR, 12), SR)
        spec = S.sample_spec("N", "train", seed=13)
        noise = S.record_noise(spec, len(x), SR)
        out, gain = S.apply_distortion(x, spec, noise)
        assert gain == 1.0
        resid = out.samples - x.samples
        ratio = resid / noise.samples
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

    def test_subset_b_lowpass_band_attenuation(self):
        x = synth_voice(32000, SR, 14)
        spec = S.Distortion(seed=2, subset="B", filter_kind="lowpass", cutoffs=4000.0)
        out, _ = S.apply_distortion(AudioBuffer(x, SR), spec)
        cfg = StftConfig(512, 120, 512)
        freqs = np.arange(cfg.bins) * SR / cfg.fft_bins
        band = freqs > 5000.0
        e_clean = (stft_magnitude(x, cfg).data ** 2)[:, band].sum()
        e_dist = (stft_magnitude(out.samples, cfg).data ** 2)[:, band].sum()
        assert 10 * np.log10(e_clean / e_dist) >= 20.0

    def test_subset_a_differs_from_subset_n(self):
        x = AudioBuffer(synth_voice(4000, SR, 15), SR)
        spec_n = S.sample_spec("N", "train", seed=16)
        spec_a = S.sample_spec("A", "train", seed=16)
        out_n, _ = S.apply_distortion(x, spec_n, S.record_noise(spec_n, len(x), SR))
        out_a, _ = S.apply_distortion(x, spec_a, S.record_noise(spec_a, len(x), SR))
        assert not np.allclose(out_n.samples, out_a.samples)

    def test_peak_guard_records_gain(self):
        x = AudioBuffer(0.995 * synth_voice(4000, SR, 18) / 0.5, SR)  # near full scale
        spec = S.Distortion(seed=4, subset="N", snr_db=0.0)
        noise = S.record_noise(spec, len(x), SR)
        out, gain = S.apply_distortion(x, spec, noise)
        assert gain < 1.0
        assert np.max(np.abs(out.samples)) <= S.PEAK_TARGET + 1e-12


class TestSampleSpec:
    def test_deterministic(self):
        a = S.sample_spec("A", "train", seed=19)
        b = S.sample_spec("A", "train", seed=19)
        assert a == b

    def test_subset_composition(self):
        for subset, has in (("N", (True, False, False)), ("R", (True, True, False)),
                            ("B", (False, False, True)), ("A", (True, True, True))):
            for i in range(5):
                sp = S.sample_spec(subset, "train", seed=100 + i)
                got = (sp.snr_db is not None, sp.t60 is not None, sp.filter_kind is not None)
                assert got == has

    def test_train_and_test_snr_pools(self):
        for i in range(20):
            assert S.sample_spec("N", "train", i).snr_db in S.TRAIN_SNRS_DB
            assert S.sample_spec("N", "test", i).snr_db in S.TEST_SNRS_DB

    def test_subset_b_test_specs(self):
        for i in range(20):
            sp = S.sample_spec("B", "test", i)
            assert sp.filter_kind == "lowpass"
            assert sp.cutoffs in S.SUBSET_B_TEST_CUTOFFS_HZ

    def test_sampled_ranges(self):
        kinds = set()
        for i in range(40):
            sp = S.sample_spec("A", "train", i)
            kinds.add(sp.filter_kind)
            assert S.T60_RANGE_S[0] <= sp.t60 <= S.T60_RANGE_S[1]
            if sp.filter_kind == "lowpass":
                assert S.LOWPASS_RANGE_HZ[0] <= sp.cutoffs <= S.LOWPASS_RANGE_HZ[1]
            elif sp.filter_kind == "highpass":
                assert S.HIGHPASS_RANGE_HZ[0] <= sp.cutoffs <= S.HIGHPASS_RANGE_HZ[1]
            else:
                lo, hi = sp.cutoffs
                assert S.HIGHPASS_RANGE_HZ[0] <= lo <= S.HIGHPASS_RANGE_HZ[1]
                assert S.LOWPASS_RANGE_HZ[0] <= hi <= S.LOWPASS_RANGE_HZ[1]
        assert kinds == set(S.FILTER_KINDS)

    def test_forbidden_fields_rejected(self):
        with pytest.raises(ValueError):
            S.Distortion(seed=0, subset="N", filter_kind="lowpass", cutoffs=4000.0)


class TestCorpus:
    def test_manifest_round_trip(self, tmp_path):
        clean = make_clean_dir(tmp_path / "clean", 2, 4000, seed=20)
        manifest, records = S.generate_corpus(clean, tmp_path / "out", "A", "test",
                                              seed=21, count=3)
        sr, back = S.read_manifest(manifest)
        assert sr == SR
        assert back == records

    def test_malformed_manifest_names_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("#sample_rate=16000\na\tb\tc\n", encoding="utf-8")
        with pytest.raises(S.ManifestError, match="line 2"):
            S.read_manifest(p)

    def test_bad_sample_rate_names_file_and_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("\n#sample_rate=abc\n", encoding="utf-8")
        with pytest.raises(S.ManifestError, match=r"bad\.tsv: line 2"):
            S.read_manifest(p)

    def test_forbidden_stage_row_fails_at_read(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("#sample_rate=16000\n"
                     "c.wav\td.wav\tN\t1\t5.0\t-\t-\t-\t1.0\n"
                     "c.wav\td.wav\tN\t2\t5.0\t-\tlowpass\t4000.0\t1.0\n",
                     encoding="utf-8")
        with pytest.raises(S.ManifestError, match="line 3: subset N forbids filter_kind"):
            S.read_manifest(p)

    def test_regeneration_is_byte_identical(self, tmp_path):
        clean = make_clean_dir(tmp_path / "clean", 2, 4000, seed=22)
        _, records = S.generate_corpus(clean, tmp_path / "out1", "A", "train",
                                       seed=23, count=3)
        S.generate_corpus(clean, tmp_path / "out2", "A", "train", seed=23, count=3)
        for r in records:
            name = r.distorted_path.split("/")[-1]
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b

    def test_rebuild_from_manifest_records(self, tmp_path):
        from hdrs.audio import write_wav
        clean = make_clean_dir(tmp_path / "clean", 1, 4000, seed=24)
        manifest, _ = S.generate_corpus(clean, tmp_path / "out", "R", "test",
                                        seed=25, count=2)
        _, records = S.read_manifest(manifest)
        for r in records:
            x = read_wav(r.clean_path, SR)
            redone, gain = S.apply_distortion(x, r, S.record_noise(r, len(x), SR))
            assert gain == r.norm_gain
            target = tmp_path / "redo.wav"
            write_wav(target, redone)
            assert target.read_bytes() == (tmp_path / "out" /
                                           r.distorted_path.split("/")[-1]).read_bytes()

    def test_outputs_within_unit_range(self, tmp_path):
        clean = make_clean_dir(tmp_path / "clean", 1, 4000, seed=26)
        _, records = S.generate_corpus(clean, tmp_path / "out", "A", "train",
                                       seed=27, count=4)
        for r in records:
            s = read_wav(r.distorted_path, SR).samples
            assert np.max(np.abs(s)) <= 1.0

    def test_recipe_draws_are_pinned(self, tmp_path):
        clean = make_clean_dir(tmp_path / "clean", 1, 800, seed=40)
        for (subset, split), want in RECIPE_PINS.items():
            manifest, _ = S.generate_corpus(clean, tmp_path / subset / split,
                                            subset, split, seed=41, count=4)
            _, back = S.read_manifest(manifest)
            got = [(r.seed, r.snr_db, r.t60, r.filter_kind, r.cutoffs) for r in back]
            assert got == want, (subset, split)
