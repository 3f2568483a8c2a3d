"""SI-SDR semantics and end-to-end evaluation plumbing."""

import numpy as np
import pytest

from hdrs import metrics as MT
from hdrs import simulate as S
from hdrs.loss import LengthMismatch, loss_freq
from hdrs.model import ModelConfig, init_params
from hdrs.simulate import write_manifest, ManifestRecord
from hdrs.tensor import Tensor
from synth import make_clean_dir, synth_voice

SR = 16000


class TestSiSdr:
    def test_identical_is_capped(self):
        x = synth_voice(2000, SR, 0)
        assert MT.si_sdr(x, x) == 100.0

    def test_scaled_is_capped(self):
        x = synth_voice(2000, SR, 1)
        assert MT.si_sdr(x, 2 * x) == 100.0

    def test_analytic_two_sample_case(self):
        assert MT.si_sdr([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance_across_gains(self):
        rng = np.random.default_rng(2)
        ref = synth_voice(3000, SR, 3)
        est = ref + 0.1 * rng.standard_normal(3000)
        vals = [MT.si_sdr(ref, g * est) for g in (0.5, 1.0, 3.0)]
        assert max(vals) - min(vals) < 1e-9

    def test_more_noise_is_strictly_worse(self):
        rng = np.random.default_rng(4)
        ref = synth_voice(3000, SR, 5)
        noise = rng.standard_normal(3000)
        scores = [MT.si_sdr(ref, ref + a * noise) for a in (0.01, 0.05, 0.2, 1.0)]
        assert all(b < a for a, b in zip(scores, scores[1:]))

    def test_orthogonal_estimate_floors(self):
        assert MT.si_sdr([1.0, 0.0], [0.0, 1.0]) == -100.0

    def test_errors(self):
        with pytest.raises(MT.SilentReference):
            MT.si_sdr(np.zeros(10), np.ones(10))
        with pytest.raises(LengthMismatch):
            MT.si_sdr(np.ones(10), np.ones(11))


class TestMrSpectralDistance:
    def test_identical_is_zero(self):
        x = synth_voice(2000, SR, 6)
        assert MT.mr_spectral_distance(x, x) == 0.0

    def test_matches_training_criterion(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            a = rng.standard_normal(1500)
            b = rng.standard_normal(1500)
            want = loss_freq(Tensor(a), Tensor(b))[0].item()
            assert MT.mr_spectral_distance(a, b) == want

    def test_shared_reference_matches_single_calls(self):
        rng = np.random.default_rng(9)
        ref, a, b = rng.standard_normal((3, 1500))
        assert MT.mr_spectral_distances(ref, [a, b, ref]) == [
            loss_freq(Tensor(ref), Tensor(a))[0].item(),
            loss_freq(Tensor(ref), Tensor(b))[0].item(), 0.0]

    def test_zero_estimate_sc_terms_sum_to_three(self):
        x = synth_voice(2000, SR, 8)
        _, sc_terms, _ = loss_freq(Tensor(x), Tensor(np.zeros(2000)))
        assert sum(t.item() for t in sc_terms) == pytest.approx(3.0)


@pytest.fixture(scope="module")
def eval_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval")
    clean = make_clean_dir(root / "clean", 2, 4000, seed=40)
    manifest, _ = S.generate_corpus(clean, root / "dist", "N", "test",
                                    seed=41, count=4)
    cfg = ModelConfig(hidden_ch=2, depth=2)
    params = init_params(cfg, 0, np.float32)
    return root, manifest, cfg, params


class TestEvaluate:
    def test_untrained_model_scores_are_finite(self, eval_setup):
        _, manifest, cfg, params = eval_setup
        report = MT.evaluate(manifest, params, cfg)
        assert len(report.rows) == 4
        for r in report.rows:
            for k in ("si_sdr_in", "si_sdr_out", "si_sdr_impr", "mrsd_in", "mrsd_out"):
                assert np.isfinite(getattr(r, k))

    def test_identity_manifest(self, eval_setup, tmp_path):
        root, _, cfg, params = eval_setup
        clean = str(root / "clean" / "clean00.wav")
        records = [ManifestRecord(seed=1, subset="N", snr_db=5.0, clean_path=clean,
                                  distorted_path=clean, norm_gain=1.0)]
        p = tmp_path / "ident.tsv"
        write_manifest(p, records)
        report = MT.evaluate(p, params, cfg)
        assert report.rows[0].si_sdr_in == 100.0
        assert report.rows[0].mrsd_in == 0.0

    def test_subset_filter(self, eval_setup, tmp_path):
        root, manifest, cfg, params = eval_setup
        _, records = S.read_manifest(manifest)
        mixed = records + [ManifestRecord(seed=9, subset="B", filter_kind="lowpass",
                                          cutoffs=4000.0, clean_path=records[0].clean_path,
                                          distorted_path=records[0].distorted_path,
                                          norm_gain=1.0)]
        p = tmp_path / "mixed.tsv"
        write_manifest(p, mixed)
        report = MT.evaluate(p, params, cfg, subset="B")
        assert len(report.rows) == 1
        assert report.rows[0].subset == "B"
        with pytest.raises(ValueError):
            MT.evaluate(p, params, cfg, subset="A")

    def test_means_recompute_from_rows(self, eval_setup):
        _, manifest, cfg, params = eval_setup
        report = MT.evaluate(manifest, params, cfg)
        means = report.means("N")
        assert means["count"] == len(report.rows)
        want = float(np.mean([r.si_sdr_out for r in report.rows]))
        assert means["si_sdr_out"] == want

    def test_report_file_schema(self, eval_setup, tmp_path):
        _, manifest, cfg, params = eval_setup
        report = MT.evaluate(manifest, params, cfg)
        out = tmp_path / "report.tsv"
        MT.write_report(out, report)
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == list(MT.REPORT_COLUMNS)
        assert len(lines) == 1 + len(report.rows)
