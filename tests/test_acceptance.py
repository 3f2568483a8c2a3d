"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here. The overfit drill (criterion 7) is
the long pole at roughly ten minutes; everything else finishes in about
two.
"""

import time

import numpy as np
import pytest

from hdrs import simulate as S
from hdrs import tensor as T
from hdrs import train as TR
from hdrs.audio import AudioBuffer, read_wav, write_wav
from hdrs.dsp import StftConfig, stft_magnitude
from hdrs.loss import loss_time, loss_freq, loss_total
from hdrs.metrics import si_sdr
from hdrs.model import ModelConfig, VARIANTS, count_params, forward, init_params
from hdrs.tensor import Tensor
from hdrs.verify import dsp_suite, gradcheck_full_model
from oracles import ref_loss_freq, ref_loss_time
from synth import synth_harmonic, synth_voice

SR = 16000


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_parameter_counts():
    """Model-size reproduction: 18M/33M/24M within 10%/10%/15%, under 1 s."""
    t0 = time.time()
    counts = {
        "demucs48": count_params(ModelConfig(hidden_ch=48, variant="demucs_baseline")),
        "demucs64": count_params(ModelConfig(hidden_ch=64, variant="demucs_baseline")),
        "hd48": count_params(ModelConfig(hidden_ch=48)),
    }
    elapsed = time.time() - t0
    ok = (abs(counts["demucs48"] - 18e6) <= 1.8e6
          and abs(counts["demucs64"] - 33e6) <= 3.3e6
          and abs(counts["hd48"] - 24e6) <= 3.6e6
          and elapsed < 1.0)
    report("1 parameter-counts", ok,
           f"DEMUCS48={counts['demucs48']:,} DEMUCS64={counts['demucs64']:,} "
           f"HD={counts['hd48']:,} in {elapsed * 1000:.0f} ms")


def test_criterion_2_gradient_integrity():
    """Finite differences over every parameter of the tiny 64-bit model."""
    t0 = time.time()
    err, n = gradcheck_full_model()
    elapsed = time.time() - t0
    ok = err < 1e-4 and elapsed < 300
    report("2 gradient-integrity", ok,
           f"max rel err {err:.2e} over {n} params in {elapsed:.0f} s")


def test_criterion_3_architecture_invariants():
    """200 random inputs x all 6 variants at full size H=48: output length
    equals input length, mask in [0,1], fusion weight in (0,1), finite. The
    mask and w ranges are read from ``on_window`` over the padded input, and
    each variant must hand over exactly the signals it has."""
    t0 = time.time()
    lengths = (1000, 4096, 16000)
    per_cell = 200 // (len(VARIANTS) * len(lengths))  # 11 -> 198, pad to 200
    extra = 200 - per_cell * len(VARIANTS) * len(lengths)
    checked = 0
    failures = []
    for vi, variant in enumerate(VARIANTS):
        cfg = ModelConfig(hidden_ch=48, depth=5, variant=variant)
        params = init_params(cfg, 100 + vi, np.float32)
        has = {"mask": variant not in ("demucs_baseline", "refinement_only"),
               "w": variant == "hd_demucs"}
        for length in lengths:
            n_inputs = per_cell + (1 if extra > 0 else 0)
            if extra > 0:
                extra -= 1
            rng = np.random.default_rng(vi * 1000 + length)
            for _ in range(n_inputs):
                x = (rng.standard_normal(length) * rng.uniform(0.05, 0.5)
                     ).astype(np.float32)
                seen = {"mask": [], "w": []}

                def ranges(start, signals):
                    for name, sig in zip(("mask", "w"), (signals[2], signals[4])):
                        if sig is not None:
                            seen[name] += [sig.min(), sig.max()]

                with T.no_grad():
                    x_hat = forward(x, params, cfg, on_window=ranges)
                checked += 1
                if x_hat.shape != (length,):
                    failures.append(f"{variant}/{length}: bad length")
                if not np.all(np.isfinite(x_hat.data)):
                    failures.append(f"{variant}/{length}: non-finite output")
                for name, arrived in seen.items():
                    if bool(arrived) != has[name]:
                        failures.append(f"{variant}/{length}: {name} arrived: {bool(arrived)}")
                if seen["mask"] and not (min(seen["mask"]) >= 0.0 and max(seen["mask"]) <= 1.0):
                    failures.append(f"{variant}/{length}: mask out of [0,1]")
                if seen["w"] and not (min(seen["w"]) > 0.0 and max(seen["w"]) < 1.0):
                    failures.append(f"{variant}/{length}: w out of (0,1)")
    elapsed = time.time() - t0
    ok = checked == 200 and not failures and elapsed < 120
    report("3 architecture-invariants", ok,
           f"{checked} forwards, {len(failures)} violations in {elapsed:.0f} s"
           + (f"; first: {failures[0]}" if failures else ""))


def test_criterion_4_loss_semantics():
    """Training criterion equals an independent straight-line restatement on
    50 random pairs within 1e-8 relative; identical inputs give exactly 0."""
    t0 = time.time()
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1250, 4800))
        x = rng.standard_normal(n) * rng.uniform(0.1, 1.0)
        y = x + rng.standard_normal(n) * rng.uniform(0.05, 0.8)
        got = loss_total(Tensor(x), Tensor(y))
        want = ref_loss_time(x, y) + ref_loss_freq(x, y)
        worst = max(worst, abs(got.total - want) / abs(want))
    x = rng.standard_normal(2000)
    zero = loss_total(Tensor(x), Tensor(x.copy())).total
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and zero == 0.0 and elapsed < 60
    report("4 loss-semantics", ok,
           f"max rel dev {worst:.2e} on 50 pairs, identical-pair loss {zero}, "
           f"{elapsed:.0f} s")


def test_criterion_5_dsp_oracles():
    """FFT/conv vs naive references, Butterworth half-power point,
    resampler round trip."""
    t0 = time.time()
    results = dsp_suite()
    elapsed = time.time() - t0
    ok = all(passed for _, passed in results) and elapsed < 60
    report("5 dsp-oracles", ok,
           "; ".join(msg for msg, _ in results) + f"; {elapsed:.1f} s")


def test_criterion_6_distortion_simulator(tmp_path):
    """SNR accuracy at every pool value, subset-B stop-band suppression,
    byte-identical regeneration from the manifest."""
    t0 = time.time()
    x = synth_voice(16000, SR, seed=600)
    noise = np.random.default_rng(601).standard_normal(16000)
    snr_errs = []
    for snr in (0.0, 5.0, 10.0, 15.0, 2.5, 7.5, 12.5, 17.5):
        out = S.mix_at_snr(AudioBuffer(x, SR), AudioBuffer(noise, SR), snr, seed=602)
        achieved = 10 * np.log10(np.mean(x ** 2) / np.mean((out.samples - x) ** 2))
        snr_errs.append(abs(achieved - snr))
    snr_ok = max(snr_errs) <= 0.1

    # subset-B lowpass suppression measured >cutoff+1 kHz (7 kHz cutoff has
    # no band below Nyquist, so 4/5/6 kHz carry the check)
    cfg = StftConfig(512, 120, 512)
    freqs = np.arange(cfg.bins) * SR / cfg.fft_bins
    attens = []
    for cutoff in (4000.0, 5000.0, 6000.0):
        spec = S.Distortion(seed=603, subset="B", filter_kind="lowpass", cutoffs=cutoff)
        out, _ = S.apply_distortion(AudioBuffer(x, SR), spec)
        band = freqs > cutoff + 1000.0
        e_in = (stft_magnitude(x, cfg).data ** 2)[:, band].sum()
        e_out = (stft_magnitude(out.samples, cfg).data ** 2)[:, band].sum()
        attens.append(10 * np.log10(e_in / e_out))
    band_ok = min(attens) >= 20.0

    # byte-identical regeneration from the manifest records
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    for i in range(2):
        write_wav(clean_dir / f"c{i}.wav",
                  AudioBuffer(synth_voice(8000, SR, 610 + i), SR))
    wavs = sorted(clean_dir.glob("*.wav"))
    manifest, _ = S.generate_corpus(wavs, tmp_path / "gen", "A", "test",
                                    seed=611, count=4)
    _, records = S.read_manifest(manifest)
    regen_ok = True
    for r in records:
        clean = read_wav(r.clean_path, SR)
        redone, gain = S.apply_distortion(clean, r, S.record_noise(r, len(clean), SR))
        rebuilt = tmp_path / "rebuilt.wav"
        write_wav(rebuilt, redone)
        name = r.distorted_path.rsplit("/", 1)[-1]
        regen_ok &= rebuilt.read_bytes() == (tmp_path / "gen" / name).read_bytes()
        regen_ok &= gain == r.norm_gain

    elapsed = time.time() - t0
    ok = snr_ok and band_ok and regen_ok and elapsed < 120
    report("6 distortion-simulator", ok,
           f"max SNR err {max(snr_errs):.3f} dB; min stop-band atten "
           f"{min(attens):.1f} dB; regeneration byte-identical: {regen_ok}; "
           f"{elapsed:.0f} s")


@pytest.mark.slow
def test_criterion_7_training_protocol(tmp_path):
    """Overfit drill: tiny model (H=4, depth=3) on four two-second subset-N
    clips for 2000 steps. Gates: step-2000 training loss below 30% of the
    step-1 loss, restored SI-SDR beating the distorted input by >= 3 dB on
    those clips, a seeded rerun reproducing the final checkpoint
    bit-identically, and a checkpoint resume matching the uninterrupted
    run bit-identically. Drill fixture choices (harmonic clips, lr 3e-3
    cosine-annealed, batch 2, 4000-sample crops) are recorded here; model
    size, clip count, step count, and all gates come from the criterion.
    """
    t0 = time.time()
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    for i in range(4):
        write_wav(clean_dir / f"c{i}.wav",
                  AudioBuffer(synth_harmonic(2 * SR, SR, 60 + i), SR))
    manifest, records = S.generate_corpus(sorted(clean_dir.glob("*.wav")),
                                          tmp_path / "dist", "N", "train",
                                          seed=61, count=4)
    mcfg = ModelConfig(hidden_ch=4, depth=3)
    tcfg = TR.TrainConfig(total_steps=2000, warm_phase_steps=1000, batch_size=2,
                          segment_samples=4000, seed=7, lr=3e-3,
                          checkpoint_interval=1000)

    params, _, rows = TR.train(mcfg, tcfg, manifest, tmp_path / "run1")
    ratio = rows[-1][5] / rows[0][5]
    finite = all(np.all(np.isfinite(p.data)) for p in params.values())

    improvements = []
    for r in records:
        clean = read_wav(r.clean_path, SR).samples
        dist = read_wav(r.distorted_path, SR).samples
        with T.no_grad():
            out = forward(dist.astype(np.float32), params, mcfg).data
        improvements.append(si_sdr(clean, out.astype(np.float64))
                            - si_sdr(clean, dist))
    mean_gain = float(np.mean(improvements))

    TR.train(mcfg, tcfg, manifest, tmp_path / "run2")
    rerun_ok = ((tmp_path / "run1" / "final.ckpt").read_bytes()
                == (tmp_path / "run2" / "final.ckpt").read_bytes())

    TR.train(mcfg, tcfg, manifest, tmp_path / "run3",
             resume=tmp_path / "run1" / "step00001000.ckpt")
    resume_ok = ((tmp_path / "run1" / "final.ckpt").read_bytes()
                 == (tmp_path / "run3" / "final.ckpt").read_bytes())

    elapsed = time.time() - t0
    ok = (ratio < 0.30 and mean_gain >= 3.0 and finite and rerun_ok
          and resume_ok and elapsed < 1800)
    report("7 training-protocol", ok,
           f"loss {rows[0][5]:.2f} -> {rows[-1][5]:.2f} (ratio {ratio:.3f}); "
           f"SI-SDR gain mean {mean_gain:+.2f} dB "
           f"(per clip {['%+.2f' % v for v in improvements]}); params finite: "
           f"{finite}; rerun bit-identical: {rerun_ok}; resume bit-identical: "
           f"{resume_ok}; {elapsed / 60:.1f} min")


def test_criterion_8_ablation_constructibility(tmp_path):
    """All four ablation topologies instantiate at full size, train one step, and the
    parameter-count deltas equal the removed submodules exactly."""
    t0 = time.time()
    hd = ModelConfig(hidden_ch=48, depth=5)
    removed = {
        "no_fusion": ("fusion.",),
        "no_fusion_no_skip": ("fusion.",),
        "suppression_only": ("fusion.", "dr."),
        "refinement_only": ("fusion.", "ds."),
    }
    count_ok = True
    for variant, prefixes in removed.items():
        delta = count_params(hd) - count_params(
            ModelConfig(hidden_ch=48, depth=5, variant=variant))
        want = sum(count_params(hd, p) for p in prefixes)
        count_ok &= delta == want

    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    write_wav(clean_dir / "c.wav", AudioBuffer(synth_voice(4096, SR, 800), SR))
    manifest, _ = S.generate_corpus(sorted(clean_dir.glob("*.wav")),
                                    tmp_path / "gen", "N", "train", seed=801, count=1)
    trained = []
    for variant in removed:
        mcfg = ModelConfig(hidden_ch=48, depth=5, variant=variant)
        tcfg = TR.TrainConfig(total_steps=1, warm_phase_steps=0, batch_size=1,
                              segment_samples=2048, seed=5)
        _, state, rows = TR.train(mcfg, tcfg, manifest, tmp_path / variant)
        trained.append(state.step == 1 and np.isfinite(rows[0][5]))
    elapsed = time.time() - t0
    ok = count_ok and all(trained) and elapsed < 120
    report("8 ablation-constructibility", ok,
           f"count deltas exact: {count_ok}; one-step runs: {sum(trained)}/4; "
           f"{elapsed:.0f} s")
