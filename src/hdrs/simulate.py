"""Seedable distortion synthesis: reverb, band-limiting, and noise at SNR.

One utterance is corrupted as ``bandlimit(clean * rir) + scaled_noise``
(reverb first, spectral shaping outermost, noise added last). Every random
draw derives from the record seed alone, so a corpus regenerates
bit-identically from its manifest, whose every row is a ``Distortion``
recipe. Subset tags select which stages apply: N = noise, R = noise+reverb,
B = band-limit only, A = all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import CANONICAL_RATE, AudioBuffer, EmptyInput, read_wav, write_wav
from .dsp import convolve_full, design_butterworth, filter_apply
from .loss import LengthMismatch

# the stages each subset tag may carry: (noise, reverb, band-limit)
STAGES = {"N": (True, False, False), "R": (True, True, False),
          "B": (False, False, True), "A": (True, True, True)}
TRAIN_SNRS_DB = (0.0, 5.0, 10.0, 15.0)
TEST_SNRS_DB = (2.5, 7.5, 12.5, 17.5)
LOWPASS_RANGE_HZ = (4000.0, 7500.0)
HIGHPASS_RANGE_HZ = (10.0, 100.0)
SUBSET_B_TEST_CUTOFFS_HZ = (4000.0, 5000.0, 6000.0, 7000.0)
T60_RANGE_S = (0.2, 0.8)
FILTER_ORDER = 8
FILTER_KINDS = ("lowpass", "highpass", "bandpass")
PEAK_TARGET = 0.99


class SilentClean(ValueError):
    pass


class SilentNoise(ValueError):
    pass


class ManifestError(ValueError):
    pass


@dataclass
class SimulateConfig:
    """The ``[simulate]`` settings of ``hdrs simulate``; a command-line flag
    overrides its key, and every field but ``seed`` must be set by one."""
    subset: str | None = None
    split: str | None = None
    seed: int = 0
    count: int | None = None


@dataclass
class Distortion:
    """One utterance's recipe: exactly the fields a manifest row stores. A
    stage whose field is None does not run; the RIR length is ``t60`` seconds
    and the filter is an order-``FILTER_ORDER`` Butterworth."""
    seed: int
    subset: str
    snr_db: float | None = None
    t60: float | None = None
    filter_kind: str | None = None  # lowpass | highpass | bandpass
    cutoffs: object = None  # float, or (low, high) for bandpass

    def __post_init__(self):
        # the tag bounds which stages may appear; sample_spec always fills
        # every allowed stage, but a partial recipe (identity pipeline) is legal
        if self.subset not in STAGES:
            raise ValueError(f"unknown subset {self.subset!r}")
        has = (self.snr_db is not None, self.t60 is not None, self.filter_kind is not None)
        for name, h, a in zip(("snr_db", "t60", "filter_kind"), has, STAGES[self.subset]):
            if h and not a:
                raise ValueError(f"subset {self.subset} forbids {name}")


def white_noise(n: int, seed_seq) -> np.ndarray:
    return np.random.default_rng(seed_seq).standard_normal(n)


def mix_at_snr(x: AudioBuffer, noise: AudioBuffer, snr_db: float, seed: int) -> AudioBuffer:
    """Add noise scaled so signal power over noise power hits the target dB.

    A noise track shorter than the signal is tiled; longer tracks are
    cropped from a seeded offset. The gain is computed from the powers of
    the actual segment mixed in.
    """
    if x.sample_rate != noise.sample_rate:
        raise ValueError("sample rates differ between signal and noise")
    sig = np.asarray(x.samples, dtype=np.float64)
    n = np.asarray(noise.samples, dtype=np.float64)
    p_sig = float(np.mean(sig * sig))
    if p_sig == 0.0:
        raise SilentClean("clean signal has zero power")
    if not np.any(n):
        raise SilentNoise("noise signal is all zeros")
    if len(n) < len(sig):
        n = np.tile(n, -(-len(sig) // len(n)) + 1)
    if len(n) > len(sig):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        ofs = int(rng.integers(0, len(n) - len(sig) + 1))
        n = n[ofs:ofs + len(sig)]
    p_noise = float(np.mean(n * n))
    if p_noise == 0.0:
        raise SilentNoise("selected noise segment has zero power")
    gain = np.sqrt(p_sig / (p_noise * 10.0 ** (snr_db / 10.0)))
    return AudioBuffer(sig + gain * n, x.sample_rate)


def synth_rir(t60: float, length: int, seed, sr: int) -> np.ndarray:
    """Unit direct path followed by noise under an exponential -60 dB/T60
    envelope; tail energy capped at 3x the direct-path energy."""
    if t60 <= 0:
        raise ValueError("t60 must be positive")
    h = np.zeros(max(int(length), 1))
    h[0] = 1.0
    if len(h) > 1:
        t = np.arange(1, len(h), dtype=np.float64)
        env = 10.0 ** (-3.0 * t / (t60 * sr))
        tail = np.random.default_rng(seed).standard_normal(len(h) - 1) * env
        e_tail = float(np.sum(tail * tail))
        if e_tail > 3.0:
            tail *= np.sqrt(3.0 / e_tail)
        h[1:] = tail
    return h


def apply_distortion(x: AudioBuffer, spec: Distortion,
                     noise: AudioBuffer | None = None):
    """Run the configured stages in order; returns (distorted, peak gain).

    The peak gain is 1.0 unless the mixture exceeded full scale, in which
    case it was rescaled to a 0.99 peak (recorded in the manifest).
    """
    y = np.asarray(x.samples, dtype=np.float64)
    sr = x.sample_rate
    if spec.t60 is not None:
        rir = synth_rir(spec.t60, round(spec.t60 * sr),
                        np.random.SeedSequence([spec.seed, 1]), sr)
        y = convolve_full(y, rir)
    if spec.filter_kind is not None:
        cascade = design_butterworth(FILTER_ORDER, spec.cutoffs, float(sr),
                                     spec.filter_kind)
        y = filter_apply(cascade, AudioBuffer(y, sr)).samples
    if spec.snr_db is not None:
        if noise is None:
            raise ValueError("spec requests noise but none was provided")
        y = mix_at_snr(AudioBuffer(y, sr), noise, spec.snr_db, spec.seed).samples
    peak = float(np.max(np.abs(y))) if len(y) else 0.0
    gain = 1.0
    if peak > 1.0:
        gain = PEAK_TARGET / peak
        y = y * gain
    return AudioBuffer(y, sr), gain


def record_noise(spec: Distortion, n: int, sr: int) -> AudioBuffer | None:
    """The seeded synthetic noise track for a record, or None if unused."""
    if spec.snr_db is None:
        return None
    return AudioBuffer(white_noise(n, np.random.SeedSequence([spec.seed, 3])), sr)


def sample_spec(subset: str, split: str, seed: int) -> Distortion:
    """Draw one distortion recipe; identical seeds give identical recipes."""
    if subset not in STAGES:
        raise ValueError(f"unknown subset {subset!r}")
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}")
    noisy, reverberant, banded = STAGES[subset]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    snr = t60 = kind = cutoffs = None
    if noisy:
        pool = TRAIN_SNRS_DB if split == "train" else TEST_SNRS_DB
        snr = float(pool[rng.integers(len(pool))])
    if reverberant:
        t60 = float(rng.uniform(*T60_RANGE_S))
    if banded:
        if subset == "B" and split == "test":
            kind = "lowpass"
            cutoffs = float(SUBSET_B_TEST_CUTOFFS_HZ[
                rng.integers(len(SUBSET_B_TEST_CUTOFFS_HZ))])
        else:
            kind = FILTER_KINDS[rng.integers(len(FILTER_KINDS))]
            lo = float(rng.uniform(*HIGHPASS_RANGE_HZ))
            hi = float(rng.uniform(*LOWPASS_RANGE_HZ))
            cutoffs = {"lowpass": hi, "highpass": lo, "bandpass": (lo, hi)}[kind]
    return Distortion(seed, subset, snr, t60, kind, cutoffs)


# -- manifests -----------------------------------------------------------------


@dataclass(kw_only=True)
class ManifestRecord(Distortion):
    """A manifest row: the recipe plus where its pair lives and the peak gain."""
    clean_path: str
    distorted_path: str
    norm_gain: float


def _fmt_cutoffs(c) -> str:
    # repr round-trips floats exactly; regeneration depends on it
    if c is None:
        return "-"
    if isinstance(c, tuple):
        return f"{c[0]!r}:{c[1]!r}"
    return repr(c)


def _parse_cutoffs(s: str):
    if s == "-":
        return None
    if ":" in s:
        lo, hi = s.split(":")
        return (float(lo), float(hi))
    return float(s)


def write_manifest(path, records: list, sr: int = CANONICAL_RATE) -> None:
    lines = [f"#sample_rate={sr}"]
    for r in records:
        lines.append("\t".join([
            r.clean_path, r.distorted_path, r.subset, str(r.seed),
            "-" if r.snr_db is None else repr(r.snr_db),
            "-" if r.t60 is None else repr(r.t60),
            r.filter_kind or "-", _fmt_cutoffs(r.cutoffs), repr(r.norm_gain),
        ]))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path):
    """Returns (sample_rate, records); malformed lines name their number."""
    sr = CANONICAL_RATE
    records = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                if key == "sample_rate":
                    sr = int(val)
                continue
            parts = line.split("\t")
            if len(parts) != 9:
                raise ValueError(f"expected 9 fields, got {len(parts)}")
            # the recipe's own check refuses stages its subset tag forbids
            records.append(ManifestRecord(
                clean_path=parts[0], distorted_path=parts[1], subset=parts[2],
                seed=int(parts[3]),
                snr_db=None if parts[4] == "-" else float(parts[4]),
                t60=None if parts[5] == "-" else float(parts[5]),
                filter_kind=None if parts[6] == "-" else parts[6],
                cutoffs=_parse_cutoffs(parts[7]),
                norm_gain=float(parts[8]),
            ))
        except ValueError as e:
            raise ManifestError(f"{path}: line {lineno}: {e}") from None
    return sr, records


def read_pair(record: ManifestRecord, sr: int) -> tuple:
    """A record's (clean, distorted) samples, read at rate ``sr``; a pair of
    unequal lengths raises ``LengthMismatch`` naming both files."""
    clean = read_wav(record.clean_path, sr).samples
    dist = read_wav(record.distorted_path, sr).samples
    if len(clean) != len(dist):
        raise LengthMismatch(f"{record.clean_path} has {len(clean)} samples but "
                             f"{record.distorted_path} has {len(dist)}")
    return clean, dist


def derive_record_seed(corpus_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([corpus_seed, index]).generate_state(1)[0])


def generate_corpus(clean_paths: list, out_dir, subset: str, split: str,
                    seed: int, count: int, sr: int = CANONICAL_RATE):
    """Distort ``count`` utterances (cycling through the clean list) and
    write WAVs plus a manifest; fully determined by ``seed``. A count below
    one or an empty clean list raises ``EmptyInput``."""
    if count <= 0:
        raise EmptyInput("count must be positive")
    if not clean_paths:
        raise EmptyInput("no clean files supplied")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clean_paths = sorted(str(p) for p in clean_paths)
    records = []
    for i in range(count):
        clean_path = clean_paths[i % len(clean_paths)]
        clean = read_wav(clean_path, sr)
        rseed = derive_record_seed(seed, i)
        spec = sample_spec(subset, split, rseed)
        noise = record_noise(spec, len(clean), sr)
        distorted, gain = apply_distortion(clean, spec, noise)
        name = f"{Path(clean_path).stem}_{subset}_{i:05d}.wav"
        dist_path = out_dir / name
        write_wav(dist_path, distorted)
        records.append(ManifestRecord(**vars(spec), clean_path=clean_path,
                                      distorted_path=str(dist_path), norm_gain=gain))
    manifest_path = out_dir / "manifest.tsv"
    write_manifest(manifest_path, records, sr)
    return manifest_path, records
