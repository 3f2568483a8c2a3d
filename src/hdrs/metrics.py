"""Objective evaluation: SI-SDR and a multi-resolution spectral distance.

SI-SDR projects the estimate onto the reference before the energy ratio, so
it is invariant to positive rescaling of the estimate. Degenerate cases are
capped at +-100 dB to keep subset aggregation finite. The spectral distance
reuses the training-time multi-resolution criterion as a scorer; a
reference's spectra are computed once and scored against several
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .audio import CANONICAL_RATE, SampleRateMismatch
from .dsp import stft_magnitude
from .loss import STFT_RESOLUTIONS, LengthMismatch, loss_freq
from .model import ModelConfig, forward
from .simulate import read_manifest, read_pair
from .tensor import Tensor

SI_SDR_CAP_DB = 100.0


class SilentReference(ValueError):
    pass


def si_sdr(ref, est) -> float:
    """Scale-invariant signal-to-distortion ratio in dB."""
    ref = np.asarray(ref, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if ref.shape != est.shape:
        raise LengthMismatch(f"lengths differ: {ref.shape} vs {est.shape}")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise SilentReference("reference signal is silent")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    e_target = float(np.dot(target, target))
    resid = est - target
    e_resid = float(np.dot(resid, resid))
    if e_resid < 1e-12 * e_target:
        return SI_SDR_CAP_DB
    if e_target == 0.0:
        return -SI_SDR_CAP_DB
    return float(np.clip(10.0 * np.log10(e_target / e_resid),
                         -SI_SDR_CAP_DB, SI_SDR_CAP_DB))


def mr_spectral_distance(ref, est) -> float:
    """Multi-resolution spectral distance (same form as the training
    frequency criterion), evaluated without recording gradients."""
    return mr_spectral_distances(ref, [est])[0]


def mr_spectral_distances(ref, ests) -> list:
    """``mr_spectral_distance`` of each estimate against one reference.

    Each of the reference's spectra is computed once, at its resolution, and
    scored against every estimate before the next resolution, so one
    reference spectrum is held at a time. The per-resolution terms add up
    in the criterion's order, so each distance is bit-identical to its own
    ``mr_spectral_distance`` call.
    """
    x = Tensor(np.asarray(ref, dtype=np.float64))
    ests = [Tensor(np.asarray(e, dtype=np.float64)) for e in ests]
    totals = [0.0] * len(ests)
    with T.no_grad():
        for cfg in STFT_RESOLUTIONS:
            mag_ref = (stft_magnitude(x, cfg),)
            for i, est in enumerate(ests):
                totals[i] += loss_freq(x, est, (cfg,), mags_ref=mag_ref)[0].item()
    return totals


@dataclass
class EvalRow:
    path: str
    subset: str
    si_sdr_in: float
    si_sdr_out: float
    si_sdr_impr: float
    mrsd_in: float
    mrsd_out: float


@dataclass
class EvalReport:
    rows: list

    def subsets(self) -> list:
        seen = []
        for r in self.rows:
            if r.subset not in seen:
                seen.append(r.subset)
        return seen

    def means(self, subset: str | None = None) -> dict:
        rows = [r for r in self.rows if subset is None or r.subset == subset]
        if not rows:
            raise ValueError(f"no rows for subset {subset!r}")
        out = {}
        for key in ("si_sdr_in", "si_sdr_out", "si_sdr_impr", "mrsd_in", "mrsd_out"):
            out[key] = float(np.mean([getattr(r, key) for r in rows]))
        out["count"] = len(rows)
        return out


def evaluate(manifest_path, params: dict, cfg: ModelConfig,
             subset: str | None = None) -> EvalReport:
    """Score every (clean, distorted) pair: the unprocessed input and the
    restored output against the clean reference. A manifest whose rate is
    not ``CANONICAL_RATE``, or a WAV whose rate is not the manifest's, raises
    ``SampleRateMismatch``; a pair of unequal lengths ``LengthMismatch``."""
    sr, records = read_manifest(manifest_path)
    if subset is not None:
        records = [r for r in records if r.subset == subset]
    if not records:
        raise ValueError(f"manifest has no records for subset {subset!r}")
    if sr != CANONICAL_RATE:
        raise SampleRateMismatch(
            f"{manifest_path}: manifest rate {sr} != model rate {CANONICAL_RATE}")
    rows = []
    for r in records:
        clean, dist = read_pair(r, sr)
        with T.no_grad():
            restored = forward(dist.astype(np.float32), params, cfg).data
        restored = restored.astype(np.float64)
        si_in = si_sdr(clean, dist)
        si_out = si_sdr(clean, restored)
        mrsd_in, mrsd_out = mr_spectral_distances(clean, [dist, restored])
        rows.append(EvalRow(
            path=r.distorted_path, subset=r.subset,
            si_sdr_in=si_in, si_sdr_out=si_out, si_sdr_impr=si_out - si_in,
            mrsd_in=mrsd_in, mrsd_out=mrsd_out,
        ))
    return EvalReport(rows)


REPORT_COLUMNS = ("path", "subset", "si_sdr_in", "si_sdr_out", "si_sdr_impr",
                  "mrsd_in", "mrsd_out")


def write_report(path, report: EvalReport) -> None:
    lines = ["\t".join(REPORT_COLUMNS)]
    for r in report.rows:
        lines.append("\t".join([r.path, r.subset] +
                               [f"{getattr(r, k):.6f}" for k in REPORT_COLUMNS[2:]]))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
