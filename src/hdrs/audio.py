"""Mono waveform container and PCM WAV I/O.

Canonical format is 16-bit little-endian mono at 16 kHz. The reader also
accepts 24-bit, in the plain PCM form only: ``wave`` refuses
WAVE_FORMAT_EXTENSIBLE (tag 65534) and IEEE-float files, which raise
``WavFormatError``. Samples are converted to float in [-1, 1]. The writer
always emits 16-bit PCM with deterministic rounding, so identical float
input produces byte-identical files.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CANONICAL_RATE = 16000
_WRITE_BLOCK = 1 << 16  # samples converted to 16-bit PCM at a time


class WavFormatError(ValueError):
    """Unsupported or malformed WAV content."""


class EmptyInput(ValueError):
    """A WAV or waveform without samples."""


class SampleRateMismatch(ValueError):
    """A WAV or manifest whose rate is not the one its reader expects."""


@dataclass
class AudioBuffer:
    samples: np.ndarray  # 1-D float array in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1:
            raise WavFormatError(f"expected mono 1-D samples, got shape {self.samples.shape}")

    def __len__(self) -> int:
        return len(self.samples)


def read_wav(path, sample_rate: int) -> AudioBuffer:
    """The mono PCM file at ``path`` as floats in [-1, 1]. A file whose rate
    is not ``sample_rate`` raises ``SampleRateMismatch`` and one without
    samples ``EmptyInput``, each naming the file."""
    try:
        with wave.open(str(path), "rb") as w:
            channels = w.getnchannels()
            width = w.getsampwidth()
            rate = w.getframerate()
            raw = w.readframes(w.getnframes())
    except (wave.Error, EOFError) as e:  # not RIFF/WAVE, or a truncated header
        raise WavFormatError(f"{path}: malformed WAV ({e or 'truncated'})") from e
    if rate != sample_rate:
        raise SampleRateMismatch(f"{path}: rate {rate} Hz, expected {sample_rate} Hz")
    if channels != 1:
        raise WavFormatError(f"{path}: expected mono, got {channels} channels")
    if not raw:
        raise EmptyInput(f"{path}: no samples")
    if width == 2:
        data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 3:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        ints = (b[:, 0].astype(np.int32)
                | (b[:, 1].astype(np.int32) << 8)
                | (b[:, 2].astype(np.int32) << 16))
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        data = ints.astype(np.float64) / float(1 << 23)
    else:
        raise WavFormatError(f"{path}: unsupported sample width {width * 8} bits")
    return AudioBuffer(data, rate)


def write_wav(path, buf: AudioBuffer) -> int:
    """Write 16-bit PCM; returns how many samples lay outside [-1, 1] and
    were clipped. Converts ``_WRITE_BLOCK`` samples at a time, so its
    temporaries do not grow with the file."""
    ints = np.empty(len(buf), "<i2")
    n_clipped = 0
    for s in range(0, len(buf), _WRITE_BLOCK):
        block = np.asarray(buf.samples[s:s + _WRITE_BLOCK], dtype=np.float64)
        n_clipped += int(np.count_nonzero(np.abs(block) > 1.0))
        ints[s:s + _WRITE_BLOCK] = np.clip(np.rint(np.clip(block, -1.0, 1.0) * 32768.0),
                                           -32768, 32767)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(buf.sample_rate)
        w.writeframes(ints.tobytes())
    return n_clipped
