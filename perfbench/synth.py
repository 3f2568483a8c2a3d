"""Synthetic clean speech-like clips for the benchmark inputs.

A local copy of the test suite's generators, so that edits to the tests
never change what the benchmark measures. ``seed`` is anything
``numpy.random.default_rng`` accepts.
"""

import numpy as np


def _harmonics(n: int, sr: int, rng) -> np.ndarray:
    t = np.arange(n) / sr
    f0 = rng.uniform(100, 180) + 30 * np.sin(2 * np.pi * rng.uniform(0.4, 1.2) * t)
    phase = 2 * np.pi * np.cumsum(f0) / sr
    x = np.zeros(n)
    for k in range(1, 12):
        x += np.sin(k * phase + rng.uniform(0, 2 * np.pi)) / k
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(1.5, 3.5) * t
                                    + rng.uniform(0, 2 * np.pi))
    return x * envelope


def synth_voice(n: int, sr: int, seed) -> np.ndarray:
    """Harmonic tone with drifting pitch, syllabic envelope and a weak
    broadband floor, peak 0.5."""
    rng = np.random.default_rng(seed)
    x = _harmonics(n, sr, rng) + 0.05 * rng.standard_normal(n)
    return 0.5 * x / np.max(np.abs(x))


def synth_harmonic(n: int, sr: int, seed) -> np.ndarray:
    """Pure harmonic clip, the training-drill material, peak 0.5."""
    x = _harmonics(n, sr, np.random.default_rng(seed))
    return 0.5 * x / np.max(np.abs(x))
