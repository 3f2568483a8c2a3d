"""WAV round trips and format handling."""

import struct
import wave

import numpy as np
import pytest

from hdrs.audio import (AudioBuffer, EmptyInput, SampleRateMismatch, WavFormatError, read_wav,
                        write_wav)


def test_pcm16_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = np.clip(rng.standard_normal(1000) * 0.3, -1, 1)
    p = tmp_path / "a.wav"
    write_wav(p, AudioBuffer(x, 16000))
    back = read_wav(p, 16000)
    assert back.sample_rate == 16000
    assert len(back) == 1000
    assert np.max(np.abs(back.samples - x)) < 1.0 / 32768

    # writer is deterministic: same floats -> same bytes
    p2 = tmp_path / "b.wav"
    write_wav(p2, AudioBuffer(x, 16000))
    assert p.read_bytes() == p2.read_bytes()


def test_pcm24_reader(tmp_path):
    vals = np.array([0.0, 0.5, -0.5, 0.999], dtype=np.float64)
    ints = np.rint(vals * (1 << 23)).astype(np.int64)
    ints = np.clip(ints, -(1 << 23), (1 << 23) - 1)
    raw = b"".join(struct.pack("<i", int(v))[:3] for v in ints)
    p = tmp_path / "c.wav"
    with wave.open(str(p), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(3)
        w.setframerate(16000)
        w.writeframes(raw)
    back = read_wav(p, 16000)
    np.testing.assert_allclose(back.samples, vals, atol=1e-6)


def test_rejects_stereo(tmp_path):
    p = tmp_path / "st.wav"
    with wave.open(str(p), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(b"\x00\x00" * 8)
    with pytest.raises(WavFormatError):
        read_wav(p, 16000)


def test_sample_rate_mismatch(tmp_path):
    p = tmp_path / "8k.wav"
    write_wav(p, AudioBuffer(np.zeros(100), 8000))
    with pytest.raises(SampleRateMismatch, match="8k.wav"):
        read_wav(p, 16000)
    assert read_wav(p, 8000).sample_rate == 8000


def test_rejects_empty(tmp_path):
    p = tmp_path / "empty.wav"
    write_wav(p, AudioBuffer(np.zeros(0), 16000))
    with pytest.raises(EmptyInput, match="empty.wav"):
        read_wav(p, 16000)


def test_rejects_2d_samples():
    with pytest.raises(WavFormatError):
        AudioBuffer(np.zeros((2, 10)), 16000)


def test_write_counts_clipped_samples(tmp_path):
    x = np.array([0.0, 1.0, -1.0, 1.5, -2.0, 0.25, 1.0 + 1e-9, -0.5])
    n = write_wav(tmp_path / "over.wav", AudioBuffer(x, 16000))
    assert n == 3
    assert write_wav(tmp_path / "in.wav", AudioBuffer(np.clip(x, -1, 1), 16000)) == 0
    # counting leaves the written bytes as they were
    assert (tmp_path / "over.wav").read_bytes() == (tmp_path / "in.wav").read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_write_blocks_match_whole_file_conversion(tmp_path, monkeypatch, dtype):
    """Blockwise conversion writes the bytes and counts the clipped samples
    of the whole-file expression, across block edges and a short last block."""
    import hdrs.audio
    monkeypatch.setattr(hdrs.audio, "_WRITE_BLOCK", 1000)
    rng = np.random.default_rng(3)
    x = (rng.standard_normal(4321) * 0.6).astype(dtype)
    x[[0, 999, 1000, 4320]] = [1.5, -1.0, -3.0, 1.0 + 1e-6]
    samples = np.asarray(x, dtype=np.float64)
    want_clipped = int(np.count_nonzero(np.abs(samples) > 1.0))
    want = np.clip(np.rint(np.clip(samples, -1.0, 1.0) * 32768.0), -32768, 32767).astype("<i2")
    assert want_clipped > 3
    p = tmp_path / "blocks.wav"
    assert write_wav(p, AudioBuffer(x, 16000)) == want_clipped
    with wave.open(str(p), "rb") as w:
        assert w.readframes(w.getnframes()) == want.tobytes()
