"""CLI contracts: flags, exit codes, file outputs."""

import dataclasses
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from hdrs.audio import read_wav
from hdrs.cli import EXIT_CODES, build_parser, load_run_config, main
from hdrs.simulate import SUBSET_B_TEST_CUTOFFS_HZ, read_manifest, write_manifest
from synth import make_clean_dir

CONFIG = """
[model]
hidden_ch = 2
depth = 2
variant = {variant}

[train]
total_steps = 2
warm_phase_steps = 1
batch_size = 1
segment_samples = 1280
seed = 3
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    make_clean_dir(root / "clean", 2, 4000, seed=50)
    assert main(["simulate", "--clean-dir", str(root / "clean"),
                 "--out-dir", str(root / "corpus"), "--subset", "N",
                 "--split", "train", "--seed", "5", "--count", "2"]) == 0
    cfg = root / "run.ini"
    cfg.write_text(CONFIG.format(variant="hd_demucs"), encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--quiet",
                 "--manifest", str(root / "corpus" / "manifest.tsv"),
                 "--out", str(root / "run")]) == 0
    return root


def _flip_moment_byte(ckpt: Path, out: Path) -> Path:
    """Writes ``ckpt`` to ``out`` with one bit flipped in the last data byte
    of the last Adam moment, just before the moment section's CRC."""
    blob = bytearray(ckpt.read_bytes())
    blob[-5] ^= 0x01
    out.write_bytes(bytes(blob))
    return out


class TestSimulate:
    def test_subset_b_test_is_lowpass_only(self, tmp_path, workspace):
        assert main(["simulate", "--clean-dir", str(workspace / "clean"),
                     "--out-dir", str(tmp_path / "b"), "--subset", "B",
                     "--split", "test", "--seed", "6", "--count", "8"]) == 0
        _, records = read_manifest(tmp_path / "b" / "manifest.tsv")
        assert len(records) == 8
        for r in records:
            assert r.filter_kind == "lowpass"
            assert r.cutoffs in SUBSET_B_TEST_CUTOFFS_HZ

    def test_same_seed_byte_identical_tree(self, tmp_path, workspace):
        for d in ("t1", "t2"):
            assert main(["simulate", "--clean-dir", str(workspace / "clean"),
                         "--out-dir", str(tmp_path / d), "--subset", "R",
                         "--split", "train", "--seed", "7", "--count", "3"]) == 0
        files1 = sorted((tmp_path / "t1").iterdir())
        files2 = sorted((tmp_path / "t2").iterdir())
        assert [f.name for f in files1] == [f.name for f in files2]
        for a, b in zip(files1, files2):
            if a.suffix == ".wav":
                assert a.read_bytes() == b.read_bytes()

    def test_zero_count_exits_3(self, tmp_path, workspace):
        assert main(["simulate", "--clean-dir", str(workspace / "clean"),
                     "--out-dir", str(tmp_path / "z"), "--subset", "N",
                     "--split", "train", "--seed", "8", "--count", "0"]) == 3

    def test_unknown_simulate_key_exits_2(self, tmp_path, workspace, capsys):
        assert main(["simulate", "--clean-dir", str(workspace / "clean"),
                     "--out-dir", str(tmp_path / "u"), "--subset", "N", "--split", "train",
                     "--count", "1", "--set", "simulate.foo=1"]) == 2
        assert "'foo'" in capsys.readouterr().err

    def test_missing_count_exits_2(self, tmp_path, workspace, capsys):
        """Settings come from flags, the config file or --set; count has no default."""
        assert main(["simulate", "--clean-dir", str(workspace / "clean"),
                     "--out-dir", str(tmp_path / "m"), "--subset", "N",
                     "--set", "simulate.split=train"]) == 2
        assert "missing simulate settings" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_empty_clean_dir_exits_3(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["simulate", "--clean-dir", str(tmp_path / "empty"),
                     "--out-dir", str(tmp_path / "o"), "--subset", "N",
                     "--split", "train", "--seed", "9", "--count", "2"]) == 3


class TestTrain:
    def test_missing_manifest_exits_2_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        code = main(["train", "--manifest", str(missing), "--out", str(tmp_path / "r")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_config_echoed(self, workspace, tmp_path, capsys):
        cfg = workspace / "run.ini"
        main(["train", "--config", str(cfg), "--quiet",
              "--manifest", str(workspace / "corpus" / "manifest.tsv"),
              "--out", str(tmp_path / "echo")])
        out = capsys.readouterr().out
        assert "config: model.hidden_ch = 2" in out
        assert "config: train.total_steps = 2" in out
        # every key, each section's sorted: a new knob shows up here
        assert re.findall(r"^config: (\S+) = ", out, re.M) == [
            "model.depth", "model.hidden_ch", "model.variant",
            "train.batch_size", "train.checkpoint_interval", "train.lr", "train.seed",
            "train.segment_samples", "train.total_steps", "train.warm_phase_steps",
            "simulate.count", "simulate.seed", "simulate.split", "simulate.subset"]

    @pytest.mark.parametrize("variant", ["demucs_baseline", "no_fusion_no_skip"])
    def test_ablation_variants_train(self, workspace, tmp_path, variant):
        cfg = tmp_path / f"{variant}.ini"
        cfg.write_text(CONFIG.format(variant=variant), encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                     "--out", str(tmp_path / variant)]) == 0

    def test_unknown_config_key_exits_2(self, workspace, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nbogus_key = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(bad), "--quiet",
                     "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                     "--out", str(tmp_path / "bad")]) == 2

    @pytest.mark.parametrize("key", ["resample_factor", "kernel", "stride", "lstm_layers",
                                     "fusion_ch", "refinement_dilations", "sample_rate"])
    def test_fixed_geometry_is_an_unknown_key(self, workspace, tmp_path, capsys, key):
        """The resampling factor and sample rate are fixed by the DSP and
        audio layers, and the kernel, stride, LSTM depth, fusion width and
        refinement dilations by ``hdrs.model``; none is a config key."""
        assert main(["train", "--config", str(workspace / "run.ini"), "--quiet",
                     "--set", f"model.{key}=4",
                     "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                     "--out", str(tmp_path / "bad")]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lr_min", "beta1", "beta2", "eps", "grad_clip"])
    def test_fixed_recipe_key_in_checkpoint_exits_2(self, workspace, tmp_path, capsys, key):
        """Adam's settings and the schedule's floor are constants of
        ``hdrs.train``, and there is no gradient clipping: a checkpoint
        written while they were ``train.*`` keys is refused naming the key."""
        from hdrs.checkpoint import load_container, save_container
        text, arrays = load_container(workspace / "run" / "final.ckpt", 2)
        old = tmp_path / "old.ckpt"
        moments = {k: arrays.pop(k) for k in list(arrays) if k.startswith("adam.")}
        save_container(old, {**text, f"train.{key}": "0.5"}, arrays, moments)
        assert main(["train", "--config", str(workspace / "run.ini"), "--quiet",
                     "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                     "--out", str(tmp_path / "res"), "--resume", str(old)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["model.depth=0", "model.hidden_ch=0",
                                      "train.checkpoint_interval=-1", "train.lr=nan"])
    def test_invalid_value_exits_2(self, workspace, tmp_path, capsys, spec):
        """A config value outside its range is a configuration error, raised
        before any work, naming the field."""
        assert main(["train", "--config", str(workspace / "run.ini"), "--quiet",
                     "--set", spec, "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                     "--out", str(tmp_path / "bad")]) == 2
        assert spec.split(".")[1].split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_set_override_wins(self, workspace, tmp_path, capsys):
        cfg = workspace / "run.ini"
        main(["train", "--config", str(cfg), "--quiet", "--set", "model.hidden_ch=4",
              "--manifest", str(workspace / "corpus" / "manifest.tsv"),
              "--out", str(tmp_path / "ovr")])
        assert "config: model.hidden_ch = 4" in capsys.readouterr().out

    def test_readme_ini_example_parses(self, tmp_path):
        """The README's INI block, inline ``;`` comments included, read verbatim."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        ini = tmp_path / "readme.ini"
        ini.write_text(block, encoding="utf-8")
        run = load_run_config(str(ini), [])
        assert run.model.hidden_ch == 48
        assert run.model.variant == "hd_demucs"
        assert run.train.warm_phase_steps == 10000

    def test_resume_flag_reproduces_uninterrupted_run(self, workspace, tmp_path):
        cfg = tmp_path / "resume.ini"
        cfg.write_text(CONFIG.format(variant="hd_demucs")
                       + "checkpoint_interval = 1\n", encoding="utf-8")
        manifest = str(workspace / "corpus" / "manifest.tsv")
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--manifest", manifest, "--out", str(tmp_path / "full")]) == 0
        assert main(["train", "--config", str(cfg), "--quiet",
                     "--manifest", manifest, "--out", str(tmp_path / "res"),
                     "--resume", str(tmp_path / "full" / "step00000001.ckpt")]) == 0
        assert ((tmp_path / "res" / "final.ckpt").read_bytes()
                == (tmp_path / "full" / "final.ckpt").read_bytes())

    def test_resume_from_flipped_moment_exits_2(self, workspace, tmp_path, capsys):
        """A resume reads the Adam moments, so one flipped moment bit fails it:
        exit 2, the checkpoint named, a checksum mismatch."""
        bad = _flip_moment_byte(workspace / "run" / "final.ckpt", tmp_path / "flipped.ckpt")
        assert main(["train", "--config", str(workspace / "run.ini"), "--quiet",
                     "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                     "--out", str(tmp_path / "res"), "--resume", str(bad)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "checksum" in err


class TestRestore:
    def test_batch_restores_mirrored_names(self, workspace, tmp_path, capsys):
        out = tmp_path / "restored"
        assert main(["restore", "--ckpt", str(workspace / "run" / "final.ckpt"),
                     "--in", str(workspace / "clean"), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.wav"))
        assert names == ["clean00.wav", "clean01.wav"]
        a = read_wav(workspace / "clean" / "clean00.wav", 16000)
        b = read_wav(out / "clean00.wav", 16000)
        assert len(a) == len(b)
        lines = capsys.readouterr().out.splitlines()
        assert f"restored clean00.wav ({len(a)} samples, 0 clipped)" in lines

    def test_dump_trace_mask_bounded(self, workspace, tmp_path, monkeypatch):
        """The trained hd_demucs checkpoint writes mask, w and refined WAVs;
        a suppression_only one writes the mask alone. Each run in one window
        and in four (the padded input is 1000 frames of 16 upsampled
        samples at depth 2)."""
        from hdrs import model
        from hdrs.audio import AudioBuffer, write_wav
        from hdrs.train import TrainConfig, TrainState, save_checkpoint
        sup_cfg = model.ModelConfig(hidden_ch=2, depth=2, variant="suppression_only")
        params = model.init_params(sup_cfg, 60)
        state = TrainState(step=0, phase="warm", seed=60)
        for name, p in params.items():
            state.m[name] = state.v[name] = np.zeros_like(p.data)
        save_checkpoint(tmp_path / "sup.ckpt", params, state, sup_cfg, TrainConfig())
        clip = read_wav(workspace / "clean" / "clean00.wav", 16000)
        n = len(clip) - 3
        # the model pads this input, so the trim is exercised
        assert n % model.STRIDE ** sup_cfg.depth
        src = tmp_path / "odd.wav"
        write_wav(src, AudioBuffer(clip.samples[:n], clip.sample_rate))
        hd_cfg = dataclasses.replace(sup_cfg, variant="hd_demucs")
        for ckpt, cfg, signals in (
                (workspace / "run" / "final.ckpt", hd_cfg, ("mask", "w", "refined")),
                (tmp_path / "sup.ckpt", sup_cfg, ("mask",))):
            for window in (1000, 250):
                monkeypatch.setattr(model, "_WINDOW_BYTES", window * 4 * model.frame_width(cfg))
                out = tmp_path / f"{ckpt.stem}-{window}"
                assert main(["restore", "--ckpt", str(ckpt), "--in", str(src),
                             "--out", str(out), "--dump-trace"]) == 0
                mask = read_wav(out / "odd.mask.wav", 4 * 16000).samples
                assert mask.min() >= 0.0 and mask.max() <= 1.0
                # the branch signals run at the 4x model rate, trimmed to the input
                assert len(read_wav(out / "odd.wav", 16000)) == n
                for name in ("mask", "w", "refined"):
                    assert (out / f"odd.{name}.wav").exists() == (name in signals), name
                    if name in signals:
                        sig = read_wav(out / f"odd.{name}.wav", 4 * 16000)
                        assert sig.sample_rate == 4 * 16000
                        assert len(sig) == 4 * n
                for tag in ("in", "out"):
                    assert (out / f"odd.{tag}.pgm").read_bytes()[:2] == b"P5"

    def test_dump_trace_in_windows_matches_one_pass(self, workspace, tmp_path, monkeypatch):
        """A restore run in 4 windows (monkeypatched small) writes the same
        restored, mask, w and refined WAVs, at the same lengths, as one pass:
        within 1e-15 of each signal's peak, which 16-bit samples only meet by
        being equal."""
        from hdrs import model
        from hdrs.audio import AudioBuffer, write_wav
        clip = read_wav(workspace / "clean" / "clean00.wav", 16000)
        n = len(clip) - 1  # not a multiple of the model's 16-sample pad
        src = tmp_path / "odd.wav"
        write_wav(src, AudioBuffer(clip.samples[:n], clip.sample_rate))
        calls = []
        encode = model.encode
        monkeypatch.setattr(model, "encode", lambda *a: calls.append(1) or encode(*a))
        ckpt = str(workspace / "run" / "final.ckpt")
        # the padded input is 1000 frames of 16 upsampled samples (depth 2)
        width = model.frame_width(model.ModelConfig(hidden_ch=2, depth=2))
        for tag, window, windows in (("one", 1000, 1), ("windows", 250, 4)):
            monkeypatch.setattr(model, "_WINDOW_BYTES", window * 4 * width)
            calls.clear()
            assert main(["restore", "--ckpt", ckpt, "--in", str(src),
                         "--out", str(tmp_path / tag), "--dump-trace"]) == 0
            assert len(calls) == windows
        for name, length in (("wav", n), ("mask.wav", 4 * n), ("w.wav", 4 * n),
                             ("refined.wav", 4 * n)):
            rate = 16000 * length // n  # the 4x branch signals run at 4x the rate
            one, windowed = (read_wav(tmp_path / tag / f"odd.{name}", rate).samples
                             for tag in ("one", "windows"))
            assert len(one) == len(windowed) == length, name
            assert np.max(np.abs(one - windowed)) <= 1e-15 * np.max(np.abs(one)), name

    def test_sample_rate_mismatch_exits_5(self, workspace, tmp_path):
        from hdrs.audio import AudioBuffer, write_wav
        wrong = tmp_path / "wrong.wav"
        write_wav(wrong, AudioBuffer(np.zeros(1000), 8000))
        assert main(["restore", "--ckpt", str(workspace / "run" / "final.ckpt"),
                     "--in", str(wrong), "--out", str(tmp_path / "o")]) == 5

    def test_empty_wav_exits_3(self, workspace, tmp_path):
        from hdrs.audio import AudioBuffer, write_wav
        empty = tmp_path / "empty.wav"
        write_wav(empty, AudioBuffer(np.zeros(0), 16000))
        assert main(["restore", "--ckpt", str(workspace / "run" / "final.ckpt"),
                     "--in", str(empty), "--out", str(tmp_path / "o")]) == 3

    def test_format_1_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        """A checkpoint as format 1 wrote it (one CRC over the whole file) is
        refused by its version: exit 2, no WAV written."""
        from hdrs.checkpoint import load_container
        text, arrays = load_container(workspace / "run" / "final.ckpt")
        body = "".join(f"{k}={v}\n" for k, v in text.items()).encode("utf-8")
        blob = b"HDRS" + struct.pack("<II", 1, len(body)) + body + struct.pack("<I", len(arrays))
        for name, arr in arrays.items():
            nb = name.encode("utf-8")
            blob += struct.pack(f"<I{len(nb)}sI{arr.ndim}Q", len(nb), nb, arr.ndim, *arr.shape)
            blob += arr.tobytes()
        old = tmp_path / "v1.ckpt"
        old.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
        out = tmp_path / "o"
        assert main(["restore", "--ckpt", str(old), "--in", str(workspace / "clean"),
                     "--out", str(out)]) == 2
        assert "format version 1" in capsys.readouterr().err
        assert not out.exists() or not list(out.glob("*.wav"))

    @pytest.mark.parametrize("content", [b"not a wav file\n", "truncated"])
    def test_malformed_wav_exits_2(self, workspace, tmp_path, capsys, content):
        from hdrs.audio import AudioBuffer, write_wav
        bad = tmp_path / "bad.wav"
        if content == "truncated":  # the RIFF header and half the fmt chunk
            write_wav(bad, AudioBuffer(np.zeros(100), 16000))
            content = bad.read_bytes()[:30]
        bad.write_bytes(content)
        assert main(["restore", "--ckpt", str(workspace / "run" / "final.ckpt"),
                     "--in", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "malformed WAV" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["stray_key", "missing_key"])
    def test_malformed_checkpoint_text_exits_2(self, workspace, tmp_path, capsys, edit):
        from hdrs.checkpoint import load_container, save_container
        text, arrays = load_container(workspace / "run" / "final.ckpt")
        if edit == "stray_key":
            text["train.foo"] = "1"
        else:
            del text["model.depth"]
        bad = tmp_path / "bad.ckpt"
        save_container(bad, text, arrays)
        assert main(["restore", "--ckpt", str(bad), "--in", str(workspace / "clean"),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert ("foo" if edit == "stray_key" else "model.depth") in err

    def test_checkpoint_without_state_step_exits_2(self, workspace, tmp_path, capsys):
        from hdrs.checkpoint import Corrupt, load_container, save_container
        from hdrs.train import load_checkpoint
        text, arrays = load_container(workspace / "run" / "final.ckpt")
        del text["state.step"]
        bad = tmp_path / "bad.ckpt"
        save_container(bad, text, arrays)
        with pytest.raises(Corrupt, match="state.step"):
            load_checkpoint(bad)
        assert main(["restore", "--ckpt", str(bad), "--in", str(workspace / "clean"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "state.step" in capsys.readouterr().err

    def test_moments_do_not_change_restored_bytes(self, workspace, tmp_path):
        """Restore never reads the Adam moments: without them, or with one
        flipped moment bit, it writes the same bytes."""
        from hdrs.checkpoint import load_container, save_container
        ckpt = workspace / "run" / "final.ckpt"
        text, arrays = load_container(ckpt)
        assert any(name.startswith("adam.") for name in arrays)
        bare = tmp_path / "bare.ckpt"
        save_container(bare, text, {k: v for k, v in arrays.items()
                                    if not k.startswith("adam.")})
        flipped = _flip_moment_byte(ckpt, tmp_path / "flipped.ckpt")
        for tag, path in (("with", ckpt), ("without", bare), ("flipped", flipped)):
            assert main(["restore", "--ckpt", str(path), "--in", str(workspace / "clean"),
                         "--out", str(tmp_path / tag)]) == 0
        for name in ("clean00.wav", "clean01.wav"):
            want = (tmp_path / "with" / name).read_bytes()
            for tag in ("without", "flipped"):
                assert (tmp_path / tag / name).read_bytes() == want, tag


    @pytest.mark.parametrize("edit", ["no moments", "misshapen moment"])
    def test_resume_with_bad_moments_exits_2(self, workspace, tmp_path, capsys, edit):
        """A full load refuses a checkpoint without Adam moments, naming the
        first one missing, or with one of the wrong shape, so a resume from
        it never runs on zeroed or broadcast moments;
        ``test_moments_do_not_change_restored_bytes`` restores from the first."""
        from hdrs.checkpoint import Corrupt, load_container, save_container
        from hdrs.train import load_checkpoint
        text, arrays = load_container(workspace / "run" / "final.ckpt")
        params = {k: v for k, v in arrays.items() if not k.startswith("adam.")}
        moments = {} if edit == "no moments" else {
            k: v[:1] if k == "adam.m.enc.0.conv.w" else v for k, v in arrays.items()
            if k.startswith("adam.")}
        bad = tmp_path / "bad.ckpt"
        save_container(bad, text, params, moments)
        with pytest.raises(Corrupt, match=r"adam\.m\.enc\.0\.conv\.w"):
            load_checkpoint(bad)
        out = tmp_path / "resumed"
        assert main(["train", "--config", str(workspace / "run.ini"), "--quiet",
                     "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                     "--out", str(out), "--resume", str(bad)]) == 2
        assert "adam.m.enc.0.conv.w" in capsys.readouterr().err
        assert not out.exists() or not list(out.glob("*.ckpt"))


class TestEvaluate:
    def test_report_rows_match_manifest(self, workspace, tmp_path):
        report = tmp_path / "report.tsv"
        assert main(["evaluate", "--ckpt", str(workspace / "run" / "final.ckpt"),
                     "--manifest", str(workspace / "corpus" / "manifest.tsv"),
                     "--subset", "N", "--report", str(report)]) == 0
        _, records = read_manifest(workspace / "corpus" / "manifest.tsv")
        lines = report.read_text().splitlines()
        assert len(lines) == 1 + len(records)

    def test_subset_all_prints_mean_blocks(self, workspace, tmp_path, capsys):
        # build a 4-subset manifest by pooling four small corpora
        pooled = []
        sr = 16000
        for subset in ("N", "R", "B", "A"):
            main(["simulate", "--clean-dir", str(workspace / "clean"),
                  "--out-dir", str(tmp_path / subset), "--subset", subset,
                  "--split", "test", "--seed", "11", "--count", "1"])
            _, recs = read_manifest(tmp_path / subset / "manifest.tsv")
            pooled.extend(recs)
        from hdrs.simulate import write_manifest
        allpath = tmp_path / "all.tsv"
        write_manifest(allpath, pooled, sr)
        capsys.readouterr()
        assert main(["evaluate", "--ckpt", str(workspace / "run" / "final.ckpt"),
                     "--manifest", str(allpath), "--subset", "all",
                     "--report", str(tmp_path / "all_report.tsv")]) == 0
        out = capsys.readouterr().out
        for subset in ("N", "R", "B", "A"):
            assert f"subset {subset} (1 files):" in out

    def test_wav_rate_unlike_manifest_exits_5(self, workspace, tmp_path, capsys):
        from hdrs.audio import AudioBuffer, write_wav
        sr, records = read_manifest(workspace / "corpus" / "manifest.tsv")
        wrong = tmp_path / "wrong.wav"
        write_wav(wrong, AudioBuffer(read_wav(records[0].distorted_path, sr).samples, 8000))
        manifest = tmp_path / "wrong.tsv"
        write_manifest(manifest, [dataclasses.replace(records[0], distorted_path=str(wrong))],
                       sr)
        assert main(["evaluate", "--ckpt", str(workspace / "run" / "final.ckpt"),
                     "--manifest", str(manifest), "--report", str(tmp_path / "r.tsv")]) == 5
        assert "wrong.wav" in capsys.readouterr().err

    def test_malformed_manifest_exits_2_naming_line(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#sample_rate=16000\nnot\tenough\tfields\n", encoding="utf-8")
        code = main(["evaluate", "--ckpt", str(workspace / "run" / "final.ckpt"),
                     "--manifest", str(bad), "--report", str(tmp_path / "r.tsv")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err


class TestInputContract:
    """An input error exits with one code whichever command reads it."""

    @pytest.mark.parametrize("command,fault,code", [
        ("simulate", "wav_rate", 5), ("train", "wav_rate", 5),
        ("train", "manifest_rate", 5), ("evaluate", "manifest_rate", 5),
        ("simulate", "empty_wav", 3), ("train", "empty_wav", 3),
        ("evaluate", "empty_wav", 3), ("train", "short_wav", 2),
        ("evaluate", "short_wav", 2)])
    def test_exit_code(self, workspace, tmp_path, capsys, command, fault, code):
        from hdrs.audio import AudioBuffer, write_wav
        sr, records = read_manifest(workspace / "corpus" / "manifest.tsv")
        samples = read_wav(records[0].distorted_path, sr).samples
        bad = tmp_path / "in" / "bad.wav"
        cut = {"empty_wav": 0, "short_wav": 3 * len(samples) // 4}.get(fault)
        write_wav(bad, AudioBuffer(samples[:cut], 8000 if fault == "wav_rate" else sr))
        manifest = tmp_path / "bad.tsv"
        write_manifest(manifest, [dataclasses.replace(records[0], distorted_path=str(bad))],
                       8000 if fault == "manifest_rate" else sr)
        argv = {
            "simulate": ["--clean-dir", str(bad.parent), "--out-dir", str(tmp_path / "o"),
                         "--subset", "N", "--split", "train", "--seed", "1", "--count", "1"],
            "train": ["--config", str(workspace / "run.ini"), "--quiet",
                      "--manifest", str(manifest), "--out", str(tmp_path / "o")],
            "evaluate": ["--ckpt", str(workspace / "run" / "final.ckpt"),
                         "--manifest", str(manifest), "--report", str(tmp_path / "r.tsv")],
        }[command]
        assert main([command] + argv) == code
        err = capsys.readouterr().err
        assert (manifest if fault == "manifest_rate" else bad).name in err
        if fault == "short_wav":  # a pair of unequal lengths names both files
            assert Path(records[0].clean_path).name in err

    def test_readme_lists_every_exit_code(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
        listed = {int(c) for c in re.findall(r"`(\d+)`", paragraph)}
        assert listed == {0, 1} | set(EXIT_CODES.values())


class TestVerify:
    def test_params_suite_passes(self, capsys):
        assert main(["verify", "--suite", "params"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out

    def test_dsp_suite_passes(self, capsys):
        assert main(["verify", "--suite", "dsp"]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestParsing:
    def test_unknown_flag_is_hard_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--clean-dir", "x", "--out-dir", "y", "--bogus"])
        assert exc.value.code == 2

    def test_help_on_every_subcommand(self, capsys):
        for cmd, flags in (("simulate", ["--clean-dir", "--subset", "--count"]),
                           ("train", ["--config", "--manifest", "--resume"]),
                           ("restore", ["--ckpt", "--dump-trace"]),
                           ("evaluate", ["--manifest", "--report"]),
                           ("verify", ["--suite"])):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([cmd, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text
