"""CLI contracts: flags, exit codes, file outputs."""

import numpy as np
import pytest

from hdrs.audio import read_wav
from hdrs.cli import build_parser, main
from hdrs.simulate import SUBSET_B_TEST_CUTOFFS_HZ, read_manifest
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

    def test_set_override_wins(self, workspace, tmp_path, capsys):
        cfg = workspace / "run.ini"
        main(["train", "--config", str(cfg), "--quiet", "--set", "model.hidden_ch=4",
              "--manifest", str(workspace / "corpus" / "manifest.tsv"),
              "--out", str(tmp_path / "ovr")])
        assert "config: model.hidden_ch = 4" in capsys.readouterr().out

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


class TestRestore:
    def test_batch_restores_mirrored_names(self, workspace, tmp_path, capsys):
        out = tmp_path / "restored"
        assert main(["restore", "--ckpt", str(workspace / "run" / "final.ckpt"),
                     "--in", str(workspace / "clean"), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.wav"))
        assert names == ["clean00.wav", "clean01.wav"]
        a = read_wav(workspace / "clean" / "clean00.wav")
        b = read_wav(out / "clean00.wav")
        assert len(a) == len(b)
        lines = capsys.readouterr().out.splitlines()
        assert f"restored clean00.wav ({len(a)} samples, 0 clipped)" in lines

    def test_dump_trace_mask_bounded(self, workspace, tmp_path):
        from hdrs.audio import AudioBuffer, write_wav
        from hdrs.train import load_checkpoint
        ckpt = str(workspace / "run" / "final.ckpt")
        _, _, cfg, _ = load_checkpoint(ckpt, moments=False)
        clip = read_wav(workspace / "clean" / "clean00.wav")
        n = len(clip) - 3
        # the model pads this input, so the trim is exercised
        assert n % cfg.stride ** cfg.depth
        src = tmp_path / "odd.wav"
        write_wav(src, AudioBuffer(clip.samples[:n], clip.sample_rate))
        out = tmp_path / "traced"
        assert main(["restore", "--ckpt", ckpt, "--in", str(src),
                     "--out", str(out), "--dump-trace"]) == 0
        mask = read_wav(out / "odd.mask.wav").samples
        assert mask.min() >= 0.0 and mask.max() <= 1.0
        for suffix in ("w.wav", "refined.wav", "in.pgm", "out.pgm"):
            assert (out / f"odd.{suffix}").exists()
        # the branch signals run at the 4x model rate, trimmed to the input
        assert len(read_wav(out / "odd.wav")) == n
        for name in ("mask", "w", "refined"):
            sig = read_wav(out / f"odd.{name}.wav")
            assert sig.sample_rate == 4 * 16000
            assert len(sig) == 4 * n
        header = (out / "odd.in.pgm").read_bytes()[:2]
        assert header == b"P5"

    def test_dump_trace_in_windows_matches_one_pass(self, workspace, tmp_path, monkeypatch):
        """A restore run in 4 windows (monkeypatched small) writes the same
        restored, mask, w and refined WAVs, at the same lengths, as one pass:
        within 1e-15 of each signal's peak, which 16-bit samples only meet by
        being equal."""
        from hdrs import model
        from hdrs.audio import AudioBuffer, write_wav
        clip = read_wav(workspace / "clean" / "clean00.wav")
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
            one, windowed = (read_wav(tmp_path / tag / f"odd.{name}").samples
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

    def test_moments_do_not_change_restored_bytes(self, workspace, tmp_path):
        from hdrs.checkpoint import load_container, save_container
        ckpt = workspace / "run" / "final.ckpt"
        text, arrays = load_container(ckpt)
        assert any(name.startswith("adam.") for name in arrays)
        bare = tmp_path / "bare.ckpt"
        save_container(bare, text, {k: v for k, v in arrays.items()
                                    if not k.startswith("adam.")})
        for tag, path in (("with", ckpt), ("without", bare)):
            assert main(["restore", "--ckpt", str(path), "--in", str(workspace / "clean"),
                         "--out", str(tmp_path / tag)]) == 0
        for name in ("clean00.wav", "clean01.wav"):
            assert ((tmp_path / "with" / name).read_bytes()
                    == (tmp_path / "without" / name).read_bytes())


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

    def test_malformed_manifest_exits_2_naming_line(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#sample_rate=16000\nnot\tenough\tfields\n", encoding="utf-8")
        code = main(["evaluate", "--ckpt", str(workspace / "run" / "final.ckpt"),
                     "--manifest", str(bad), "--report", str(tmp_path / "r.tsv")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err


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
