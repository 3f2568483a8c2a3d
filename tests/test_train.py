"""Optimizer math, schedule, two-phase protocol, and deterministic resume."""

import numpy as np
import pytest

from hdrs import simulate as S
from hdrs import train as TR
from hdrs.checkpoint import config_from_text, config_text
from hdrs.model import ModelConfig, count_params, init_params
from hdrs.tensor import Tensor
from oracles import ref_adam_trace
from synth import make_clean_dir

SR = 16000


def tiny_model():
    return ModelConfig(hidden_ch=2, depth=2, variant="hd_demucs")


def tiny_train(total=6, warm=3, **kw):
    kw.setdefault("batch_size", 2)
    kw.setdefault("segment_samples", 1280)
    kw.setdefault("seed", 11)
    return TR.TrainConfig(total_steps=total, warm_phase_steps=warm, **kw)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    clean = make_clean_dir(root / "clean", 2, 4000, seed=30)
    manifest, _ = S.generate_corpus(clean, root / "dist", "N", "train",
                                    seed=31, count=2)
    return manifest


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        cfg = tiny_train(total=100, warm=10, lr=0.0003)
        assert TR.cosine_lr(0, cfg) == pytest.approx(0.0003)
        assert TR.cosine_lr(100, cfg) == pytest.approx(0.0)
        assert TR.cosine_lr(50, cfg) == pytest.approx(0.00015)

    def test_monotone_nonincreasing(self):
        cfg = tiny_train(total=50, warm=5, lr=0.001)
        lrs = [TR.cosine_lr(s, cfg) for s in range(51)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] == 0.0

    def test_out_of_range(self):
        cfg = tiny_train()
        with pytest.raises(TR.StepOutOfRange):
            TR.cosine_lr(cfg.total_steps + 1, cfg)


def scalar_state(theta0=0.0):
    p = Tensor(np.array([theta0], dtype=np.float64), requires_grad=True)
    params = {"w": p}
    st = TR.TrainState(step=0, phase="warm", seed=0,
                       m={"w": np.zeros(1)}, v={"w": np.zeros(1)})
    return params, st


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params, st = scalar_state(1.5)
        params["w"].grad = np.zeros(1)
        TR.adam_step(params, st, lr_t=0.1)
        assert params["w"].data[0] == 1.5

    def test_first_step_is_signed_lr(self):
        params, st = scalar_state(0.0)
        params["w"].grad = np.array([0.37])
        TR.adam_step(params, st, lr_t=0.01)
        assert params["w"].data[0] == pytest.approx(-0.01, rel=1e-6)

    def test_ten_step_trace_matches_reference(self):
        rng = np.random.default_rng(0)
        grads = rng.standard_normal(10)
        params, st = scalar_state(0.25)
        got = []
        for g in grads:
            params["w"].grad = np.array([g])
            TR.adam_step(params, st, lr_t=0.005)
            got.append(params["w"].data[0])
        want = ref_adam_trace(grads, lr=0.005, theta0=0.25)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_non_finite_gradient_rejected(self):
        params, st = scalar_state()
        params["w"].grad = np.array([np.nan])
        with pytest.raises(TR.NonFiniteGradient):
            TR.adam_step(params, st, lr_t=1e-3)


class TestTrainLoop:
    def test_empty_manifest(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("#sample_rate=16000\n", encoding="utf-8")
        with pytest.raises(TR.ManifestEmpty):
            TR.train(tiny_model(), tiny_train(), p, tmp_path / "run")

    def test_phase_flips_after_warm_steps(self, corpus, tmp_path):
        _, _, rows = TR.train(tiny_model(), tiny_train(total=5, warm=3),
                              corpus, tmp_path / "run")
        phases = [r[1] for r in rows]
        assert phases == ["warm", "warm", "warm", "joint", "joint"]

    def test_warm_phase_leaves_fusion_untouched(self, corpus, tmp_path):
        # inspect the checkpoint taken while still in the warm phase: the
        # fusion stack matches its initialization (zero moments), everything
        # else has moved
        mcfg = tiny_model()
        tcfg = tiny_train(total=4, warm=2, checkpoint_interval=2)
        init = init_params(mcfg, tcfg.seed, np.float32)
        TR.train(mcfg, tcfg, corpus, tmp_path / "warm")
        params, state, _, _ = TR.load_checkpoint(tmp_path / "warm" / "step00000002.ckpt")
        fusion = [k for k in params if k.startswith("fusion.")]
        moved = [k for k in params
                 if not k.startswith("fusion.") and k.endswith(".w")]
        assert fusion
        for k in fusion:
            np.testing.assert_array_equal(params[k].data, init[k].data)
            assert np.all(state.m[k] == 0) and np.all(state.v[k] == 0)
        assert any(not np.array_equal(params[k].data, init[k].data) for k in moved)

    def test_seeded_rerun_bit_identical(self, corpus, tmp_path):
        mcfg, tcfg = tiny_model(), tiny_train(total=4, warm=2)
        TR.train(mcfg, tcfg, corpus, tmp_path / "a")
        TR.train(mcfg, tcfg, corpus, tmp_path / "b")
        assert ((tmp_path / "a" / "final.ckpt").read_bytes()
                == (tmp_path / "b" / "final.ckpt").read_bytes())
        assert ((tmp_path / "a" / "metrics.log").read_text()
                == (tmp_path / "b" / "metrics.log").read_text())

    def test_resume_matches_uninterrupted(self, corpus, tmp_path):
        # resume from the mid-run interval checkpoint and land bit-identical
        # to the uninterrupted run (crosses the warm->joint boundary)
        mcfg, tcfg = tiny_model(), tiny_train(total=6, warm=3, checkpoint_interval=3)
        TR.train(mcfg, tcfg, corpus, tmp_path / "full")
        resume_dir = tmp_path / "resumed"
        TR.train(mcfg, tcfg, corpus, resume_dir,
                 resume=tmp_path / "full" / "step00000003.ckpt")
        assert ((resume_dir / "final.ckpt").read_bytes()
                == (tmp_path / "full" / "final.ckpt").read_bytes())

    def test_checkpoint_round_trip_bit_exact(self, corpus, tmp_path):
        mcfg, tcfg = tiny_model(), tiny_train(total=2, warm=1)
        params, state, _ = TR.train(mcfg, tcfg, corpus, tmp_path / "run")
        path = tmp_path / "run" / "final.ckpt"
        params2, state2, mcfg2, tcfg2 = TR.load_checkpoint(path)
        assert (mcfg2, tcfg2) == (mcfg, tcfg)
        assert (state2.step, state2.phase, state2.seed) == (state.step, state.phase,
                                                            state.seed)
        for k in params:
            np.testing.assert_array_equal(params2[k].data, params[k].data)
            np.testing.assert_array_equal(state2.m[k], state.m[k])
            np.testing.assert_array_equal(state2.v[k], state.v[k])

    def test_metrics_log_schema(self, corpus, tmp_path):
        TR.train(tiny_model(), tiny_train(total=2, warm=1), corpus, tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.log").read_text().splitlines()
        assert len(lines) == 2
        parts = lines[0].split("\t")
        assert len(parts) == 6
        assert parts[0] == "1" and parts[1] == "warm"
        floats = [float(v) for v in parts[2:]]
        assert all(np.isfinite(floats))

    def test_nan_poisoned_resume_raises(self, corpus, tmp_path):
        mcfg, tcfg = tiny_model(), tiny_train(total=3, warm=1, checkpoint_interval=1)
        TR.train(mcfg, tcfg, corpus, tmp_path / "run")
        ckpt = tmp_path / "run" / "step00000001.ckpt"
        params, state, m2, t2 = TR.load_checkpoint(ckpt)
        params["enc.0.conv.w"].data[:] = np.nan
        TR.save_checkpoint(ckpt, params, state, m2, t2)
        with pytest.raises(TR.NonFiniteLoss):
            TR.train(mcfg, tcfg, corpus, tmp_path / "poisoned", resume=ckpt)

    def test_params_stay_finite(self, corpus, tmp_path):
        params, _, _ = TR.train(tiny_model(), tiny_train(total=4, warm=2),
                                corpus, tmp_path / "run")
        for p in params.values():
            assert np.all(np.isfinite(p.data))


def test_config_round_trip():
    cfg = tiny_train(total=9, warm=4, lr=0.002, checkpoint_interval=3)
    assert config_from_text(TR.TrainConfig, "train", config_text(cfg, "train")) == cfg


def test_default_config_text_is_pinned():
    """The checkpoint text of the default config, key order included."""
    assert list(config_text(TR.TrainConfig(), "train").items()) == [
        ("train.total_steps", "2000"), ("train.warm_phase_steps", "1000"),
        ("train.lr", "0.0003"), ("train.batch_size", "4"),
        ("train.segment_samples", "32000"), ("train.seed", "0"),
        ("train.checkpoint_interval", "0")]


def test_config_validation():
    with pytest.raises(ValueError):
        TR.TrainConfig(total_steps=5, warm_phase_steps=5)
    with pytest.raises(ValueError):
        TR.TrainConfig(total_steps=0)
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            TR.TrainConfig(lr=lr)
    with pytest.raises(ValueError, match="checkpoint_interval"):
        TR.TrainConfig(checkpoint_interval=-1)
