"""The benchmark's workloads: input generation, one measured round, and the
output checks that decide which operations failed.

Each workload calls the program's own top function (``cli.main``,
``train.train`` or ``simulate.generate_corpus``) on files generated here, so
the program receives only files. Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import math
import shutil
import time
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hdrs import cli, simulate, train
from hdrs.audio import AudioBuffer, write_wav
from hdrs.model import ModelConfig, init_params
from synth import synth_harmonic, synth_voice
from tracing import patch, unpatch

SR = 16000
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Training inputs depend on the seed only through seed % TRAIN_VARIANTS, so
# every seed has a recorded reference loss in reference.json.
TRAIN_VARIANTS = 8


class SetupDone(BaseException):
    """Raised at the first model.forward entry to end a set-up probe.

    A BaseException, so the program's ``except Exception`` handlers let it
    through.
    """


class FirstForward:
    """Records when model.forward is first entered after ``reset``."""

    def __init__(self):
        self.at = None
        self.abort = False
        self._undo = []

    def reset(self, abort: bool = False) -> None:
        self.at = None
        self.abort = abort

    def install(self) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.at is None:
                    self.at = time.perf_counter()
                    if self.abort:
                        raise SetupDone
                return fn(*args, **kwargs)
            return wrapper
        self._undo = patch("model.forward", make)

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []


@dataclass
class Round:
    """One round's timings and operation counts.

    ``parts`` maps each timed part of the round (one per top call, after its
    set-up) to its wall time; their sum over ``units`` is the end-to-end time
    per unit of work.
    """
    setup_s: float
    parts: dict
    units: float
    attempted: int
    failed: int
    errors: list = field(default_factory=list)

    @property
    def work_s(self) -> float:
        return sum(self.parts.values())


def wav_frames(path: Path):
    """(frames, rate, nonzero) of a PCM16 mono WAV, or None if unreadable."""
    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1 or w.getsampwidth() != 2:
                return None
            raw = w.readframes(w.getnframes())
            return w.getnframes(), w.getframerate(), bool(np.any(np.frombuffer(raw, "<i2")))
    except (OSError, EOFError, wave.Error):
        return None


def _write_clips(directory: Path, lengths_s, make, seed: int) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, seconds in enumerate(lengths_s):
        p = directory / f"clean{i:02d}.wav"
        write_wav(p, AudioBuffer(make(int(seconds * SR), SR, [seed, i]), SR))
        paths.append(p)
    return paths


def _save_model(path: Path, cfg: ModelConfig, seed: int) -> None:
    params = init_params(cfg, seed, np.float32)
    state = train.TrainState(step=0, phase="warm", seed=seed)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    train.save_checkpoint(path, params, state, cfg, train.TrainConfig())


def _timed_top_call(hook: FirstForward, tracer, call):
    """Runs ``call``, traced when ``tracer`` is given, so that the output
    checks stay outside the trace; returns (entry, first forward entry,
    exit, result, error)."""
    hook.reset()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as e:  # the round records it as failed operations
        result, error = None, f"{type(e).__name__}: {e}"
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    return t0, hook.at, t1, result, error


class Restore:
    """``hdrs restore`` of 1, 5 and 20 s subset-N inputs with an H=48 model."""

    name = "restore"
    markers = {"model.forward": 1}
    clip_s = (1, 5, 20)

    def prepare(self, d: Path, seed: int) -> None:
        clean = _write_clips(d / "clean", self.clip_s, synth_voice, seed)
        simulate.generate_corpus(clean, d / "noisy", "N", "train", seed, len(clean))
        (d / "noisy" / "manifest.tsv").unlink()
        _save_model(d / "model.ckpt", ModelConfig(hidden_ch=48, depth=5), seed)

    def _argv(self, d: Path, out: Path) -> list:
        return ["restore", "--ckpt", str(d / "model.ckpt"), "--in", str(d / "noisy"),
                "--out", str(out)]

    def probe(self, d: Path, seed: int) -> None:
        cli.main(self._argv(d, d / "probe"))

    def round(self, d: Path, seed: int, hook: FirstForward, tracer=None) -> Round:
        out = d / "restored"
        shutil.rmtree(out, ignore_errors=True)
        t0, tf, t1, rc, error = _timed_top_call(
            hook, tracer, lambda: cli.main(self._argv(d, out)))
        errors = [error or f"restore exited {rc}"] if error or rc != 0 else []
        if tf is None:
            errors.append("model.forward never ran")
            tf = t0
        inputs = sorted((d / "noisy").glob("*.wav"))
        audio_s, failed = 0.0, 0
        for f in inputs:
            want, got = wav_frames(f), wav_frames(out / f.name)
            audio_s += want[0] / SR
            if got is None or got[:2] != want[:2] or not got[2]:
                failed += 1
                errors.append(f"{f.name}: restored output missing, silent or of wrong length")
        return Round(tf - t0, {"restore": t1 - tf}, audio_s, len(inputs), failed,
                     errors=errors)

    def figures(self, times: dict, units: float) -> dict:
        return {"restore_rtf": times["restore"] / units}


class Train:
    """``train.train`` from a fresh init through both phases."""

    def __init__(self, name, model_cfg, steps, batch, segment, lr, clip_s, clip_fn):
        self.name = name
        self.model_cfg = model_cfg
        self.steps = steps
        self.batch = batch
        self.segment = segment
        self.lr = lr
        self.clip_s = clip_s
        self.clip_fn = clip_fn
        self.markers = {"model.forward": batch}

    def train_cfg(self, seed: int) -> train.TrainConfig:
        return train.TrainConfig(total_steps=self.steps, warm_phase_steps=self.steps // 2,
                                 lr=self.lr, batch_size=self.batch,
                                 segment_samples=self.segment, seed=seed % TRAIN_VARIANTS)

    def prepare(self, d: Path, seed: int) -> None:
        variant = seed % TRAIN_VARIANTS
        clean = _write_clips(d / "clean", self.clip_s, self.clip_fn, variant)
        simulate.generate_corpus(clean, d / "corpus", "N", "train", variant, len(clean))

    def top_call(self, d: Path, seed: int, out: Path):
        return lambda: train.train(self.model_cfg, self.train_cfg(seed),
                                   d / "corpus" / "manifest.tsv", out)

    def probe(self, d: Path, seed: int) -> None:
        self.top_call(d, seed, d / "probe")()

    def round(self, d: Path, seed: int, hook: FirstForward, tracer=None) -> Round:
        out = d / "run"
        shutil.rmtree(out, ignore_errors=True)
        t0, tf, t1, _, error = _timed_top_call(hook, tracer, self.top_call(d, seed, out))
        errors = [error] if error else []
        if tf is None:
            errors.append("model.forward never ran")
            tf = t0
        losses = _logged_losses(out / "metrics.log")
        finite = sum(1 for v in losses if math.isfinite(v))
        if len(losses) != self.steps or finite != self.steps:
            errors.append(f"{len(losses)} of {self.steps} steps logged, {finite} finite")
        elif not errors:
            errors += self._check_final(out / "final.ckpt", seed, losses[-1])
        # the checks cover the whole run, so a failed one fails every step
        return Round(tf - t0, {"train": t1 - tf}, self.steps * self.batch, self.steps,
                     self.steps if errors else 0, errors=errors)

    def figures(self, times: dict, units: float) -> dict:
        return {"train_items_per_s": units / times["train"]}

    def _check_final(self, ckpt: Path, seed: int, loss: float) -> list:
        try:
            _, state, _, _ = train.load_checkpoint(ckpt)
        except (OSError, ValueError) as e:
            return [f"final.ckpt does not load: {e}"]
        if state.step != self.steps:
            return [f"final.ckpt at step {state.step}, expected {self.steps}"]
        ref = json.loads(REFERENCE_PATH.read_text())
        want = ref.get(self.name, {}).get(str(seed % TRAIN_VARIANTS))
        if want is None:
            return [f"no reference loss recorded for variant {seed % TRAIN_VARIANTS}"]
        if abs(loss - want) > ref["rel_tolerance"] * abs(want):
            return [f"final loss {loss!r} differs from reference {want!r} "
                    f"by more than {ref['rel_tolerance']} relative"]
        return []


def _logged_losses(log: Path) -> list:
    """The total-loss column of metrics.log; NaN for a malformed row."""
    if not log.is_file():
        return []
    out = []
    for line in log.read_text().splitlines():
        parts = line.split("\t")
        try:
            out.append(float(parts[5]))
        except (IndexError, ValueError):
            out.append(float("nan"))
    return out


class Corpus:
    """Subset-A simulation, then ``hdrs evaluate`` of that manifest with an
    H=4, depth-3 model."""

    name = "corpus"
    markers = {"simulate.apply_distortion": 1, "model.forward": 1}
    clip_s = (3, 3, 3, 3)
    count = 6

    def prepare(self, d: Path, seed: int) -> None:
        _write_clips(d / "clean", self.clip_s, synth_voice, seed)
        _save_model(d / "model.ckpt", ModelConfig(hidden_ch=4, depth=3), seed)
        self._simulate(d, seed, d / "probe_corpus")  # what the set-up probes evaluate

    def _simulate(self, d: Path, seed: int, out: Path):
        clean = sorted((d / "clean").glob("*.wav"))
        return simulate.generate_corpus(clean, out, "A", "train", seed, self.count)

    def _eval_argv(self, d: Path, corpus: Path, report: Path) -> list:
        return ["evaluate", "--ckpt", str(d / "model.ckpt"), "--manifest",
                str(corpus / "manifest.tsv"), "--report", str(report)]

    def probe(self, d: Path, seed: int) -> None:
        cli.main(self._eval_argv(d, d / "probe_corpus", d / "probe.tsv"))

    def round(self, d: Path, seed: int, hook: FirstForward, tracer=None) -> Round:
        shutil.rmtree(d / "corpus", ignore_errors=True)
        report = d / "report.tsv"
        report.unlink(missing_ok=True)
        n = self.count
        t0, _, t1, _, error = _timed_top_call(
            hook, tracer, lambda: self._simulate(d, seed, d / "corpus"))
        errors = [f"simulate: {error}"] if error else []
        sim_s = t1 - t0
        sim_failed = self._check_corpus(d, errors)

        e0, tf, e1, rc, error = _timed_top_call(
            hook, tracer, lambda: cli.main(self._eval_argv(d, d / "corpus", report)))
        if error or rc != 0:
            errors.append(error or f"evaluate exited {rc}")
        eval_failed = self._check_report(report, errors)
        if tf is None:
            errors.append("model.forward never ran")
            eval_failed, tf = n, e0
        return Round(tf - e0, {"simulate": sim_s, "evaluate": e1 - tf}, n, 2 * n,
                     sim_failed + eval_failed, errors=errors)

    def figures(self, times: dict, units: float) -> dict:
        return {"simulate_s_per_utt": times["simulate"] / units,
                "evaluate_s_per_record": times["evaluate"] / units}

    def _check_corpus(self, d: Path, errors: list) -> int:
        """Failed utterances: manifest count, and each output's length."""
        try:
            _, records = simulate.read_manifest(d / "corpus" / "manifest.tsv")
        except (OSError, ValueError) as e:
            errors.append(f"manifest unreadable: {e}")
            return self.count
        if len(records) != self.count:
            errors.append(f"manifest has {len(records)} records, expected {self.count}")
            return self.count
        failed = 0
        for rec in records:
            clean, dist = wav_frames(Path(rec.clean_path)), wav_frames(Path(rec.distorted_path))
            if dist is None or dist[:2] != clean[:2] or not dist[2]:
                failed += 1
                errors.append(f"{rec.distorted_path}: missing, silent or of wrong length")
        return failed

    def _check_report(self, report: Path, errors: list) -> int:
        """Failed records: one report row per record, every value finite."""
        if not report.is_file():
            errors.append("evaluate wrote no report")
            return self.count
        rows = report.read_text().splitlines()[1:]
        good = 0
        for row in rows:
            try:
                good += all(math.isfinite(float(v)) for v in row.split("\t")[2:7])
            except ValueError:
                pass
        if len(rows) != self.count or good != self.count:
            errors.append(f"report has {len(rows)} rows, {good} finite, "
                          f"expected {self.count}")
        return self.count - min(good, self.count)


WORKLOADS = {w.name: w for w in (
    Restore(),
    Train("train_paper", ModelConfig(hidden_ch=48, depth=5), steps=2, batch=4,
          segment=32000, lr=3e-4, clip_s=(3, 3, 3, 3), clip_fn=synth_voice),
    Train("train_drill", ModelConfig(hidden_ch=4, depth=3), steps=20, batch=2,
          segment=4000, lr=3e-3, clip_s=(2, 2, 2, 2), clip_fn=synth_harmonic),
    Corpus(),
)}
