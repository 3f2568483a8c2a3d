"""Optimization loop: Adam, cosine-annealed learning rate, two training
phases, checkpointing, and bit-exact deterministic resumption.

Phase 1 ("warm") trains encoder and decoders with the fusion weight pinned
at 0.5, leaving the fusion stack outside the loss path (its gradients are
identically zero, so Adam leaves it untouched). After ``warm_phase_steps``
the fusion block joins and everything trains jointly.

Determinism: batch order comes from a per-epoch seeded shuffle and segment
offsets from per-(epoch, item) seeds; nothing depends on wall clock or
iteration interleaving, so resuming from a checkpoint replays the exact
arithmetic of an uninterrupted run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .audio import CANONICAL_RATE, SampleRateMismatch
from .checkpoint import Corrupt, config_from_text, config_text, load_container, \
    save_container
from .loss import loss_total
from .model import ModelConfig, forward, init_params, param_shapes
from .simulate import read_manifest, read_pair
from .tensor import Tensor

# Adam's settings in the HD-DEMUCS recipe
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteGradient(ArithmeticError):
    pass


class NonFiniteLoss(ArithmeticError):
    pass


class ManifestEmpty(ValueError):
    pass


class StepOutOfRange(ValueError):
    pass


@dataclass
class TrainConfig:
    total_steps: int = 2000
    warm_phase_steps: int | None = None  # default: half of total
    lr: float = 0.0003
    batch_size: int = 4
    segment_samples: int = 32000
    seed: int = 0
    checkpoint_interval: int = 0  # 0: only the final checkpoint

    def __post_init__(self):
        if self.warm_phase_steps is None:
            self.warm_phase_steps = self.total_steps // 2
        if not (0 <= self.warm_phase_steps < self.total_steps):
            raise ValueError("need 0 <= warm_phase_steps < total_steps")
        if min(self.total_steps, self.batch_size, self.segment_samples) <= 0:
            raise ValueError("total_steps, batch_size, segment_samples must be positive")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr {self.lr} must be positive and finite")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must not be negative")


@dataclass
class TrainState:
    step: int
    phase: str
    seed: int
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def cosine_lr(step: int, cfg: TrainConfig) -> float:
    if not 0 <= step <= cfg.total_steps:
        raise StepOutOfRange(f"step {step} outside [0, {cfg.total_steps}]")
    return 0.5 * cfg.lr * (1.0 + math.cos(math.pi * step / cfg.total_steps))


def adam_step(params: dict, state: TrainState, lr_t: float) -> None:
    """One bias-corrected Adam update over every parameter.

    Parameters outside the current loss path carry zero gradients, which
    leaves their moments and values exactly unchanged.
    """
    t = state.step + 1
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in {name} at step {t}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data = p.data - lr_t * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        p.grad = None
    state.step = t


# -- checkpointing -----------------------------------------------------------------


def save_checkpoint(path, params: dict, state: TrainState,
                    model_cfg: ModelConfig, train_cfg: TrainConfig) -> None:
    text = {"state.step": str(state.step), "state.phase": state.phase,
            "state.seed": str(state.seed),
            **config_text(model_cfg, "model"), **config_text(train_cfg, "train")}
    moments = {f"adam.{k}.{name}": store[name]
               for k, store in (("m", state.m), ("v", state.v)) for name in params}
    save_container(path, text, {name: p.data for name, p in params.items()}, moments)


def load_checkpoint(path, moments: bool = True):
    """Returns (params, state, model_cfg, train_cfg). With ``moments=False``
    the Adam moments are not read and ``state.m``/``state.v`` stay empty.

    Config text missing a ``state.*``, ``model.*`` or ``train.*`` key,
    naming an unknown one or holding an invalid value, and a parameter or,
    in a full load, an Adam moment missing or of the wrong shape, raise
    ``Corrupt``."""
    text, arrays = load_container(path, 2 if moments else 1)
    try:
        model_cfg = config_from_text(ModelConfig, "model", text)
        train_cfg = config_from_text(TrainConfig, "train", text)
    except ValueError as e:
        raise Corrupt(f"{path}: bad config text ({e})") from None
    missing = ({"state.step", "state.phase", "state.seed"}
               | config_text(model_cfg, "model").keys()
               | config_text(train_cfg, "train").keys()) - text.keys()
    if missing:
        raise Corrupt(f"{path}: config text lacks {sorted(missing)}")
    params = {}
    for name, shape, _fan in param_shapes(model_cfg):
        if name not in arrays or arrays[name].shape != shape:
            got = arrays[name].shape if name in arrays else "missing"
            raise Corrupt(f"{path}: parameter {name} is {got}, expected shape {shape}")
        params[name] = Tensor(arrays[name], requires_grad=True, dtype=np.float32)
    state = TrainState(step=int(text["state.step"]), phase=text["state.phase"],
                       seed=int(text["state.seed"]))
    if moments:
        for name, p in params.items():
            for store, key in ((state.m, f"adam.m.{name}"), (state.v, f"adam.v.{name}")):
                got = arrays[key].shape if key in arrays else "missing"
                if got != p.shape:
                    raise Corrupt(f"{path}: Adam moment {key} is {got}, expected shape {p.shape}")
                # loaded arrays are writeable views, so they serve without a copy
                store[name] = arrays[key]
    return params, state, model_cfg, train_cfg


# -- data plumbing -----------------------------------------------------------------


class _Corpus:
    """In-memory (clean, distorted) pairs as float32 arrays."""

    def __init__(self, manifest_path):
        sr, records = read_manifest(manifest_path)
        if not records:
            raise ManifestEmpty(f"{manifest_path} lists no records")
        if sr != CANONICAL_RATE:
            raise SampleRateMismatch(
                f"{manifest_path}: manifest rate {sr} != model rate {CANONICAL_RATE}")
        self.pairs = []
        for r in records:
            clean, dist = read_pair(r, sr)
            self.pairs.append((clean.astype(np.float32), dist.astype(np.float32)))

    def __len__(self):
        return len(self.pairs)

    def segment(self, index: int, offset: int, length: int):
        clean, dist = self.pairs[index]
        if len(clean) >= length:
            return (clean[offset:offset + length], dist[offset:offset + length])
        pad = length - len(clean)
        return (np.pad(clean, (0, pad)), np.pad(dist, (0, pad)))


@functools.lru_cache(maxsize=4)
def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    # every item of an epoch reads the same shuffle, so it is drawn once
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7001, epoch]))
    order = rng.permutation(n)
    order.setflags(write=False)
    return order


def _crop_offset(seed: int, epoch: int, item: int, max_offset: int) -> int:
    if max_offset <= 0:
        return 0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7002, epoch, item]))
    return int(rng.integers(0, max_offset + 1))


def _batch_items(corpus_len: int, step: int, cfg: TrainConfig):
    """(epoch, item) pairs for one step, from per-epoch seeded shuffles."""
    items = []
    for j in range(cfg.batch_size):
        flat = step * cfg.batch_size + j
        epoch = flat // corpus_len
        order = _epoch_order(cfg.seed, epoch, corpus_len)
        items.append((epoch, int(order[flat % corpus_len])))
    return items


def _backward_step(corpus: _Corpus, step: int, params: dict, model_cfg: ModelConfig,
                   train_cfg: TrainConfig, w_override) -> tuple:
    """One forward, loss and backward over the step's stacked [B, N] crops;
    leaves the batch-mean gradients on ``params`` and returns (l_time, l_freq,
    total). The tape dies on return, before the next step builds its own."""
    crops = []
    for epoch, item in _batch_items(len(corpus), step, train_cfg):
        clean_len = len(corpus.pairs[item][0])
        offset = _crop_offset(train_cfg.seed, epoch, item,
                              clean_len - train_cfg.segment_samples)
        crops.append(corpus.segment(item, offset, train_cfg.segment_samples))
    clean, dist = (np.stack(c) for c in zip(*crops))
    x_hat = forward(dist, params, model_cfg, w_override=w_override)
    rep = loss_total(Tensor(clean, dtype=np.float32), x_hat)
    if not np.isfinite(rep.total):
        raise NonFiniteLoss(f"loss diverged at step {step + 1}")
    T.backward(rep.tensor)
    return rep.l_time, rep.l_freq, rep.total


# -- main loop ---------------------------------------------------------------------


def train(model_cfg: ModelConfig, train_cfg: TrainConfig, manifest_path,
          out_dir, resume=None, quiet: bool = True):
    """Run the loop to ``total_steps``; returns (params, state, log rows).

    Each step stacks its ``batch_size`` crops into one [B, N] batch and runs
    one forward and one backward pass; the logged losses are batch means.

    Writes ``metrics.log`` (tab-separated: step, phase, lr, l_time, l_freq,
    total) and periodic plus final checkpoints under ``out_dir``.
    """
    corpus = _Corpus(manifest_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if resume is not None:
        params, state, ckpt_model_cfg, ckpt_train_cfg = load_checkpoint(resume)
        if ckpt_model_cfg != model_cfg or ckpt_train_cfg != train_cfg:
            raise ValueError("checkpoint configs do not match the requested run")
    else:
        params = init_params(model_cfg, train_cfg.seed, np.float32)
        state = TrainState(step=0, phase="warm", seed=train_cfg.seed)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)

    log_path = out_dir / "metrics.log"
    rows = []
    mode = "a" if resume is not None else "w"
    with open(log_path, mode, encoding="utf-8") as log:
        while state.step < train_cfg.total_steps:
            step = state.step  # update about to produce step+1
            warm = step < train_cfg.warm_phase_steps
            state.phase = "warm" if warm else "joint"
            w_override = 0.5 if (warm and model_cfg.variant == "hd_demucs") else None

            losses = _backward_step(corpus, step, params, model_cfg, train_cfg, w_override)
            lr_t = cosine_lr(step, train_cfg)
            adam_step(params, state, lr_t)

            row = (state.step, state.phase, lr_t) + losses
            rows.append(row)
            log.write("\t".join([str(row[0]), row[1]] + [f"{v:.10g}" for v in row[2:]]) + "\n")
            if not quiet:
                print(f"step {row[0]} [{row[1]}] lr={row[2]:.3e} loss={row[5]:.5f}")

            interval = train_cfg.checkpoint_interval
            if interval and state.step % interval == 0 and state.step < train_cfg.total_steps:
                save_checkpoint(out_dir / f"step{state.step:08d}.ckpt",
                                params, state, model_cfg, train_cfg)
    save_checkpoint(out_dir / "final.ckpt", params, state, model_cfg, train_cfg)
    return params, state, rows
