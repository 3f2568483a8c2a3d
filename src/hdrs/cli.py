"""Command-line interface wiring simulation, training, inference,
evaluation, and self-verification over WAV files.

A command raises on bad input and ``main`` picks the exit code from the
error's class in ``EXIT_CODES``. Unknown flags and unknown config keys are
hard errors. Every effective config value is echoed at startup.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .audio import AudioBuffer, EmptyInput, SampleRateMismatch, read_wav, write_wav
from .checkpoint import config_from_text, config_text
from .dsp import RESAMPLE_FACTOR, StftConfig, stft_magnitude
from .metrics import evaluate, write_report
from .model import ModelConfig, forward
from .simulate import SimulateConfig, generate_corpus
from .train import NonFiniteGradient, NonFiniteLoss, TrainConfig, load_checkpoint, train
from .verify import dsp_suite, gradcheck_full_model, params_suite

# The exit code of each error a command raises, in every command; the first
# class the error is an instance of wins, so the ValueError subclasses come
# before ValueError. 0 is success and 1 a failed verification.
EXIT_CODES = {
    SampleRateMismatch: 5,
    EmptyInput: 3,
    NonFiniteLoss: 4,
    NonFiniteGradient: 4,
    OSError: 2,
    ValueError: 2,
}

SPECTROGRAM_CFG = StftConfig(512, 128, 512)


# -- configuration ---------------------------------------------------------------


@dataclasses.dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    simulate: SimulateConfig

    def echo(self, out=None) -> None:
        out = out if out is not None else sys.stdout
        for cfg, section in ((self.model, "model"), (self.train, "train"),
                             (self.simulate, "simulate")):
            for k, v in sorted(config_text(cfg, section).items()):
                print(f"config: {k} = {v}", file=out)


def load_run_config(path: str | None, overrides: list) -> RunConfig:
    """INI sections [model] [train] [simulate]; --set overrides win."""
    text: dict = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in ("model", "train", "simulate"):
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                text[f"{section}.{key}"] = raw
    for spec in overrides or []:
        key, _, raw = spec.partition("=")
        if not raw:
            raise ValueError(f"--set expects section.key=value, got {spec!r}")
        text[key] = raw
    for key in text:
        section = key.partition(".")[0]
        if section not in ("model", "train", "simulate"):
            raise ValueError(f"unknown config section [{section}]")
    return RunConfig(config_from_text(ModelConfig, "model", text),
                     config_from_text(TrainConfig, "train", text),
                     config_from_text(SimulateConfig, "simulate", text))


# -- commands ---------------------------------------------------------------------


def cmd_simulate(args) -> int:
    run = load_run_config(args.config, args.set)
    names = [f.name for f in dataclasses.fields(SimulateConfig)]
    sim = run.simulate = dataclasses.replace(
        run.simulate, **{k: getattr(args, k) for k in names if getattr(args, k) is not None})
    run.echo()
    missing = [k for k in names if getattr(sim, k) is None]
    if missing:
        raise ValueError(f"missing simulate settings: {missing}")
    clean_dir = Path(args.clean_dir)
    if not clean_dir.is_dir():
        raise FileNotFoundError(f"clean dir not found: {clean_dir}")
    manifest, records = generate_corpus(
        sorted(clean_dir.glob("*.wav")), args.out_dir, sim.subset, sim.split, sim.seed,
        sim.count, sr=run.model.sample_rate)
    print(f"wrote {len(records)} distorted files; manifest: {manifest}")
    return 0


def cmd_train(args) -> int:
    run = load_run_config(args.config, args.set)
    run.echo()
    _, state, _ = train(run.model, run.train, args.manifest, args.out,
                        resume=args.resume, quiet=args.quiet)
    print(f"finished at step {state.step}; checkpoint: {Path(args.out) / 'final.ckpt'}")
    return 0


def _write_pgm(path, mag: np.ndarray) -> None:
    """P5 grayscale, log magnitude, row = frequency bin."""
    db = 20.0 * np.log10(mag.T + 1e-5)
    lo, hi = db.min(), db.max()
    scale = 255.0 / (hi - lo) if hi > lo else 1.0
    img = ((db - lo) * scale).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def _dump_trace(out_dir: Path, stem: str, buf: AudioBuffer, params: dict,
                cfg: ModelConfig) -> np.ndarray:
    """Restores ``buf``, writing its mask/w/refined WAVs and in/out PGMs
    beside it; returns the restored samples."""
    # mask, refined and w run at the upsampled model rate, padded past the input
    n_up = RESAMPLE_FACTOR * len(buf)
    kept = {}

    def keep(start, signals):
        for name, sig in zip(("mask", "refined", "w"), signals[2:]):
            if sig is not None and start < n_up:
                if name not in kept:
                    kept[name] = np.empty(n_up, sig.dtype)
                kept[name][start:start + sig.shape[-1]] = sig[:n_up - start]

    with T.no_grad():
        x_hat = forward(buf.samples, params, cfg, on_window=keep).data
    for name in ("mask", "w", "refined"):
        if name in kept:
            write_wav(out_dir / f"{stem}.{name}.wav",
                      AudioBuffer(kept.pop(name), RESAMPLE_FACTOR * buf.sample_rate))
    for tag, sig in (("in", np.asarray(buf.samples)), ("out", x_hat)):
        if len(sig) >= SPECTROGRAM_CFG.window_len:
            mag = stft_magnitude(sig.astype(np.float64), SPECTROGRAM_CFG).data
            _write_pgm(out_dir / f"{stem}.{tag}.pgm", mag)
    return x_hat


def cmd_restore(args) -> int:
    params, _, model_cfg, _ = load_checkpoint(args.ckpt, moments=False)
    src = Path(args.infile)
    files = sorted(src.glob("*.wav")) if src.is_dir() else [src]
    if not files:
        raise EmptyInput(f"no input WAVs in {src}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # forward casts its input to the parameters' dtype; casting as each file is
    # read frees the float64 samples before the forward instead of after it
    dtype = next(iter(params.values())).dtype
    for f in files:
        buf = read_wav(f, model_cfg.sample_rate)
        buf.samples = buf.samples.astype(dtype)
        if args.dump_trace:
            x_hat = _dump_trace(out_dir, f.stem, buf, params, model_cfg)
        else:
            with T.no_grad():
                x_hat = forward(buf.samples, params, model_cfg).data
        n_clipped = write_wav(out_dir / f.name, AudioBuffer(x_hat, buf.sample_rate))
        print(f"restored {f.name} ({len(buf)} samples, {n_clipped} clipped)")
    return 0


def cmd_evaluate(args) -> int:
    params, _, model_cfg, _ = load_checkpoint(args.ckpt, moments=False)
    subset = None if args.subset == "all" else args.subset
    report = evaluate(args.manifest, params, model_cfg, subset)
    write_report(args.report, report)
    for tag in report.subsets():
        m = report.means(tag)
        print(f"subset {tag} ({m['count']} files):")
        print(f"  si_sdr   in {m['si_sdr_in']:8.3f} dB   out {m['si_sdr_out']:8.3f} dB"
              f"   improvement {m['si_sdr_impr']:+.3f} dB")
        print(f"  mr-spect in {m['mrsd_in']:8.4f}      out {m['mrsd_out']:8.4f}")
    print(f"report: {args.report}")
    return 0


def cmd_verify(args) -> int:
    results = []
    if args.suite == "gradcheck":
        err, n = gradcheck_full_model()
        results.append((f"full-model gradient check: max rel err {err:.2e} "
                        f"over {n} params (tol 1e-4)", err < 1e-4))
    elif args.suite == "params":
        results.extend(params_suite())
    else:
        results.extend(dsp_suite())
    failed = False
    for msg, ok in results:
        print(("PASS " if ok else "FAIL ") + msg)
        failed = failed or not ok
    return 1 if failed else 0


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hdrs",
                                description="waveform speech restoration engine")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="synthesize a distorted corpus + manifest")
    sp.add_argument("--clean-dir", required=True, help="directory of clean 16 kHz WAVs")
    sp.add_argument("--out-dir", required=True, help="output directory")
    sp.add_argument("--subset", choices=("N", "R", "B", "A"), help="distortion subset")
    sp.add_argument("--split", choices=("train", "test"), help="parameter pools")
    sp.add_argument("--seed", type=int, help="corpus seed")
    sp.add_argument("--count", type=int, help="number of utterances to generate")
    sp.add_argument("--config", help="INI config file")
    sp.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                    help="override a config value")
    sp.set_defaults(fn=cmd_simulate)

    tp = sub.add_parser("train", help="run the optimization loop")
    tp.add_argument("--config", help="INI config file ([model]/[train] sections)")
    tp.add_argument("--manifest", required=True, help="training corpus manifest")
    tp.add_argument("--out", required=True, help="run directory (checkpoints, log)")
    tp.add_argument("--resume", help="checkpoint to resume from")
    tp.add_argument("--quiet", action="store_true", help="suppress per-step lines")
    tp.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                    help="override a config value")
    tp.set_defaults(fn=cmd_train)

    rp = sub.add_parser("restore", help="run inference on WAV file(s)")
    rp.add_argument("--ckpt", required=True, help="checkpoint path")
    rp.add_argument("--in", dest="infile", required=True, help="input WAV or directory")
    rp.add_argument("--out", required=True, help="output directory")
    rp.add_argument("--dump-trace", action="store_true",
                    help="also write mask/w/refined WAVs and PGM spectrograms "
                         "(keeps these three 4x-rate signals for the whole file in memory)")
    rp.set_defaults(fn=cmd_restore)

    ep = sub.add_parser("evaluate", help="score restored outputs against references")
    ep.add_argument("--ckpt", required=True, help="checkpoint path")
    ep.add_argument("--manifest", required=True, help="evaluation manifest")
    ep.add_argument("--subset", default="all", choices=("N", "R", "B", "A", "all"))
    ep.add_argument("--report", required=True, help="output report path (TSV)")
    ep.set_defaults(fn=cmd_evaluate)

    vp = sub.add_parser("verify", help="run self-check suites")
    vp.add_argument("--suite", required=True, choices=("gradcheck", "params", "dsp"))
    vp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
