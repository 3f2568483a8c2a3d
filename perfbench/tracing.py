"""Out-of-program tracing: wraps public hdrs functions at every binding site.

A wrapped function records one span per call (name, start, end, parent span,
operation id) and adds work counters computed from its arguments and result.
Spans stay in memory; self times and per-operation sums are computed after
the round. Nothing under ``src/`` is modified: wrapping replaces the module
attributes (the defining module and every ``from ... import`` binding) and
``unpatch`` puts the originals back.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# Wrapped functions, named "<module>.<function>". The last three are the top
# calls the workloads make, so every other span nests under one of them.
TRACED = (
    "tensor.backward", "tensor.topo_order",
    "dsp.fft", "dsp.stft_magnitude", "dsp.upsample_4x", "dsp.downsample_4x",
    "dsp.filter_apply", "dsp.convolve_full",
    "layers.conv1d", "layers.conv_transpose1d", "layers.glu", "layers.lstm_forward",
    "model.forward", "model.encode", "model.suppression_decode",
    "model.refinement_decode", "model.fuse",
    "loss.loss_total",
    "train.adam_step",
    "checkpoint.save_container", "checkpoint.load_container",
    "audio.read_wav", "audio.write_wav",
    "simulate.apply_distortion",
    "metrics.si_sdr", "metrics.mr_spectral_distance",
    "train.train", "simulate.generate_corpus", "cli.main",
)


def _conv_flops(args, result):
    c_out, c_in, k = args[1].weight.shape
    return {"flops": 2 * c_out * c_in * k * result.shape[1]}


def _tconv_flops(args, result):
    # weight is [in_ch, out_ch, k]; each input sample scatters out_ch * k taps
    c_in, c_out, k = args[1].weight.shape
    return {"flops": 2 * c_out * c_in * k * args[0].shape[1]}


def _lstm(args, result):
    steps = args[0].shape[0]
    layers = args[1].layers
    return {"timesteps": steps * len(layers),
            "w_hh_bytes": sum(steps * w_hh.data.nbytes for _, w_hh, _ in layers)}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# Work counters: name -> f(args, result) -> {counter: int}. They depend only on
# the inputs, so two runs with one seed must give identical totals.
COUNTERS = {
    "tensor.topo_order": lambda a, r: {"tape_nodes": len(r)},
    "dsp.fft": lambda a, r: {"points": r.size},
    "layers.conv1d": _conv_flops,
    "layers.conv_transpose1d": _tconv_flops,
    "layers.lstm_forward": _lstm,
    "dsp.filter_apply": lambda a, r: {"samples": len(a[1].samples) * len(a[0].sections)},
    "checkpoint.save_container": _file_bytes,
    "checkpoint.load_container": _file_bytes,
    "audio.read_wav": _file_bytes,
    "audio.write_wav": _file_bytes,
}

COUNTER_NAMES = tuple(f"{fn}.{c}" for fn, c in (
    ("tensor.topo_order", "tape_nodes"), ("dsp.fft", "points"),
    ("layers.conv1d", "flops"), ("layers.conv_transpose1d", "flops"),
    ("layers.lstm_forward", "timesteps"), ("layers.lstm_forward", "w_hh_bytes"),
    ("dsp.filter_apply", "samples"),
    ("checkpoint.save_container", "bytes"), ("checkpoint.load_container", "bytes"),
    ("audio.read_wav", "bytes"), ("audio.write_wav", "bytes")))


def _hdrs_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hdrs" or name.startswith("hdrs."))]


def patch(qualname: str, make_wrapper) -> list:
    """Replace ``hdrs.<qualname>`` wherever a hdrs module binds it.

    Returns the (module, attribute, original) triples ``unpatch`` needs.
    """
    mod_name, fn_name = qualname.split(".")
    original = getattr(sys.modules[f"hdrs.{mod_name}"], fn_name)
    wrapper = make_wrapper(original)
    undo = []
    for m in _hdrs_modules():
        for attr, value in list(vars(m).items()):
            if value is original:
                setattr(m, attr, wrapper)
                undo.append((m, attr, original))
    return undo


def unpatch(undo: list) -> None:
    for m, attr, original in reversed(undo):
        setattr(m, attr, original)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op


class Tracer:
    """Collects spans and counters for one traced round.

    Operations: each top call opens a set-up operation, and every n-th entry
    of a marker function (``markers`` maps qualname -> n) opens a work
    operation, so a train step, a restored file, an utterance or a record is
    one operation.
    """

    def __init__(self, markers: dict):
        self.markers = markers
        self.spans: list = []
        self.stack: list = []
        self.counters = defaultdict(int)
        self.op_starts: list = []
        self.op_kinds: list = []
        self._marker_calls = defaultdict(int)
        self._undo: list = []

    def _open_op(self, kind: str, at: float) -> None:
        self.op_starts.append(at)
        self.op_kinds.append(kind)

    def _wrap(self, name):
        counter = COUNTERS.get(name)
        every = self.markers.get(name)
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.stack:
                    self._open_op("setup:" + name, clock())
                elif every is not None:
                    if self._marker_calls[name] % every == 0:
                        self._open_op("work", clock())
                    self._marker_calls[name] += 1
                parent = self.stack[-1] if self.stack else -1
                span = Span(name, clock(), parent, len(self.op_starts) - 1)
                self.stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    self.stack.pop()
                if counter is not None:
                    for key, value in counter(args, result).items():
                        self.counters[f"{name}.{key}"] += int(value)
                return result
            return wrapper
        return make

    def install(self) -> None:
        for name in TRACED:
            self._undo += patch(name, self._wrap(name))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def summary(self) -> dict:
        """Per-function calls and self time, counters, and per-operation sums.

        Self time is a span's duration minus the durations of its direct
        children. Per operation, the self times of the layer spans clipped to
        the operation's interval plus the top-level residual (the top call's
        own code and any gap between top calls) equal its wall time.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, s in enumerate(self.spans):
            calls[s.name] += 1
            self_s[s.name] += (s.end - s.start) - child_time[i]

        end = max(s.end for s in self.spans if s.parent < 0)
        bounds = self.op_starts + [end]
        ops = []
        for k, kind in enumerate(self.op_kinds):
            a, b = bounds[k], bounds[k + 1]
            layer = _clipped_self(self.spans, a, b)
            ops.append({"kind": kind, "wall_s": b - a, "layer_self_s": layer,
                        "residual_s": (b - a) - layer})
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counters": dict(self.counters), "ops": ops,
                "spans": len(self.spans)}


def _clipped_self(spans, a, b) -> float:
    """Sum of the self times, clipped to [a, b), of every span below a top
    call. Self times telescope, so this is the time that the top calls'
    direct children cover inside the interval."""
    return sum(max(0.0, min(b, s.end) - max(a, s.start)) for s in spans
               if s.parent >= 0 and spans[s.parent].parent < 0)
