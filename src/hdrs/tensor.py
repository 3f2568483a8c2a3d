"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy float array plus an optional gradient record. Every
differentiable operation stores its parents and a backward closure on the
output tensor; calling :func:`backward` on a scalar root materializes the
tape (a topological ordering of the recorded operations), walks it once in
reverse, and accumulates gradients additively into every reachable tensor
that participates in the graph. The walk consumes the tape: each recorded
node's grad, closure and parent links are released once it has passed its
gradient on, so only the root and the leaves (parameters, inputs) keep
grads, and a tape can be walked once.

Conventions:
  * leaves default to float64; pass float32 data for throughput builds
    (gradient tolerances are defined per precision by callers)
  * tape-tracked tensors are never mutated in place; ops return new tensors
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Input lies outside an op's mathematical domain (e.g. log of <= 0)."""


class EmptyReduction(ValueError):
    """A reduction was requested over zero elements."""


class NotScalarRoot(ValueError):
    """backward() requires a scalar (single-element) root."""


class DetachedRoot(ValueError):
    """backward() root carries no recorded operations and no grad request."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / metrics)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether ops may record onto a tape (False inside :func:`no_grad`)."""
    return _grad_enabled


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None] | None, op: str) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        track = _grad_enabled and any(p.requires_grad or p._parents for p in parents)
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if track and backward is not None:
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        else:
            out._parents = ()
            out._backward = None
            out._op = op
        return out

    def _accum(self, g: np.ndarray) -> None:
        if self.requires_grad or self._parents:
            self.grad = g if self.grad is None else self.grad + g

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self.dtype), self)

    # method forms of the common unaries/reductions
    def sigmoid(self):
        return sigmoid(self)

    def sum(self, axes=None, keepdims=False):
        return sum_(self, axes, keepdims)

    def frobenius_norm(self, axes=None, keepdims=False):
        return frobenius_norm(self, axes, keepdims)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype), dtype=dtype)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    # collapse extra leading axes, then sum over size-1 axes of the target
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def strided_view(x: np.ndarray, counts: tuple, steps: tuple) -> np.ndarray:
    """Read-only view [..., *counts] of x's last axis: entry (i, j, ...) is
    x[..., i * steps[0] + j * steps[1] + ...]. It is made on the buffer of
    x, copied first only if not contiguous, and not by ``as_strided``, whose
    __array_interface__ round trip interns and drops strings: every ten
    thousand or so calls that regrows the interpreter's table of interned
    strings, about 1 MB, inside whatever forward or loss is running."""
    x = np.ascontiguousarray(x)
    s = x.strides
    view = np.ndarray(x.shape[:-1] + tuple(counts), x.dtype, x, 0,
                      s[:-1] + tuple(step * s[-1] for step in steps))
    view.flags.writeable = False
    return view


def _binary(a, b, fwd, bwd_a, bwd_b, op: str) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a, dtype=b.dtype))
    b = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.dtype))
    try:
        data = fwd(a.data, b.data)
    except ValueError as e:
        raise ShapeMismatch(f"{op}: shapes {a.shape} and {b.shape}: {e}") from None

    def backward(g):
        a._accum(_unbroadcast(bwd_a(g, a.data, b.data), a.shape))
        b._accum(_unbroadcast(bwd_b(g, a.data, b.data), b.shape))

    return Tensor._make(data, (a, b), backward, op)


# -- elementwise ---------------------------------------------------------------


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def div(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y,
                   lambda g, x, y: -g * x / (y * y), "div")


def abs_(a: Tensor) -> Tensor:
    # non-smooth at 0; subgradient 0 there
    def backward(g):
        a._accum(g * np.sign(a.data))

    return Tensor._make(np.abs(a.data), (a,), backward, "abs")


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise DomainError("log requires strictly positive input; apply an epsilon floor first")
    return Tensor._make(np.log(a.data), (a,), lambda g: a._accum(g / a.data), "log")


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array as 0.5*tanh(x/2) + 0.5, in one buffer.

    tanh saturates instead of overflowing, so no input raises a warning.
    """
    s = np.multiply(x, 0.5, out=np.empty_like(x))  # out= keeps 0-d inputs arrays
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def sigmoid(a: Tensor) -> Tensor:
    out_data = stable_sigmoid(a.data)

    def backward(g):
        a._accum(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (a,), backward, "sigmoid")


def relu(a: Tensor) -> Tensor:
    def backward(g):
        a._accum(g * (a.data > 0))

    return Tensor._make(np.maximum(a.data, 0), (a,), backward, "relu")


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    """max(x, slope*x), which for a slope in [0, 1] is x where x > 0 and slope*x
    elsewhere (bit for bit, signed zeros and NaN included; only slope 0 maps +inf
    to NaN)."""
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope {slope} is outside [0, 1]")
    x = a.data
    s = x.dtype.type(slope)
    out_data = np.multiply(x, s, out=np.empty_like(x))  # out= keeps 0-d inputs arrays
    np.maximum(x, out_data, out=out_data)

    def backward(g):
        a._accum(g * np.maximum(x > 0, s))

    return Tensor._make(out_data, (a,), backward, "leaky_relu")


# -- reductions -----------------------------------------------------------------


def _norm_axes(a: Tensor, axes) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(a.data.ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(ax % a.data.ndim for ax in axes)
    return axes


def _check_nonempty(a: Tensor, axes: tuple[int, ...], op: str) -> int:
    n = 1
    for ax in axes:
        n *= a.data.shape[ax]
    if n == 0:
        raise EmptyReduction(f"{op} over zero elements")
    return n


def _expand(g: np.ndarray, a_shape: tuple[int, ...], axes: tuple[int, ...],
            keepdims: bool) -> np.ndarray:
    """Read-only broadcast of a reduction's gradient back to the input shape.

    Callers that need an owned array take ``.copy()``, which keeps a 0-d
    shape where ``np.ascontiguousarray`` would return shape (1,).
    """
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, a_shape)


def sum_(a: Tensor, axes=None, keepdims=False) -> Tensor:
    axes = _norm_axes(a, axes)
    _check_nonempty(a, axes, "sum")
    data = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        a._accum(_expand(g, a.shape, axes, keepdims).copy())

    return Tensor._make(np.asarray(data), (a,), backward, "sum")


def mean(a: Tensor, axes=None, keepdims=False) -> Tensor:
    axes = _norm_axes(a, axes)
    n = _check_nonempty(a, axes, "mean")
    data = a.data.mean(axis=axes, keepdims=keepdims)
    inv_n = a.dtype.type(1.0 / n)

    def backward(g):
        a._accum(_expand(g * inv_n, a.shape, axes, keepdims).copy())

    return Tensor._make(np.asarray(data), (a,), backward, "mean")


def l1_norm(a: Tensor, axes=None, keepdims=False) -> Tensor:
    axes = _norm_axes(a, axes)
    _check_nonempty(a, axes, "l1_norm")
    data = np.abs(a.data).sum(axis=axes, keepdims=keepdims)

    def backward(g):
        a._accum(_expand(g, a.shape, axes, keepdims) * np.sign(a.data))

    return Tensor._make(np.asarray(data), (a,), backward, "l1_norm")


def frobenius_norm(a: Tensor, axes=None, keepdims=False) -> Tensor:
    axes = _norm_axes(a, axes)
    _check_nonempty(a, axes, "frobenius_norm")
    data = np.sqrt((a.data * a.data).sum(axis=axes, keepdims=keepdims))

    def backward(g):
        denom = _expand(data if keepdims else np.asarray(data), a.shape, axes, keepdims)
        ratio = np.where(denom > 0, a.data / np.where(denom > 0, denom, 1.0), 0.0)
        a._accum(_expand(g, a.shape, axes, keepdims) * ratio)

    return Tensor._make(np.asarray(data), (a,), backward, "frobenius_norm")


def std(a: Tensor, axes=None, keepdims=False) -> Tensor:
    """Population standard deviation (divide by N)."""
    axes = _norm_axes(a, axes)
    n = _check_nonempty(a, axes, "std")
    mu = a.data.mean(axis=axes, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    sig = np.sqrt(var)
    data = sig if keepdims else sig.reshape(
        tuple(s for i, s in enumerate(a.shape) if i not in axes))

    def backward(g):
        # d sigma / dx = (x - mu) / (N * sigma); zero for a constant input
        safe = np.where(sig > 0, sig, 1.0)
        local = np.where(sig > 0, centered / (n * safe), 0.0)
        a._accum(_expand(g, a.shape, axes, keepdims) * local)

    return Tensor._make(np.asarray(data), (a,), backward, "std")


# -- shape plumbing ---------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def backward(g):
        a._accum(g.reshape(a.shape))

    return Tensor._make(data, (a,), backward, "reshape")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes; leading axes pass through."""
    if a.data.ndim < 2:
        raise ShapeMismatch(f"transpose expects at least 2-D, got {a.shape}")
    data = np.ascontiguousarray(np.swapaxes(a.data, -1, -2))

    def backward(g):
        a._accum(np.ascontiguousarray(np.swapaxes(g, -1, -2)))

    return Tensor._make(data, (a,), backward, "transpose")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    axis = axis % a.data.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeMismatch(
            f"narrow [{start}:{start + length}] out of range for axis {axis} of {a.shape}")
    idx = tuple(slice(None) if i != axis else slice(start, start + length)
                for i in range(a.data.ndim))
    data = np.ascontiguousarray(a.data[idx])

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a._accum(full)

    return Tensor._make(data, (a,), backward, "narrow")


def pad_axis(a: Tensor, axis: int, before: int, after: int) -> Tensor:
    axis = axis % a.data.ndim
    widths = [(0, 0)] * a.data.ndim
    widths[axis] = (before, after)
    data = np.pad(a.data, widths)
    idx = tuple(slice(None) if i != axis else slice(before, before + a.shape[axis])
                for i in range(a.data.ndim))

    def backward(g):
        a._accum(np.ascontiguousarray(g[idx]))

    return Tensor._make(data, (a,), backward, "pad")


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(parts)
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as e:
        raise ShapeMismatch(str(e)) from None
    sizes = [p.shape[axis] for p in parts]

    def backward(g):
        ofs = 0
        for p, n in zip(parts, sizes):
            idx = tuple(slice(None) if i != axis % g.ndim else slice(ofs, ofs + n)
                        for i in range(g.ndim))
            p._accum(np.ascontiguousarray(g[idx]))
            ofs += n

    return Tensor._make(data, parts, backward, "concat")


# -- backward pass ----------------------------------------------------------------


def topo_order(root: Tensor) -> list[Tensor]:
    """Materialize the tape: every recorded op ordered inputs-before-use."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Reverse-mode sweep from a scalar root; visits each node exactly once.

    Gradients accumulate additively across fan-out, so a tensor used twice
    receives the sum of both contributions.

    The sweep consumes the tape: as soon as a recorded node has passed its
    gradient on, its grad, backward closure and parent links are released,
    so the activations its closure holds die during the sweep rather than
    after it. Only the root and the leaves keep their grads, and a second
    backward over the same root raises :class:`DetachedRoot`.
    """
    if root.data.size != 1:
        raise NotScalarRoot(f"backward root must be scalar, got shape {root.shape}")
    if root._backward is None and not root.requires_grad:
        raise DetachedRoot("root records no operations and does not require grad")
    if root._backward is None and root._op != "leaf":
        raise DetachedRoot("root's tape was consumed by an earlier backward")
    order = topo_order(root)
    root.grad = np.ones_like(root.data)
    # every consumer of a node precedes it in this sweep, so no later _accum
    # reaches a released node
    for node in reversed(order):
        if node._backward is None:
            continue  # a leaf: it keeps its grad
        if node.grad is not None:
            node._backward(node.grad)
        if node is not root:
            node.grad = None
        node._backward = None
        node._parents = ()
