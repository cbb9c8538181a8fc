"""Dense real tensors on numpy plus a reverse-mode differentiation tape.

Forward ops compute with numpy; while a ``Tape`` is active, every op whose
output needs gradients appends a record ``(inputs, output, backward)``.
Replaying the records in reverse creation order is backpropagation: creation
order is a topological order, so every consumer of a value is visited before
its producer.

Ops take ``Tensor`` arguments only; nothing is coerced. ``linear`` (x @ w.T
over the last axis) is the one matrix product. A Tensor keeps float32 or
float64 data as given and turns any other data into float64; it takes no
dtype of its own, since ``model.build`` alone sets a model's precision.
Broadcasting follows numpy's trailing-dimension alignment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "Tape",
    "GradCheckReport",
    "linear",
    "layer_norm",
    "add",
    "mul",
    "gelu",
    "reduce_sum",
    "reduce_mean",
    "window_mix",
    "wave_mix",
    "patchify",
    "softmax_cross_entropy",
    "grad_check",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_uids = itertools.count(1)
_TAPE_STACK: list["Tape"] = []


class Tensor:
    """Dense float array with autodiff bookkeeping.

    ``data`` is a numpy array (float32 or float64). ``requires_grad=True``
    marks a leaf whose ``.grad`` is populated by ``Tape.backward``. Tensors
    produced by ops inherit ``requires_grad`` from their inputs.
    """

    __slots__ = ("data", "requires_grad", "grad", "uid")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.uid = next(_uids)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.dtype.name}{flag})"


class Tape:
    """Ordered op record; replaying it backwards is backpropagation.

    Use as a context manager::

        with Tape() as tape:
            loss = f(x)
        tape.backward(loss)     # fills x.grad

    ``backward`` seeds the scalar loss with gradient 1, walks the records in
    reverse, accumulates gradients keyed by tensor uid, and finally assigns
    ``.grad`` exactly once on every requires_grad leaf that appeared on the
    tape. Leaves that do not influence the loss receive a zero gradient.
    ``.grad`` is overwritten, never accumulated, across backward calls. Each
    ``.grad`` is a writeable array that shares no memory with any other
    leaf's, so it may be modified in place.

    Backward closures hold references to input arrays, not copies: call
    ``backward`` before mutating any participating ``.data`` in place (the
    optimizer and grad_check both respect this ordering).
    """

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, inputs: Sequence[Tensor], output: Tensor, backward: Callable):
        self._records.append((tuple(inputs), output, backward))

    def backward(self, loss: Tensor) -> None:
        if not isinstance(loss, Tensor):
            raise ContractError("backward target must be a Tensor")
        if loss.size != 1:
            raise ContractError(
                f"backward target must be scalar, got shape {tuple(loss.shape)}"
            )
        produced = {out.uid for _, out, _ in self._records}
        grads: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}
        for inputs, output, backfn in reversed(self._records):
            gout = grads.pop(output.uid, None)
            if gout is None:
                continue  # not on a path to the loss
            gins = backfn(gout)
            for inp, gin in zip(inputs, gins):
                if gin is None or not inp.requires_grad:
                    continue
                have = grads.get(inp.uid)
                grads[inp.uid] = gin if have is None else have + gin
        # Only leaves (never an op output) remain keyed; assign once each.
        # Copy a gradient that is read-only (a broadcast view or a 0-d input's
        # numpy scalar), already another leaf's, or promoted where two dtypes
        # met, so that each .grad is writeable, owned and of its leaf's dtype.
        assigned: set[int] = set()
        owners: set[int] = set()  # ids of the buffers already handed to a leaf
        for t in [t for inputs, _, _ in self._records for t in inputs] + [loss]:
            if not t.requires_grad or t.uid in produced or t.uid in assigned:
                continue
            g = grads.pop(t.uid, None)
            if g is None:
                g = np.zeros_like(t.data)
            elif (
                g.dtype != t.dtype
                or not g.flags.writeable
                or id(g if g.base is None else g.base) in owners
            ):
                g = np.array(g, dtype=t.dtype)
            owners.add(id(g if g.base is None else g.base))
            assigned.add(t.uid)
            t.grad = g


def _record(inputs: Sequence[Tensor], output: Tensor, backward: Callable) -> None:
    if _TAPE_STACK and output.requires_grad:
        _TAPE_STACK[-1].record(inputs, output, backward)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, opname: str) -> None:
    """Raise DimensionError unless the shapes of ``a`` and ``b`` broadcast."""
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(
            f"{opname}: shapes {tuple(a.shape)} and {tuple(b.shape)} do not broadcast"
        ) from None


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    _record((a, b), out, backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    _record((a, b), out, backward)
    return out


_GELU_A = 0.044715
_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh form: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    Both passes run in place, in the closed forms' operation order; the record
    keeps x and the tanh, and backward recomputes 1 + tanh.
    """
    x = a.data
    t = np.multiply(x, _GELU_A, out=np.empty_like(x))
    t *= x
    t *= x
    t += x
    np.tanh(np.multiply(t, _GELU_C, out=t), out=t)
    y = np.multiply(x, 0.5, out=np.empty_like(x))
    y *= np.add(t, 1.0, out=np.empty_like(x))
    out = Tensor(y, a.requires_grad)

    def backward(g):
        # g * (0.5*(1 + t) + 0.5*x*(1 - t*t)*sqrt(2/pi)*(1 + 3*0.044715*x*x))
        d, h = np.empty_like(x), np.multiply(x, 0.5, out=np.empty_like(x))
        h *= np.subtract(1.0, np.multiply(t, t, out=d), out=d)
        np.multiply(x, 3.0 * _GELU_A, out=d)
        d *= x
        d += 1.0
        h *= np.multiply(d, _GELU_C, out=d)
        np.multiply(np.add(t, 1.0, out=d), 0.5, out=d)
        d += h
        return (np.multiply(g, d, out=d if g.dtype == d.dtype else None),)

    _record((a,), out, backward)
    return out


# ---------------------------------------------------------------------------
# fused per-token layers


def linear(x: Tensor, w: Tensor) -> Tensor:
    """y = x @ w.T over the last axis, taped as one op; x is [..., c_in], w [c_out, c_in].

    Gradients: dx = g @ w and dw = g.T @ x (C-ordered, like w), x and g flattened to 2-D.
    """
    if w.ndim != 2 or x.ndim == 0 or w.shape[1] != x.shape[-1]:
        raise DimensionError(
            f"linear: weight {tuple(w.shape)} does not map the last axis of {tuple(x.shape)}"
        )
    c_out, c_in = w.shape
    lead = x.shape[:-1]
    x2 = x.data.reshape(math.prod(lead), c_in)
    out = Tensor((x2 @ w.data.T).reshape(lead + (c_out,)), x.requires_grad or w.requires_grad)

    def backward(g):
        g2 = g.reshape(-1, c_out)
        dx = (g2 @ w.data).reshape(x.shape) if x.requires_grad else None
        dw = g2.T @ x2 if w.requires_grad else None
        return dx, dw

    _record((x, w), out, backward)
    return out


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor, eps: float) -> Tensor:
    """Standardize over the last axis, then scale and shift; taped as one op.

    u = (x - mean) / sqrt(var + eps) and y = u * scale + shift, with scale and
    shift [channels]. Closed-form backward (Ba et al., arXiv:1607.06450): with
    gu = g * scale, dx = (gu - mean(gu) - u * mean(gu * u)) / root,
    dscale = sum of g * u and dshift = sum of g over every axis but the last.
    """
    if x.ndim == 0 or scale.shape != x.shape[-1:] or shift.shape != x.shape[-1:]:
        raise DimensionError(
            f"layer_norm: scale/shift must be {x.shape[-1:]} for input {tuple(x.shape)}, "
            f"got {tuple(scale.shape)}, {tuple(shift.shape)}"
        )
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    root = np.sqrt(var + eps)
    unit = centered / root
    out = Tensor(
        unit * scale.data + shift.data,
        x.requires_grad or scale.requires_grad or shift.requires_grad,
    )

    def backward(g):
        gu = g * scale.data
        mean_gu = gu.mean(axis=-1, keepdims=True)
        mean_guu = (gu * unit).mean(axis=-1, keepdims=True)
        dx = (gu - mean_gu - unit * mean_guu) / root
        return dx, _unbroadcast(g * unit, scale.shape), _unbroadcast(g, shift.shape)

    _record((x, scale, shift), out, backward)
    return out


# ---------------------------------------------------------------------------
# shape ops


def _norm_axes(axis, ndim: int, opname: str) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    out = []
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise DimensionError(f"{opname}: axis {ax} out of range for ndim {ndim}")
        out.append(ax % ndim)
    if len(set(out)) != len(out):
        raise DimensionError(f"{opname}: repeated axis in {axes}")
    return tuple(sorted(out))


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    axes = _norm_axes(axis, a.ndim, "reduce_sum")
    out = Tensor(a.data.sum(axis=axes), a.requires_grad)

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axes), a.shape),)

    _record((a,), out, backward)
    return out


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    axes = _norm_axes(axis, a.ndim, "reduce_mean")
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    out = Tensor(a.data.mean(axis=axes), a.requires_grad)

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axes) / count, a.shape),)

    _record((a,), out, backward)
    return out


def _window_sum(x: np.ndarray, w: np.ndarray, axis: int, opname: str):
    """The windowed sum on arrays, after checking w as its weights: (output, g -> (dx, dw)).

    Only the offsets that reach some input position are computed: on an axis
    narrower than the window the others weight nothing but padding, so their
    products are skipped and their rows of dw are exact zeros.
    """
    (ax,) = _norm_axes(axis, x.ndim, opname)
    if w.ndim != 2 or w.shape[0] % 2 == 0 or w.shape[1] != x.shape[-1]:
        raise DimensionError(
            f"{opname}: weights {tuple(w.shape)} are not [odd window, {x.shape[-1]} channels]"
        )
    half, extent = w.shape[0] // 2, x.shape[ax]
    offsets = range(max(0, half - extent + 1), min(w.shape[0], half + extent))  # the reach
    pad = max(0, min(half, extent - 1))  # the farthest any offset in reach looks past an edge
    lead = (slice(None),) * ax
    inner = lead + (slice(pad, pad + extent),)
    padded = np.zeros(x.shape[:ax] + (extent + 2 * pad,) + x.shape[ax + 1 :], dtype=x.dtype)
    padded[inner] = x
    # shifts[r] selects, from a padded array, the inputs that w[r] weights
    shifts = {r: lead + (slice(pad + r - half, pad + r - half + extent),) for r in offsets}
    if offsets:
        acc = padded[shifts[offsets[0]]] * w[offsets[0] : offsets[0] + 1]
        for r in offsets[1:]:
            acc += padded[shifts[r]] * w[r : r + 1]
    else:  # an empty axis
        acc = np.zeros(x.shape, dtype=np.result_type(x, w))

    def adjoint(g):
        gpad = np.zeros_like(padded)
        gw = np.zeros_like(w)
        for r in reversed(offsets):
            slot = gpad[shifts[r]]
            slot += g * w[r : r + 1]
            gw[r : r + 1] = _unbroadcast(g * padded[shifts[r]], (1, w.shape[1]))
        return gpad[inner], gw

    return acc, adjoint


def window_mix(x: Tensor, w: Tensor, axis: int) -> Tensor:
    """Per-channel windowed sum along one axis, taped as one op.

    out[j] = sum_r w[r] * x[j + r - window//2] along ``axis``, where ``w`` is
    [window, channels] with an odd window and the channels are ``x``'s last
    axis; positions past either edge contribute exact zeros. This is a
    depthwise 1-D correlation. Gradients: dx[j] = sum_r w[r] * g[j - r +
    window//2], dw[r] = sum of g * x shifted by r over all but the channels.
    """
    acc, adjoint = _window_sum(x.data, w.data, axis, "window_mix")
    out = Tensor(acc, x.requires_grad or w.requires_grad)
    _record((x, w), out, adjoint)
    return out


def wave_mix(amp: Tensor, theta: Tensor, wt: Tensor, wi: Tensor, axis: int) -> Tensor:
    """Windowed sum of Euler-unfolded waves along one axis, taped as one op.

    out = window_mix(amp*cos(theta), wt) + window_mix(amp*sin(theta), wi), with
    amp and theta of one shape and wt and wi of one shape. With gr and gi the
    adjoints of the two sums, damp = gi*sin(theta) + gr*cos(theta), and theta
    gets (gi*amp)*cos(theta) and -(gr*amp)*sin(theta) as two inputs of the
    record, so the tape adds them in order with any other gradient of theta.
    """
    if amp.shape != theta.shape or wt.shape != wi.shape:
        shapes = ", ".join(str(tuple(t.shape)) for t in (amp, theta, wt, wi))
        raise DimensionError(f"wave_mix: amp and theta, and wt and wi, must match; got {shapes}")
    requires_grad = any(t.requires_grad for t in (amp, theta, wt, wi))
    if not (_TAPE_STACK and requires_grad):  # untaped: free each term once it is summed
        real = _window_sum(amp.data * np.cos(theta.data), wt.data, axis, "wave_mix")[0]
        imag = _window_sum(amp.data * np.sin(theta.data), wi.data, axis, "wave_mix")[0]
        return Tensor(real + imag, requires_grad)
    c, s = np.cos(theta.data), np.sin(theta.data)
    real, real_adjoint = _window_sum(amp.data * c, wt.data, axis, "wave_mix")
    imag, imag_adjoint = _window_sum(amp.data * s, wi.data, axis, "wave_mix")
    out = Tensor(real + imag, requires_grad)

    def backward(g):
        gi, dwi = imag_adjoint(g)
        gr, dwt = real_adjoint(g)
        return gi * s + gr * c, (gi * amp.data) * c, -(gr * amp.data) * s, dwt, dwi

    _record((amp, theta, theta, wt, wi), out, backward)
    return out


def patchify(x: Tensor, patch: int) -> Tensor:
    """Tile [B, H, W, C] into non-overlapping patch x patch tiles, taped as one op.

    H and W are zero-padded up to the next multiple of ``patch``, so the
    output is [B, ceil(H/p), ceil(W/p), p*p*C], each tile flattened in (row,
    column, channel) order. Backward is the inverse rearrangement of the
    gradient, cropped to the input.
    """
    if x.ndim != 4 or x.size == 0 or patch < 1:
        raise DimensionError(f"patchify: cannot tile {tuple(x.shape)} into {patch}x{patch} patches")
    b, h, w, c = x.shape
    p = patch
    hp, wp = math.ceil(h / p), math.ceil(w / p)
    full = (b, hp * p, wp * p, c)
    padded = np.zeros(full, dtype=x.dtype)
    padded[:, :h, :w] = x.data
    tiles = padded.reshape(b, hp, p, wp, p, c).transpose(0, 1, 3, 2, 4, 5)
    out = Tensor(tiles.reshape(b, hp, wp, p * p * c), x.requires_grad)

    def backward(g):
        rows = g.reshape(b, hp, wp, p, p, c).transpose(0, 1, 3, 2, 4, 5)
        return (rows.reshape(full)[:, :h, :w],)

    _record((x,), out, backward)
    return out


# ---------------------------------------------------------------------------
# loss


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer labels against row-wise softmax.

    Fused op: backward is (softmax - onehot) / batch, which keeps the tape
    short and is exact (verified against finite differences in the tests).
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be 2-D, got {tuple(logits.shape)}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise ContractError("labels out of class range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    logp = z - np.log(sez)
    out = Tensor(-logp[np.arange(n), labels].mean(), logits.requires_grad)

    def backward(g):
        grad = ez / sez
        grad[np.arange(n), labels] -= 1.0
        return (g * grad / n,)

    _record((logits,), out, backward)
    return out


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference check of the tape gradients."""

    max_rel_err: float
    tol: float
    passed: bool
    per_input: tuple[float, ...]

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"grad_check {status}: max_rel_err={self.max_rel_err:.3e} tol={self.tol:.1e}"


def grad_check(f, x, step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of a scalar-valued ``f`` with central differences.

    ``x`` may be one Tensor or a sequence of Tensors; in the sequence case
    ``f`` receives the list. Perturbations for the finite-difference
    evaluations are made in place on ``t.data``, so ``f`` may close over the
    tensors and ignore its argument. The relative error per element is
    ``|analytic - numeric| / max(1, |numeric|)`` (inputs are assumed O(1)).
    A non-finite analytic or numeric derivative makes that error nan or inf,
    which fails the check.
    """
    if not (math.isfinite(step) and step > 0):
        raise ContractError(f"grad_check: step must be finite and > 0, got {step!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ContractError(f"grad_check: tol must be finite and >= 0, got {tol!r}")
    single = isinstance(x, Tensor)
    xs = [x] if single else list(x)
    for t in xs:
        t.requires_grad = True

    def evaluate() -> Tensor:
        y = f(xs[0]) if single else f(xs)
        if not isinstance(y, Tensor) or y.size != 1:
            raise ContractError("grad_check: f must return a scalar Tensor")
        return y

    with Tape() as tape:
        y = evaluate()
    tape.backward(y)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad for t in xs]

    per_input = []
    for t, ga in zip(xs, analytic):
        errs = [0.0]
        for idx in np.ndindex(*t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + step
            fp = float(evaluate().data)
            t.data[idx] = orig - step
            fm = float(evaluate().data)
            t.data[idx] = orig
            numeric = (fp - fm) / (2.0 * step)
            errs.append(abs(float(ga[idx]) - numeric) / max(1.0, abs(numeric)))
        per_input.append(float(np.max(errs)))  # np.max, unlike max, keeps a nan
    worst = float(np.max(per_input)) if per_input else 0.0
    return GradCheckReport(worst, tol, worst <= tol, tuple(per_input))
