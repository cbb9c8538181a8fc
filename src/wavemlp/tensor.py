"""Dense real tensors on numpy plus a reverse-mode differentiation tape.

Forward ops compute with numpy and return through ``_result``, the one place
that decides what an op hands on: its output needs gradients iff an input does,
and while a ``Tape`` is active such an output appends one record ``(input uids,
output uid, backward)``, whose closure binds the arrays and flags backward reads
as the op runs: a record holds arrays, never a Tensor. Replaying the records in
reverse creation order is backpropagation, since creation order is topological.
A tape replays once, freeing each record as it goes, then folds, copies if need
be and assigns each leaf's gradient in one pass.

Ops take ``Tensor`` arguments only, bar settings such as an axis, labels or a
keep-mask; nothing is coerced. ``linear`` (h @ w.T over the last axis) is the
one matrix product. A Tensor keeps float32 or float64 data as given, turns
bool, integer and other float data into float64 and rejects any other data
with ``ContractError``; it takes no dtype of its own, since ``model.build``
alone sets a model's precision, and ``_result`` refuses an op that mixes
dtypes, so a graph has one and nothing is promoted. Broadcasting follows
numpy's trailing-dimension alignment.

``linear`` may apply GELU, then a dropout mask, to x before the product (its
prologue): under a tape, the channel MLP's second FC keeps only the
pre-activation and a boolean keep-mask, and rebuilds the hidden activation in
backward. Without one, the MLP runs ``_gelu_forward`` in the pre-activation's
own buffer instead.

``gelu`` (alone or as that prologue), ``window_mix`` and ``wave_mix`` work in
slabs of at most ``_SLAB`` elements, cut only along axes the op treats
independently, with reused scratch. The product in ``linear``, ``layer_norm``
and sums across cut axes (``dw``) are never sliced.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, DimensionError, _number

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
    "window_spans",
    "window_mix",
    "wave_mix",
    "patchify",
    "softmax_cross_entropy",
    "grad_check",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_uids = itertools.count(1)
_TAPE_STACK: list["Tape"] = []
_SLAB = 1 << 15  # T@224 forward, 2 CPUs: 2**13-2**17 alike, 2**12 slower, 2**18 faults again


class Tensor:
    """Dense float array with autodiff bookkeeping.

    ``data`` is a numpy array (float32 or float64). ``requires_grad=True``
    marks a leaf whose ``.grad`` is populated by ``Tape.backward``. An op's
    output inherits ``requires_grad`` and the one dtype of its inputs.
    """

    __slots__ = ("data", "requires_grad", "grad", "uid")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            if arr.dtype.kind not in "biuf":
                raise ContractError(f"Tensor data must be real numbers, got dtype {arr.dtype}")
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
        if self.size != 1:
            raise ContractError(f"expected a scalar Tensor, got shape {tuple(self.shape)}")
        return self.data.item()

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.dtype.name}{flag})"


class Tape:
    """Ordered op record; replaying it backwards is backpropagation.

    Use as a context manager::

        with Tape() as tape:
            loss = f(x)
        tape.backward(loss)     # fills x.grad

    A record is a tuple of input uids (None where no gradient is needed), the
    output uid and the backward closure, and it holds arrays, never a Tensor:
    an op binds the arrays and ``requires_grad`` flags its backward reads when
    it runs, so what a record computes is fixed when it is taped. The tape
    keeps the leaves, inputs that need a gradient and that no record produced,
    in first-taped order; recording writes no Tensor. ``backward`` assigns
    ``.grad`` and the owner of a leaf releases it: ``model.forward`` under a
    tape sets every parameter's to None before its stem runs, ``grad_check``
    its inputs'. ``backward`` seeds the scalar loss with gradient 1 and pops
    the records in reverse, freeing each and the gradients it consumed before
    the next runs; an op output's gradients are summed as they arrive. A
    backward closure may return an input's gradient as a zero-argument
    callable (``linear``'s dw for few tokens), run when it is folded. A leaf
    keeps its contributions in replay order until the walk ends; then one pass
    folds each leaf's in that order, copies the sum if it is read-only or
    another leaf's, and assigns ``.grad`` once on every leaf, the loss
    included when it is one, so every sum is the one an eager walk takes.
    Leaves that do not influence the loss receive a zero gradient. Each
    ``.grad`` is a writeable array of the leaf's dtype, sharing no memory with
    another leaf's, so it may be modified in place. A tape is single-use:
    after ``backward`` it holds nothing, and a second ``backward`` or record
    raises ``ContractError``.

    Backward closures hold references to input arrays, not copies: call
    ``backward`` before mutating any participating ``.data`` in place (the
    optimizer and grad_check both respect this ordering).
    """

    def __init__(self):
        self._records: list[tuple[tuple[int | None, ...], int, Callable]] = []
        self._produced: set[int] = set()
        self._leaves: dict[int, Tensor] = {}
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, inputs: Sequence[Tensor], output: Tensor, backward: Callable):
        if self._spent:
            raise ContractError("this tape has been replayed; record on a new Tape")
        for t in inputs:
            if t.requires_grad and t.uid not in self._produced:
                self._leaves.setdefault(t.uid, t)  # a re-taped leaf keeps its first place
        self._produced.add(output.uid)
        uids = tuple(t.uid if t.requires_grad else None for t in inputs)
        self._records.append((uids, output.uid, backward))

    def backward(self, loss: Tensor) -> None:
        if not isinstance(loss, Tensor):
            raise ContractError("backward target must be a Tensor")
        loss.item()  # ContractError unless the target is one element
        if self._spent:
            raise ContractError("a Tape replays once; record the step on a new Tape")
        if loss.requires_grad and loss.uid not in self._produced:
            self._leaves.setdefault(loss.uid, loss)
        leaves, self._leaves, self._produced, self._spent = self._leaves, {}, set(), True
        grads: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}  # summed as they arrive
        parts: dict[int, list] = {}  # a leaf's, kept in replay order
        while self._records:  # unpacking the next record frees the last one's closure
            uids, out, backfn = self._records.pop()
            if out not in grads:
                continue  # not on a path to the loss
            for uid, gin in zip(uids, backfn(grads.pop(out))):
                if gin is None or uid is None:
                    continue
                if uid in leaves:
                    parts.setdefault(uid, []).append(gin)
                else:
                    gin = gin() if callable(gin) else gin
                    grads[uid] = grads[uid] + gin if uid in grads else gin
            gin = None  # nor hold an input's gradient while the next record runs
        # One pass per leaf: fold in replay order, copy a sum that is read-only (a broadcast
        # view or a 0-d input's numpy scalar) or another leaf's, so each .grad is owned; assign.
        owners: set[int] = set()  # ids of the buffers already handed to a leaf
        for t in leaves.values():
            g = grads.pop(t.uid, None)  # the loss's seed, when the loss is a leaf
            for gin in parts.pop(t.uid, ()):  # popped, so a leaf's callables die once it is assigned
                gin = gin() if callable(gin) else gin
                g = gin if g is None else g + gin
            if g is None:
                g = np.zeros_like(t.data)
            elif not g.flags.writeable or id(g if g.base is None else g.base) in owners:
                g = np.array(g)
            owners.add(id(g if g.base is None else g.base))
            t.grad = g


def _taped(*tensors: Tensor) -> bool:
    """Whether an op on ``tensors`` is recorded: a tape is active and one of them needs a gradient."""
    return bool(_TAPE_STACK) and any(t.requires_grad for t in tensors)


def _result(data: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable | None) -> Tensor:
    """Every op's output, and the one owner of a graph's precision: ContractError unless the
    inputs and ``data`` share one dtype, before anything is wrapped or taped. The output needs a
    gradient iff an input does, and is taped iff ``_taped``; untaped, ``backward`` may be None."""
    if any(t.dtype != data.dtype for t in inputs):
        raise ContractError(f"one dtype per graph: {[t.dtype.name for t in inputs]} -> {data.dtype}")
    out = Tensor(data, any(t.requires_grad for t in inputs))
    if _taped(out):
        _TAPE_STACK[-1].record(inputs, out, backward)
    return out


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


def _slabs(shape: tuple, whole: tuple, dtype, count: int) -> Iterator[tuple]:
    """Yield (index, ``count`` reused scratch arrays) per slab of ``shape``, ``whole`` kept."""
    if math.prod(shape) <= _SLAB:  # ... keeps a 0-d slab an array
        yield ((...,), *(np.empty(shape, dtype) for _ in range(count)))
        return
    steps = list(shape)  # a slab's extent along each axis
    for ax in range(len(shape)):  # cut the outermost axes first, down to one index if need be
        size = math.prod(map(min, steps, shape))
        if ax not in whole and size > _SLAB:
            steps[ax] = max(1, _SLAB * shape[ax] // size)
    buffers = [np.empty(math.prod(steps), dtype) for _ in range(count)]
    for start in itertools.product(*(range(0, n, k) for n, k in zip(shape, steps))):
        size = tuple(min(k, n - j) for j, k, n in zip(start, steps, shape))
        index = tuple(slice(j, j + k) for j, k in zip(start, steps))
        yield (index, *(b[: math.prod(size)].reshape(size) for b in buffers))


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    sa, sb = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _result(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b; the record keeps each operand only if the other's gradient reads it."""
    _check_broadcast(a, b, "mul")
    sa, sb = a.shape, b.shape
    ad, bd = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)

    def backward(g):
        return (
            None if bd is None else _unbroadcast(g * bd, sa),
            None if ad is None else _unbroadcast(g * ad, sb),
        )

    return _result(a.data * b.data, (a, b), backward)


NORM_EPS = 1e-5  # layer_norm's variance floor
_GELU_A = 0.044715
_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi)*(x + 0.044715*x^3)) into ``t``, in one fixed operation order."""
    np.multiply(x, _GELU_A, out=t)
    t *= x
    t *= x
    t += x
    return np.tanh(np.multiply(t, _GELU_C, out=t), out=t)


def _dropout_mask(keep: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """Inverted dropout's float mask keep / (1 - p), built in ``out``'s dtype."""
    np.copyto(out, keep)
    out /= 1.0 - p
    return out


def _gelu_forward(
    x: np.ndarray, dropout: tuple[np.ndarray, float] | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """gelu(x), times inverted dropout's mask when ``dropout`` = (keep, p) gives a boolean
    keep-mask of x's shape and a probability in [0, 1), slab by slab into ``out`` (a new array
    by default). ``out=x`` works in place: each slab's tanh is taken before 0.5*x overwrites x."""
    if dropout is not None:
        keep, p = dropout
        if not 0.0 <= p < 1.0:
            raise ContractError(f"dropout needs p in [0, 1), got {p!r}")
        if not (isinstance(keep, np.ndarray) and keep.dtype == np.bool_ and keep.shape == x.shape):
            raise DimensionError(f"dropout needs a boolean keep-mask of shape {tuple(x.shape)}")
    y = np.empty_like(x) if out is None else out
    for s, t in _slabs(x.shape, (), x.dtype, 1):
        xs = x[s]
        np.add(_gelu_tanh(xs, t), 1.0, out=t)
        ys = np.multiply(xs, 0.5, out=y[s])
        ys *= t
        if dropout is not None:
            ys *= _dropout_mask(dropout[0][s], dropout[1], t)
    return y


def _gelu_backward(
    x: np.ndarray,
    dy: np.ndarray,
    out: np.ndarray,
    dropout: tuple[np.ndarray, float] | None = None,
    y: np.ndarray | None = None,
) -> None:
    """dx = dy * mask * gelu'(x) into ``out`` (which may be dy), slab by slab; given ``y``, also
    rebuild the forward's gelu(x) * mask there from the same tanh slab."""
    for s, t, d, h in _slabs(x.shape, (), x.dtype, 3):
        xs, gs = x[s], dy[s]
        _gelu_tanh(xs, t)
        np.multiply(xs, 0.5, out=h)
        if y is not None:
            ys = np.multiply(h, np.add(t, 1.0, out=d), out=y[s])
        if dropout is not None:
            _dropout_mask(dropout[0][s], dropout[1], d)
            if y is not None:
                ys *= d
            gs = np.multiply(gs, d, out=out[s])
        # 0.5*(1 + t) + 0.5*x*(1 - t*t)*sqrt(2/pi)*(1 + 3*0.044715*x*x)
        h *= np.subtract(1.0, np.multiply(t, t, out=d), out=d)
        np.multiply(xs, 3.0 * _GELU_A, out=d)
        d *= xs
        d += 1.0
        h *= np.multiply(d, _GELU_C, out=d)
        np.multiply(np.add(t, 1.0, out=d), 0.5, out=d)
        d += h
        np.multiply(gs, d, out=out[s])


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh form: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    Both passes run slab by slab, in the closed forms' operation order; the
    record keeps only x, and backward recomputes the tanh with ``_gelu_tanh``.
    """
    x = a.data

    def backward(g):
        dx = np.empty_like(x)
        _gelu_backward(x, g, dx)
        return (dx,)

    return _result(_gelu_forward(x), (a,), backward)


# ---------------------------------------------------------------------------
# fused per-token layers


def linear(
    x: Tensor, w: Tensor, gelu: bool = False, dropout: tuple[np.ndarray, float] | None = None
) -> Tensor:
    """y = h @ w.T over the last axis, taped as one op; x is [..., c_in], w [c_out, c_in].

    h is x, or with the GELU prologue (``gelu=True``) gelu(x), times inverted dropout's
    mask keep / (1 - p) when ``dropout`` = (keep, p) is given (``_gelu_forward`` checks
    it). The record keeps x and keep, never h. Gradients:
    dh = g @ w and dw = g.T @ h (C-ordered, like w), x, g and h flattened to 2-D; with
    the prologue, backward rebuilds h slab by slab from the same tanh pass that takes dh
    through the mask and GELU's derivative to dx, so it runs no more tanh than ``gelu``.
    When dw is larger than the g and h it is computed from, rows * (c_out + c_in) <
    c_out * c_in (few tokens, wide channels), backward returns it as a zero-argument
    callable over g and h, which ``Tape.backward`` runs when it folds it (see ``Tape``).
    """
    if w.ndim != 2 or x.ndim == 0 or w.shape[1] != x.shape[-1]:
        raise DimensionError(
            f"linear: weight {tuple(w.shape)} does not map the last axis of {tuple(x.shape)}"
        )
    if dropout is not None and not gelu:
        raise ContractError("linear: dropout needs the GELU prologue")
    c_out, c_in = w.shape
    xd, wd, need_x, need_w = x.data, w.data, x.requires_grad, w.requires_grad
    rows = (math.prod(xd.shape[:-1]), c_in)
    late = rows[0] * (c_out + c_in) < c_out * c_in
    h = _gelu_forward(xd, dropout) if gelu else xd

    def backward(g):
        g2 = g.reshape(-1, c_out)
        dx = (g2 @ wd).reshape(xd.shape) if need_x else None
        rebuilt = xd
        if gelu and dx is None:
            rebuilt = _gelu_forward(xd, dropout)  # only dw reads it
        elif gelu:
            rebuilt = np.empty_like(xd) if need_w else None
            _gelu_backward(xd, dx, dx, dropout, rebuilt)  # dh becomes dx in place
        if not need_w:
            return dx, None
        h2 = rebuilt.reshape(rows)
        return dx, (lambda: g2.T @ h2) if late else g2.T @ h2

    return _result((h.reshape(rows) @ wd.T).reshape(xd.shape[:-1] + (c_out,)), (x, w), backward)


def layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Standardize over the last axis, then scale and shift; taped as one op.

    u = (x - mean) / sqrt(var + ``NORM_EPS``) and y = u * scale + shift, with scale and
    shift [channels]. Closed-form backward (Ba et al., arXiv:1607.06450): with
    gu = g * scale, dx = (gu - mean(gu) - u * mean(gu * u)) / root,
    dscale = sum of g * u and dshift = sum of g over every axis but the last.
    """
    if x.shape[-1:] in ((), (0,)) or scale.shape != x.shape[-1:] or shift.shape != x.shape[-1:]:
        raise DimensionError(
            f"layer_norm: input {tuple(x.shape)} needs channels and scale/shift {x.shape[-1:]}, "
            f"got {tuple(scale.shape)}, {tuple(shift.shape)}"
        )
    unit = x.data - x.data.mean(axis=-1, keepdims=True)
    root = np.sqrt((unit * unit).mean(axis=-1, keepdims=True) + NORM_EPS)
    unit /= root
    sd = scale.data

    def backward(g):
        gu = g * sd
        mean_gu = gu.mean(axis=-1, keepdims=True)
        mean_guu = (gu * unit).mean(axis=-1, keepdims=True)
        dx = (gu - mean_gu - unit * mean_guu) / root
        return dx, _unbroadcast(g * unit, sd.shape), _unbroadcast(g, sd.shape)

    y = np.empty_like(unit)
    np.add(np.multiply(unit, sd, out=y), shift.data, out=y)
    return _result(y, (x, scale, shift), backward)


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
    axes, shape = _norm_axes(axis, a.ndim, "reduce_sum"), a.shape

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axes), shape),)

    return _result(a.data.sum(axis=axes), (a,), backward)


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    axes, shape = _norm_axes(axis, a.ndim, "reduce_mean"), a.shape
    count = math.prod(shape[ax] for ax in axes)

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axes) / count, shape),)

    return _result(a.data.mean(axis=axes), (a,), backward)


def window_spans(n: int, window: int) -> list[tuple[int, slice, slice]]:
    """(r, dst, src) per offset r of an odd ``window`` centered on an axis of extent n: with
    d = r - window//2, output j in ``dst`` pairs with input j + d in ``src``. Positions past
    either edge count as zero, so offsets that see only those are left out."""
    spans = []
    for r in range(window):
        d = r - window // 2
        if abs(d) < n:
            spans.append((r, slice(max(0, -d), n - max(0, d)), slice(max(0, d), n - max(0, -d))))
    return spans


def _window_sum(shape: tuple, w: np.ndarray, axis: int, opname: str):
    """The windowed sum along ``axis`` for ``shape``, w checked as its weights: (the axes a slab
    keeps, forward(acc, x, tmp) on a slab, adjoint(g, x) -> (dx, dw), dw 0 on unreached rows)."""
    (ax,) = _norm_axes(axis, len(shape), opname)
    if w.ndim != 2 or w.shape[0] % 2 == 0 or w.shape[1] != shape[-1]:
        raise DimensionError(
            f"{opname}: weights {tuple(w.shape)} are not [odd window, {shape[-1]} channels]"
        )
    lead, spans = (slice(None),) * ax, []
    for r, dst, src in window_spans(shape[ax], w.shape[0]):
        wr = w[r, dst if ax == len(shape) - 1 else slice(None)]  # channels follow dst
        spans.append((r, wr, lead + (dst,), lead + (src,)))

    def forward(acc, x, tmp):
        acc.fill(0)
        flat = tmp.reshape(-1)
        for _, wr, dst, src in spans:  # a contiguous view of flat fills faster than tmp[dst]
            xs = x[src]
            acc[dst] += np.multiply(xs, wr, out=flat[: xs.size].reshape(xs.shape))

    def adjoint(g, x):
        gx, gw = np.zeros_like(x), np.zeros_like(w)
        gxs = np.empty_like(g)  # g * x, zero-edged: fixes the sum order
        for r, wr, dst, src in reversed(spans):
            gx[src] += g[dst] * wr
            gxs[lead + (slice(None, dst[ax].start),)] = gxs[lead + (slice(dst[ax].stop, None),)] = 0
            np.multiply(g[dst], x[src], out=gxs[dst])
            gw[r : r + 1] = _unbroadcast(np.atleast_2d(gxs), (1, w.shape[1]))
        return gx, gw

    return (ax, len(shape) - 1), forward, adjoint


def window_mix(x: Tensor, w: Tensor, axis: int) -> Tensor:
    """Per-channel windowed sum along one axis, taped as one op.

    out[j] = sum_r w[r] * x[j + r - window//2] along ``axis``, where ``w`` is
    [window, channels] with an odd window and the channels are ``x``'s last
    axis; positions past either edge contribute exact zeros. This is a
    depthwise 1-D correlation. Gradients: dx[j] = sum_r w[r] * g[j - r +
    window//2], dw[r] = sum of g * x shifted by r over all but the channels.
    """
    whole, forward, adjoint = _window_sum(x.shape, w.data, axis, "window_mix")
    xd, acc = x.data, np.empty_like(x.data)
    for s, tmp in _slabs(xd.shape, whole, acc.dtype, 1):
        forward(acc[s], xd[s], tmp)
    return _result(acc, (x, w), lambda g: adjoint(g, xd))


def wave_mix(amp: Tensor, theta: Tensor, wt: Tensor, wi: Tensor, axis: int) -> Tensor:
    """Windowed sum of Euler-unfolded waves along one axis, taped as one op.

    out = window_mix(amp*cos(theta), wt) + window_mix(amp*sin(theta), wi), with
    amp and theta of one shape and wt and wi of one shape, computed in slabs. With
    gr and gi the adjoints of the sums, damp = gi*sin(theta) + gr*cos(theta), and
    theta gets (gi*amp)*cos(theta) and -(gr*amp)*sin(theta) as two record inputs,
    so the tape adds them in order with any other gradient of theta. A record
    keeps cos(theta) and sin(theta); backward rebuilds their products with amp.
    """
    if amp.shape != theta.shape or wt.shape != wi.shape:
        shapes = ", ".join(str(tuple(t.shape)) for t in (amp, theta, wt, wi))
        raise DimensionError(f"wave_mix: amp and theta, and wt and wi, must match; got {shapes}")
    inputs, a, th = (amp, theta, theta, wt, wi), amp.data, theta.data
    whole, real_sum, real_adjoint = _window_sum(a.shape, wt.data, axis, "wave_mix")
    _, imag_sum, imag_adjoint = _window_sum(a.shape, wi.data, axis, "wave_mix")
    out = np.empty_like(a)
    c, s = (np.empty_like(th), np.empty_like(th)) if _taped(*inputs) else (None, None)
    for k, p, tmp, real, imag in _slabs(a.shape, whole, a.dtype, 4):
        real_sum(real, np.multiply(a[k], np.cos(th[k], out=p if c is None else c[k]), out=p), tmp)
        imag_sum(imag, np.multiply(a[k], np.sin(th[k], out=p if s is None else s[k]), out=p), tmp)
        np.add(real, imag, out=out[k])

    def backward(g):
        gi, dwi = imag_adjoint(g, a * s)
        gr, dwt = real_adjoint(g, a * c)
        return gi * s + gr * c, (gi * a) * c, -(gr * a) * s, dwt, dwi

    return _result(out, inputs, backward)


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

    def backward(g):
        rows = g.reshape(b, hp, wp, p, p, c).transpose(0, 1, 3, 2, 4, 5)
        return (rows.reshape(full)[:, :h, :w],)

    return _result(tiles.reshape(b, hp, wp, p * p * c), (x,), backward)


# ---------------------------------------------------------------------------
# loss


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer labels against row-wise softmax; the batch may not be empty.

    Fused op: backward is (softmax - onehot) / batch, which keeps the tape
    short and is exact (verified against finite differences in the tests).
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be 2-D, got {tuple(logits.shape)}")
    n, c = logits.shape
    if n == 0 or labels.shape != (n,):
        raise DimensionError(f"need one label per row of a non-empty batch, got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ContractError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= c:
        raise ContractError("labels out of class range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    logp = z - np.log(sez)

    def backward(g):
        grad = ez / sez
        grad[np.arange(n), labels] -= 1.0
        return (g * grad / n,)

    return _result(-logp[np.arange(n), labels].mean(), (logits,), backward)


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
    which fails the check. The default step and tolerance are float64
    settings, so every input must be float64 (else ContractError).
    """
    _number("grad_check: step", step, math.ulp(0.0), real=True, error=ContractError)  # step > 0
    _number("grad_check: tol", tol, 0, real=True, error=ContractError)
    single = isinstance(x, Tensor)
    xs = [x] if single else list(x)
    if any(t.dtype != np.float64 for t in xs):
        raise ContractError(f"grad_check: inputs must be float64, got {[t.dtype.name for t in xs]}")
    for t in xs:
        t.requires_grad = True
        t.grad = None  # an input f never records must not keep an earlier tape's gradient

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
