"""Per-layer spans recorded from outside the package.

``Tracer.install`` builds wrappers of public functions of wavemlp's modules
that time each call as a span, and ``Tracer.enable`` swaps them in or out.
A span's self time is its duration minus that of the spans it encloses;
each second of a traced iteration lands in exactly one layer's self time,
so the layer times sum to the iteration.

Backward time is charged to the layer that was open when the op was taped:
the wrapper of ``Tape.record`` wraps each backward closure it stores. A name
in ``SPANS`` that the package no longer has is reported as absent, not as a
failure, so the package can fuse or drop functions without touching this file.

Besides times, the spans count tape records and their output bytes per layer,
and tally multiply-accumulates from the shapes seen at ``channel_fc``,
``aggregate_tokens``, the depthwise phase estimator and the head matmul. Each
forward's tally is checked against ``count_flops(...) * batch``.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from importlib import import_module

from metrics import SPLIT_LAYERS, STAGES, TAPED_LAYERS, WHOLE_LAYERS

perf_counter = time.perf_counter

# (module, attribute, layer). A dict names the layer after the caller's span
# key; a caller not in the dict, or a layer of None, keeps the caller's layer.
SPANS = (
    ("model", "build", "model.build"),
    ("model", "count_params", "model.count"),
    ("model", "count_flops", "model.count"),
    ("model", "forward", "model.head"),
    ("blocks", "patch_embed", "model.stem"),
    ("blocks", "block_forward", None),
    ("blocks", "token_mixing_forward", "blocks.token_mixing"),
    ("blocks", "channel_mlp_forward", "blocks.channel_mlp"),
    ("blocks", "normalize", "blocks.norm"),
    ("patm", "patm_forward", None),
    ("patm", "compute_amplitude", "patm.amplitude"),
    ("patm", "estimate_phase", "patm.phase"),
    ("patm", "aggregate_tokens", "patm.mix"),
    (
        "patm",
        "channel_fc",
        {"patm.patm_forward": "patm.out_fc", "blocks.token_mixing_forward": "blocks.direct_fc"},
    ),
    ("tensor", "cos", {"patm.aggregate_tokens": "patm.modulate"}),
    ("tensor", "sin", {"patm.aggregate_tokens": "patm.modulate"}),
    ("tensor", "matmul", None),
    ("tensor", "softmax_cross_entropy", "train.loss"),
    ("tensor", "Tape.backward", "tensor.backward"),
    ("train", "train", "train.loop"),
    ("train", "accuracy", "train.eval"),
    ("train", "adamw_step", "train.adamw"),
    ("synth", "make_dataset", "synth.dataset"),
    ("cli", "main", "cli.count"),
)


def _buckets(layer: str) -> tuple[str, str]:
    return f"{layer}.fwd", f"{layer}.bwd"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span stack, per-layer totals, and the MAC cross-check."""

    def __init__(self):
        # A frame is [bucket of its self time, time of enclosed spans, span
        # key, bucket of the backward of ops it tapes]; buckets are
        # "<layer>.fwd" and "<layer>.bwd".
        self.root = ["trace.harness.fwd", 0.0, None, "trace.harness.bwd"]
        self.stack = [self.root]
        self.self_s = defaultdict(float)  # bucket -> seconds
        self.tape = defaultdict(lambda: [0, 0])  # backward bucket -> [records, output bytes]
        self.backward_calls = 0
        self.absent: list[str] = []
        # Model forward in progress: stage index (-1 before the first stem),
        # depth of open blocks, and MACs tallied so far.
        self.stage = -1
        self.block_depth = 0
        self.block_stage = None  # stage of the open block, else None
        self.forward_macs = 0
        self.stage_fwd = [0.0] * STAGES
        self.stage_bwd = [0.0] * STAGES
        self.stage_macs = [0] * STAGES
        self.model_fwd_s = 0.0
        self.model_macs = 0
        self.mix_macs = 0
        self.forwards_checked = 0
        self.mac_mismatches: list[str] = []
        self._count_flops = None
        self._flops_cache = (None, None, None, None)
        self._patches: list[tuple[object, str, object, object]] = []  # owner, name, old, new

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import_module("wavemlp.cli")  # imports every module the spans name
        hooks = {
            "model.forward": (self._enter_forward, self._leave_forward),
            "blocks.patch_embed": (self._enter_stem, None),
            "blocks.block_forward": (self._enter_block, self._leave_block),
            "patm.channel_fc": (self._enter_channel_fc, None),
            "patm.aggregate_tokens": (self._enter_mix, None),
            "patm.estimate_phase": (self._enter_phase, None),
            "tensor.matmul": (self._enter_matmul, None),
            "tensor.Tape.backward": (self._enter_backward, None),
        }
        for module_name, attr, layer in SPANS:
            owner_name, _, name = attr.rpartition(".")
            module = import_module(f"wavemlp.{module_name}")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, name, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if module_name == "model" and name == "count_flops":
                self._count_flops = fn
            key = f"{module_name}.{name}"
            enter, leave = hooks.get(f"{module_name}.{attr}", (None, None))
            wrapped = self._span(fn, key, layer, enter, leave)
            bindings = [(owner, name)] if owner_name else _wavemlp_bindings(fn)
            self._patches += [(where, bound, fn, wrapped) for where, bound in bindings]
        tape = getattr(import_module("wavemlp.tensor"), "Tape", None)
        if tape is None or not hasattr(tape, "record"):
            self.absent.append("tensor.Tape.record")
        else:
            self._patches.append((tape, "record", tape.record, self._recorder(tape.record)))

    def enable(self, on: bool) -> None:
        """Swap the wrappers in (``on``) or put the package's functions back."""
        for owner, name, old, new in self._patches:
            setattr(owner, name, new if on else old)

    def _span(self, fn, key, layer, enter, leave):
        stack, self_s = self.stack, self.self_s
        fixed = _buckets(layer) if isinstance(layer, str) else None
        by_caller = {k: _buckets(v) for k, v in layer.items()} if isinstance(layer, dict) else {}

        def traced(*args, **kwargs):
            caller = stack[-1]
            fwd, bwd = fixed or by_caller.get(caller[2]) or (caller[0], caller[3])
            frame = [fwd, 0.0, key, bwd]
            token = enter(caller, args, kwargs) if enter else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[fwd] += dt - frame[1]
                stack[-1][1] += dt
                if leave:
                    leave(token, dt)

        return traced

    def _recorder(self, record):
        tracer, stack, self_s = self, self.stack, self.self_s

        def traced_record(tape, inputs, output, backward):
            bwd = stack[-1][3]
            stage = tracer.block_stage
            counts = tracer.tape[bwd]
            counts[0] += 1
            counts[1] += output.data.nbytes

            def traced_backward(grad):
                frame = [bwd, 0.0, None, bwd]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return backward(grad)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    self_s[bwd] += dt - frame[1]
                    stack[-1][1] += dt
                    if stage is not None:
                        tracer.stage_bwd[stage] += dt

            return record(tape, inputs, output, traced_backward)

        return traced_record

    # -- hooks --------------------------------------------------------------

    def _add_macs(self, n: int) -> None:
        self.forward_macs += n
        if self.block_depth:
            self.stage_macs[self.stage] += n

    def _enter_forward(self, caller, args, kwargs):
        saved = (self.stage, self.block_depth, self.block_stage, self.forward_macs)
        self.stage, self.block_depth, self.block_stage, self.forward_macs = -1, 0, None, 0
        return saved, _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "images")

    def _leave_forward(self, token, dt):
        saved, model, images = token
        self.model_fwd_s += dt
        self.model_macs += self.forward_macs
        if self._count_flops is not None:
            b, h, w = images.shape[:3]
            want = self._flops(model, h, w) * b
            self.forwards_checked += 1
            if self.forward_macs != want:
                self.mac_mismatches.append(
                    f"forward {tuple(images.shape)}: tallied {self.forward_macs} MACs, "
                    f"count_flops x batch = {want}"
                )
        self.stage, self.block_depth, self.block_stage, self.forward_macs = saved

    def _flops(self, model, h, w) -> int:
        cached_model, ch, cw, flops = self._flops_cache
        if cached_model is not model or (ch, cw) != (h, w):
            flops = self._count_flops(model, h, w)
            self._flops_cache = (model, h, w, flops)
        return flops

    def _enter_stem(self, caller, args, kwargs):
        self.stage += 1

    def _enter_block(self, caller, args, kwargs):
        self.block_depth += 1
        self.block_stage = self.stage

    def _leave_block(self, token, dt):
        self.block_depth -= 1
        if not self.block_depth:
            self.block_stage = None
            self.stage_fwd[self.stage] += dt

    def _enter_channel_fc(self, caller, args, kwargs):
        x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w")
        self._add_macs(math.prod(x.shape[:-1]) * w.shape[0] * w.shape[1])

    def _enter_mix(self, caller, args, kwargs):
        amp, wt = _arg(args, kwargs, 0, "amp"), _arg(args, kwargs, 2, "wt")
        macs = 2 * wt.shape[0] * math.prod(amp.shape)
        self.mix_macs += macs
        self._add_macs(macs)

    def _enter_phase(self, caller, args, kwargs):
        mode = _arg(args, kwargs, 1, "mode")
        if getattr(mode, "value", mode) == "depthwise":
            x, wtheta = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 2, "wtheta")
            self._add_macs(wtheta.shape[0] * math.prod(x.shape))

    def _enter_matmul(self, caller, args, kwargs):
        if caller[2] == "model.forward":  # the head; channel_fc counts its own
            a, b = args[0], args[1]
            self._add_macs(a.shape[0] * a.shape[1] * b.shape[1])

    def _enter_backward(self, caller, args, kwargs):
        self.backward_calls += 1

    def begin_iteration(self) -> None:
        self.root[1] = 0.0

    def end_iteration(self, seconds: float) -> None:
        """Charge the part of an iteration no span covered to the harness."""
        self.self_s["trace.harness.fwd"] += seconds - self.root[1]

    # -- report -------------------------------------------------------------

    def per_layer(self, iterations: int) -> dict[str, float]:
        """Per-layer metrics per iteration; tape counts per taped step."""
        s = self.self_s
        out: dict[str, float] = {}
        steps = self.backward_calls or 1  # no taped step: every count is 0
        out["tensor.tape_records"] = sum(n for n, _ in self.tape.values()) / steps
        out["tensor.tape_bytes"] = sum(b for _, b in self.tape.values()) / steps
        for layer in SPLIT_LAYERS:
            out[f"{layer}.fwd_s"] = s[f"{layer}.fwd"] / iterations
            out[f"{layer}.bwd_s"] = s[f"{layer}.bwd"] / iterations
        for layer in WHOLE_LAYERS:
            out[f"{layer}_s"] = (s[f"{layer}.fwd"] + s[f"{layer}.bwd"]) / iterations
        for layer in TAPED_LAYERS:
            records, nbytes = self.tape.get(f"{layer}.bwd", (0, 0))
            out[f"{layer}.tape_records"] = records / steps
            out[f"{layer}.tape_bytes"] = nbytes / steps
        for i in range(STAGES):
            out[f"model.stage{i}.fwd_s"] = self.stage_fwd[i] / iterations
            out[f"model.stage{i}.bwd_s"] = self.stage_bwd[i] / iterations
            out[f"model.stage{i}.gmac_per_s"] = _giga_rate(self.stage_macs[i], self.stage_fwd[i])
        out["model.macs"] = self.model_macs / iterations
        out["model.gmac_per_s"] = _giga_rate(self.model_macs, self.model_fwd_s)
        out["patm.mix.gmac_per_s"] = _giga_rate(self.mix_macs, s["patm.mix.fwd"])
        out["trace.absent_names"] = len(self.absent)
        return out

    def self_sum_s(self) -> float:
        """Total self time over every layer, the harness included."""
        return sum(self.self_s.values())


def _giga_rate(macs: int, seconds: float) -> float:
    return macs / seconds / 1e9 if seconds > 0 else 0.0


def _wavemlp_bindings(fn) -> list[tuple[object, str]]:
    """Every (module, name) of a wavemlp module bound to ``fn``."""
    return [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "wavemlp" or name.startswith("wavemlp.")
        for attr, value in vars(module).items()
        if value is fn
    ]
