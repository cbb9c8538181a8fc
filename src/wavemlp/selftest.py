"""Library-level invariant suite backing the ``selftest`` CLI command.

Each check returns a CheckResult; the acceptance tests reuse these functions
so that the command line and the test-suite agree on what "correct" means.
The fast suite covers the closed-form oracle equivalence, the classical
limit, finite-difference gradient checks, reference parameter/FLOP budgets,
variable-resolution forwards, and determinism; ``full=True`` adds the
committed toy-training run with its bit-reproducibility check.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import model as M
from . import wave
from .blocks import (
    channel_mlp_forward,
    init_block,
    init_stem,
    normalize,
    patch_embed,
    token_mixing_forward,
)
from .patm import PhaseMode, aggregate_tokens, init_patm, patm_forward
from .synth import SynthTask
from .tensor import Tensor, grad_check, linear, mul, reduce_mean, window_mix
from .train import TrainConfig, train

__all__ = ["CheckResult", "check_config_model", "load_pilot", "run_selftest"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"{self.name}={'PASS' if self.passed else 'FAIL'}" + (
            f" ({self.detail})" if self.detail else ""
        )


def load_pilot() -> dict:
    """The committed toy-training recipe and its recorded pilot outcome."""
    text = importlib.resources.files("wavemlp.data").joinpath("pilot_interference.json").read_text()
    return json.loads(text)


def pilot_task_config() -> tuple[SynthTask, TrainConfig]:
    doc = load_pilot()
    t = dict(doc["task"])
    t["grid"] = tuple(t["grid"])
    tr = dict(doc["train"])
    tr["betas"] = tuple(tr["betas"])
    return SynthTask(**t), TrainConfig(**tr)


# ---------------------------------------------------------------------------


def check_superposition_oracle(n: int = 100_000, seed: int = 0, tol: float = 1e-10) -> CheckResult:
    """Closed-form amplitude/phase vs the complex-arithmetic oracle."""
    rng = np.random.default_rng(seed)
    a1, a2 = rng.uniform(0, 10, n), rng.uniform(0, 10, n)
    t1 = rng.uniform(-4 * np.pi, 4 * np.pi, n)
    t2 = rng.uniform(-4 * np.pi, 4 * np.pi, n)
    amp = wave.superpose_amplitude(a1, a2, t1, t2)
    phase = wave.superpose_phase(a1, a2, t1, t2)
    ora = wave.oracle_superpose(a1, a2, t1, t2)
    amp_err = float(np.abs(amp - ora.amplitude).max())
    mask = ora.amplitude > wave.ZERO_AMPLITUDE
    phase_err = float(np.abs(wave.canonicalize_phase(phase[mask] - ora.phase[mask])).max())
    worst = max(amp_err, phase_err)
    return CheckResult(
        "superposition_oracle", worst < tol, f"n={n} amp_err={amp_err:.2e} phase_err={phase_err:.2e}"
    )


def check_classical_limit(configs: int = 100, seed: int = 0, tol: float = 1e-12) -> CheckResult:
    """Phases in {0, pi} with wi=0 must reduce mixing to a plain token-FC."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(configs):
        h, w, d = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 5)
        window = int(rng.choice([1, 3, 5, 7]))
        axis = "height" if rng.integers(2) else "width"
        amp = rng.normal(size=(1, h, w, d))
        theta = np.pi * rng.integers(0, 2, size=(1, h, w, d)).astype(float)
        wt = rng.normal(size=(window, d))
        got = aggregate_tokens(
            Tensor(amp), Tensor(theta), Tensor(wt), Tensor(np.zeros((window, d))), axis
        ).data
        signed = amp * np.cos(theta)
        want = np.zeros_like(signed)
        half = window // 2
        ext = h if axis == "height" else w
        for j in range(ext):
            for r in range(-half, half + 1):
                if 0 <= j + r < ext:
                    src = signed[:, j + r] if axis == "height" else signed[:, :, j + r]
                    contrib = wt[r + half] * src
                    if axis == "height":
                        want[:, j] += contrib
                    else:
                        want[:, :, j] += contrib
        worst = max(worst, float(np.abs(got - want).max()))
    return CheckResult("classical_limit", worst < tol, f"configs={configs} err={worst:.2e}")


def _mean_square(t: Tensor) -> Tensor:
    return reduce_mean(mul(t, t))


def check_gradients(seed: int = 0, tol: float = 1e-4, step: float = 1e-5) -> list[CheckResult]:
    """Finite-difference checks over every differentiable building block."""
    rng = np.random.default_rng(seed)
    results = []

    def run(name, f, tensors):
        rep = grad_check(f, tensors, step=step, tol=tol)
        results.append(CheckResult(f"grad_{name}", rep.passed, f"max_rel_err={rep.max_rel_err:.2e}"))

    # grad_matmul: the one matrix product, a @ w.T
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    r = Tensor(rng.normal(size=(4, 3)))
    run("matmul", lambda ts: reduce_mean(mul(linear(a, w), r)), [a, w])

    x = Tensor(rng.normal(size=(2, 3, 2, 4)), requires_grad=True)
    scale = Tensor(rng.normal(size=4) + 1.0, requires_grad=True)
    shift = Tensor(rng.normal(size=4), requires_grad=True)
    run("normalize", lambda ts: _mean_square(normalize(x, scale, shift)), [x, scale, shift])

    blk = init_block(4, 2, 3, PhaseMode.CHANNEL_FC, np.random.default_rng(seed + 1))
    xb = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
    mlp_ts = [xb, blk.mlp_fc1, blk.mlp_fc2, blk.norm2.scale, blk.norm2.shift]
    run("channel_mlp", lambda ts: _mean_square(channel_mlp_forward(xb, blk)), mlp_ts)

    for mode in PhaseMode:
        p = init_patm(2, 3, "width", mode, np.random.default_rng(seed + 2), static_size=(3, 4))
        xp = Tensor(rng.normal(size=(2, 3, 4, 2)), requires_grad=True)
        patm_ts = [xp] + _tensors(p)
        run(f"patm_{mode.value}", lambda ts: _mean_square(patm_forward(xp, p)), patm_ts)

    amp = Tensor(rng.normal(size=(1, 5, 2, 2)), requires_grad=True)
    theta = Tensor(rng.uniform(-3, 3, size=(1, 5, 2, 2)), requires_grad=True)
    wt = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    wi = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    run(
        "aggregate_tokens",
        lambda ts: _mean_square(aggregate_tokens(amp, theta, wt, wi, "height")),
        [amp, theta, wt, wi],
    )

    blk2 = init_block(3, 2, 3, PhaseMode.CHANNEL_FC, np.random.default_rng(seed + 3))
    xt = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
    blk2_ts = [xt] + _tensors(blk2)
    run("token_mixing_block", lambda ts: _mean_square(token_mixing_forward(xt, blk2)), blk2_ts)

    model_ts, loss_fn = _two_block_model(seed + 4)
    run("two_block_model", loss_fn, model_ts)

    xw = Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    ww = Tensor(rng.normal(size=(5, 2)), requires_grad=True)  # window 5 > extent 3
    run("window_mix", lambda ts: _mean_square(window_mix(xw, ww, 1)), [xw, ww])

    xn = Tensor(rng.normal(size=(2, 1, 2)), requires_grad=True)
    wn = Tensor(rng.normal(size=(7, 2)), requires_grad=True)  # 6 of 7 offsets see only padding
    run("window_mix_wide", lambda ts: _mean_square(window_mix(xn, wn, 1)), [xn, wn])

    stem = init_stem(2, 2, 3, np.random.default_rng(seed + 5))
    xs = Tensor(rng.normal(size=(1, 5, 3, 2)), requires_grad=True)  # pads one row and one column
    run("stem_ragged", lambda ts: _mean_square(patch_embed(xs, stem)), [xs, stem.weight])
    return results


def _tensors(node) -> list[Tensor]:
    """The learnables of a params node, in ``iter_params`` order."""
    return [t for _, t in M.iter_params(node)]


def _two_block_model(seed: int):
    """A stem, two blocks, pooling, and a head, end to end."""
    rng = np.random.default_rng(seed)
    d, classes = 3, 2
    stem = init_stem(2, 2, d, rng)
    b1 = init_block(d, 2, 3, PhaseMode.CHANNEL_FC, rng)
    b2 = init_block(d, 2, 3, PhaseMode.CHANNEL_FC, rng)
    head = Tensor(rng.uniform(-0.5, 0.5, size=(classes, d)), requires_grad=True)
    x = Tensor(rng.normal(size=(1, 4, 4, 2)), requires_grad=True)
    tensors = [x, stem.weight] + _tensors(b1) + _tensors(b2) + [head]

    def loss_fn(ts):
        pooled = reduce_mean(M.stage_walk(x, [stem], [[b1, b2]]), axis=(1, 2))
        return _mean_square(linear(pooled, head))

    return tensors, loss_fn


def check_config_model(cfg: M.ArchConfig, seed: int = 0, tol: float = 1e-4) -> CheckResult:
    """Finite differences through a whole model built from ``cfg``.

    The input is one image at ``cfg.input_size``, or 8x8 when the config
    leaves the size free; the loss is the mean square of the logits.
    """
    m = M.build(cfg, seed=seed)
    h, w = cfg.input_size or (8, 8)
    x = Tensor(np.random.default_rng(seed).normal(size=(1, h, w, cfg.input_channels)))
    tensors = [x] + _tensors(m)
    rep = grad_check(lambda ts: _mean_square(M.forward(m, x)), tensors, tol=tol)
    return CheckResult("grad_config_model", rep.passed, f"max_rel_err={rep.max_rel_err:.3e}")


def check_reference_budgets(rel_tol: float = M.BUDGET_REL_TOL) -> list[CheckResult]:
    """Preset parameter/FLOP counts vs the reference budgets at 224x224."""
    results = []
    for name, (ref_p, ref_f) in M.REFERENCE_BUDGETS.items():
        cfg = M.preset(name)
        n_params, n_flops = M.count_params(cfg), M.count_flops(cfg, 224, 224)
        ok = M.within_budget(n_params, ref_p, rel_tol) and M.within_budget(n_flops, ref_f, rel_tol)
        detail = f"params={n_params} ref={ref_p:.0f} flops={n_flops} ref={ref_f:.0f}"
        results.append(CheckResult(f"budget_{name}", ok, detail))
    return results


def check_variable_resolution(h: int = 64, w: int = 96, seed: int = 0) -> list[CheckResult]:
    """Every preset must run at a non-square, non-default resolution."""
    rng = np.random.default_rng(seed)
    img = rng.normal(size=(2, h, w, 3))
    results = []
    for name in M.REFERENCE_BUDGETS:
        m = M.build(M.preset(name), seed=0)
        n_params = M.count_params(m)
        try:
            logits = M.forward(m, img)
            ok = (
                logits.shape == (2, m.config.num_classes)
                and bool(np.isfinite(logits.data).all())
                and sum(t.size for t in _tensors(m)) == n_params
            )
            detail = f"logits={tuple(logits.shape)} params={n_params}"
        except Exception as exc:  # a failure here is the finding itself
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(f"resolution_{name}", ok, detail))
    return results


def check_forward_determinism(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    img = rng.normal(size=(2, 16, 16, 3))
    m = M.build(M.preset("tiny"), seed=0)
    first = M.forward(m, img).data
    second = M.forward(m, img).data
    same = np.array_equal(first, second)
    return CheckResult("forward_determinism", same, "bit-identical" if same else "mismatch")


def check_training(full: bool = False) -> list[CheckResult]:
    """Short determinism run always; the committed pilot when ``full``."""
    task, tc = pilot_task_config()
    results = []
    short = replace(tc, epochs=2)
    _m1, h1 = train(M.preset("tiny"), task, short)
    _m2, h2 = train(M.preset("tiny"), task, short)
    same = h1.loss == h2.loss and h1.val_acc == h2.val_acc
    results.append(CheckResult("training_determinism", same, f"steps={len(h1.loss)}"))
    if full:
        doc = load_pilot()
        _model, hist = train(M.preset("tiny"), task, tc)
        steps_per_epoch = math.ceil(task.train_size / tc.batch_size)
        limit = doc["threshold"]["within_steps"]
        target = doc["threshold"]["min_train_acc"]
        reached = [
            (e + 1) * steps_per_epoch
            for e, a in enumerate(hist.train_acc)
            if a >= target and (e + 1) * steps_per_epoch <= limit
        ]
        ok = bool(reached)
        detail = f"first_step={reached[0]}" if reached else f"best={max(hist.train_acc):.3f}"
        results.append(CheckResult("toy_training_threshold", ok, detail))
    return results


def run_selftest(full: bool = False, seed: int = 0) -> list[CheckResult]:
    results = [check_superposition_oracle(seed=seed)]
    results.append(check_classical_limit(seed=seed))
    results += check_gradients(seed=seed)
    results += check_reference_budgets()
    results += check_variable_resolution(seed=seed)
    results.append(check_forward_determinism(seed=seed))
    results += check_training(full=full)
    return results
