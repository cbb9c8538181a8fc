"""One workload process: set up, warm up, run closed-loop iterations, check.

``run.py`` starts this file in a fresh process with BLAS threads capped and
``src`` on the path, and reads the JSON object it prints as its last line.
Modes:

  setup    set up (imports, inputs, model, one warm-up iteration) and stop
  measure  set up, then time iterations for --seconds with tracing off
  trace    set up, then time iterations for --seconds, alternately untraced
           and with the per-layer spans of spans.py
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from importlib import import_module

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# Exact parameter and MAC counts of the paper presets at 224x224.
PRESET_COUNTS = {
    "T*": (14144232, 2176344064),
    "T": (16077800, 2485628928),
    "S": (29553640, 4691365888),
    "M": (42859496, 8226967552),
    "B": (61502440, 10658451456),
}
T224_PRESET = "T"
T224_RES = 224
QUICK_RES = 64
# Stored logits must agree to this absolute tolerance; a change of summation
# order moves them by about 1e-15.
LOGIT_TOL = 1e-9


def wavemlp(name: str):
    return import_module(f"wavemlp.{name}")


def t224_inputs(seed: int, res: int = T224_RES):
    """The T-preset model, one image and one label, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(1, res, res, 3))
    label = np.array([rng.integers(1000)])
    model = wavemlp("model").build(wavemlp("model").preset(T224_PRESET), seed=seed)
    return model, images, label


def load_reference(seed: int) -> dict | None:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["t224_logits"].get(str(seed))


def logit_fingerprint(logits: np.ndarray) -> dict:
    row = logits[0]
    return {"head": [float(v) for v in row[:8]], "sum": float(row.sum())}


def check_logits(logits, first, reference) -> str | None:
    """Shape, finiteness, bit-identity across iterations, stored reference."""
    if logits.shape != (1, 1000):
        return f"logits shape {logits.shape} != (1, 1000)"
    if not np.isfinite(logits).all():
        return "non-finite logits"
    if not np.array_equal(logits, first):
        return "logits differ between iterations of one run"
    if reference is not None:
        got = logit_fingerprint(logits)
        pairs = zip(got["head"] + [got["sum"]], reference["head"] + [reference["sum"]])
        err = max(abs(a - b) for a, b in pairs)
        if err > LOGIT_TOL:
            return f"logits off the stored reference by {err:.3e}"
    return None


class Workload:
    """``warm_up`` once, then ``run`` (timed), ``check`` its output, ``reset``."""

    items = 1  # units of work per iteration, for items_per_s

    def check(self, out) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def detail(self, out) -> dict:
        return {}

    def reset(self):
        """Undo, outside the timed region, what an iteration changed."""


class PilotTrain(Workload):
    """One ``train.train`` call on the committed pilot recipe."""

    def __init__(self, seed: int, quick: bool):
        selftest = wavemlp("selftest")
        task, tc = selftest.pilot_task_config()
        pilot = selftest.load_pilot()
        self.task = dataclasses.replace(task, seed=seed)
        self.tc = dataclasses.replace(tc, seed=seed, epochs=2 if quick else tc.epochs)
        self.arch = wavemlp("model").preset(pilot["pilot"]["arch_preset"])
        self.threshold = None if quick else pilot["threshold"]
        self.items = self.tc.epochs * self.task.train_size

    def warm_up(self):
        wavemlp("train").train(self.arch, self.task, dataclasses.replace(self.tc, epochs=1))

    def run(self):
        return wavemlp("train").train(self.arch, self.task, self.tc)[1]

    def check(self, hist) -> str | None:
        if not all(math.isfinite(v) for v in hist.loss):
            return "non-finite training loss"
        if self.threshold is None:
            return None
        steps_per_epoch = math.ceil(self.task.train_size / self.tc.batch_size)
        target, limit = self.threshold["min_train_acc"], self.threshold["within_steps"]
        for epoch, acc in enumerate(hist.train_acc):
            if acc >= target and (epoch + 1) * steps_per_epoch <= limit:
                return None
        return f"train accuracy {max(hist.train_acc)} never reached {target} within {limit} steps"

    def detail(self, hist) -> dict:
        return {"final_val_acc": hist.val_acc[-1], "final_train_acc": hist.train_acc[-1]}


class T224Infer(Workload):
    """Untaped forward of the T preset on one 224x224 image."""

    def __init__(self, seed: int, quick: bool):
        res = QUICK_RES if quick else T224_RES
        self.model, self.images, self.label = t224_inputs(seed, res)
        self.reference = None if quick else load_reference(seed)
        self.first = None

    def warm_up(self):
        self.first = self.run()

    def run(self):
        return wavemlp("model").forward(self.model, self.images).data

    def check(self, logits) -> str | None:
        return check_logits(logits, self.first, self.reference)

    def detail(self, logits) -> dict:
        return {"reference_checked": self.reference is not None}


class T224Train(T224Infer):
    """Taped forward, cross-entropy, backward and one AdamW update.

    The parameters and optimizer state are restored after each iteration,
    outside the timed region, so every iteration repeats the same first step
    and its outputs must be bit-identical.
    """

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        model_mod, train_mod = wavemlp("model"), wavemlp("train")
        self.params = [t for _, t in model_mod.iter_params(self.model)]
        self.raw = [t.data for t in self.params]
        self.snapshot = [a.copy() for a in self.raw]
        self.state = train_mod.adamw_init(self.raw)
        self.tc = wavemlp("selftest").pilot_task_config()[1]
        self.first_update = None

    def warm_up(self):
        self.first, _loss, self.first_update = self.run()
        self.reset()

    def run(self):
        tensor, train_mod = wavemlp("tensor"), wavemlp("train")
        with tensor.Tape() as tape:
            logits = wavemlp("model").forward(self.model, self.images)
            loss = tensor.softmax_cross_entropy(logits, self.label)
        tape.backward(loss)
        train_mod.adamw_step(self.raw, [t.grad for t in self.params], self.state, 1, self.tc)
        return logits.data, float(loss.data), float(self.model.head.data.sum())

    def check(self, out) -> str | None:
        logits, loss, update = out
        if not math.isfinite(loss) or not math.isfinite(update):
            return "non-finite loss or updated weights"
        if update != self.first_update:
            return "updated weights differ between iterations of one run"
        return check_logits(logits, self.first, self.reference)

    def detail(self, out) -> dict:
        return {"reference_checked": self.reference is not None, "loss": out[1]}

    def reset(self):
        for a, saved in zip(self.raw, self.snapshot):
            np.copyto(a, saved)
        for a in self.state.m + self.state.v:
            a.fill(0.0)


class CountPresets(Workload):
    """``wavemlp count --preset P`` for each paper preset, in process."""

    items = len(PRESET_COUNTS)

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.cli = wavemlp("cli")

    def warm_up(self):
        self.run()

    def run(self):
        out = {}
        for name in PRESET_COUNTS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["count", "--preset", name, "--seed", str(self.seed)])
            fields = dict(line.split("=", 1) for line in buf.getvalue().splitlines() if "=" in line)
            out[name] = (code, fields.get("params"), fields.get("flops"))
        return out

    def check(self, out) -> str | None:
        for name, (params, flops) in PRESET_COUNTS.items():
            code, got_params, got_flops = out[name]
            if code != 0 or (got_params, got_flops) != (str(params), str(flops)):
                return f"count --preset {name}: exit {code}, params={got_params} flops={got_flops}"
        return None


WORKLOADS = {
    "pilot_train": PilotTrain,
    "t224_infer": T224Infer,
    "t224_train": T224Train,
    "count_presets": CountPresets,
}


def run_iterations(workload, seconds: float, tracer=None):
    """Closed loop, one client: iterate until ``seconds`` have passed.

    Returns the iteration times, the failures and the last good output. With
    a tracer, iterations alternate untraced and traced (the first untraced),
    so both halves see the same machine; ``traced[i]`` tells which was which.
    """
    samples, traced, failures, last = [], [], [], None
    deadline = time.monotonic() + seconds
    while True:
        on = tracer is not None and len(samples) % 2 == 1
        if tracer is not None:
            tracer.enable(on)
            if on:
                tracer.begin_iteration()
        t0 = time.perf_counter()
        try:
            out, error = workload.run(), None
        except Exception as exc:  # a failing iteration is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if on:
            tracer.end_iteration(dt)
        if error is None:
            error = workload.check(out)
            last = out
        workload.reset()
        samples.append(dt)
        traced.append(on)
        if error:
            failures.append(error)
        if time.monotonic() >= deadline and (tracer is None or len(samples) >= 2):
            if tracer is not None:
                tracer.enable(False)
            return samples, traced, failures, last


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank.

    Below 21 samples that percentile would not lie above the median, so the
    maximum is reported instead, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 11
    if 2 * (k + 1) <= n:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / n


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args(argv)

    package = import_module("wavemlp")
    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(package.__file__), src]) != src:
        print(f"error: wavemlp imported from {package.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.quick)
    workload.warm_up()
    ready = time.monotonic()
    result = {"ready_monotonic": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    samples, traced, failures, last = run_iterations(workload, args.seconds, tracer)
    if tracer is not None:
        untraced_s = [dt for dt, on in zip(samples, traced) if not on]
        traced_s = [dt for dt, on in zip(samples, traced) if on]
        layers = tracer.per_layer(len(traced_s))
        layers["trace.untraced_ms"] = statistics.median(untraced_s) * 1e3
        layers["trace.traced_ms"] = statistics.median(traced_s) * 1e3
        layers["trace.overhead_ms"] = layers["trace.traced_ms"] - layers["trace.untraced_ms"]
        layers["trace.self_sum_ms"] = tracer.self_sum_s() / len(traced_s) * 1e3
        result.update(
            per_layer=layers,
            traced=traced,
            absent=tracer.absent,
            forwards_mac_checked=tracer.forwards_checked,
        )
        if tracer.mac_mismatches:
            result["run_failures"] = [
                f"{len(tracer.mac_mismatches)} forwards off count_flops: {tracer.mac_mismatches[0]}"
            ]

    result.update(
        attempted=len(samples),
        iter_s=samples,
        failures=failures,
        detail=workload.detail(last) if last is not None else {},
        env=environment(),
    )
    if args.mode == "measure":
        tail_s, tail_pct = tail(samples)
        result.update(
            iter_ms_p50=statistics.median(samples) * 1e3,
            iter_ms_tail=tail_s * 1e3,
            tail_percentile=tail_pct,
            items_per_s=workload.items * len(samples) / sum(samples),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
