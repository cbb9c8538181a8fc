"""Deterministic synthetic classification tasks for desk-scale training.

"interference" plants two small oriented patterns (row stripes and column
stripes) on 4x4 cells of the image and labels each sample by the quadrant of
the offset from the first pattern to the second. The label depends only on
relative position, so no single token decides it: solving the task requires
mixing information across tokens. "blobs" is a control task labelled by the
absolute quadrant of a single bright cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, _number

__all__ = ["SynthTask", "make_dataset", "GENERATORS"]

CELL = 4  # pattern size; matches the stage-1 patch so one pattern is one token
NOISE_SIGMA = 0.25
PATTERN_GAIN = 1.5


@dataclass
class SynthTask:
    name: str = "interference"
    grid: tuple[int, int, int] = (16, 16, 3)
    num_classes: int = 4
    seed: int = 0
    train_size: int = 512
    val_size: int = 128

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name in GENERATORS):
            raise ConfigurationError(f"unknown task {self.name!r}; choose from {sorted(GENERATORS)}")
        h, w, c = self.grid = _number("grid", self.grid, 1, n=3)
        if h % CELL or w % CELL or h < 2 * CELL or w < 2 * CELL:
            raise ConfigurationError(f"grid {self.grid} must be multiples of {CELL}, >= {2*CELL}")
        if _number("num_classes", self.num_classes, 2) not in (2, 4):
            raise ConfigurationError("synthetic tasks support 2 or 4 classes")
        _number("seed", self.seed, 0)  # numpy seeds its generators from ints >= 0
        _number("train_size", self.train_size, 1)
        _number("val_size", self.val_size, 1)


def _stripe_patterns(c: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.where(np.arange(CELL) % 2 == 0, PATTERN_GAIN, -PATTERN_GAIN)
    a = np.repeat(rows[:, None], CELL, axis=1)[:, :, None] * np.ones(c)
    b = np.repeat(rows[None, :], CELL, axis=0)[:, :, None] * np.ones(c)
    return a, b


def _interference(rng: np.random.Generator, n: int, task: SynthTask):
    h, w, c = task.grid
    gh, gw = h // CELL, w // CELL
    pat_a, pat_b = _stripe_patterns(c)
    x = rng.normal(0.0, NOISE_SIGMA, size=(n, h, w, c))
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        while True:
            ra, ca, rb, cb = rng.integers(0, (gh, gw, gh, gw))
            if ra != rb and ca != cb:
                break
        x[i, ra * CELL : (ra + 1) * CELL, ca * CELL : (ca + 1) * CELL] += pat_a
        x[i, rb * CELL : (rb + 1) * CELL, cb * CELL : (cb + 1) * CELL] += pat_b
        if task.num_classes == 2:
            y[i] = int(rb > ra)
        else:
            y[i] = 2 * int(rb > ra) + int(cb > ca)
    return x, y


def _blobs(rng: np.random.Generator, n: int, task: SynthTask):
    h, w, c = task.grid
    gh, gw = h // CELL, w // CELL
    x = rng.normal(0.0, NOISE_SIGMA, size=(n, h, w, c))
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        r, cc = rng.integers(0, (gh, gw))
        x[i, r * CELL : (r + 1) * CELL, cc * CELL : (cc + 1) * CELL] += PATTERN_GAIN
        if task.num_classes == 2:
            y[i] = int(r >= gh // 2)
        else:
            y[i] = 2 * int(r >= gh // 2) + int(cc >= gw // 2)
    return x, y


GENERATORS = {"interference": _interference, "blobs": _blobs}


def make_dataset(task: SynthTask):
    """(x_train, y_train, x_val, y_val); bit-reproducible from task.seed."""
    rng = np.random.default_rng(task.seed)
    gen = GENERATORS[task.name]
    x_train, y_train = gen(rng, task.train_size, task)
    x_val, y_val = gen(rng, task.val_size, task)
    return x_train, y_train, x_val, y_val
