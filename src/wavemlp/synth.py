"""Deterministic synthetic classification tasks for desk-scale training.

A task is a rule run by one sample loop: for each sample it places the 4x4
cells to paint and returns a quadrant as a row bit and a column bit; the label
is the row bit with 2 classes and 2*row + column with 4. "interference" paints
row stripes and column stripes, and its quadrant is that of the offset from
the first to the second: no single token decides the label, so solving the
task requires mixing information across tokens. "blobs", a control, paints
one bright cell and takes its absolute quadrant.
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
        self.num_classes = _number("num_classes", self.num_classes, 2)
        if self.num_classes not in (2, 4):
            raise ConfigurationError("synthetic tasks support 2 or 4 classes")
        self.seed = _number("seed", self.seed, 0)  # numpy seeds its generators from ints >= 0
        self.train_size = _number("train_size", self.train_size, 1)
        self.val_size = _number("val_size", self.val_size, 1)


def _stripe_patterns(c: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.where(np.arange(CELL) % 2 == 0, PATTERN_GAIN, -PATTERN_GAIN)
    a = np.repeat(rows[:, None], CELL, axis=1)[:, :, None] * np.ones(c)
    return a, a.transpose(1, 0, 2)


def _interference(rng: np.random.Generator, gh: int, gw: int, stripes):
    """Stripes a and b on cells in distinct rows and columns; is b below a, right of a."""
    while True:
        ra, ca, rb, cb = rng.integers(0, (gh, gw, gh, gw))
        if ra != rb and ca != cb:
            return [(ra, ca, stripes[0]), (rb, cb, stripes[1])], (rb > ra, cb > ca)


def _blobs(rng: np.random.Generator, gh: int, gw: int, stripes):
    """One bright cell; is it in the bottom half, in the right half."""
    r, c = rng.integers(0, (gh, gw))
    return [(r, c, PATTERN_GAIN)], (r >= gh // 2, c >= gw // 2)


GENERATORS = {"interference": _interference, "blobs": _blobs}


def _split(rng: np.random.Generator, n: int, task: SynthTask, stripes):
    """n samples: the noise for all of them, then per sample its rule's cells and label."""
    h, w, c = task.grid
    rule = GENERATORS[task.name]
    x = rng.normal(0.0, NOISE_SIGMA, size=(n, h, w, c))
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        cells, (row, col) = rule(rng, h // CELL, w // CELL, stripes)
        for r, cc, paint in cells:
            x[i, r * CELL : (r + 1) * CELL, cc * CELL : (cc + 1) * CELL] += paint
        y[i] = int(row) if task.num_classes == 2 else 2 * int(row) + int(col)
    return x, y


def make_dataset(task: SynthTask):
    """(x_train, y_train, x_val, y_val); bit-reproducible from task.seed."""
    rng = np.random.default_rng(task.seed)
    stripes = _stripe_patterns(task.grid[2])
    return (*_split(rng, task.train_size, task, stripes), *_split(rng, task.val_size, task, stripes))
