"""Phase-difference map export.

For a dynamic-phase model, extract the phase grid a chosen stage assigns to
an image and emit, for every token, the channel-mean cosine of its phase
difference to each neighbour in a centered square window. The output is laid
out as window x window patches tiled over the token grid: the patch at token
(i, j) holds cos-differences to tokens (i+di, j+dj); out-of-grid neighbours
are written as 0. Values live in [-1, 1]; each patch centre is exactly 1.

Files: a CSV of full-precision floats, and a binary PGM (P5) with the linear
map [-1, 1] -> [0, 255].
"""

from __future__ import annotations

import os

import numpy as np

from .blocks import normalize
from .errors import ConfigurationError, ContractError, UnsupportedModeError, _number
from .model import ModelParams, _image_batch, stage_walk
from .patm import estimate_phase
from .tensor import window_spans

__all__ = [
    "check_window",
    "phase_grid",
    "phase_difference_map",
    "export_phase_map",
    "read_phase_map_csv",
    "write_pgm",
    "read_pgm",
]


def phase_grid(m: ModelParams, image: np.ndarray, stage: int) -> np.ndarray:
    """Phases [H, W, d] the first block of ``stage`` (1-indexed, 3 or 4)
    estimates for one image, taken from its height-axis mixing module; a
    non-finite layer on ``model.stage_walk``'s way there raises NumericError."""
    if stage not in (3, 4):
        raise ConfigurationError(f"phase maps are exported for stages 3 or 4, got {stage}")
    if not m.config.phase_mode.dynamic:
        raise UnsupportedModeError(
            f"phase mode {m.config.phase_mode.value!r} has no input-dependent phases to map"
        )
    x = _image_batch(m, np.asarray(image)[None])  # forward's cast and checks
    x = stage_walk(x, m.stems[:stage], m.stages[: stage - 1] + [[]])
    block = m.stages[stage - 1][0]
    n = normalize(x, block.norm1.scale, block.norm1.shift)
    theta = estimate_phase(n, block.patm_h.phase_mode, block.patm_h.wtheta, "height")
    return np.asarray(theta.data[0], dtype=np.float64)


def check_window(window: int, grid: tuple[int, int] | None = None, mixing: int = 1) -> None:
    """ConfigurationError unless ``window`` is an odd map window >= 1 and, for an h x w phase
    ``grid``, at most the larger of the stage's ``mixing`` window and 2*max(h, w) - 1: offsets
    past that reach no token and would add only zero cells to an (h*window) x (w*window) map."""
    if _number("window", window, 1) % 2 == 0:
        raise ConfigurationError(f"window must be odd, got {window}")
    bound = window if grid is None else max(mixing, 2 * max(grid) - 1)
    if window > bound:
        raise ConfigurationError(f"window must be at most {bound} for a {grid} grid, got {window}")


def phase_difference_map(theta: np.ndarray, window: int) -> np.ndarray:
    """Tile mean-over-channels cos(theta_j - theta_k) patches into one array."""
    check_window(window)
    h, w, _d = theta.shape
    out = np.zeros((h * window, w * window))
    for ri, rows, rows_src in window_spans(h, window):
        for rj, cols, cols_src in window_spans(w, window):
            diff = theta[rows, cols] - theta[rows_src, cols_src]
            out[ri::window, rj::window][rows, cols] = np.cos(diff).mean(axis=-1)
    return out


def export_phase_map(
    m: ModelParams, image: np.ndarray, stage: int, out_dir: str, window: int | None = None
) -> tuple[str, str]:
    """Write phase_map_stage{K}.csv and .pgm for one image; returns the paths."""
    theta = phase_grid(m, image, stage)
    mixing = m.windows[stage - 1]
    window = mixing if window is None else window
    check_window(window, theta.shape[:2], mixing)
    values = phase_difference_map(theta, window)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"phase_map_stage{stage}.csv")
    with open(csv_path, "w") as fh:
        fh.write(_csv_text(values))
    pgm_path = os.path.join(out_dir, f"phase_map_stage{stage}.pgm")
    write_pgm(pgm_path, values)
    return csv_path, pgm_path


def _csv_text(values: np.ndarray) -> str:  # one line per row, each value the repr of its float
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)


def read_phase_map_csv(path: str) -> np.ndarray:
    """What ``export_phase_map`` writes, read back as a 2-D float64 array; else ContractError."""
    try:
        with open(path) as fh:
            text = fh.read()
        values = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
    except ValueError:  # not text, not numbers, or ragged rows
        values = np.empty(0)
    if values.ndim != 2 or _csv_text(values) != text or not np.all(abs(values) <= 1):
        raise ContractError(f"not a phase-map CSV as export_phase_map writes it: {path}")
    return values


def write_pgm(path: str, values: np.ndarray) -> None:
    """8-bit binary PGM; values in [-1, 1] map linearly onto [0, 255]."""
    pixels = np.rint((np.clip(values, -1.0, 1.0) + 1.0) * 0.5 * 255.0).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read back, as an [h, w] uint8 array, exactly what ``write_pgm`` writes.

    The contract is narrow on purpose: the lines ``P5``, ``<w> <h>`` and
    ``255``, each ending in one newline, then exactly w*h pixel bytes. General
    Netpbm (comments, free whitespace, other maxvals) is not read; anything
    else raises ContractError.
    """
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        dims = fh.readline().rstrip(b"\n").split(b" ")
        maxval = fh.readline().rstrip(b"\n")
        data = fh.read()
    if magic != b"P5":
        raise ContractError(f"not a binary PGM: magic {magic!r}")
    if len(dims) != 2 or not all(d.isdigit() for d in dims) or not maxval.isdigit():
        header = b" ".join(dims)
        raise ContractError(f"malformed PGM header: dimensions {header!r}, maxval {maxval!r}")
    w, h = int(dims[0]), int(dims[1])
    if int(maxval) != 255:
        raise ContractError(f"expected 8-bit PGM, maxval {int(maxval)}")
    if len(data) != w * h:
        raise ContractError(f"PGM of {w}x{h} needs {w * h} pixel bytes, found {len(data)}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)
