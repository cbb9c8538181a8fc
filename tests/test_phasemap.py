"""Phase-difference map extraction and its CSV/PGM file formats."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemlp.blocks import block_forward, normalize, patch_embed
from wavemlp.errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    NumericError,
    UnsupportedModeError,
)
from wavemlp.model import build, forward, preset
from wavemlp.patm import PhaseMode, estimate_phase
from wavemlp.phasemap import (
    check_window,
    export_phase_map,
    phase_difference_map,
    phase_grid,
    read_pgm,
    read_phase_map_csv,
    write_pgm,
)
from wavemlp.tensor import Tensor


def _rng(seed=0):
    return np.random.default_rng(seed)


def _image(seed=0, h=32, w=32):
    return _rng(seed).normal(size=(h, w, 3))


def test_phase_grid_shapes():
    m = build(preset("tiny"), seed=0)
    theta3 = phase_grid(m, _image(), 3)
    theta4 = phase_grid(m, _image(), 4)
    assert theta3.shape == (2, 2, 24)
    assert theta4.shape == (1, 1, 32)


def _phase_grid_oracle(m, image, stage):
    """The phase grid by a walk of its own over the stems and blocks."""
    x = Tensor(np.asarray(image, dtype=m.head.dtype)[None])
    for i in range(stage - 1):
        x = patch_embed(x, m.stems[i])
        for b in m.stages[i]:
            x = block_forward(x, b)
    x = patch_embed(x, m.stems[stage - 1])
    block = m.stages[stage - 1][0]
    n = normalize(x, block.norm1.scale, block.norm1.shift)
    theta = estimate_phase(n, block.patm_h.phase_mode, block.patm_h.wtheta, "height")
    return np.asarray(theta.data[0], dtype=np.float64)


@pytest.mark.parametrize("window", [1, 3, 7, "all"])
@pytest.mark.parametrize("mode", [PhaseMode.CHANNEL_FC, PhaseMode.DEPTHWISE, PhaseMode.IDENTITY])
@settings(derandomize=True, max_examples=4, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
    size=st.tuples(st.integers(8, 40), st.integers(8, 40)),
)
def test_phase_grid_equals_its_own_walk(mode, window, dtype, seed, size):
    cfg = preset("tiny", phase_mode=mode, window=window, input_size=(16, 16))
    m = build(cfg, seed=seed, dtype=dtype)
    image = _rng(seed).normal(size=size + (3,))
    for stage in (3, 4):
        got, want = phase_grid(m, image, stage), _phase_grid_oracle(m, image, stage)
        assert got.dtype == want.dtype == np.float64
        npt.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "plant, stage, layer",
    [
        (lambda m: m.stems[0].weight, 3, "stems.0"),
        (lambda m: m.stages[1][0].mlp_fc1, 3, "stages.1.0"),
        (lambda m: m.stems[3].weight, 4, "stems.3"),
        (lambda m: m.stages[2][0].patm_w.wout, 4, "stages.2.0"),
    ],
    ids=["stem0-stage3", "block1-stage3", "stem3-stage4", "block2-stage4"],
)
@np.errstate(all="ignore")
def test_phase_grid_names_a_non_finite_layer(plant, stage, layer):
    m = build(preset("tiny"), seed=0)
    plant(m).data[0, 0] = np.inf
    assert not np.isfinite(_phase_grid_oracle(m, _image(), stage)).all()  # a walk without the gate
    with pytest.raises(NumericError, match=f"after {layer}$"):
        phase_grid(m, _image(), stage)


def test_phase_grid_rejects_static_and_none_modes():
    m = build(preset("tiny", phase_mode="none"), seed=0)
    with pytest.raises(UnsupportedModeError):
        phase_grid(m, _image(), 4)
    m = build(preset("tiny", phase_mode="static", input_size=(32, 32)), seed=0)
    with pytest.raises(UnsupportedModeError):
        phase_grid(m, _image(), 4)


@pytest.mark.parametrize(
    "image, message",
    [
        (np.zeros((3, 3, 3)), "input spatial size must be >= 4"),
        (np.zeros((32, 32, 2)), "expected 3 channels, got 2"),
        (np.zeros((32, 32)), r"expected \[B, H, W, C\] images"),
    ],
    ids=["3x3", "2-channel", "2-d"],
)
def test_phase_grid_checks_the_image_as_forward_does(image, message):
    m = build(preset("tiny"), seed=0)
    for run in (lambda: forward(m, image[None]), lambda: phase_grid(m, image, 4)):
        with pytest.raises(DimensionError, match=message):
            run()


def test_phase_grid_rejects_early_stages():
    m = build(preset("tiny"), seed=0)
    with pytest.raises(ConfigurationError):
        phase_grid(m, _image(), 2)


def test_map_diagonal_is_one_and_range_bounded():
    theta = _rng(1).uniform(-9, 9, (3, 4, 5))
    vals = phase_difference_map(theta, 7)
    assert vals.shape == (21, 28)
    assert vals.min() >= -1.0 and vals.max() <= 1.0
    centers = vals[3::7, 3::7]
    npt.assert_allclose(centers, 1.0, atol=1e-12)


def test_map_is_symmetric_under_pair_swap():
    theta = _rng(2).uniform(-9, 9, (4, 3, 6))
    win, half = 5, 2
    vals = phase_difference_map(theta, win)
    h, w, _ = theta.shape
    for i in range(h):
        for j in range(w):
            for di in range(-half, half + 1):
                for dj in range(-half, half + 1):
                    ki, kj = i + di, j + dj
                    if 0 <= ki < h and 0 <= kj < w:
                        a = vals[i * win + half + di, j * win + half + dj]
                        b = vals[ki * win + half - di, kj * win + half - dj]
                        assert abs(a - b) < 1e-10


def _phase_difference_map_oracle(theta: np.ndarray, window: int) -> np.ndarray:
    """One cell at a time: token (i, j) against its neighbour (i + di, j + dj)."""
    h, w, _d = theta.shape
    half = window // 2
    out = np.zeros((h * window, w * window))
    for i in range(h):
        for j in range(w):
            for di in range(-half, half + 1):
                for dj in range(-half, half + 1):
                    ki, kj = i + di, j + dj
                    if 0 <= ki < h and 0 <= kj < w:
                        val = float(np.mean(np.cos(theta[i, j] - theta[ki, kj])))
                    else:
                        val = 0.0
                    out[i * window + half + di, j * window + half + dj] = val
    return out


@pytest.mark.parametrize(
    "shape,window",
    [
        ((3, 4, 5), 7),
        ((4, 4, 32), 7),
        ((4, 3, 6), 3),
        ((5, 2, 4), 1),
        ((2, 5, 1), 9),  # wider than the grid along both axes
        ((1, 1, 3), 5),  # one token: only the centre is on the grid
    ],
)
def test_map_matches_loop_oracle(shape, window):
    theta = _rng(5).uniform(-9, 9, shape)
    npt.assert_array_equal(
        phase_difference_map(theta, window), _phase_difference_map_oracle(theta, window)
    )


def test_map_out_of_grid_cells_are_zero():
    theta = np.zeros((2, 2, 3))
    vals = phase_difference_map(theta, 5)
    assert vals[0, 0] == 0.0  # top-left corner looks outside the grid
    assert vals[2, 2] == 1.0  # centre of the (0, 0) patch


def test_export_round_trips_csv_and_pgm(tmp_path):
    m = build(preset("tiny"), seed=0)
    csv_path, pgm_path = export_phase_map(m, _image(3), 3, str(tmp_path))
    vals = phase_difference_map(phase_grid(m, _image(3), 3), m.windows[2])
    back = read_phase_map_csv(csv_path)
    npt.assert_array_equal(back, vals)  # full precision text round trip
    pixels = read_pgm(pgm_path)
    expected = np.rint((np.clip(vals, -1, 1) + 1) * 0.5 * 255).astype(np.uint8)
    npt.assert_array_equal(pixels, expected)
    # decoded grey levels land within one quantization step of the values
    decoded = pixels.astype(np.float64) / 255.0 * 2.0 - 1.0
    assert np.abs(decoded - vals).max() <= 1.0 / 255.0


def test_pgm_writer_reader_inverse(tmp_path):
    vals = _rng(4).uniform(-1, 1, (5, 9))
    path = str(tmp_path / "x.pgm")
    write_pgm(path, vals)
    pixels = read_pgm(path)
    assert pixels.shape == (5, 9)
    write_pgm(path, vals)  # re-encode equality
    npt.assert_array_equal(read_pgm(path), pixels)


@pytest.mark.parametrize(
    "content",
    [
        b"P6\n2 1\n255\n\x00\x01",  # bad magic
        b"P5\n\n255\n\x00\x01",  # header with no dimensions
        b"P5\n2 x\n255\n\x00\x01",  # non-integer dimensions
        b"P5\n2 1\n65535\n\x00\x01",  # maxval other than 255
        b"P5\n2 1\n255\n\x00",  # short pixel data
    ],
    ids=["bad-magic", "no-dimensions", "non-integer-dimensions", "maxval", "short-data"],
)
def test_read_pgm_rejects_what_write_pgm_never_writes(tmp_path, content):
    path = tmp_path / "x.pgm"
    path.write_bytes(content)
    with pytest.raises(ContractError):
        read_pgm(str(path))


@pytest.mark.parametrize(
    "content",
    [
        "",  # empty
        "0.5,0.25\n0.5\n",  # ragged rows
        "0.5,x\n",  # not a number
        "0.5,0.25",  # no final newline
        "0.5, 0.25\n",  # a space export never writes
        "1\n",  # not the repr of a float
        "2.0\n",  # out of [-1, 1]
        "nan\n",
    ],
    ids=["empty", "ragged", "non-numeric", "no-newline", "space", "int-text", "out-of-range", "nan"],
)
def test_read_phase_map_csv_rejects_what_export_never_writes(tmp_path, content):
    path = tmp_path / "x.csv"
    path.write_text(content)
    with pytest.raises(ContractError):
        read_phase_map_csv(str(path))


def test_read_phase_map_csv_rejects_binary(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ContractError):
        read_phase_map_csv(str(path))


def test_map_rejects_even_window():
    with pytest.raises(ConfigurationError):
        phase_difference_map(np.zeros((2, 2, 3)), 4)


@pytest.mark.parametrize("window", [0, 4, -1])
def test_check_window_rejects_even_and_non_positive(window):
    with pytest.raises(ConfigurationError):
        check_window(window)


@pytest.mark.parametrize(
    "window, grid, mixing, ok",
    [(7, (1, 1), 7, True), (9, (1, 1), 7, False), (9, (5, 2), 3, True), (11, (5, 2), 3, False)],
)
def test_check_window_bounds_a_window_by_the_grid_and_the_mixing_window(window, grid, mixing, ok):
    """Past the larger of the mixing window and 2*max(h, w) - 1, offsets reach no token."""
    if ok:
        check_window(window, grid, mixing)
    else:
        with pytest.raises(ConfigurationError, match="at most"):
            check_window(window, grid, mixing)


def test_export_refuses_a_window_past_the_bound_and_writes_nothing(tmp_path):
    m = build(preset("tiny"), seed=0)  # stage 4 of a 32x32 image is a 1x1 grid, window 7
    with pytest.raises(ConfigurationError, match="at most 7"):
        export_phase_map(m, _image(3), 4, str(tmp_path), window=9)
    assert not any(tmp_path.iterdir())
