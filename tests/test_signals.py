import numpy as np
import numpy.testing as npt
import pytest

from sarbot.errors import ConfigError
from sarbot.signals import (
    CAMERA_ROWS,
    FILTER_COUNT,
    HALF_COLS,
    PREDICTOR_COUNT,
    FilterArray,
    default_filter_taps,
    difference_signals,
    predictor_index,
)


def test_uniform_grid_gives_zero_differences():
    grid = np.full((8, 12), 128.0)
    npt.assert_array_equal(difference_signals(grid), np.zeros((8, 6)))


def test_single_asymmetric_column_pair():
    grid = np.full((8, 12), 128.0)
    grid[:, 0] = 0.0
    grid[:, 11] = 255.0
    diff = difference_signals(grid)
    npt.assert_array_equal(diff[:, 0], np.full(8, -255.0))
    npt.assert_array_equal(diff[:, 1:], np.zeros((8, 5)))


def test_mirrored_grid_negates_differences():
    rng = np.random.default_rng(0)
    grid = rng.uniform(0, 255, (8, 12))
    mirrored = grid[:, ::-1]
    npt.assert_array_equal(difference_signals(mirrored), -difference_signals(grid))


def test_filter_array_validation():
    with pytest.raises(ConfigError):
        FilterArray([[1.0]] * 4)
    with pytest.raises(ConfigError):
        FilterArray([[0.5, 0.4]] + default_filter_taps()[1:])


def test_zero_history_gives_zero_predictors():
    fa = FilterArray()
    p = fa.step(np.zeros((8, 6)))
    assert p.shape == (PREDICTOR_COUNT,)
    npt.assert_array_equal(p, np.zeros(PREDICTOR_COUNT))


def test_impulse_replays_each_filter_response():
    fa = FilterArray()
    taps = default_filter_taps()
    impulse = np.zeros((8, 6))
    impulse[2, 3] = 1.0
    outputs = [fa.step(impulse)]
    for _ in range(20):
        outputs.append(fa.step(np.zeros((8, 6))))
    for h, t in enumerate(taps):
        k = predictor_index(2, 3, h)
        lane = [out[k] for out in outputs]
        expected = list(t) + [0.0] * (len(lane) - len(t))
        npt.assert_allclose(lane, expected, rtol=0, atol=1e-15)
        # all other signals stay silent
    quiet = outputs[3].reshape(8, 6, 5)
    quiet = np.delete(quiet.reshape(48, 5), 2 * 6 + 3, axis=0)
    npt.assert_array_equal(quiet, np.zeros_like(quiet))


def test_step_input_converges_to_unit_gain():
    fa = FilterArray()
    step = np.full((8, 6), 100.0)
    out = None
    for _ in range(20):
        out = fa.step(step)
    npt.assert_allclose(out, np.full(PREDICTOR_COUNT, 100.0), rtol=1e-12)


def test_linearity_and_time_invariance():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-50, 50, (12, 8, 6))
    ys = rng.uniform(-50, 50, (12, 8, 6))
    fa_x, fa_y, fa_mix = FilterArray(), FilterArray(), FilterArray()
    for t in range(12):
        px = fa_x.step(xs[t])
        py = fa_y.step(ys[t])
        pm = fa_mix.step(2.0 * xs[t] + ys[t])
        npt.assert_allclose(pm, 2.0 * px + py, rtol=1e-12, atol=1e-12)
    # time invariance: a leading zero grid is indistinguishable from the
    # zero-initialized state, so the shifted stream replays the same outputs
    fa_a, fa_b = FilterArray(), FilterArray()
    outs_a = [fa_a.step(xs[t]) for t in range(6)]
    fa_b.step(np.zeros((8, 6)))
    outs_b = [fa_b.step(xs[t]) for t in range(6)]
    for t in range(6):
        npt.assert_array_equal(outs_b[t], outs_a[t])


def test_index_mapping_is_bijective():
    seen = set()
    for i in range(CAMERA_ROWS):
        for j in range(HALF_COLS):
            for h in range(FILTER_COUNT):
                seen.add(predictor_index(i, j, h))
    assert seen == set(range(PREDICTOR_COUNT))


def test_mirrored_stream_negates_predictors_exactly():
    rng = np.random.default_rng(9)
    fa, fa_m = FilterArray(), FilterArray()
    for _ in range(15):
        grid = rng.uniform(0, 255, (8, 12))
        p = fa.step(difference_signals(grid))
        pm = fa_m.step(difference_signals(grid[:, ::-1]))
        npt.assert_array_equal(pm, -p)


class FancyIndexFilterArray:
    """Reference: a ring of ``depth`` grids, read back newest first through
    an index array of lags (a copy), then the same einsum."""

    def __init__(self, taps):
        self.depth = max(len(t) for t in taps)
        self.tapmat = np.zeros((FILTER_COUNT, self.depth))
        for i, t in enumerate(taps):
            self.tapmat[i, : len(t)] = t
        self.hist = np.zeros((self.depth, CAMERA_ROWS, HALF_COLS))
        self.pos = 0

    def step(self, diff):
        self.pos = (self.pos + 1) % self.depth
        self.hist[self.pos] = diff
        lags = (self.pos - np.arange(self.depth)) % self.depth
        p = np.einsum("ft,tij->ijf", self.tapmat, self.hist[lags])
        return p.reshape(PREDICTOR_COUNT)


@pytest.mark.parametrize("taps", [
    default_filter_taps(),
    # unequal lengths: the longest sets the depth, the others pad with zeros
    [[1.0], [0.25, 0.75], [0.5, 0.0, 0.0, 0.0, 0.5], [0.1] * 10, [0.0, 0.3, 0.7]],
    [[1.0]] * FILTER_COUNT,
])
def test_doubled_ring_equals_the_fancy_index_step_bitwise(taps):
    fa, ref = FilterArray(taps), FancyIndexFilterArray(taps)
    rng = np.random.default_rng(7)
    for t in range(3 * fa.depth + 5):
        # wide exponents make any change in the order of the sums show
        diff = rng.uniform(-255, 255, (8, 6)) * 10.0 ** rng.integers(-8, 9, (8, 6))
        assert fa.step(diff).tobytes() == ref.step(diff).tobytes(), t
