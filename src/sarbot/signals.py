"""Camera-grid predictors: symmetric cell differences through a 5-filter FIR array.

The 8x12 intensity grid collapses into 48 left-right difference signals; each
difference feeds five FIR filters with staggered delays, giving 240 predictor
signals per tick.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

CAMERA_ROWS = 8
CAMERA_COLS = 12
HALF_COLS = CAMERA_COLS // 2
FILTER_COUNT = 5
PREDICTOR_COUNT = CAMERA_ROWS * HALF_COLS * FILTER_COUNT  # 240


def difference_signals(grid) -> np.ndarray:
    """Left-right differences C[i, j] = I[i, j] - I[i, 11 - j] (0-based).

    Columns pair symmetrically about the grid's vertical midline, so a
    mirror-symmetric image maps to the zero matrix and mirroring the image
    negates the result. The 8x12 grid is not checked here: it has the
    shape of the grid that ``simenv.sample_camera`` returns beside the
    ground-sensor readout, with values from a canvas that ``make_track``
    checked.
    """
    grid = np.asarray(grid, dtype=float)
    return grid[:, :HALF_COLS] - grid[:, : HALF_COLS - 1 : -1]


def default_filter_taps() -> list[list[float]]:
    """Five unit-gain averaging kernels of length 3 at delays 0, 3, 6, 9, 12."""
    return [[0.0] * d + [1.0 / 3.0] * 3 for d in (0, 3, 6, 9, 12)]


def predictor_index(row: int, col: int, filt: int) -> int:
    """Flat predictor index for (camera row, difference column, filter),
    all 0-based: row-major over (row, col), filters innermost."""
    return (row * HALF_COLS + col) * FILTER_COUNT + filt


class FilterArray:
    """Streaming convolution of all 48 difference signals with 5 FIR filters.

    Keeps a ring buffer of past difference grids; each ``step`` pushes the
    newest grid and returns the 240-vector of filter outputs, indexed by
    :func:`predictor_index`.

    The ring is doubled: it holds ``2 * depth`` grids, and each push writes
    its grid twice, at ``pos`` and at ``pos + depth``, moving ``pos`` one
    place down (modulo ``depth``) per push. The newest ``depth`` grids,
    newest first, are then always the contiguous slice
    ``hist[pos : pos + depth]``, so a step reads them without an index
    array or a copy.
    """

    def __init__(self, taps=None):
        if taps is None:
            taps = default_filter_taps()
        if len(taps) != FILTER_COUNT:
            raise ConfigError(f"exactly {FILTER_COUNT} filters required")
        self.taps = []
        for i, t in enumerate(taps):
            t = np.asarray(t, dtype=float)
            if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)):
                raise ConfigError(f"filter {i}: taps must be a finite 1-D list")
            if abs(t.sum() - 1.0) > 1e-9:
                raise ConfigError(
                    f"filter {i}: DC gain must be 1 (taps sum to {t.sum():g})"
                )
            self.taps.append(t)
        self.depth = max(t.size for t in self.taps)
        self._tapmat = np.zeros((FILTER_COUNT, self.depth))
        for i, t in enumerate(self.taps):
            self._tapmat[i, : t.size] = t
        self._hist = np.zeros((2 * self.depth, CAMERA_ROWS, HALF_COLS))
        self._pos = 0

    def step(self, diff) -> np.ndarray:
        """Push one 8x6 difference grid and return the 240 predictor values."""
        depth = self.depth
        self._pos = pos = (self._pos - 1) % depth
        self._hist[pos] = self._hist[pos + depth] = diff
        # lag k sits at pos + k: below depth, or its copy at or above it
        p = np.einsum("ft,tij->ijf", self._tapmat, self._hist[pos : pos + depth])
        return p.reshape(PREDICTOR_COUNT)
