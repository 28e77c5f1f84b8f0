from pathlib import Path

import numpy as np
import pytest


def _pgm_pixels(path) -> np.ndarray:
    """The (h, w) uint8 pixels of a PGM file as ``pgmio.write_pgm`` writes
    it: the fixed header ``P5\\n{w} {h}\\n255\\n``, then the rows."""
    magic, size, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    w, h = (int(v) for v in size.split(b" "))
    assert (magic, maxval, len(pixels)) == (b"P5", b"255", w * h)
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


@pytest.fixture
def pgm_pixels():
    """Reads back a PGM artifact: see :func:`_pgm_pixels`."""
    return _pgm_pixels
