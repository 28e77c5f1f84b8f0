"""Binary PGM (P5) image writing and the layered text weight-snapshot format."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def write_pgm(path, image) -> None:
    """Write a grayscale image (values 0..255) as binary PGM."""
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2:
        raise ConfigError("PGM image must be 2-D")
    data = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (data.shape[1], data.shape[0]))
        fh.write(data.tobytes())


def write_weight_snapshot(path, matrices) -> None:
    """Dump weight matrices as text, one `layer <l> rows <r> cols <c>` header
    per layer followed by row-major values (one matrix row per line)."""
    with open(path, "w") as fh:
        for l, w in enumerate(matrices, start=1):
            w = np.asarray(w, dtype=float)
            fh.write(f"layer {l} rows {w.shape[0]} cols {w.shape[1]}\n")
            for row in w:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_weight_snapshot(path) -> list[np.ndarray]:
    """Read back a snapshot written by :func:`write_weight_snapshot`.

    A malformed file raises ``ConfigError`` naming the file and the line:
    a header that is not ``layer <l> rows <r> cols <c>`` with counts of at
    least 1, a value that is not a number, a block cut short, or a row of
    the wrong length.
    """
    matrices = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    pos = 0
    while pos < len(lines):
        header = lines[pos].split()
        try:
            rows, cols = int(header[3]), int(header[5])
        except (IndexError, ValueError):
            rows = cols = 0
        if len(header) != 6 or header[0] != "layer" or min(rows, cols) < 1:
            raise ConfigError(f"{path}: bad snapshot header at line {pos + 1}")
        block = lines[pos + 1 : pos + 1 + rows]
        if len(block) != rows:
            raise ConfigError(f"{path}: truncated snapshot at line {pos + 1}")
        w = []
        for k, line in enumerate(block, start=pos + 2):
            try:
                w.append([float(v) for v in line.split()])
            except ValueError:
                raise ConfigError(f"{path}: a value that is not a number at line {k}") from None
            if len(w[-1]) != cols:
                raise ConfigError(f"{path}: matrix shape mismatch at line {k}")
        matrices.append(np.array(w))
        pos += 1 + rows
    return matrices
