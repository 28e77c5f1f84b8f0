"""Output checks. Each recomputes a quantity apart from the program, or tests
a property the method must have, and raises :class:`CheckFailed` on a
mismatch. A check reads only the fields of a trial record it names, so the
tests can feed it corrupted copies."""

from __future__ import annotations

import hashlib
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

PER_TICK_FIELDS = ("t", "e", "ebar", "a_r", "a_p", "mc", "kappa",
                   "pose_x", "pose_y", "pose_theta")


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_complete(rec, dt: float) -> None:
    """The trial did not abort and every per-tick array has one entry per
    tick, at times i * dt."""
    _require(not rec.aborted, f"trial aborted: {rec.abort_reason}")
    n = int(round(rec.duration / dt))
    _require(n >= 1, "trial ran no tick")
    for name in PER_TICK_FIELDS:
        size = np.asarray(getattr(rec, name)).size
        _require(size == n, f"{name} has {size} entries, the trial {n} ticks")
    _require(np.array_equal(rec.t, np.arange(n) * dt), "tick times are not i * dt")


def check_motor_decomposition(rec, reflex_gain: float) -> None:
    """MC = A_R + A_P exactly, A_R = reflex_gain * E and kappa = 2 * E * lambda."""
    _require(np.array_equal(rec.mc, rec.a_r + rec.a_p), "MC != A_R + A_P")
    _require(np.array_equal(rec.a_r, reflex_gain * rec.e), "A_R != reflex_gain * E")
    _require(np.array_equal(rec.kappa, 2.0 * rec.e * rec.loop_gain),
             "kappa != 2 * E * loop_gain")


def trailing_mean(abs_e: np.ndarray, w: int) -> np.ndarray:
    """Mean of the last ``w`` samples at each index (fewer at the start)."""
    padded = np.concatenate([np.zeros(w - 1), abs_e])
    sums = sliding_window_view(padded, w).sum(axis=1)
    return sums / np.minimum(np.arange(1, abs_e.size + 1), w)


def check_ebar(rec, window_ticks: int, tol: float = 1e-9) -> None:
    """Ebar is the trailing mean of |E| over ``window_ticks`` samples."""
    expect = trailing_mean(np.abs(rec.e), window_ticks)
    err = float(np.max(np.abs(expect - rec.ebar)))
    _require(err <= tol, f"Ebar differs from the trailing mean of |E| by {err:g}")


def check_error_integral(rec, dt: float) -> None:
    """error_integral = sum |E| * dt."""
    expect = math.fsum(np.abs(rec.e).tolist()) * dt
    _require(math.isclose(rec.error_integral, expect, rel_tol=1e-9, abs_tol=1e-9),
             f"error_integral {rec.error_integral!r} != sum|E|*dt {expect!r}")


def check_arc_steps(rec, dt: float, v0: float, wheel_base: float,
                    mc_limit: float | None, tol: float = 1e-9) -> None:
    """Each pose follows from the previous pose and the clipped MC by the
    closed-form constant-curvature arc."""
    x, y, th, mc = (np.asarray(a).tolist() for a in
                    (rec.pose_x, rec.pose_y, rec.pose_theta, rec.mc))
    worst = 0.0
    for i in range(len(x) - 1):
        u = mc[i] if mc_limit is None else min(max(mc[i], -mc_limit), mc_limit)
        w = 2.0 * u / wheel_base
        if abs(w) < 1e-12:
            nx = x[i] + v0 * math.cos(th[i]) * dt
            ny = y[i] + v0 * math.sin(th[i]) * dt
            nth = th[i]
        else:
            r = v0 / w
            nth = th[i] + w * dt
            nx = x[i] + r * (math.sin(nth) - math.sin(th[i]))
            ny = y[i] - r * (math.cos(nth) - math.cos(th[i]))
        worst = max(worst, abs(nx - x[i + 1]), abs(ny - y[i + 1]), abs(nth - th[i + 1]))
    _require(worst <= tol, f"pose deviates from the arc step by {worst:g}")


def check_frozen_distances(rec, dt: float) -> None:
    """Layer distances are bitwise unchanged across every snapshot interval
    in which every kappa is 0 (a zero error is a fixed point)."""
    ticks = np.rint(np.asarray(rec.distance_t) / dt).astype(int)
    dist = np.asarray(rec.distances)
    kappa = np.asarray(rec.kappa)
    prev_tick, prev_row = -1, np.zeros(dist.shape[1])
    for tick, row in zip(ticks, dist):
        if not kappa[prev_tick + 1 : tick + 1].any():
            _require(np.array_equal(row, prev_row),
                     f"layer distances moved in ticks {prev_tick + 1}..{tick} "
                     "although every kappa there is 0")
        prev_tick, prev_row = tick, row


def check_success_window(rec, threshold: float, window: float) -> None:
    """The trial confirmed success, and Ebar stays below the threshold for
    the whole window that starts at the confirmed success time."""
    _require(rec.succeeded and rec.success_time is not None, "no confirmed success")
    t = np.asarray(rec.t)
    inside = (t >= rec.success_time - 1e-9) & (t <= rec.success_time + window + 1e-9)
    dt = t[1] - t[0]
    _require(inside.sum() >= int(round(window / dt)),
             "the success window is not fully recorded")
    worst = float(np.max(np.asarray(rec.ebar)[inside]))
    _require(worst < threshold,
             f"Ebar reaches {worst:g} >= {threshold:g} inside the success window")


def read_weight_layer(path, layer: int = 1) -> np.ndarray:
    """Matrix ``layer`` of a ``layer <l> rows <r> cols <c>`` text snapshot."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    pos = 0
    while pos < len(lines):
        _, l, _, rows, _, cols = lines[pos].split()
        rows, cols = int(rows), int(cols)
        if int(l) == layer:
            return np.array([[float(v) for v in line.split()]
                             for line in lines[pos + 1 : pos + 1 + rows]])
        pos += 1 + rows
    raise CheckFailed(f"{path}: no layer {layer}")


def check_layer1_distance(rec, weights_path, seed: int, w0: float) -> None:
    """The final layer-1 distance is ||W1 - W1_0||, with W1 read back from the
    weight snapshot and W1_0 drawn again from the seed (the first draw of
    numpy's default generator, uniform in [-w0, w0])."""
    w1 = read_weight_layer(weights_path, 1)
    w1_0 = np.random.default_rng(seed).uniform(-w0, w0, size=w1.shape)
    expect = float(np.sqrt(np.sum((w1 - w1_0) ** 2)))
    got = float(np.asarray(rec.distances)[-1][0])
    _require(math.isclose(got, expect, rel_tol=1e-12, abs_tol=1e-15),
             f"final layer-1 distance {got!r} != ||W1 - W1_0|| {expect!r}")


def check_zero_distances(rec) -> None:
    """Without a learning rule no layer moves."""
    _require(not np.any(np.asarray(rec.distances)), "a layer distance is not 0")


def catmull_rom(points, samples_per_segment: int) -> np.ndarray:
    """Closed uniform Catmull-Rom curve through ``points``, sampled at
    ``samples_per_segment`` equal parameter steps per segment."""
    p = np.asarray(points, dtype=float)
    s = np.linspace(0.0, 1.0, samples_per_segment, endpoint=False)
    basis = 0.5 * np.stack([-s**3 + 2 * s**2 - s, 3 * s**3 - 5 * s**2 + 2,
                            -3 * s**3 + 4 * s**2 + s, s**3 - s**2], axis=1)
    segs = [basis @ p[[(i - 1) % len(p), i, (i + 1) % len(p), (i + 2) % len(p)]]
            for i in range(len(p))]
    return np.concatenate(segs)


def spline_centreline(points, samples_per_segment: int, margin: float,
                      density: int = 16) -> np.ndarray:
    """The track's centreline in world coordinates, ``density`` times finer
    than the track's own sampling. The track is placed so that its sampled
    polyline's lower-left bounding corner lies at (margin, margin)."""
    offset = margin - catmull_rom(points, samples_per_segment).min(axis=0)
    return catmull_rom(points, samples_per_segment * density) + offset


def check_near_centreline(rec, centreline: np.ndarray, limit: float) -> None:
    """Every pose lies within ``limit`` cm of the centreline."""
    poses = np.stack([rec.pose_x, rec.pose_y], axis=1)
    worst = float(cKDTree(centreline).query(poses)[0].max())
    _require(worst <= limit, f"pose {worst:.3f} cm from the centreline > {limit} cm")


def check_batch_row(row: dict, rec) -> None:
    """A batch summary row repeats what its trial recorded."""
    expect = {
        "rule": rec.rule_kind, "seed": rec.seed, "succeeded": rec.succeeded,
        "aborted": rec.aborted, "error_integral": rec.error_integral,
        "duration": rec.duration, "final_dist_l1": float(rec.distances[-1][0]),
    }
    for key, val in expect.items():
        _require(row[key] == val, f"batch row {key}={row[key]!r}, trial {val!r}")


def record_digest(rec) -> str:
    """Digest of everything a trial computed, to compare repeats."""
    h = hashlib.sha256()
    for name in (*PER_TICK_FIELDS, "distance_t", "distances"):
        h.update(np.ascontiguousarray(getattr(rec, name), dtype=float).tobytes())
    h.update(repr((rec.success_time, rec.succeeded, rec.aborted, rec.abort_reason,
                   rec.error_integral, rec.duration, rec.seed, rec.rule_kind,
                   rec.eta, rec.loop_gain, rec.events, rec.saturated_ticks)).encode())
    return h.hexdigest()
