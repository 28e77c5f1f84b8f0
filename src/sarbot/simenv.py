"""Flat 2-D world: raster canvas with a printed track, differential-drive
kinematics, and simulated ground/camera light sensors.

All geometry is in centimeters; the canvas stores gray-scale values (GSV) in
[0, 256) on a square pixel grid. Headings are radians, counterclockwise,
with theta = 0 pointing along +x. Positive motor commands speed up the right
wheel, i.e. turn the robot left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, OutOfBoundsError
from .loop import LdrReadout
from .signals import CAMERA_COLS, CAMERA_ROWS
from . import pgmio

# each track kind's default params; the spline has no default points
TRACK_PARAMS = {
    "straight": {"length": 200.0},
    "circle": {"radius": 40.0},
    # the reference track: a 110 x 80 cm rectangle with rounded corners
    "rounded_rect": {"rect_width": 110.0, "rect_height": 80.0,
                     "radii": [12.0, 12.0, 18.0, 18.0]},
    "spline": {"samples_per_segment": 64},
}
TRACK_KINDS = tuple(TRACK_PARAMS)


@dataclass(frozen=True, slots=True)
class RobotPose:
    """Robot position/heading plus its kinematic constants, which
    ``exper.SimParams`` checks."""

    x: float
    y: float
    theta: float
    wheel_base: float = 10.0
    v0: float = 5.0


def step(pose: RobotPose, mc: float, dt: float, integrator: str = "arc") -> RobotPose:
    """Advance the pose one tick under motor command ``mc``.

    Wheel speeds are v0 +/- mc, so the linear speed is always exactly v0 and
    the angular rate is 2*mc/wheel_base. ``arc`` integrates the exact
    constant-curvature arc; ``euler`` translates along the old heading first.
    ``dt`` and the pose's constants are not checked here: ``exper.SimParams``
    checks them once, where a trial takes them from its configuration.
    """
    w = 2.0 * mc / pose.wheel_base
    if integrator == "euler":
        x = pose.x + pose.v0 * math.cos(pose.theta) * dt
        y = pose.y + pose.v0 * math.sin(pose.theta) * dt
        theta = pose.theta + w * dt
    elif integrator == "arc":
        if abs(w) < 1e-12:
            x = pose.x + pose.v0 * math.cos(pose.theta) * dt
            y = pose.y + pose.v0 * math.sin(pose.theta) * dt
            theta = pose.theta
        else:
            r = pose.v0 / w
            theta = pose.theta + w * dt
            x = pose.x + r * (math.sin(theta) - math.sin(pose.theta))
            y = pose.y - r * (math.cos(theta) - math.cos(pose.theta))
    else:
        raise ConfigError(f"unknown integrator {integrator!r}")
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
        raise ConfigError("pose update produced non-finite values")
    return RobotPose(x, y, theta, pose.wheel_base, pose.v0)


def _symmetric_disk(radius: float) -> np.ndarray:
    # 13-point mirror-symmetric pattern within the unit disk
    pts = []
    for u in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
            if u * u + v * v <= 1.0:
                pts.append((u, v))
    return radius * np.array(pts)


@dataclass
class SensorLayout:
    """Robot-frame sensor geometry.

    Ground sensors sit mirror-symmetrically at +/- ``ldr_lateral`` (positive =
    left), ``ldr_forward`` ahead of the axle, each averaging a disk of radius
    ``ldr_fov_radius``. The camera window is ``cam_width`` wide, spans
    ``cam_depth`` starting ``cam_ahead`` in front of the robot, and is split
    into 8 rows (row 0 nearest) by 12 columns (column 0 leftmost).

    Every sample point of both sensors sits in one (2, N) array of
    coordinate rows, forward then lateral: the camera's 8 * 12 cells of
    ``cam_supersample`` ** 2 points each first (row-major, a cell's points
    contiguous), then the ground sensors' 6 disks of 13 points each (L1 L2
    L3 R1 R2 R3). ``_n_cam`` is the number of camera points, and ``_reach``
    the largest distance of any point from the pose, in cm.

    ``_ws`` holds the buffers of :func:`sample_camera`'s gather over all the
    points, a :class:`_Gather` made at the first call and reused by every
    later one, whatever the canvas, since a gather leaves nothing in them
    that a later one reads, and no returned array aliases them. They are
    scratch, not state: left out of ``repr`` and comparison, and a pickled
    or copied layout starts without them. A layout shared by threads would
    share them too, so each thread needs its own layout.
    """

    # the innermost pair clears the 2 cm line by 2 cm, leaving a dead band the
    # learned action can settle into; the wide field of view makes the error
    # ramp in gently at the band's edge
    ldr_lateral: tuple = (4.5, 5.5, 6.5)
    ldr_forward: float = 3.0
    ldr_fov_radius: float = 1.0
    cam_width: float = 15.0
    cam_depth: float = 10.0
    cam_ahead: float = 5.0
    cam_supersample: int = 3
    # derived from the fields above, and compared through them
    _pts: np.ndarray = field(init=False, repr=False, compare=False)
    _n_cam: int = field(init=False, repr=False, compare=False)
    _reach: float = field(init=False, repr=False, compare=False)
    _ws: _Gather | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        lat = [float(v) for v in self.ldr_lateral]
        if len(lat) != 3 or not (0 < lat[0] < lat[1] < lat[2]):
            raise ConfigError("ldr_lateral must be 3 ascending positive offsets")
        if self.ldr_fov_radius <= 0:
            raise ConfigError("ldr_fov_radius must be positive")
        if self.cam_width <= 0 or self.cam_depth <= 0 or self.cam_supersample < 1:
            raise ConfigError("camera geometry must be positive")
        disk = _symmetric_disk(self.ldr_fov_radius)
        centers = np.array(
            [(self.ldr_forward, s * l) for s in (+1, -1) for l in lat]
        )  # order: L1 L2 L3 R1 R2 R3; (forward, lateral)
        ldr = centers[:, None, :] + disk[None, :, :]

        rows, cols, ss = CAMERA_ROWS, CAMERA_COLS, self.cam_supersample
        cell_w = self.cam_width / cols
        cell_d = self.cam_depth / rows
        sub = (np.arange(ss) + 0.5) / ss - 0.5
        fwd = (
            self.cam_ahead
            + (np.arange(rows)[:, None] + 0.5) * cell_d
            + sub[None, :] * cell_d
        )  # (rows, ss)
        lat_c = ((cols / 2 - np.arange(cols)[:, None] - 0.5) + sub[None, :]) * cell_w
        # robot-frame forward and lateral offsets per (row, col, sub, sub)
        f = np.broadcast_to(fwd[:, None, :, None], (rows, cols, ss, ss))
        l = np.broadcast_to(lat_c[None, :, None, :], (rows, cols, ss, ss))
        self._n_cam = f.size
        self._pts = np.concatenate(
            [np.stack([f.ravel(), l.ravel()]), ldr.reshape(-1, 2).T], axis=1
        )
        self._reach = float(np.hypot(*self._pts).max())

    def __getstate__(self):
        return {**self.__dict__, "_ws": None}


@dataclass
class Canvas:
    """Immutable world raster plus the track it was built from.

    The raster is held as float GSV: every construction,
    ``dataclasses.replace`` included, converts a raster of another dtype to
    float64, the dtype of the buffers the gather of :func:`sample_points`
    reads into. The weighted sums that read it converted each value to
    float64 before as well, so the samples keep their bits.
    """

    raster: np.ndarray  # (H, W) float GSV
    scale: float  # cm per pixel
    start: tuple  # (x, y, theta) on-track start pose
    track_kind: str
    path: np.ndarray | None = None  # dense centerline polyline, for diagnostics

    def __post_init__(self):
        self.raster = np.asarray(self.raster, dtype=float)

    @property
    def world_size(self) -> tuple:
        h, w = self.raster.shape
        return (w * self.scale, h * self.scale)

    def save_pgm(self, path) -> None:
        pgmio.write_pgm(path, self.raster)


class _Gather:
    """Buffers for one bilinear gather of ``n`` points, and the views of
    them that it reads and writes, each made once.

    ``p`` holds the pixel coordinates and ``lo`` and ``i`` their floors,
    float and integer, all (2, n), x then y; ``lane`` holds ``p`` and ``lo``
    as (2, 1, n), the shape of one lane of :func:`_to_world`. ``wts``
    (2, 2, n) holds the weights [1 - f, f] of the fraction f of each
    coordinate, and ``v`` (2, 2, n) the corner values v[b, a] = r[y + a, x + b].
    """

    __slots__ = ("p", "lo", "lane", "i", "ix", "iy", "wts", "f", "g", "wx", "wy", "v",
                 "corners", "columns")

    def __init__(self, n: int):
        self.p, self.lo = np.empty((2, n)), np.empty((2, n))
        self.lane = self.p[:, None], self.lo[:, None]
        self.i = np.empty((2, n), dtype=np.intp)
        self.ix, self.iy = self.i
        self.wts = np.empty((2, 2, n))
        self.g, self.f = self.wts
        # the weights of corner column b along x, and of row a along y
        self.wx, self.wy = self.wts[:, 0, None], self.wts[:, 1]
        self.v = np.empty((2, 2, n))
        # v[b, a] in the order of their flat offsets 0, 1, w and w + 1
        self.corners = (self.v[0, 0], self.v[1, 0], self.v[0, 1], self.v[1, 1])
        # the corners at x and at x + 1, each [a, n]
        self.columns = tuple(self.v)


# offsets of the floor and the +1 corner, broadcast over (axis, point)
_CORNER = np.array([0, 1])[:, None, None]


def _bilinear(r: np.ndarray, ws: _Gather, clamp: bool) -> np.ndarray:
    """Bilinear values of raster ``r`` at the pixel coordinates ``ws.p``,
    every one of which lies on the canvas: the one statement of the
    lookup's arithmetic.

    With x, y the floor and f the fraction of each coordinate, the four
    corners are v[b, a] = r[y + a, x + b] and the value is
    ``(v[0, 0] (1 - fx) + v[1, 0] fx) (1 - fy) + (v[0, 1] (1 - fx) + v[1, 1] fx) fy``:
    one product of the corners with the weights [1 - fx, fx], one sum into
    the top and bottom rows, one product with [1 - fy, fy] and one sum.

    Unless ``clamp``, every point lies below the last pixel row and column,
    and its corners are four ``take``s at its flat index ``y * w + x``,
    from the flat raster and from its views shifted by 1, w and w + 1; the
    index is on the canvas, so ``clip`` never clips and spares the buffered
    copy that ``raise`` makes of an ``out``. With ``clamp``, a point on the
    last pixel row or column reads its clamped +1 corner, with weight 0.
    """
    h, w = r.shape
    p, lo, v = ws.p, ws.lo, ws.v
    v00, v10, v01, v11 = ws.corners
    np.floor(p, out=lo)
    np.copyto(ws.i, lo, casting="unsafe")
    flat = r.ravel()
    if clamp:
        # corners[k] = floor + k per axis
        corners = np.minimum(ws.i + _CORNER, ((w - 1,), (h - 1,)))
        x, y = corners[:, 0], corners[:, 1] * w
        flat.take(x[:, None] + y[None, :], out=v)  # v[b, a] = r[y_a, x_b]
    else:
        k = np.multiply(ws.iy, w, out=ws.iy)
        k += ws.ix
        flat.take(k, out=v00, mode="clip")
        flat[1:].take(k, out=v10, mode="clip")
        flat[w:].take(k, out=v01, mode="clip")
        flat[w + 1 :].take(k, out=v11, mode="clip")
    np.subtract(p, lo, out=ws.f)
    np.subtract(1, ws.f, out=ws.g)
    np.multiply(v, ws.wx, out=v)
    left, right = ws.columns
    tb = np.add(left, right, out=left)  # tb[a]: along row y + a
    np.multiply(tb, ws.wy, out=tb)
    return v00 + v01  # tb[0] + tb[1]


def sample_points(canvas: Canvas, pts: np.ndarray, ws: _Gather | None = None) -> np.ndarray:
    """Bilinear GSV lookup at world points given as coordinate rows (2, N),
    x then y; raises when any point is off-canvas.

    One gather serves all N points, in the buffers ``ws`` (fresh ones if
    None), which ``pts`` may be the ``p`` of. :func:`sample_camera` calls it
    for a pose near an edge of the canvas, with the layout's workspace, and
    :func:`sample_ldr` for the ground sensors of every lane at once.

    One per-axis ``min`` and ``max`` pair tests the bounds, written so that
    a NaN is off-canvas. While no point lies on the last pixel row or
    column, :func:`_bilinear` reads the corners unclamped; otherwise it
    clamps them. Either way the arithmetic of each value is the one that
    function states, so this and :func:`sample_camera`'s in-place path give
    a point the same bits.
    """
    r = canvas.raster
    h, w = r.shape
    ws = _Gather(pts.shape[1]) if ws is None else ws
    p = np.divide(pts, canvas.scale, out=ws.p)
    p -= 0.5
    (x_min, y_min), (x_max, y_max) = p.min(axis=1).tolist(), p.max(axis=1).tolist()
    # written so that a NaN, for which every comparison is false, is off-canvas
    if not (x_min >= 0.0 and y_min >= 0.0 and x_max <= w - 1.0 and y_max <= h - 1.0):
        raise OutOfBoundsError("sample point outside the canvas")
    return _bilinear(r, ws, clamp=not (x_max < w - 1.0 and y_max < h - 1.0))


def _terms(pose: RobotPose) -> tuple:
    theta = pose.theta
    # a non-finite heading would place every point at NaN, and an infinite
    # one would make math.cos raise ValueError
    if not math.isfinite(theta):
        raise OutOfBoundsError("sample point outside the canvas")
    c, s = math.cos(theta), math.sin(theta)
    # y subtracts (-c) * l, which is exactly + c * l
    return (pose.x, pose.y, c, s, s, -c)


def _to_world(poses, pts: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Robot-frame (forward, lateral) coordinate rows (2, N) to world x, y
    rows: x = (pose.x + f*c) - l*s, y = (pose.y + f*s) + l*c.

    ``poses`` is a sequence of B poses (lanes), placed in one broadcast as
    (2, B, N), each lane's values those its pose alone gives. The rows may
    be written into ``out``, with ``tmp`` for the lateral term, both
    (2, B, N). A pose with a NaN or infinite heading raises
    ``OutOfBoundsError``, as a non-finite coordinate does at the bounds test.
    """
    m = np.array([_terms(p) for p in poses]).T.reshape(3, 2, -1, 1)
    out = np.multiply(m[1], pts[0], out=out)
    np.add(m[0], out, out=out)
    return np.subtract(out, np.multiply(m[2], pts[1], out=tmp), out=out)


def _ldr_g(cells: np.ndarray) -> np.ndarray:
    """G values of ground-sensor points (..., 6, points): 255 minus the mean
    GSV over each sensor's disk, the mean as ndarray.mean computes it,
    without its Python wrapper."""
    return 255.0 - np.add.reduce(cells, axis=-1) / cells.shape[-1]


def sample_ldr(canvas: Canvas, poses, layout: SensorLayout) -> list[LdrReadout]:
    """Read the six ground sensors alone, from the layout's ground-sensor
    columns, at each of a sequence of poses (lanes).

    Each G value is 255 minus the mean GSV over the sensor's field-of-view
    disk, so a sensor over the dark path reads high and one over the white
    background reads 0. Only the loop-gain calibration probe, which steers
    by the ground sensors and has no camera, calls this; a trial's ticks
    read both sensors through :func:`sample_camera`.

    One broadcast transform places every lane's points, one
    :func:`sample_points` gather reads them and one reduction over
    (lanes, 6, 13) takes the means, giving one ``LdrReadout`` per lane.
    Every operation is elementwise, or a sum over one disk's 13 points, so
    each lane's readout has the bits of a call with its pose alone; a point
    of any lane off the canvas raises ``OutOfBoundsError``. The gather, in
    fresh buffers, always goes through :func:`sample_points`' bounds test:
    the probe runs at a trial's set-up, not on its ticks.
    """
    pts = layout._pts[:, layout._n_cam :]
    vals = sample_points(canvas, _to_world(poses, pts).reshape(2, -1))
    g = _ldr_g(vals.reshape(len(poses), 6, -1))
    return [LdrReadout(g=gk[:3], g_star=gk[3:]) for gk in g]


def sample_camera(
    canvas: Canvas, pose: RobotPose, layout: SensorLayout
) -> tuple[np.ndarray, LdrReadout]:
    """Read both sensors in one gather over all the layout's points.

    Returns the mean GSV of the canvas under each camera cell (the
    ``signals.CAMERA_ROWS`` x ``CAMERA_COLS`` grid) and the ground-sensor readout that :func:`sample_ldr`
    would give. ``exper.run_trial`` calls it once per control tick, and
    nothing else does; an off-canvas point of either sensor raises
    ``OutOfBoundsError``.

    One world transform, of the pose as one lane, writes every point into
    the layout's workspace. A pose whose pixel coordinates lie at least
    ``layout._reach / scale + 1`` pixels inside every edge of the canvas
    then takes the in-place path: the pixel mapping writes over the points,
    and :func:`_bilinear` reads the corners unclamped, with no per-point
    bounds test. Every point lies
    within the reach of the pose, and the rounding of the transform moves
    it by far less than the spare pixel, so every point lies on the canvas
    and below its last pixel row and column, where :func:`sample_points`
    would take the same unclamped branch. Each value goes through the same
    IEEE operations in the same association, so both paths give the same
    bits. Every other pose (near an edge, off the canvas, with a NaN or
    infinite coordinate, or on a canvas whose scale is not positive) goes
    through :func:`sample_points` and its bounds test. The pose-level test
    is written in Python floats, so that a NaN or infinite coordinate fails
    it; a NaN or infinite heading raises in the world transform, before
    either path.
    """
    r = canvas.raster
    h, w = r.shape
    scale = canvas.scale
    inside = scale > 0.0
    if inside:
        m = layout._reach / scale + 1.0
        x, y = pose.x / scale - 0.5, pose.y / scale - 0.5
        inside = m <= x <= w - 1.0 - m and m <= y <= h - 1.0 - m
    ws = layout._ws
    if ws is None:
        ws = layout._ws = _Gather(layout._pts.shape[1])
    _to_world((pose,), layout._pts, *ws.lane)
    p = ws.p
    if inside:
        np.divide(p, scale, out=p)
        p -= 0.5
        vals = _bilinear(r, ws, clamp=False)
    else:
        vals = sample_points(canvas, p, ws)
    n = layout._n_cam
    cells = vals[:n].reshape(CAMERA_ROWS, CAMERA_COLS, -1)
    grid = np.add.reduce(cells, axis=2) / cells.shape[2]
    g = _ldr_g(vals[n:].reshape(6, -1))
    return grid, LdrReadout(g=g[:3], g_star=g[3:])


# ----------------------------------------------------------------------
# track construction
# ----------------------------------------------------------------------


def _snap(v: float, scale: float) -> float:
    """Snap a coordinate onto a pixel center so straight edges rasterize
    mirror-symmetrically."""
    return (math.floor(v / scale) + 0.5) * scale


def _seg_dist(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    ll = vx * vx + vy * vy
    # a zero-length segment (a side that snapping collapsed) is its one point
    t = np.clip(((px - ax) * vx + (py - ay) * vy) / ll, 0.0, 1.0) if ll else 0.0
    return np.hypot(px - (ax + t * vx), py - (ay + t * vy))


def _arc_dist(px, py, cx, cy, r, a0, a1):
    """Distance to a CCW arc from angle a0 to a1 (a1 > a0)."""
    dx, dy = px - cx, py - cy
    ang = np.arctan2(dy, dx)
    inside = ((ang - a0) % (2 * math.pi)) <= (a1 - a0)
    radial = np.abs(np.hypot(dx, dy) - r)
    e0 = np.hypot(px - (cx + r * math.cos(a0)), py - (cy + r * math.sin(a0)))
    e1 = np.hypot(px - (cx + r * math.cos(a1)), py - (cy + r * math.sin(a1)))
    return np.where(inside, radial, np.minimum(e0, e1))


def _ring_dist(px, py, cx, cy, r):
    """Distance to the full circle of radius r about (cx, cy)."""
    return np.abs(np.hypot(px - cx, py - cy) - r)


def _cloud_dist(px, py, pts):
    """Distance to the nearest of the points ``pts`` (m, 2): the square root
    of the least ``dx * dx + dy * dy``, as a k-d tree's query computes it."""
    dx, dy = px - pts[:, 0, None, None], py - pts[:, 1, None, None]
    return np.sqrt(np.min(dx * dx + dy * dy, axis=0))


_STRETCH = 64  # points of a ring's polyline or a spline's cloud in one piece


def _stretches(points):
    """``points`` cut into consecutive stretches of ``_STRETCH`` points."""
    return [points[i : i + _STRETCH] for i in range(0, len(points), _STRETCH)]


def _param(params, name, need, ok=lambda a: a.ndim == 0 and a > 0):
    """Pop track param ``name`` as a float array, which must be finite and
    pass ``ok`` (by default, be one positive number); otherwise raise a
    ConfigError that says what it ``need``s and names the param."""
    value = params.pop(name, None)
    try:
        a = np.asarray(value, dtype=float)
        good = bool(np.isfinite(a).all() and ok(a))
    except (TypeError, ValueError, OverflowError):
        good = False
    if not good:
        raise ConfigError(f"{need}; got {name}: {value!r}")
    return a


# The most elements that one array made from config values may hold: the
# canvas, the spline's Catmull-Rom samples or its dense cloud, the network's
# weights (all layers together) or a trial's tick log. A float64 raster of
# this many pixels takes 128 MiB, and the piece loop's temporaries a few
# times its largest box. The benchmark's spline, the largest committed
# track, has 529,515 pixels, 3.2 % of it. Each size is computed from the
# config values, and compared, before its array is made.
_BUDGET = 2**24


def check_budget(count, what, got):
    """Raise a ConfigError naming the values in ``got`` unless ``count``
    ``what`` fit the budget; written so that inf or NaN fails."""
    if not count <= _BUDGET:
        raise ConfigError(f"too large: {count:.3g} {what}, over the budget of "
                          f"{_BUDGET}; got {got}")


def _canvas_shape(width_cm, height_cm, scale, margin, got):
    """Shape (h, w) of a canvas covering the given extent, whose pixels,
    bounded above by (h + 1) * (w + 1), fit the budget."""
    h, w = height_cm / scale, width_cm / scale
    check_budget((h + 1) * (w + 1), "canvas pixels", f"{got}, margin: {margin!r}, scale: {scale!r}")
    return int(math.ceil(h)), int(math.ceil(w))


def _band(dist, width, scale, path_value, bg_value):
    # one-pixel antialiased edge around the half-width contour
    cover = np.clip((dist - (width / 2 - scale / 2)) / scale, 0.0, 1.0)
    return path_value + (bg_value - path_value) * cover


def _arc_points(cx, cy, r, a0, a1, spacing):
    n = max(2, int(math.ceil(abs(a1 - a0) * r / spacing)))
    ang = np.linspace(a0, a1, n)
    return np.stack([cx + r * np.cos(ang), cy + r * np.sin(ang)], axis=1)


def _seg_points(ax, ay, bx, by, spacing):
    n = max(2, int(math.ceil(math.hypot(bx - ax, by - ay) / spacing)))
    t = np.linspace(0.0, 1.0, n)
    return np.stack([ax + t * (bx - ax), ay + t * (by - ay)], axis=1)


def _catmull_rom(points: np.ndarray, samples_per_seg: int) -> np.ndarray:
    """Closed Catmull-Rom loop through ``points``: ``samples_per_seg`` points
    per segment, starting at each control point."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    # p0 .. p3 of every segment as (n, 1, 2), against t as (1, samples, 1)
    p0, p1, p2, p3 = (pts[(np.arange(n) + k - 1) % n][:, None] for k in range(4))
    t = np.linspace(0.0, 1.0, samples_per_seg, endpoint=False)[None, :, None]
    t2, t3 = t * t, t * t * t
    return (
        0.5
        * (
            (2 * p1)
            + (-p0 + p2) * t
            + (2 * p0 - 5 * p1 + 4 * p2 - p3) * t2
            + (-p0 + 3 * p1 - 3 * p2 + p3) * t3
        )
    ).reshape(-1, 2)


# Shewchuk's ccwerrboundA (1997): the float determinant of _orient has the
# exact sign whenever its magnitude exceeds this times the sum of the
# magnitudes of its two products (barring underflow)
_ORIENT_BOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53


def _orient(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact sign of the turn a -> b -> c per row: +1 left, -1 right, 0
    collinear.

    The float determinant decides every row whose magnitude exceeds its
    rounding-error bound; only the rows within the bound are evaluated
    again in rational arithmetic.
    """
    left = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
    right = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    det = left - right
    sign = np.sign(det)
    for k in np.flatnonzero(np.abs(det) <= _ORIENT_BOUND * (np.abs(left) + np.abs(right))):
        ax, ay, bx, by, cx, cy = map(Fraction, (*a[k], *b[k], *c[k]))
        exact = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        sign[k] = (exact > 0) - (exact < 0)
    return sign


def _segments_meet(ai, bi, aj, bj) -> np.ndarray:
    """Per row, whether the closed segments ai-bi and aj-bj share a point,
    touching and collinear overlap included."""
    straddle = (_orient(ai, bi, aj) * _orient(ai, bi, bj) <= 0) & (
        _orient(aj, bj, ai) * _orient(aj, bj, bi) <= 0
    )
    # bounding boxes overlap: rules out disjoint collinear segments
    boxes = np.all(
        (np.minimum(ai, bi) <= np.maximum(aj, bj))
        & (np.minimum(aj, bj) <= np.maximum(ai, bi)),
        axis=1,
    )
    return straddle & boxes


def _self_intersects(poly: np.ndarray) -> bool:
    """Closed-polyline self-intersection test on a decimated copy.

    Segments are closed, so two segments that only touch (at a vertex, or
    overlapping along a common line) count as intersecting. The bounding
    boxes of all segment pairs are compared at once, and only the
    non-adjacent pairs whose boxes overlap go on to the exact orientation
    test; :func:`_segments_meet` requires overlapping boxes too, so the
    prefilter drops no pair that could meet.
    """
    step_n = max(1, len(poly) // 400)
    p = poly[::step_n]
    n = len(p)
    a = p
    b = np.roll(p, -1, axis=0)
    lo, hi = np.minimum(a, b).T, np.maximum(a, b).T
    boxes = np.ones((n, n), dtype=bool)
    for lo_k, hi_k in zip(lo, hi):  # per axis, x then y
        boxes &= (lo_k[:, None] <= hi_k[None, :]) & (lo_k[None, :] <= hi_k[:, None])
    i, j = np.nonzero(np.triu(boxes, k=2))
    keep = ~((i == 0) & (j == n - 1))  # first and last segments share p[0]
    i, j = i[keep], j[keep]
    return bool(np.any(_segments_meet(a[i], b[i], a[j], b[j])))


def make_track(
    kind: str,
    params: dict | None = None,
    width: float = 2.0,
    scale: float = 0.25,
    margin: float = 25.0,
    path_value: float = 0.0,
    bg_value: float = 255.0,
) -> Canvas:
    """Rasterize a track onto a fresh canvas and return it with a start pose.

    Kinds and their params, which default to ``TRACK_PARAMS[kind]``:

    * ``straight``: {length} -- horizontal segment, start near the left end.
    * ``circle``: {radius} -- CCW loop, start at the bottom heading +x.
    * ``rounded_rect``: {rect_width, rect_height, radii} -- CCW loop with
      four corner arcs (radii ordered bottom-right, top-right, top-left,
      bottom-left), start mid-bottom heading +x.
    * ``spline``: {points, samples_per_segment} -- closed Catmull-Rom loop
      through the control points; rejects self-intersecting shapes.

    A malformed param raises a ConfigError that names it.

    Every kind is a list of pieces (distance function, its args, its
    polyline) in path order: a segment; the ring's polyline cut into
    stretches of ``_STRETCH`` points; four sides and four corner arcs; or
    the spline's dense point cloud cut the same way. ``path`` is the
    pieces' polylines end to end, or the spline's Catmull-Rom polyline. One
    loop fills the raster: it starts at the scalar ``_band(inf)``, the
    background, and each piece shades the pixels of its polyline's bounding
    box widened by ``reach`` and one spare pixel, clipped to the canvas,
    keeping the smaller of a pixel's value and its band. ``_band`` rises
    with the distance under round-to-nearest, so the smallest band is the
    band of the nearest piece. It reaches background exactly at a distance
    of ``width / 2 + scale / 2``, half a pixel inside the reach, and clips
    every distance beyond that to the same background value; that half
    pixel covers the sagitta by which an arc bulges out of its polyline's
    box, so every pixel short of background lies in the box of each piece
    that can shade it. The spare pixel is a margin against rounding, not a
    necessity. The ring's stretches all measure the one ``_ring_dist``.
    :func:`_cloud_dist` takes one square root of the least ``dx * dx +
    dy * dy`` over its stretch, as a k-d tree's nearest-point query does; a
    minimum is exact and a correctly rounded ``sqrt`` never decreases, so
    the least over the stretches is the query's distance to the whole
    cloud. Either way the raster is the one a distance field over the whole
    canvas would give, byte for byte.
    """
    params = {**TRACK_PARAMS.get(kind, {}), **(params or {})}
    # written so that a NaN fails it
    if not (width > 0 and scale > 0 and margin > 0):
        raise ConfigError("track width, scale and margin must be positive")
    if not (0 <= path_value < bg_value < 256):
        raise ConfigError("need 0 <= path_value < bg_value < 256")
    reach = width / 2 + scale  # around the line, the pixels whose distance is measured

    if kind == "straight":
        length = float(_param(params, "length", "straight track length must be positive"))
        y0 = _snap(margin, scale)
        x0, x1 = margin, margin + length
        shape = _canvas_shape(length + 2 * margin, 2 * margin, scale, margin,
                              f"length: {length!r}")
        start = (x0 + 5.0, y0, 0.0)
        path = _seg_points(x0, y0, x1, y0, scale)
        pieces = [(_seg_dist, (x0, y0, x1, y0), path)]
    elif kind == "circle":
        r = float(_param(params, "radius", "circle radius must exceed the line width",
                         lambda a: a.ndim == 0 and a > width))
        cx = cy = _snap(margin + r, scale)
        side = 2 * (r + margin)
        shape = _canvas_shape(side, side, scale, margin, f"radius: {r!r}")
        start = (cx, cy - r, 0.0)
        path = _arc_points(cx, cy, r, -math.pi / 2, 1.5 * math.pi, scale)
        pieces = [(_ring_dist, (cx, cy, r), ring) for ring in _stretches(path)]
    elif kind == "rounded_rect":
        rw, rh = (float(_param(params, name, f"rounded_rect {name} must be positive"))
                  for name in ("rect_width", "rect_height"))
        radii = _param(params, "radii", "rounded_rect needs 4 positive corner radii",
                       lambda a: a.shape == (4,) and (a > 0).all()).tolist()
        if max(radii) * 2 >= min(rw, rh):
            raise ConfigError("corner radii too large for the rectangle")
        xl, xr = _snap(margin, scale), _snap(margin + rw, scale)
        yb, yt = _snap(margin, scale), _snap(margin + rh, scale)
        rbr, rtr, rtl, rbl = radii
        shape = _canvas_shape(rw + 2 * margin, rh + 2 * margin, scale, margin,
                              f"rect_width: {rw!r}, rect_height: {rh!r}")
        pi = math.pi
        # the bottom side, the bottom-right arc, the right side and so on
        sides = [(xl + rbl, yb, xr - rbr, yb), (xr, yb + rbr, xr, yt - rtr),
                 (xr - rtr, yt, xl + rtl, yt), (xl, yt - rtl, xl, yb + rbl)]
        arcs = [(xr - rbr, yb + rbr, rbr, -pi / 2, 0.0),
                (xr - rtr, yt - rtr, rtr, 0.0, pi / 2),
                (xl + rtl, yt - rtl, rtl, pi / 2, pi),
                (xl + rbl, yb + rbl, rbl, pi, 1.5 * pi)]
        pieces = [(dist, args, points(*args, scale)) for side, arc in zip(sides, arcs)
                  for dist, points, args in ((_seg_dist, _seg_points, side),
                                             (_arc_dist, _arc_points, arc))]
        path = np.concatenate([poly for _, _, poly in pieces])
        start = ((xl + rbl + xr - rbr) / 2.0, yb, 0.0)
    elif kind == "spline":
        points = _param(
            params, "points", "spline track needs at least 4 control points, each (x, y)",
            lambda a: a.ndim == 2 and a.shape[1] == 2 and len(a) >= 4)
        samples = int(_param(
            params, "samples_per_segment", "spline samples_per_segment must be a positive "
            "integer", lambda a: a.ndim == 0 and a % 1 == 0 and a >= 1))
        check_budget(len(points) * samples, "spline samples",
              f"samples_per_segment: {samples!r} for {len(points)} points")
        path = _catmull_rom(points, samples)
        if _self_intersects(path):
            raise ConfigError("spline track self-intersects")
        path = path - path.min(axis=0) + margin
        bbox = path.max(axis=0) + margin
        shape = _canvas_shape(bbox[0], bbox[1], scale, margin,
                              f"points: a canvas of {bbox[0]:.6g} x {bbox[1]:.6g} cm")
        tangent = path[1] - path[0]
        start = (path[0][0], path[0][1], math.atan2(tangent[1], tangent[0]))
        # the dense cloud in path order: segment i gives path[i] + t * seg[i]
        # at the n steps t = k * (1.0 / n) of np.linspace(0, 1, n, endpoint=False),
        # n = int(len / (scale / 4)) + 1 if it is longer than scale / 4, else 1
        seg = np.diff(path, axis=0, append=path[:1])
        seglen = np.hypot(seg[:, 0], seg[:, 1])
        n = np.where(seglen > scale / 4, (seglen / (scale / 4)).astype(np.intp) + 1, 1)
        check_budget(n.sum(), "points of the dense cloud",
              f"points: a loop of {seglen.sum():.6g} cm, scale: {scale!r}")
        i = np.repeat(np.arange(len(path)), n)
        k = np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n)
        cloud = path[i] + (k * np.repeat(1.0 / n, n))[:, None] * seg[i]
        pieces = [(_cloud_dist, (s,), s) for s in _stretches(cloud)]
    else:
        raise ConfigError(f"unknown track kind {kind!r}; choose from {TRACK_KINDS}")

    if params:
        raise ConfigError(f"unknown track params for {kind}: {sorted(params)}")
    raster = np.full(shape, _band(np.inf, width, scale, path_value, bg_value))
    h, w = shape
    for dist, args, poly in pieces:
        # the pixels within reach of the polyline's box, and a spare one
        lo = np.floor((poly.min(axis=0) - reach) / scale).astype(np.intp) - 1
        hi = np.ceil((poly.max(axis=0) + reach) / scale).astype(np.intp) + 1
        (i0, j0), (i1, j1) = np.maximum(lo, 0), np.minimum(hi, (w, h))
        x = ((np.arange(i0, i1) + 0.5) * scale)[None, :]
        y = ((np.arange(j0, j1) + 0.5) * scale)[:, None]
        box = raster[j0:j1, i0:i1]
        band = _band(dist(x, y, *args), width, scale, path_value, bg_value)
        np.minimum(box, band, out=box)
    return Canvas(raster=raster, scale=scale, start=start, track_kind=kind, path=path)
