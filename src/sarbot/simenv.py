"""Flat 2-D world: raster canvas with a printed track, differential-drive
kinematics, and simulated ground/camera light sensors.

All geometry is in centimeters; the canvas stores gray-scale values (GSV) in
[0, 256) on a square pixel grid. Headings are radians, counterclockwise,
with theta = 0 pointing along +x. Positive motor commands speed up the right
wheel, i.e. turn the robot left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, OutOfBoundsError
from .loop import LdrReadout
from . import pgmio

TRACK_KINDS = ("straight", "circle", "rounded_rect", "spline")


@dataclass(frozen=True)
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
    if not all(map(math.isfinite, (x, y, theta))):
        raise ConfigError("pose update produced non-finite values")
    return replace(pose, x=x, y=y, theta=theta)


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
    _ldr_pts: np.ndarray = field(init=False, repr=False)
    _cam_pts: np.ndarray = field(init=False, repr=False)

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
        self._ldr_pts = centers[:, None, :] + disk[None, :, :]

        rows, cols, ss = 8, 12, self.cam_supersample
        cell_w = self.cam_width / cols
        cell_d = self.cam_depth / rows
        sub = (np.arange(ss) + 0.5) / ss - 0.5
        fwd = (
            self.cam_ahead
            + (np.arange(rows)[:, None] + 0.5) * cell_d
            + sub[None, :] * cell_d
        )  # (rows, ss)
        lat_c = ((cols / 2 - np.arange(cols)[:, None] - 0.5) + sub[None, :]) * cell_w
        # combine into (rows, cols, ss*ss, 2) robot-frame (forward, lateral)
        f = np.broadcast_to(fwd[:, None, :, None], (rows, cols, ss, ss))
        l = np.broadcast_to(lat_c[None, :, None, :], (rows, cols, ss, ss))
        self._cam_pts = np.stack([f, l], axis=-1).reshape(rows, cols, ss * ss, 2)


@dataclass
class Canvas:
    """Immutable world raster plus the track it was built from."""

    raster: np.ndarray  # (H, W) float GSV
    scale: float  # cm per pixel
    start: tuple  # (x, y, theta) on-track start pose
    track_kind: str
    path: np.ndarray | None = None  # dense centerline polyline, for diagnostics

    @property
    def world_size(self) -> tuple:
        h, w = self.raster.shape
        return (w * self.scale, h * self.scale)

    def save_pgm(self, path) -> None:
        pgmio.write_pgm(path, self.raster)


def load_canvas(path, scale: float, start=(0.0, 0.0, 0.0)) -> Canvas:
    """Load a canvas raster from a PGM file."""
    return Canvas(
        raster=pgmio.read_pgm(path),
        scale=scale,
        start=tuple(start),
        track_kind="file",
    )


def sample_points(canvas: Canvas, pts: np.ndarray) -> np.ndarray:
    """Bilinear GSV lookup at world points (N, 2); raises when off-canvas."""
    h, w = canvas.raster.shape
    px = pts[..., 0] / canvas.scale - 0.5
    py = pts[..., 1] / canvas.scale - 0.5
    if (
        px.min() < 0.0
        or py.min() < 0.0
        or px.max() > w - 1.0
        or py.max() > h - 1.0
    ):
        raise OutOfBoundsError("sample point outside the canvas")
    x0 = np.floor(px).astype(int)
    y0 = np.floor(py).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = px - x0
    fy = py - y0
    r = canvas.raster
    top = r[y0, x0] * (1 - fx) + r[y0, x1] * fx
    bot = r[y1, x0] * (1 - fx) + r[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def _to_world(pose: RobotPose, pts: np.ndarray) -> np.ndarray:
    """Robot-frame (forward, lateral) points to world coordinates."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    x = pose.x + pts[..., 0] * c - pts[..., 1] * s
    y = pose.y + pts[..., 0] * s + pts[..., 1] * c
    return np.stack([x, y], axis=-1)


def sample_ldr(canvas: Canvas, pose: RobotPose, layout: SensorLayout) -> LdrReadout:
    """Read the six ground sensors.

    Each G value is 255 minus the mean GSV over the sensor's field-of-view
    disk, so a sensor over the dark path reads high and one over the white
    background reads 0.
    """
    vals = sample_points(canvas, _to_world(pose, layout._ldr_pts))
    g = 255.0 - vals.mean(axis=1)
    return LdrReadout(g=g[:3], g_star=g[3:])


def sample_camera(canvas: Canvas, pose: RobotPose, layout: SensorLayout) -> np.ndarray:
    """Mean GSV of the canvas under each of the 96 camera cells (8x12)."""
    vals = sample_points(canvas, _to_world(pose, layout._cam_pts))
    return vals.mean(axis=2)


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
    t = np.clip(((px - ax) * vx + (py - ay) * vy) / ll, 0.0, 1.0)
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


def _grid(width_cm, height_cm, scale):
    w = int(math.ceil(width_cm / scale))
    h = int(math.ceil(height_cm / scale))
    xs = (np.arange(w) + 0.5) * scale
    ys = (np.arange(h) + 0.5) * scale
    return np.meshgrid(xs, ys)


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
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    out = []
    ts = np.linspace(0.0, 1.0, samples_per_seg, endpoint=False)
    for i in range(n):
        p0, p1, p2, p3 = (pts[(i + k - 1) % n] for k in range(4))
        for t in ts:
            t2, t3 = t * t, t * t * t
            out.append(
                0.5
                * (
                    (2 * p1)
                    + (-p0 + p2) * t
                    + (2 * p0 - 5 * p1 + 4 * p2 - p3) * t2
                    + (-p0 + 3 * p1 - 3 * p2 + p3) * t3
                )
            )
    return np.array(out)


def _orient(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sign of the turn a -> b -> c per row: +1 left, -1 right, 0 collinear."""
    return np.sign(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
        - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    )


def _self_intersects(poly: np.ndarray) -> bool:
    """Closed-polyline self-intersection test on a decimated copy.

    Segments are closed, so two segments that only touch (at a vertex, or
    overlapping along a common line) count as intersecting. Every pair of
    non-adjacent segments is tested at once.
    """
    step_n = max(1, len(poly) // 400)
    p = poly[::step_n]
    n = len(p)
    a = p
    b = np.roll(p, -1, axis=0)
    i, j = np.triu_indices(n, k=2)
    keep = ~((i == 0) & (j == n - 1))  # first and last segments share p[0]
    i, j = i[keep], j[keep]
    ai, bi, aj, bj = a[i], b[i], a[j], b[j]
    straddle = (_orient(ai, bi, aj) * _orient(ai, bi, bj) <= 0) & (
        _orient(aj, bj, ai) * _orient(aj, bj, bi) <= 0
    )
    # bounding boxes overlap: rules out disjoint collinear segments
    boxes = np.all(
        (np.minimum(ai, bi) <= np.maximum(aj, bj))
        & (np.minimum(aj, bj) <= np.maximum(ai, bi)),
        axis=1,
    )
    return bool(np.any(straddle & boxes))


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

    Kinds and their params:

    * ``straight``: {length} -- horizontal segment, start near the left end.
    * ``circle``: {radius} -- CCW loop, start at the bottom heading +x.
    * ``rounded_rect``: {rect_width, rect_height, radii} -- CCW loop with
      four corner arcs (radii ordered bottom-right, top-right, top-left,
      bottom-left), start mid-bottom heading +x.
    * ``spline``: {points, samples_per_segment} -- closed Catmull-Rom loop
      through the control points; rejects self-intersecting shapes.
    """
    params = dict(params or {})
    if width <= 0 or scale <= 0 or margin <= 0:
        raise ConfigError("track width, scale and margin must be positive")
    if not (0 <= path_value < bg_value < 256):
        raise ConfigError("need 0 <= path_value < bg_value < 256")

    if kind == "straight":
        length = float(params.pop("length", 200.0))
        y0 = _snap(margin, scale)
        x0, x1 = margin, margin + length
        xx, yy = _grid(length + 2 * margin, 2 * margin, scale)
        dist = _seg_dist(xx, yy, x0, y0, x1, y0)
        start = (x0 + 5.0, y0, 0.0)
        path = _seg_points(x0, y0, x1, y0, scale)
    elif kind == "circle":
        r = float(params.pop("radius", 40.0))
        if r <= width:
            raise ConfigError("circle radius must exceed the line width")
        cx = _snap(margin + r, scale)
        cy = _snap(margin + r, scale)
        side = 2 * (r + margin)
        xx, yy = _grid(side, side, scale)
        dist = np.abs(np.hypot(xx - cx, yy - cy) - r)
        start = (cx, cy - r, 0.0)
        path = _arc_points(cx, cy, r, -math.pi / 2, 1.5 * math.pi, scale)
    elif kind == "rounded_rect":
        rw = float(params.pop("rect_width", 110.0))
        rh = float(params.pop("rect_height", 80.0))
        radii = [float(v) for v in params.pop("radii", [12.0, 12.0, 18.0, 18.0])]
        if len(radii) != 4 or any(r <= 0 for r in radii):
            raise ConfigError("rounded_rect needs 4 positive corner radii")
        if max(radii) * 2 >= min(rw, rh):
            raise ConfigError("corner radii too large for the rectangle")
        xl, xr = _snap(margin, scale), _snap(margin + rw, scale)
        yb, yt = _snap(margin, scale), _snap(margin + rh, scale)
        rbr, rtr, rtl, rbl = radii
        xx, yy = _grid(rw + 2 * margin, rh + 2 * margin, scale)
        pi = math.pi
        fields = [
            _seg_dist(xx, yy, xl + rbl, yb, xr - rbr, yb),  # bottom
            _seg_dist(xx, yy, xr, yb + rbr, xr, yt - rtr),  # right
            _seg_dist(xx, yy, xr - rtr, yt, xl + rtl, yt),  # top
            _seg_dist(xx, yy, xl, yt - rtl, xl, yb + rbl),  # left
            _arc_dist(xx, yy, xr - rbr, yb + rbr, rbr, -pi / 2, 0.0),
            _arc_dist(xx, yy, xr - rtr, yt - rtr, rtr, 0.0, pi / 2),
            _arc_dist(xx, yy, xl + rtl, yt - rtl, rtl, pi / 2, pi),
            _arc_dist(xx, yy, xl + rbl, yb + rbl, rbl, pi, 1.5 * pi),
        ]
        dist = np.minimum.reduce(fields)
        start = ((xl + rbl + xr - rbr) / 2.0, yb, 0.0)
        sp = scale
        path = np.concatenate(
            [
                _seg_points(xl + rbl, yb, xr - rbr, yb, sp),
                _arc_points(xr - rbr, yb + rbr, rbr, -pi / 2, 0.0, sp),
                _seg_points(xr, yb + rbr, xr, yt - rtr, sp),
                _arc_points(xr - rtr, yt - rtr, rtr, 0.0, pi / 2, sp),
                _seg_points(xr - rtr, yt, xl + rtl, yt, sp),
                _arc_points(xl + rtl, yt - rtl, rtl, pi / 2, pi, sp),
                _seg_points(xl, yt - rtl, xl, yb + rbl, sp),
                _arc_points(xl + rbl, yb + rbl, rbl, pi, 1.5 * pi, sp),
            ]
        )
    elif kind == "spline":
        points = params.pop("points", None)
        if points is None or len(points) < 4:
            raise ConfigError("spline track needs at least 4 control points")
        samples = int(params.pop("samples_per_segment", 64))
        poly = _catmull_rom(np.asarray(points, dtype=float), samples)
        if _self_intersects(poly):
            raise ConfigError("spline track self-intersects")
        poly = poly - poly.min(axis=0) + margin
        bbox = poly.max(axis=0) + margin
        xx, yy = _grid(bbox[0], bbox[1], scale)
        # dense resampling keeps the nearest-point distance within ~scale/4
        seg = np.diff(np.vstack([poly, poly[:1]]), axis=0)
        seglen = np.hypot(seg[:, 0], seg[:, 1])
        dense = [poly]
        for i in np.nonzero(seglen > scale / 4)[0]:
            n = int(seglen[i] / (scale / 4)) + 1
            t = np.linspace(0, 1, n, endpoint=False)[1:, None]
            dense.append(poly[i] + t * seg[i])
        cloud = np.concatenate(dense)
        tree = cKDTree(cloud)
        dist = tree.query(np.stack([xx.ravel(), yy.ravel()], axis=1))[0].reshape(
            xx.shape
        )
        tangent = poly[1] - poly[0]
        start = (poly[0][0], poly[0][1], math.atan2(tangent[1], tangent[0]))
        path = poly
    else:
        raise ConfigError(f"unknown track kind {kind!r}; choose from {TRACK_KINDS}")

    if params:
        raise ConfigError(f"unknown track params for {kind}: {sorted(params)}")
    raster = _band(dist, width, scale, path_value, bg_value)
    return Canvas(
        raster=raster,
        scale=scale,
        start=start,
        track_kind=kind,
        path=path,
    )
