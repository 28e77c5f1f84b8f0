import copy
import dataclasses
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from sarbot.errors import ConfigError, OutOfBoundsError
from sarbot.loop import (
    LdrReadout,
    ReflexConfig,
    control_error,
    motor_command,
    reflex_action,
    saturate,
)
from sarbot import simenv
from sarbot.signals import difference_signals
from sarbot.simenv import (
    Canvas,
    RobotPose,
    SensorLayout,
    _arc_dist,
    _catmull_rom,
    _orient,
    _seg_dist,
    _segments_meet,
    _self_intersects,
    _snap,
    _symmetric_disk,
    make_track,
    sample_camera,
    sample_ldr,
    sample_points,
    step,
)


def blank_canvas(side=60.0, value=255.0, scale=0.25):
    n = int(side / scale)
    return Canvas(
        raster=np.full((n, n), value),
        scale=scale,
        start=(side / 2, side / 2, 0.0),
        track_kind="blank",
    )


# ----------------------------------------------------------------------
# kinematics
# ----------------------------------------------------------------------


def test_step_straight_motion():
    pose = RobotPose(10.0, 20.0, 0.0)
    nxt = step(pose, 0.0, 0.05)
    npt.assert_allclose([nxt.x, nxt.y, nxt.theta], [10.25, 20.0, 0.0])


def test_step_euler_heading_change():
    pose = RobotPose(0.0, 0.0, 0.0, wheel_base=10.0)
    m, dt = 2.0, 0.05
    nxt = step(pose, m, dt, integrator="euler")
    npt.assert_allclose(nxt.theta, 2.0 * m * dt / 10.0)


def test_constant_command_drives_circle():
    # mc chosen so 500 ticks sweep exactly one revolution
    pose = RobotPose(0.0, 0.0, 0.0, wheel_base=10.0, v0=5.0)
    dt = 0.05
    n = 500
    mc = pose.wheel_base * (2 * math.pi / n) / (2.0 * dt)
    radius = pose.v0 * pose.wheel_base / (2.0 * mc)

    # euler integration approximates the closed-form circle within 1%
    p = pose
    for _ in range(n):
        p = step(p, mc, dt, integrator="euler")
    npt.assert_allclose([p.x, p.y], [0.0, 0.0], atol=radius * 0.01 + 0.2)

    # the exact arc integrator closes the loop to float precision
    p = pose
    for _ in range(n):
        p = step(p, mc, dt, integrator="arc")
    npt.assert_allclose([p.x, p.y], [0.0, 0.0], atol=1e-9)


def test_step_linear_speed_is_v0():
    pose = RobotPose(0.0, 0.0, 0.3)
    for mc in (-3.0, 0.0, 4.0):
        nxt = step(pose, mc, 0.05, integrator="euler")
        dist = math.hypot(nxt.x - pose.x, nxt.y - pose.y)
        npt.assert_allclose(dist, pose.v0 * 0.05, rtol=1e-12)


def test_step_validation():
    # dt and wheel_base are checked once, by exper.SimParams
    with pytest.raises(ConfigError):
        step(RobotPose(0, 0, 0), 0.0, 0.05, integrator="rk9")


# ----------------------------------------------------------------------
# tracks
# ----------------------------------------------------------------------


def test_straight_track_cross_sections():
    width, scale = 2.0, 0.25
    canvas = make_track("straight", {"length": 100.0}, width=width, scale=scale)
    dark_per_column = (canvas.raster < 64.0).sum(axis=0)
    x_px = np.arange(canvas.raster.shape[1]) * scale
    inside = (x_px > 30.0) & (x_px < 90.0)
    counts = dark_per_column[inside]
    assert abs(counts.max() - width / scale) <= 1
    assert abs(counts.min() - width / scale) <= 1


def test_straight_track_raster_is_mirror_symmetric():
    canvas = make_track("straight", {"length": 80.0})
    y0 = canvas.start[1]
    row0 = int(y0 / canvas.scale - 0.5)
    r = canvas.raster
    for k in (1, 3, 10):
        npt.assert_array_equal(r[row0 + k], r[row0 - k])


def test_rounded_rect_track_geometry():
    canvas = make_track(
        "rounded_rect",
        {"rect_width": 110.0, "rect_height": 80.0, "radii": [12.0, 12.0, 18.0, 18.0]},
    )
    assert canvas.track_kind == "rounded_rect"
    assert canvas.path.shape[1] == 2
    # start mid-bottom heading +x
    assert canvas.start[2] == 0.0
    # path is closed-ish: ends near the start corner region
    assert np.hypot(*(canvas.path[0] - canvas.path[-1])) < 130.0


def test_spline_track_and_self_intersection():
    square = [[0, 0], [60, 0], [60, 60], [0, 60]]
    canvas = make_track("spline", {"points": square})
    assert (canvas.raster < 64).any()
    bowtie = [[0, 0], [60, 60], [60, 0], [0, 60]]
    with pytest.raises(ConfigError):
        make_track("spline", {"points": bowtie})


def test_track_param_validation():
    with pytest.raises(ConfigError):
        make_track("hexagon")
    with pytest.raises(ConfigError):
        make_track("straight", {"lenth": 10.0})
    with pytest.raises(ConfigError):
        make_track("rounded_rect", {"radii": [50.0, 50.0, 50.0, 50.0]})


def test_canvas_pgm_round_trip(tmp_path, pgm_pixels):
    # the fixed header, then clip(rint(raster), 0, 255) as uint8 rows: -3
    # clips to 0, 300 to 255, and a half rounds to the even level
    raster = [[-3.0, 127.5, 300.0], [0.4, 254.6, 126.5]]
    path = tmp_path / "track.pgm"
    Canvas(raster=raster, scale=0.25, start=(0.0, 0.0, 0.0), track_kind="ramp").save_pgm(path)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 0, 255, 126])
    canvas = make_track("circle", {"radius": 20.0}, margin=10.0)
    canvas.save_pgm(path)
    levels = np.clip(np.rint(canvas.raster), 0, 255).astype(np.uint8)
    assert pgm_pixels(path).tobytes() == levels.tobytes()


# Reference: the full-grid rasteriser, which evaluates each kind's distance
# field on every pixel of the canvas.


def _ref_full_grid_raster(kind, params, width, scale, margin, path_value, bg_value):
    def grid(width_cm, height_cm):
        xs = (np.arange(int(math.ceil(width_cm / scale))) + 0.5) * scale
        ys = (np.arange(int(math.ceil(height_cm / scale))) + 0.5) * scale
        return np.meshgrid(xs, ys)

    if kind == "straight":
        length = params["length"]
        y0 = _snap(margin, scale)
        xx, yy = grid(length + 2 * margin, 2 * margin)
        dist = _seg_dist(xx, yy, margin, y0, margin + length, y0)
    elif kind == "circle":
        r = params["radius"]
        cx = cy = _snap(margin + r, scale)
        xx, yy = grid(2 * (r + margin), 2 * (r + margin))
        dist = np.abs(np.hypot(xx - cx, yy - cy) - r)
    elif kind == "rounded_rect":
        rw, rh = params["rect_width"], params["rect_height"]
        rbr, rtr, rtl, rbl = params["radii"]
        xl, xr = _snap(margin, scale), _snap(margin + rw, scale)
        yb, yt = _snap(margin, scale), _snap(margin + rh, scale)
        xx, yy = grid(rw + 2 * margin, rh + 2 * margin)
        pi = math.pi
        dist = np.minimum.reduce([
            _seg_dist(xx, yy, xl + rbl, yb, xr - rbr, yb),
            _seg_dist(xx, yy, xr, yb + rbr, xr, yt - rtr),
            _seg_dist(xx, yy, xr - rtr, yt, xl + rtl, yt),
            _seg_dist(xx, yy, xl, yt - rtl, xl, yb + rbl),
            _arc_dist(xx, yy, xr - rbr, yb + rbr, rbr, -pi / 2, 0.0),
            _arc_dist(xx, yy, xr - rtr, yt - rtr, rtr, 0.0, pi / 2),
            _arc_dist(xx, yy, xl + rtl, yt - rtl, rtl, pi / 2, pi),
            _arc_dist(xx, yy, xl + rbl, yb + rbl, rbl, pi, 1.5 * pi),
        ])
    else:
        poly = _catmull_rom(np.asarray(params["points"], dtype=float),
                            params["samples_per_segment"])
        poly = poly - poly.min(axis=0) + margin
        bbox = poly.max(axis=0) + margin
        xx, yy = grid(bbox[0], bbox[1])
        dist = cKDTree(_ref_dense_cloud(poly, scale)).query(
            np.stack([xx.ravel(), yy.ravel()], axis=1))[0].reshape(xx.shape)
    cover = np.clip((dist - (width / 2 - scale / 2)) / scale, 0.0, 1.0)
    return path_value + (bg_value - path_value) * cover


def _ref_dense_cloud(poly, scale):
    """The spline's closed polyline plus, per segment longer than scale / 4,
    its interior points from one np.linspace call each."""
    seg = np.diff(np.vstack([poly, poly[:1]]), axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    dense = [poly]
    for i in np.nonzero(seglen > scale / 4)[0]:
        n = int(seglen[i] / (scale / 4)) + 1
        t = np.linspace(0, 1, n, endpoint=False)[1:, None]
        dense.append(poly[i] + t * seg[i])
    return np.concatenate(dense)


@st.composite
def tracks(draw, kind):
    """(kind, params, width, scale, margin, path_value, bg_value) of a small
    canvas; rounded rectangles are often drawn with sides barely longer
    than their corners, so that a side's polyline has few, wide gaps."""
    scale = draw(st.floats(0.2, 1.0))
    width = draw(st.floats(0.5, 4.0))
    margin = draw(st.floats(0.05, 12.0))
    path_value = draw(st.floats(0.0, 255.0))
    bg_value = draw(st.floats(path_value, 255.99, exclude_min=True))
    if kind == "straight":
        params = {"length": draw(st.floats(0.1, 60.0))}
    elif kind == "circle":
        params = {"radius": width + draw(st.floats(0.01, 30.0))}
    elif kind == "rounded_rect":
        radii = [draw(st.floats(0.3, 10.0)) for _ in range(4)]
        extra = st.one_of(st.floats(0.01, 3.0), st.floats(1.0, 40.0))
        params = {"rect_width": 2 * max(radii) + draw(extra),
                  "rect_height": 2 * max(radii) + draw(extra), "radii": radii}
    else:
        n = draw(st.integers(4, 8))
        jitter = draw(st.lists(st.floats(0.0, 0.8), min_size=n, max_size=n))
        ang = (np.arange(n) + jitter) * (2 * math.pi / n)
        rad = np.array(draw(st.lists(st.floats(8.0, 30.0), min_size=n, max_size=n)))
        params = {"points": np.stack([rad * np.cos(ang), rad * np.sin(ang)], 1).tolist(),
                  "samples_per_segment": draw(st.integers(2, 40))}
    return kind, params, width, scale, margin, path_value, bg_value


def _assert_raster_equals_the_full_grid(track):
    kind, params, width, scale, margin, path_value, bg_value = track
    try:
        canvas = make_track(kind, params, width=width, scale=scale, margin=margin,
                            path_value=path_value, bg_value=bg_value)
    except ConfigError:  # a self-intersecting spline
        assume(False)
    ref = _ref_full_grid_raster(kind, params, width, scale, margin, path_value, bg_value)
    assert canvas.raster.shape == ref.shape
    assert canvas.raster.tobytes() == ref.tobytes()
    return canvas


# the explicit examples of each kind: a margin below the reach of
# width / 2 + scale, so that the canvas edge clips the box of a piece;
# circles of scale 1.0 with a radius just above the width, whose rings are
# drawn with 4 and 13 polyline points; and a circle whose antialiased edge
# reaches beyond a box widened by width / 2 alone
EDGE_TRACKS = {
    "straight": [("straight", {"length": 7.3}, 2.6, 0.35, 1.2, 23.0, 229.0)],
    "circle": [("circle", {"radius": 9.5}, 3.4, 0.45, 1.5, 9.0, 250.0),
               ("circle", {"radius": 0.61}, 0.6, 1.0, 3.0, 0.0, 255.0),
               ("circle", {"radius": 2.01}, 2.0, 1.0, 0.9, 40.0, 200.0),
               ("circle", {"radius": 4.0}, 3.0, 0.99609375, 2.0, 0.0, 1.0)],
    "rounded_rect": [("rounded_rect", {"rect_width": 21.0, "rect_height": 14.5,
                                       "radii": [1.5, 4.0, 2.25, 3.0]},
                      3.0, 0.3, 0.9, 17.0, 241.0)],
    "spline": [("spline", {"points": [[0, 0], [20, -3], [24, 15], [2, 18]],
                           "samples_per_segment": 12}, 2.2, 0.4, 0.5, 5.0, 230.0)],
}


@pytest.mark.parametrize("kind", ["straight", "circle", "rounded_rect", "spline"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
@example(data=None)  # the kind's EDGE_TRACKS
def test_band_limited_raster_equals_the_full_grid(kind, data):
    for track in EDGE_TRACKS[kind] if data is None else [data.draw(tracks(kind))]:
        _assert_raster_equals_the_full_grid(track)
        _, _, width, scale, margin, _, _ = track
        event(f"margin {'below' if margin < width / 2 + scale else 'at or above'} the reach")


# the closed 8-point loop of the benchmark's reflex-spline workload, in cm
BENCH_SPLINE = {"points": [[0, 0], [45, -12], [95, -4], [140, 18], [150, 62], [110, 90],
                           [50, 84], [-10, 48]], "samples_per_segment": 64}


def test_each_piece_measures_only_the_pixels_near_its_box(monkeypatch):
    measured = []
    for name in ("_seg_dist", "_arc_dist", "_ring_dist", "_cloud_dist"):
        def counting(px, py, *args, dist=getattr(simenv, name)):
            measured.append(np.broadcast(px, py).size)
            return dist(px, py, *args)
        monkeypatch.setattr(simenv, name, counting)
    for kind, params, pieces, part in [
        # eight boxes, each widened by the reach and a spare pixel, hold
        # 36,088 of the canvas's 332,800 pixels (10.8 %)
        ("rounded_rect", None, 8, 9),
        # the ring's 1,006 polyline points in 16 stretches: 38,830 of 270,400
        # pixels (14.4 %), where one box around the whole ring held 110,889
        ("circle", None, 16, 6),
        # the dense cloud's 7,130 points in 112 stretches: 53,776 of 529,515
        # pixels (10.2 %)
        ("spline", BENCH_SPLINE, 112, 9),
    ]:
        measured.clear()
        canvas = make_track(kind, params)
        assert len(measured) == pieces, kind
        assert sum(measured) < canvas.raster.size / part, kind


@settings(max_examples=60, deadline=None)
@given(tracks("spline"))
@example(("spline", {"points": [[0, 0], [20, 0], [20, 20], [0, 20]],
                     "samples_per_segment": 400}, 2.0, 1.0, 5.0, 0.0, 255.0))
def test_spline_cloud_equals_the_per_segment_linspace_loop(track):
    # the example's segments are all shorter than scale / 4: no interior points
    stretches = []

    def recording(px, py, pts):
        stretches.append(pts)
        return cloud_dist(px, py, pts)

    cloud_dist = simenv._cloud_dist
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simenv, "_cloud_dist", recording)
        canvas = _assert_raster_equals_the_full_grid(track)
    ref = _ref_dense_cloud(canvas.path, canvas.scale)
    event(f"{len(ref) - len(canvas.path)} interior points")
    cloud = np.concatenate(stretches)
    assert cloud.shape == ref.shape

    def rows(a):  # sorted by x, then y
        return a[np.lexsort((a[:, 1], a[:, 0]))].tobytes()

    assert rows(cloud) == rows(ref)


@pytest.mark.parametrize("track", [
    ("straight", {"length": 0.375}, 2.0, 0.25, 5.0, 0.0, 255.0),
    ("rounded_rect", {"rect_width": 2.5, "rect_height": 10.0,
                      "radii": [1.0, 1.125, 1.175, 1.125]}, 1.0, 0.25, 5.0, 0.0, 255.0),
], ids=["straight", "rounded_rect"])
def test_band_covers_a_path_gap_of_one_and_a_half_spacings(track):
    # a 0.375 cm straight, and a rounded rectangle whose snapped bottom side
    # is 0.375 cm: 1.5 times the 0.25 cm spacing, drawn as two path points
    canvas = _assert_raster_equals_the_full_grid(track)
    assert np.hypot(*(canvas.path[1] - canvas.path[0])) == 0.375


def test_a_side_that_snapping_collapses_rasterizes_as_its_point():
    # an 80.1 cm stadium with 40 cm corners: the snapped right and left sides
    # have zero length, and measuring them divided by zero
    stadium = make_track("rounded_rect", {"rect_width": 110.0, "rect_height": 80.1,
                                          "radii": [40.0, 40.0, 40.0, 40.0]})
    assert np.isfinite(stadium.raster).all()
    _assert_raster_equals_the_full_grid(
        ("rounded_rect", {"rect_width": 3.0, "rect_height": 2.5,
                          "radii": [1.0, 1.0, 1.0, 1.0]}, 1.0, 1.0, 2.0, 0.0, 1.0))


# Reference: the Catmull-Rom curve computed one sample at a time


def _ref_catmull_rom(points, samples_per_seg):
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    out = []
    ts = np.linspace(0.0, 1.0, samples_per_seg, endpoint=False)
    for i in range(n):
        p0, p1, p2, p3 = (pts[(i + k - 1) % n] for k in range(4))
        for t in ts:
            t2, t3 = t * t, t * t * t
            out.append(0.5 * ((2 * p1) + (-p0 + p2) * t
                              + (2 * p0 - 5 * p1 + 4 * p2 - p3) * t2
                              + (-p0 + 3 * p1 - 3 * p2 + p3) * t3))
    return np.array(out)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 20), st.integers(1, 80))
def test_catmull_rom_equals_the_loop(seed, n, samples):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-200.0, 200.0, (n, 2)) * 10.0 ** rng.integers(-3, 4)
    assert _catmull_rom(points, samples).tobytes() == _ref_catmull_rom(points, samples).tobytes()


# Reference: orientation and closed-segment contact in rational arithmetic


def _ref_orient(a, b, c):
    ax, ay, bx, by, cx, cy = map(Fraction, (*a, *b, *c))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _ref_segments_meet(ai, bi, aj, bj):
    if _ref_orient(ai, bi, aj) * _ref_orient(ai, bi, bj) > 0:
        return False
    if _ref_orient(aj, bj, ai) * _ref_orient(aj, bj, bi) > 0:
        return False
    return all(min(ai[k], bi[k]) <= max(aj[k], bj[k])
               and min(aj[k], bj[k]) <= max(ai[k], bi[k]) for k in (0, 1))


@st.composite
def segment_pairs(draw):
    """Rows of segment pairs (ai, bi, aj, bj), each (n, 2): near-collinear,
    touching at an end or an interior point, overlapping along one line, or
    exactly collinear on integer points; points on a line are computed in
    floats, then some are moved by a few ulps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 200
    size = 10.0 ** rng.integers(-2, 5, (n, 1))
    offset = rng.choice([0.0, 1.0, 1e4], (n, 1)) * size
    ai = offset + rng.uniform(-1, 1, (n, 2)) * size
    bi = offset + rng.uniform(-1, 1, (n, 2)) * size
    d = bi - ai
    s, t = rng.uniform(-0.5, 1.5, (2, n, 1))
    on_line_s, on_line_t = ai + s * d, ai + t * d
    how = rng.integers(0, 5, n)[:, None]
    aj = np.select([how == 0, how == 1, how == 2, how == 3],
                   [on_line_s, bi, ai + 0.5 * d, on_line_s], on_line_s)
    bj = np.select([how == 0, how == 1, how == 2, how == 3],
                   [on_line_t, offset + rng.uniform(-1, 1, (n, 2)) * size,
                    ai + 0.5 * d + rng.uniform(-1, 1, (n, 2)) * size, on_line_t],
                   on_line_t)
    # how == 4: integer points on one line, so the determinants are exactly 0
    k = rng.integers(-50, 50, (n, 4))
    step_ = rng.integers(-9, 10, (n, 2))
    base = rng.integers(-1000, 1000, (n, 2))
    exact = [base + k[:, [m]] * step_ for m in range(4)]
    ai, bi, aj, bj = (np.where(how == 4, e.astype(float), v)
                      for e, v in zip(exact, (ai, bi, aj, bj)))
    nudge = rng.integers(-3, 4, (n, 2)) * (rng.random((n, 2)) < 0.3)
    bj = bj + np.where(bj == 0.0, 0.0, nudge * np.spacing(bj))  # no subnormals
    return ai, bi, aj, bj


@settings(max_examples=100, deadline=None)
@given(segment_pairs())
def test_orient_and_contact_agree_with_rational_arithmetic(pairs):
    ai, bi, aj, bj = pairs
    for a, b, c in ((ai, bi, aj), (ai, bi, bj), (aj, bj, ai), (aj, bj, bi)):
        got = _orient(a, b, c)
        ref = [_ref_orient(*row) for row in zip(a, b, c)]
        assert got.tolist() == ref
    got = _segments_meet(ai, bi, aj, bj)
    assert got.tolist() == [_ref_segments_meet(*row) for row in zip(ai, bi, aj, bj)]


def _ref_all_pairs_self_intersects(poly):
    """Reference: every non-adjacent segment pair of the decimated loop goes
    through _segments_meet, without a bounding-box prefilter."""
    p = poly[:: max(1, len(poly) // 400)]
    n = len(p)
    a, b = p, np.roll(p, -1, axis=0)
    i, j = np.triu_indices(n, k=2)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    return bool(np.any(_segments_meet(a[i], b[i], a[j], b[j])))


@st.composite
def closed_polylines(draw):
    """Closed loops on a small integer grid, so that vertices touch and
    segments overlap along a line often, some scaled and shifted by
    non-integer amounts; or long random walks, decimated before the test."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if rng.random() < 0.2:
        return np.cumsum(rng.normal(0, 1, (int(rng.integers(400, 1200)), 2)), axis=0)
    n = int(rng.choice([4, 5, 8, 13, 30]))
    poly = rng.integers(0, int(rng.choice([3, 6, 50])), (n, 2)).astype(float)
    if rng.random() < 0.5:
        poly = poly * rng.uniform(0.01, 100.0) + rng.uniform(-1e3, 1e3, 2)
    return poly


@settings(max_examples=300, deadline=None)
@given(closed_polylines())
@example(np.array([[0, 0], [4, 0], [4, 4], [0, 4]], dtype=float))  # simple square
@example(np.array([[0, 0], [4, 4], [4, 0], [0, 4]], dtype=float))  # bow tie
@example(np.array([[0, 0], [4, 0], [2, 2], [4, 0], [4, 4]], dtype=float))  # collinear
@example(np.array([[0, 0], [4, 0], [2, 0], [2, 3]], dtype=float))  # overlap back
@example(np.array([[0, 0], [2, 0], [4, 0], [3, 2], [2, 0], [1, 2]], dtype=float))
def test_prefiltered_self_intersection_equals_all_pairs(poly):
    assert _self_intersects(poly) == _ref_all_pairs_self_intersects(poly)


def test_self_intersection_of_a_vertex_touch_and_of_a_smooth_loop():
    # the fourth vertex touches the first segment at its midpoint
    touch = np.array([[0, 0], [4, 0], [4, 3], [2, 0], [0, 3]], dtype=float)
    assert _self_intersects(touch) and _ref_all_pairs_self_intersects(touch)
    loop = _catmull_rom(np.array([[0, 0], [45, -12], [95, -4], [140, 18],
                                  [150, 62], [110, 90], [50, 84], [-10, 48]]), 64)
    assert not _self_intersects(loop) and not _ref_all_pairs_self_intersects(loop)


def test_orient_goes_exact_only_within_the_float_bound(monkeypatch):
    counted = []
    monkeypatch.setattr(simenv, "Fraction", lambda v: counted.append(v) or Fraction(v))
    # decided, exactly collinear, collinear up to rounding, decided
    a = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.1], [0.1, 0.1]])
    b = np.array([[1.0, 0.0], [3.0, 1.0], [0.7, 0.3], [0.7, 0.3]])
    c = np.array([[0.0, 1.0], [6.0, 2.0], [0.0, 0.0], [0.1, 5.0]])
    c[2] = a[2] + 2.0 * (b[2] - a[2])
    left = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
    right = (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    within = np.abs(left - right) <= simenv._ORIENT_BOUND * (np.abs(left) + np.abs(right))
    assert within.tolist() == [False, True, True, False]
    assert _orient(a, b, c).tolist() == [_ref_orient(*r) for r in zip(a, b, c)]
    assert len(counted) == 6 * 2  # rows 1 and 2 only, six coordinates each
    counted.clear()
    square = [[0.0, 0.0], [60.0, 0.0], [60.0, 60.0], [0.0, 60.0]]
    make_track("spline", {"points": square})
    assert counted == []  # the float bound decides every row of this track


# ----------------------------------------------------------------------
# sensors
# ----------------------------------------------------------------------


def test_uniform_canvas_reads_flat():
    canvas = blank_canvas()
    pose = RobotPose(*canvas.start)
    layout = SensorLayout()
    r = sample_ldr(canvas, [pose], layout)[0]
    npt.assert_allclose(np.concatenate([r.g, r.g_star]), np.zeros(6), atol=1e-12)
    grid, _ = sample_camera(canvas, pose, layout)
    npt.assert_allclose(grid, np.full((8, 12), 255.0), atol=1e-12)
    assert control_error(r, ReflexConfig()) == 0.0


def test_centered_robot_sees_symmetric_world():
    canvas = make_track("straight", {"length": 100.0})
    pose = RobotPose(canvas.start[0] + 10.0, canvas.start[1], 0.0)
    layout = SensorLayout()
    r = sample_ldr(canvas, [pose], layout)[0]
    assert control_error(r, ReflexConfig()) == 0.0
    grid, _ = sample_camera(canvas, pose, layout)
    npt.assert_allclose(difference_signals(grid), np.zeros((8, 6)), atol=1e-9)


def test_offset_robot_error_sign_and_reflex_direction():
    canvas = make_track("straight", {"length": 120.0})
    layout = SensorLayout()
    cfg = ReflexConfig()
    y0 = canvas.start[1]
    # robot shifted left of the line: right sensors see the line, E < 0
    pose = RobotPose(canvas.start[0] + 10.0, y0 + layout.ldr_lateral[0], 0.0)
    e = control_error(sample_ldr(canvas, [pose], layout)[0], cfg)
    assert e < 0
    # closed loop: reflex must steer toward the line and shrink the offset.
    # Inside the sensors' dead band (about +/-2.5 cm) E = 0 and the robot
    # coasts, so the offset settles into a bounded oscillation around the
    # line; any single snapshot may sit near the band's edge.
    offset0 = abs(pose.y - y0)
    dt = 0.05
    commands, offsets = [], []
    for _ in range(100):
        e = control_error(sample_ldr(canvas, [pose], layout)[0], cfg)
        mc, _ = saturate(motor_command(reflex_action(e, cfg), 0.0), cfg.mc_limit)
        commands.append(mc)
        pose = step(pose, mc, dt)
        offsets.append(abs(pose.y - y0))
    first_actuated = next(mc for mc in commands if mc != 0.0)
    assert first_actuated < 0  # turn right, toward the line
    assert min(offsets) < offset0 / 2
    assert max(offsets[int(1.0 / dt) :]) <= offset0


def test_camera_sees_curve_ahead_in_far_rows():
    canvas = make_track("circle", {"radius": 30.0}, margin=30.0)
    pose = RobotPose(*canvas.start)  # tangent at the bottom, curve bends left
    layout = SensorLayout()
    grid, _ = sample_camera(canvas, pose, layout)
    diff = difference_signals(grid)
    near = np.abs(diff[:2]).sum()
    far = np.abs(diff[-2:]).sum()
    assert far > near + 10.0
    # line curls to the left ahead: left cells darker, C negative where it exits
    assert diff.sum() < 0


def test_out_of_bounds_sampling_raises():
    canvas = blank_canvas(side=20.0)
    layout = SensorLayout()
    with pytest.raises(OutOfBoundsError):
        sample_camera(canvas, RobotPose(19.0, 10.0, 0.0), layout)
    with pytest.raises(OutOfBoundsError):
        sample_ldr(canvas, [RobotPose(10.0, 0.5, -math.pi / 2)], layout)


def test_a_nan_point_or_pose_is_off_the_canvas():
    # every comparison with NaN is false: a NaN coordinate must fail the
    # bounds test, not reach the integer cast and the gather behind it
    canvas = blank_canvas(side=20.0)
    nan = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pts in ([[nan, 3.0], [3.0, 3.0]], [[3.0, 3.0], [3.0, nan]]):
            with pytest.raises(OutOfBoundsError, match="sample point outside the canvas"):
                sample_points(canvas, np.array(pts))
        for pose in (RobotPose(nan, 10.0, 0.0), RobotPose(10.0, 10.0, nan),
                     RobotPose(10.0, 10.0, math.inf), RobotPose(10.0, 10.0, -math.inf)):
            with pytest.raises(OutOfBoundsError, match="sample point outside the canvas"):
                sample_ldr(canvas, [pose], SensorLayout())
            with pytest.raises(OutOfBoundsError, match="sample point outside the canvas"):
                sample_ldr(canvas, [RobotPose(10.0, 10.0, 0.0), pose], SensorLayout())
        # a heading that is not finite, on a canvas whose every edge lies
        # beyond the camera's reach: the same error, not math.cos's ValueError
        wide = blank_canvas(side=60.0)
        for theta in (nan, math.inf, -math.inf):
            pose = RobotPose(30.0, 30.0, theta)
            with pytest.raises(OutOfBoundsError, match="sample point outside the canvas"):
                sample_camera(wide, pose, SensorLayout())
            with pytest.raises(OutOfBoundsError, match="sample point outside the canvas"):
                simenv._to_world([pose], SensorLayout()._pts)


# Reference: the per-axis lookup over (..., 2) points, with each sensor
# read by its own call, as the sensors were read before one gather served
# both.


def _ref_to_world(pose, pts):
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    x = pose.x + pts[..., 0] * c - pts[..., 1] * s
    y = pose.y + pts[..., 0] * s + pts[..., 1] * c
    return np.stack([x, y], axis=-1)


def _ref_sample_points(canvas, pts):
    h, w = canvas.raster.shape
    px = pts[..., 0] / canvas.scale - 0.5
    py = pts[..., 1] / canvas.scale - 0.5
    if px.min() < 0.0 or py.min() < 0.0 or px.max() > w - 1.0 or py.max() > h - 1.0:
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


def _ref_points(layout):
    """Robot-frame (forward, lateral) points: camera (8, 12, ss * ss, 2),
    ground sensors (6, 13, 2)."""
    disk = _symmetric_disk(layout.ldr_fov_radius)
    centers = np.array(
        [(layout.ldr_forward, s * l) for s in (+1, -1) for l in layout.ldr_lateral]
    )
    ldr = centers[:, None, :] + disk[None, :, :]
    rows, cols, ss = 8, 12, layout.cam_supersample
    cell_w, cell_d = layout.cam_width / cols, layout.cam_depth / rows
    sub = (np.arange(ss) + 0.5) / ss - 0.5
    fwd = layout.cam_ahead + (np.arange(rows)[:, None] + 0.5) * cell_d + sub[None, :] * cell_d
    lat = ((cols / 2 - np.arange(cols)[:, None] - 0.5) + sub[None, :]) * cell_w
    f = np.broadcast_to(fwd[:, None, :, None], (rows, cols, ss, ss))
    l = np.broadcast_to(lat[None, :, None, :], (rows, cols, ss, ss))
    return np.stack([f, l], axis=-1).reshape(rows, cols, ss * ss, 2), ldr


def _ref_sensors(canvas, pose, layout):
    """(grid, 6 ground-sensor values), or None for each sensor that reads
    off the canvas."""
    cam, ldr = _ref_points(layout)
    out = []
    for pts, mean in ((cam, lambda v: v.mean(axis=2)),
                      (ldr, lambda v: 255.0 - v.mean(axis=1))):
        try:
            out.append(mean(_ref_sample_points(canvas, _ref_to_world(pose, pts))))
        except OutOfBoundsError:
            out.append(None)
    return out


@st.composite
def canvas_and_pose(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.25, 0.5, 0.3]))
    h, w = draw(st.integers(30, 100)) * 4, draw(st.integers(30, 100)) * 4
    raster = rng.uniform(0.0, 256.0, (h, w))
    if draw(st.booleans()):
        raster = np.floor(raster)  # the integer gray levels of a PGM file
    canvas = Canvas(raster=raster, scale=scale, start=(0.0, 0.0, 0.0),
                    track_kind="random")
    # from 5 cm off the canvas to 5 cm past it: many poses put some sample
    # points near an edge or beyond it
    x = rng.uniform(-5.0, w * scale + 5.0)
    y = rng.uniform(-5.0, h * scale + 5.0)
    return canvas, RobotPose(x, y, rng.uniform(-2 * math.pi, 2 * math.pi))


@settings(max_examples=300, deadline=None)
@given(canvas_and_pose(), st.sampled_from([1, 3, 4]))
def test_one_gather_equals_the_per_axis_lookup(case, supersample):
    canvas, pose = case
    layout = SensorLayout(cam_supersample=supersample)
    ref_grid, ref_g = _ref_sensors(canvas, pose, layout)
    event(f"camera {'on' if ref_grid is not None else 'off'} the canvas, "
          f"ground sensors {'on' if ref_g is not None else 'off'}")
    if ref_grid is None or ref_g is None:
        with pytest.raises(OutOfBoundsError):
            sample_camera(canvas, pose, layout)
    else:
        grid, readout = sample_camera(canvas, pose, layout)
        assert grid.shape == (8, 12) and grid.tobytes() == ref_grid.tobytes()
        assert np.concatenate([readout.g, readout.g_star]).tobytes() == ref_g.tobytes()
    if ref_g is None:
        with pytest.raises(OutOfBoundsError):
            sample_ldr(canvas, [pose], layout)
    else:
        readout = sample_ldr(canvas, [pose], layout)[0]
        assert np.concatenate([readout.g, readout.g_star]).tobytes() == ref_g.tobytes()


def _ldr_bytes(readout):
    return np.concatenate([readout.g, readout.g_star]).tobytes()


@pytest.mark.parametrize("lanes", [1, 2, 5])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), touch=st.sampled_from(["none", "column", "row"]),
       off=st.booleans())
def test_a_lane_gather_equals_the_per_pose_calls(lanes, seed, touch, off):
    rng = np.random.default_rng(seed)
    scale = 0.25  # a power of two: the touching lane's points land exactly
    h, w = rng.integers(80, 160, 2)
    canvas = Canvas(raster=rng.uniform(0.0, 256.0, (h, w)), scale=scale,
                    start=(0.0, 0.0, 0.0), track_kind="random")
    layout = SensorLayout()
    # every ground-sensor point lies at least 9 cm from these poses
    poses = [RobotPose(rng.uniform(9.0, w * scale - 9.0), rng.uniform(9.0, h * scale - 9.0),
                       rng.uniform(-math.pi, math.pi)) for _ in range(lanes)]
    k = int(rng.integers(lanes))
    # heading +x, the sensor disks reach ldr_forward + r ahead and
    # ldr_lateral[2] + r to the left, which lands exactly on the last
    # pixel column or row, where the +1 corner has weight 0
    reach = (layout.ldr_forward + layout.ldr_fov_radius,
             layout.ldr_lateral[2] + layout.ldr_fov_radius)
    if touch == "column":
        poses[k] = RobotPose((w - 0.5) * scale - reach[0], h * scale / 2, 0.0)
    elif touch == "row":
        poses[k] = RobotPose(w * scale / 2, (h - 0.5) * scale - reach[1], 0.0)
    if touch != "none":
        axis, last = (0, w - 1.0) if touch == "column" else (1, h - 1.0)
        p = simenv._to_world([poses[k]], layout._pts[:, layout._n_cam:])[:, 0] / scale - 0.5
        assert p[axis].max() == last
    if off:
        poses[int(rng.integers(lanes))] = RobotPose(w * scale + 3.0, h * scale / 2, 0.0)
        with pytest.raises(OutOfBoundsError, match="sample point outside the canvas"):
            sample_ldr(canvas, poses, layout)
        return
    readouts = sample_ldr(canvas, poses, layout)
    assert len(readouts) == lanes
    for readout, pose in zip(readouts, poses):
        assert _ldr_bytes(readout) == _ldr_bytes(sample_ldr(canvas, [pose], layout)[0])


def test_points_on_the_first_and_last_pixel():
    # a point on pixel w - 1 or h - 1 gives its +1 corner the weight 0;
    # a hair beyond the first or last pixel centre is off-canvas
    h, w, scale = 7, 9, 0.25
    raster = np.arange(h * w, dtype=float).reshape(h, w) * 3.5
    canvas = Canvas(raster=raster, scale=scale, start=(0.0, 0.0, 0.0),
                    track_kind="ramp")
    px = np.array([0.0, w - 1.0, 0.0, w - 1.0, 0.0, w - 1.0, 3.25, 3.25])
    py = np.array([0.0, 0.0, h - 1.0, h - 1.0, 2.5, 2.5, 0.0, h - 1.0])
    pts = np.stack([(px + 0.5) * scale, (py + 0.5) * scale])
    vals = sample_points(canvas, pts)
    assert vals.tobytes() == _ref_sample_points(canvas, pts.T).tobytes()
    corners = raster[[0, 0, h - 1, h - 1], [0, w - 1, 0, w - 1]]
    assert vals[:4].tobytes() == corners.tobytes()
    npt.assert_allclose(vals[4:], [raster[2:4, 0].mean(), raster[2:4, w - 1].mean(),
                                   raster[0, 3:5] @ [0.75, 0.25],
                                   raster[h - 1, 3:5] @ [0.75, 0.25]], rtol=1e-15)
    for axis, edge in ((0, -1e-9), (0, w - 1 + 1e-9), (1, -1e-9), (1, h - 1 + 1e-9)):
        off = pts[:, :1].copy()
        off[axis] = (edge + 0.5) * scale
        with pytest.raises(OutOfBoundsError):
            sample_points(canvas, off)


def test_a_canvas_stores_no_minus_zero_and_rejects_pixels_the_gather_cannot_read():
    # on pixel (1, 0.5), a -0.0 in the last column and the one below it sum
    # to -0.0 under the clamped reference, where the gather's weight-0 +1
    # corners (6.0 and 7.0) would give +0.0: the canvas stores them as +0.0
    raster = np.array([[1.0, -0.0], [4.0, -0.0], [6.0, 7.0]])
    canvas = Canvas(raster=raster, scale=1.0, start=(0.0, 0.0, 0.0), track_kind="ramp")
    assert not np.signbit(canvas.raster).any()
    pts = np.array([[1.5], [1.0]])
    assert sample_points(canvas, pts).tobytes() == _ref_sample_points(canvas, pts.T).tobytes()
    # a negative subnormal times a weight of 1/2 rounds to -0.0 as well
    for bad in (math.nan, math.inf, -math.inf, 2.0**1022, -2.0**1022, -5e-324):
        with pytest.raises(ConfigError, match="canvas pixels must be finite"):
            Canvas(raster=np.array([[1.0, bad]]), scale=1.0, start=(0.0, 0.0, 0.0),
                   track_kind="ramp")
    kept = np.array([[-3.0, 300.0, 5e-324, -2.0**-1022, 2.0**1021]])
    canvas = Canvas(raster=kept, scale=1.0, start=(0.0, 0.0, 0.0), track_kind="ramp")
    assert canvas.raster.tobytes() == kept.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.25, 0.5, 1.0]), st.booleans())
def test_a_gather_inside_and_one_touching_the_last_pixel_equal_the_reference(
        seed, scale, touch):
    # pixel coordinates survive the trip through a power-of-two scale exactly,
    # so a touching point lies exactly on pixel w - 1 or h - 1, where the
    # reference clamps its +1 corner and the gather weighs it 0
    rng = np.random.default_rng(seed)
    h, w = rng.integers(2, 40, 2)
    raster = rng.uniform(0.0, 256.0, (h, w))
    canvas = Canvas(raster=raster, scale=scale, start=(0.0, 0.0, 0.0),
                    track_kind="random")
    n = int(rng.integers(1, 50))
    px, py = rng.uniform(0.0, w - 1.0, n), rng.uniform(0.0, h - 1.0, n)
    if touch:
        px[rng.random(n) < 0.3] = w - 1.0
        py[rng.random(n) < 0.3] = h - 1.0
        px[0] = w - 1.0
    assert (px.max() == w - 1.0) == touch and py.max() <= h - 1.0
    pts = np.stack([(px + 0.5) * scale, (py + 0.5) * scale])
    vals = sample_points(canvas, pts)
    assert vals.tobytes() == _ref_sample_points(canvas, pts.T).tobytes()


def pixel_coordinates(last):
    """Pixel coordinates on an axis whose last pixel is ``last``: exactly
    0.0, a pixel centre, the last one, a hair either side of a centre, or
    anywhere between."""
    centre = st.integers(0, last).map(float)
    return st.one_of(
        st.just(0.0), centre, st.just(float(last)), st.floats(0.0, float(last)),
        centre.map(lambda v: math.nextafter(v, math.inf)).filter(lambda v: v <= last),
        centre.map(lambda v: math.nextafter(v, -math.inf)).filter(lambda v: v >= 0.0),
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_gather_reads_whole_and_near_whole_coordinates_as_the_reference(data):
    # coordinates of exactly 0.0, on a pixel centre, on the last pixel or a
    # hair either side of a centre are where a floor, its cast to intp and
    # the fraction can go wrong; a point on the last pixel row or column
    # is where the reference clamps its +1 corner
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # power-of-two scales: a whole coordinate survives the trip to cm and back
    scale = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
    h, w = data.draw(st.integers(2, 40)), data.draw(st.integers(2, 40))
    raster = rng.uniform(0.0, 256.0, (h, w))
    canvas = Canvas(raster=raster, scale=scale, start=(0.0, 0.0, 0.0), track_kind="random")
    n = data.draw(st.integers(1, 12))
    px = np.array(data.draw(st.lists(pixel_coordinates(w - 1), min_size=n, max_size=n)))
    py = np.array(data.draw(st.lists(pixel_coordinates(h - 1), min_size=n, max_size=n)))
    event("on the last pixel" if px.max() == w - 1 or py.max() == h - 1 else "inside")
    pts = np.stack([(px + 0.5) * scale, (py + 0.5) * scale])
    assert sample_points(canvas, pts).tobytes() == _ref_sample_points(canvas, pts.T).tobytes()


def test_a_pose_and_a_readout_survive_pickle_copy_and_replace():
    pose = RobotPose(1.5, -2.25, 0.3, wheel_base=12.0, v0=4.0)
    readout = LdrReadout(g=np.array([1.0, 2.0, 3.0]), g_star=np.array([0.5, 0.0, 255.0]))
    for clone in (lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy):
        assert clone(pose) == pose
        twin = clone(readout)
        assert (twin.g.tobytes(), twin.g_star.tobytes()) == (readout.g.tobytes(),
                                                             readout.g_star.tobytes())
    assert dataclasses.replace(pose, theta=-1.0) == RobotPose(1.5, -2.25, -1.0, 12.0, 4.0)
    swapped = dataclasses.replace(readout, g=readout.g_star)
    assert swapped.g is readout.g_star and swapped.g_star is readout.g_star
    # slotted, so no instance dict; the pose stays frozen
    assert not hasattr(pose, "__dict__") and not hasattr(readout, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pose.x = 0.0


def test_a_shipped_or_replaced_canvas_samples_its_own_raster():
    # run_batch ships the canvas to worker processes
    canvas = make_track("circle", {"radius": 10.0}, margin=5.0)
    pts = np.array([[12.3, 4.4, 20.0], [13.1, 8.8, 2.6]])
    shipped = pickle.loads(pickle.dumps(canvas))
    assert sample_points(shipped, pts).tobytes() == sample_points(canvas, pts).tobytes()
    wider = dataclasses.replace(canvas, raster=np.tile(canvas.raster, 2))
    assert sample_points(wider, pts).tobytes() == _ref_sample_points(wider, pts.T).tobytes()
    # a raster of gray levels is held as float GSV and reads as the levels do
    levels = np.rint(canvas.raster).astype(np.uint8)
    gray = dataclasses.replace(canvas, raster=levels)
    assert gray.raster.dtype == np.float64
    as_given = dataclasses.replace(canvas)
    as_given.raster = levels
    assert sample_points(gray, pts).tobytes() == _ref_sample_points(as_given, pts.T).tobytes()


def test_the_workspace_is_scratch_not_state():
    canvas = make_track("circle", {"radius": 30.0}, margin=30.0)
    layout = SensorLayout()
    assert layout._reach == max(math.hypot(f, l) for f, l in layout._pts.T)
    assert layout._ws is None
    pose = RobotPose(*canvas.start)
    lanes = sample_ldr(canvas, [pose, pose], layout)
    assert layout._ws is None  # the probe keeps no buffers
    grid, readout = sample_camera(canvas, pose, layout)
    ws = layout._ws
    assert ws.p.shape == (2, layout._pts.shape[1])
    assert repr(layout) == repr(SensorLayout()) and layout == SensorLayout()
    for other in (pickle.loads(pickle.dumps(layout)), copy.deepcopy(layout),
                  dataclasses.replace(layout)):
        assert other._ws is None and other == layout
    sample_camera(canvas, pose, layout)
    assert layout._ws is ws
    outs = [grid, readout.g, readout.g_star] + [g for r in lanes for g in (r.g, r.g_star)]
    for buf in (ws.p, ws.lo, ws.i, ws.wts, ws.v):
        assert not any(np.shares_memory(out, buf) for out in outs)


def _camera_outcome(canvas, pose, layout):
    """sample_camera's grid, g and g_star, or the type of what it raises."""
    try:
        grid, readout = sample_camera(canvas, pose, layout)
    except OutOfBoundsError as exc:
        return type(exc)
    return grid, readout.g, readout.g_star


def _camera_reference(canvas, pose, layout):
    """The same from sample_points over every world point, with
    ndarray.mean for the means."""
    try:
        vals = sample_points(canvas, simenv._to_world([pose], layout._pts)[:, 0])
    except OutOfBoundsError as exc:
        return type(exc)
    n = layout._n_cam
    g = 255.0 - vals[n:].reshape(6, -1).mean(axis=1)
    return vals[:n].reshape(8, 12, -1).mean(axis=2), g[:3], g[3:]


@st.composite
def camera_poses(draw, canvas, layout):
    """A pose within a pixel and a half of the pose-level test's boundary
    on one side, one anywhere from 5 cm off the canvas to 5 cm past it, or
    one with a NaN or infinite coordinate or heading."""
    h, w = canvas.raster.shape
    scale = canvas.scale
    m = layout._reach / scale + 1.0
    kind = draw(st.sampled_from(["left", "right", "bottom", "top", "anywhere", "non-finite"]))
    # pixel coordinates, inside the boundary on both axes
    px, py = draw(st.floats(m, w - 1.0 - m)), draw(st.floats(m, h - 1.0 - m))
    d = draw(st.one_of(st.just(0.0), st.floats(-1.5, 1.5)))
    if kind == "left":
        px = m + d
    elif kind == "right":
        px = w - 1.0 - m + d
    elif kind == "bottom":
        py = m + d
    elif kind == "top":
        py = h - 1.0 - m + d
    elif kind == "anywhere":
        px = draw(st.floats(-5.0 / scale, w + 5.0 / scale))
        py = draw(st.floats(-5.0 / scale, h + 5.0 / scale))
    pose = [(px + 0.5) * scale, (py + 0.5) * scale, draw(st.floats(-7.0, 7.0))]
    if kind == "non-finite":
        pose[draw(st.integers(0, 2))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    event(kind)
    return RobotPose(*pose)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_in_place_path_keeps_every_bit_of_sample_points(data):
    # one layout serves two canvases of different widths in alternation:
    # its workspace holds nothing of either canvas
    layout = SensorLayout(cam_supersample=data.draw(st.sampled_from([1, 3])))
    scale = data.draw(st.sampled_from([0.25, 0.3, 0.5]))
    side = int(2 * layout._reach / scale) + 4
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    widths = data.draw(st.lists(st.integers(side, side + 80), min_size=2, max_size=2,
                                unique=True))
    canvases = [Canvas(raster=rng.uniform(0.0, 256.0, (side + int(rng.integers(80)), w)),
                       scale=scale, start=(0.0, 0.0, 0.0), track_kind="random")
                for w in widths]
    returned = []
    for k in range(data.draw(st.integers(2, 8))):
        canvas = canvases[k % 2]
        pose = data.draw(camera_poses(canvas, layout))
        bounds_tested = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simenv, "sample_points",
                       lambda *a: bounds_tested.append(a) or sample_points(*a))
            got = _camera_outcome(canvas, pose, layout)
        want = _camera_reference(canvas, pose, layout)
        # only a pose in range of every edge skips the bounds test; a NaN
        # or infinite heading raises in the world transform, before either
        h, w = canvas.raster.shape
        m = layout._reach / scale + 1.0
        x, y = pose.x / scale - 0.5, pose.y / scale - 0.5
        in_place = m <= x <= w - 1.0 - m and m <= y <= h - 1.0 - m
        event("in place" if in_place else "bounds-tested")
        if math.isfinite(pose.theta):
            assert (not bounds_tested) == in_place
        else:
            assert got is OutOfBoundsError and not bounds_tested
        if isinstance(want, type):
            assert got is want
            continue
        assert not isinstance(got, type)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        returned.append((got, [a.tobytes() for a in got]))
    # no later call wrote into an array an earlier one returned
    for got, snapshot in returned:
        assert [a.tobytes() for a in got] == snapshot


def test_sensor_layout_validation():
    with pytest.raises(ConfigError):
        SensorLayout(ldr_lateral=(3.0, 2.0, 1.0))
    with pytest.raises(ConfigError):
        SensorLayout(ldr_fov_radius=0.0)
    with pytest.raises(ConfigError):
        SensorLayout(cam_supersample=0)
