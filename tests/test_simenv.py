import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sarbot.errors import ConfigError, OutOfBoundsError
from sarbot.loop import ReflexConfig, control_error, motor_command, reflex_action, saturate
from sarbot.pgmio import read_pgm
from sarbot.signals import difference_signals
from sarbot.simenv import (
    Canvas,
    RobotPose,
    SensorLayout,
    _symmetric_disk,
    load_canvas,
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


def test_canvas_pgm_round_trip(tmp_path):
    canvas = make_track("circle", {"radius": 20.0}, margin=10.0)
    path = tmp_path / "track.pgm"
    canvas.save_pgm(path)
    loaded = load_canvas(path, canvas.scale, canvas.start)
    assert loaded.raster.shape == canvas.raster.shape
    assert np.abs(loaded.raster - canvas.raster).max() <= 0.5


# ----------------------------------------------------------------------
# sensors
# ----------------------------------------------------------------------


def test_uniform_canvas_reads_flat():
    canvas = blank_canvas()
    pose = RobotPose(*canvas.start)
    layout = SensorLayout()
    r = sample_ldr(canvas, pose, layout)
    npt.assert_allclose(np.concatenate([r.g, r.g_star]), np.zeros(6), atol=1e-12)
    grid, _ = sample_camera(canvas, pose, layout)
    npt.assert_allclose(grid, np.full((8, 12), 255.0), atol=1e-12)
    assert control_error(r, ReflexConfig()) == 0.0


def test_centered_robot_sees_symmetric_world():
    canvas = make_track("straight", {"length": 100.0})
    pose = RobotPose(canvas.start[0] + 10.0, canvas.start[1], 0.0)
    layout = SensorLayout()
    r = sample_ldr(canvas, pose, layout)
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
    e = control_error(sample_ldr(canvas, pose, layout), cfg)
    assert e < 0
    # closed loop: reflex must steer toward the line and shrink the offset.
    # Inside the sensors' dead band (about +/-2.5 cm) E = 0 and the robot
    # coasts, so the offset settles into a bounded oscillation around the
    # line; any single snapshot may sit near the band's edge.
    offset0 = abs(pose.y - y0)
    dt = 0.05
    commands, offsets = [], []
    for _ in range(100):
        e = control_error(sample_ldr(canvas, pose, layout), cfg)
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
        sample_ldr(canvas, RobotPose(10.0, 0.5, -math.pi / 2), layout)


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
            sample_ldr(canvas, pose, layout)
    else:
        readout = sample_ldr(canvas, pose, layout)
        assert np.concatenate([readout.g, readout.g_star]).tobytes() == ref_g.tobytes()


def test_points_on_the_first_and_last_pixel():
    # a point on pixel w - 1 or h - 1 reads its clamped +1 corner with
    # weight 0; a hair beyond the first or last pixel centre is off-canvas
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


def test_read_pgm_rejects_non_pgm(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ConfigError):
        read_pgm(p)


def test_sensor_layout_validation():
    with pytest.raises(ConfigError):
        SensorLayout(ldr_lateral=(3.0, 2.0, 1.0))
    with pytest.raises(ConfigError):
        SensorLayout(ldr_fov_radius=0.0)
    with pytest.raises(ConfigError):
        SensorLayout(cam_supersample=0)
