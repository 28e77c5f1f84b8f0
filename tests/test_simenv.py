import math

import numpy as np
import numpy.testing as npt
import pytest

from sarbot.errors import ConfigError, OutOfBoundsError
from sarbot.loop import ReflexConfig, control_error, motor_command, reflex_action, saturate
from sarbot.pgmio import read_pgm
from sarbot.signals import difference_signals
from sarbot.simenv import (
    Canvas,
    RobotPose,
    SensorLayout,
    load_canvas,
    make_track,
    sample_camera,
    sample_ldr,
    step,
)


def blank_canvas(side=60.0, value=255.0, scale=0.25):
    n = int(side / scale)
    return Canvas(
        raster=np.full((n, n), value),
        scale=scale,
        start=(side / 2, side / 2, 0.0),
        track_kind="blank",
        line_width=0.0,
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
    grid = sample_camera(canvas, pose, layout)
    npt.assert_allclose(grid, np.full((8, 12), 255.0), atol=1e-12)
    assert control_error(r, ReflexConfig()) == 0.0


def test_centered_robot_sees_symmetric_world():
    canvas = make_track("straight", {"length": 100.0})
    pose = RobotPose(canvas.start[0] + 10.0, canvas.start[1], 0.0)
    layout = SensorLayout()
    r = sample_ldr(canvas, pose, layout)
    assert control_error(r, ReflexConfig()) == 0.0
    grid = sample_camera(canvas, pose, layout)
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
    diff = difference_signals(sample_camera(canvas, pose, layout))
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
