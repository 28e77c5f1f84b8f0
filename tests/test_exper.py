import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sarbot import config as configlib
from sarbot import exper, netcore, simenv
from sarbot import loop as looplib
from sarbot.errors import CalibrationError, ConfigError, NumericError, OutOfBoundsError
from sarbot.exper import (
    SimParams,
    SuccessTracker,
    TrackSpec,
    TrialConfig,
    TrialRecord,
    moving_average,
    run_batch,
    run_trial,
    spike_episodes,
)
from sarbot.netcore import UpdateRule
from sarbot.pgmio import read_weight_snapshot


def quick_cfg(**kw):
    """Small, fast trial configuration on the default loop track."""
    base = configlib.to_trial_config(configlib.load_config())
    run = replace(base.run, max_duration=kw.pop("max_duration", 40.0))
    return replace(base, run=run, **kw)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def test_moving_average_constant_and_zero():
    dt = 0.05
    const = np.full(600, -3.0)
    npt.assert_allclose(moving_average(const, 25.0, dt), np.full(600, 3.0))
    zeros = np.zeros(600)
    npt.assert_array_equal(moving_average(zeros, 25.0, dt), zeros)


def test_moving_average_square_pulse_reaches_half():
    dt = 0.05
    w = int(25.0 / dt)
    e = np.concatenate([np.ones(w // 2), np.zeros(w)])
    ebar = moving_average(e, 25.0, dt)
    assert ebar[w - 1] == 0.5
    npt.assert_allclose(ebar[: w // 2], 1.0)


def test_moving_average_validation():
    with pytest.raises(ConfigError):
        moving_average(np.ones(5), 0.0, 0.05)


def fsum_window_means(e, w):
    a = np.abs(np.asarray(e, dtype=float))
    return [math.fsum(a[max(0, i - w + 1) : i + 1].tolist()) / min(i + 1, w)
            for i in range(a.size)]


@settings(max_examples=80, deadline=None)
@given(
    e=st.one_of(
        st.lists(st.floats(-1e150, 1e150), max_size=120),
        st.lists(st.sampled_from([0.0, -0.0, 0.1, 3.0, -1e-300, 1e100, 2.0**-1074]),
                 max_size=120),
        st.builds(lambda v, n: [v] * n, st.floats(-1e150, 1e150), st.integers(0, 120)),
    ),
    w=st.integers(1, 40),
)
def test_moving_average_is_the_fsum_of_each_window(e, w):
    got = moving_average(e, w * 0.05, 0.05)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in fsum_window_means(e, w)]


_SUBNORMAL_MAX = 2.0**-1022 - 2.0**-1074


@settings(max_examples=60, deadline=None)
@given(
    w=st.integers(1, 600),
    samples=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(-_SUBNORMAL_MAX, _SUBNORMAL_MAX),  # subnormals
            st.floats(-1e300, 1e300),
            st.sampled_from([2.0**-1074, 1e300, -1e300, 1.0, 0.1]),
        ),
        min_size=1, max_size=900,
    ),
)
def test_each_trailing_mean_is_the_fsum_of_its_window(w, samples):
    trailing = exper.TrailingMean(w)
    for i, x in enumerate(samples):
        window = samples[max(0, i - w + 1) : i + 1]
        assert trailing.push(x).hex() == (math.fsum(window) / len(window)).hex()


def test_moving_average_rejects_non_finite_samples():
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError):
            moving_average([1.0, bad, 2.0], 0.1, 0.05)


def test_error_integral_examples():
    cfg = quick_cfg(max_duration=20.0)
    rec = run_trial(cfg, loop_gain=5.0e-6)
    expect = math.fsum(np.abs(rec.e).tolist()) * cfg.sim.dt
    assert expect > 0
    assert math.isclose(rec.error_integral, expect, rel_tol=1e-12)


def test_spike_episode_detection_and_merging():
    dt = 0.05
    e = np.zeros(400)
    e[20:30] = 50.0
    e[40:45] = -30.0  # within 2 s of previous -> merged
    e[200:210] = 10.0
    eps = spike_episodes(e, dt, height=2.0, merge_gap=2.0)
    assert len(eps) == 2
    npt.assert_allclose(eps[0], (1.0, 2.2))
    npt.assert_allclose(eps[1], (10.0, 10.45))
    assert spike_episodes(np.zeros(100), dt) == []


# ----------------------------------------------------------------------
# success tracking
# ----------------------------------------------------------------------


def test_success_tracker_warmup_excludes_early_quiet():
    tr = SuccessTracker(threshold=0.1, warmup=12.0, window=25.0)
    t = 0.0
    while t < 11.9:
        assert not tr.update(t, 0.0)
        t += 0.05
    assert tr.candidate is None


def test_success_tracker_candidate_reset_on_violation():
    tr = SuccessTracker(threshold=0.1, warmup=0.0, window=5.0)
    confirmed_at = None
    # run past 8.1 s: the first quiet tick after the violation is 3.1 s, and
    # a full 5 s window from there ends at 8.1 s
    for i in range(90):
        t = round(i * 0.1, 10)
        if tr.update(t, 0.05) and confirmed_at is None:
            confirmed_at = t
        if i == 30:
            tr.update(3.05, 0.5)  # violation resets
    # candidate was reset at the violation: nothing confirms from the quiet
    # stretch before it, and success dates from the first tick after it
    assert confirmed_at is not None and confirmed_at >= 8.1
    assert tr.confirmed == 3.1


def test_success_tracker_requires_full_confirmation_window():
    tr = SuccessTracker(threshold=0.1, warmup=0.0, window=5.0)
    confirmed = False
    for i in range(49):
        confirmed = tr.update(i * 0.1, 0.01)
    assert not confirmed  # 4.8 s below threshold is not yet a full window
    assert tr.update(5.0, 0.01)
    assert tr.confirmed == 0.0


# ----------------------------------------------------------------------
# trials
# ----------------------------------------------------------------------


def test_reflex_only_trial_never_succeeds_and_spikes_at_bends():
    cfg = quick_cfg(rule=None, max_duration=60.0)
    rec = run_trial(cfg, loop_gain=5e-6)
    assert not rec.succeeded
    assert not rec.aborted
    assert len(spike_episodes(rec.e, cfg.sim.dt)) >= 3
    # between bends the dead band keeps the error exactly at zero
    assert np.mean(rec.e == 0.0) > 0.3


def test_trial_records_are_consistent():
    cfg = quick_cfg(rule=UpdateRule("sar", math.e**-1), max_duration=30.0)
    rec = run_trial(cfg, loop_gain=5e-6)
    n = rec.t.size
    assert all(arr.size == n for arr in (rec.e, rec.ebar, rec.a_r, rec.a_p, rec.mc, rec.kappa))
    npt.assert_array_equal(rec.mc, rec.a_r + rec.a_p)  # exact decomposition
    npt.assert_array_equal(rec.kappa, 2.0 * rec.e * 5e-6)
    npt.assert_allclose(rec.ebar, moving_average(rec.e, cfg.run.window, cfg.sim.dt))
    assert rec.distances.shape[1] == 11
    assert rec.distance_t[-1] == rec.t[-1]


def test_trial_determinism_bitwise():
    cfg = quick_cfg(rule=UpdateRule("sar", 0.1), max_duration=25.0)
    a = run_trial(cfg, loop_gain=5e-6)
    b = run_trial(cfg, loop_gain=5e-6)
    for name in ("t", "e", "ebar", "a_r", "a_p", "mc", "kappa"):
        npt.assert_array_equal(getattr(a, name), getattr(b, name))
    for wa, wb in zip(a.network.weights, b.network.weights):
        npt.assert_array_equal(wa, wb)


@pytest.mark.parametrize("kind", ["gdm", "localprop", "sar"])
def test_skipping_zero_kappa_updates_changes_no_bit(kind, monkeypatch):
    cfg = quick_cfg(rule=UpdateRule(kind, math.e**-1), max_duration=40.0, seed=3)
    gated = run_trial(cfg, loop_gain=5e-6)
    rows = []  # every layer's distance after every tick

    def unconditional(self, rule, e, kappa):
        for w, d in zip(self.weights, self.compute_update(rule, e, kappa)):
            w += d
        rows.append([self.euclidean_distance(l) for l in range(1, self.n_layers + 1)])

    monkeypatch.setattr(netcore.Network, "apply_update", unconditional)
    full = run_trial(cfg, loop_gain=5e-6)
    assert 0 < np.count_nonzero(gated.kappa) < gated.kappa.size
    assert gated.distances[-1].max() > 0
    for f in fields(TrialRecord):
        a, b = getattr(gated, f.name), getattr(full, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
    for wa, wb in zip(gated.network.weights, full.network.weights, strict=True):
        assert wa.tobytes() == wb.tobytes()
    # the snapshots, which skip the recomputation after kappa = 0 ticks,
    # equal the distances recomputed on every tick: one every
    # distance_interval and one on the last tick
    ticks = len(gated.t)
    snaps = list(range(0, ticks, round(cfg.run.distance_interval / cfg.sim.dt)))
    snaps += [ticks - 1] if snaps[-1] != ticks - 1 else []
    assert gated.distance_t.tobytes() == gated.t[snaps].tobytes()
    assert gated.distances.tobytes() == np.array([rows[i] for i in snaps]).tobytes()


def test_sensors_are_read_by_one_call_per_tick(monkeypatch):
    # the benchmark's tick clock counts simenv.sample_camera calls as ticks:
    # the trial loop must make exactly one per tick and read the ground
    # sensors through it, and the calibration probe must not call it
    calls = dict.fromkeys(("sample_camera", "sample_ldr"), 0)
    for name in calls:
        def counted(*args, _orig=getattr(simenv, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(simenv, name, counted)
    rec = run_trial(quick_cfg(rule=UpdateRule("sar", math.e**-1), max_duration=10.0),
                    loop_gain=5e-6)
    assert not rec.aborted
    assert calls == {"sample_camera": len(rec.t), "sample_ldr": 0}
    calls.update(sample_camera=0, sample_ldr=0)
    exper.calibrate(quick_cfg(rule=None))
    assert calls["sample_camera"] == 0 and calls["sample_ldr"] > 0


@pytest.mark.parametrize("margin, reason, t_abort", [
    (10.0, "sample point outside the canvas", 4.05),
    (40.0, "line lost from camera view", 9.0),
], ids=["off-canvas", "line-lost"])
def test_each_abort_reason_ends_the_trial_once(margin, reason, t_abort):
    # a short dead-end track: the robot drives off the straight segment's
    # end, and the margin decides whether the camera first leaves the canvas
    # or first loses the line
    track = TrackSpec(kind="straight", params={"length": 30.0}, margin=margin)
    cfg = replace(quick_cfg(rule=None, max_duration=60.0), track=track)
    rec = run_trial(cfg, loop_gain=5e-6)
    assert rec.aborted and not rec.succeeded
    assert rec.abort_reason == reason
    assert rec.duration == pytest.approx(t_abort)
    aborts = [ev for ev in rec.events if ev["kind"] == "abort"]
    assert aborts == [{"kind": "abort", "t": rec.duration, "reason": reason}]
    # the tick the trial aborted on has no row
    assert rec.t.size == round(rec.duration / cfg.sim.dt)
    assert rec.t[-1] < rec.duration


def test_trial_shorter_than_a_tick_records_one_tick():
    rec = run_trial(quick_cfg(max_duration=0.02), loop_gain=5e-6)
    assert rec.t.tolist() == [0.0]
    assert rec.distance_t.tolist() == [0.0]
    assert rec.duration == 0.05


def test_counts_beyond_the_trial_act_as_the_trial_length():
    # 1e300 s at dt = 1e-10 overflows a tick count; clamped to the trial's
    # 10 ticks, each count gives the record of one of the trial's length
    sim = SimParams(dt=1e-10)
    cfg = replace(quick_cfg(max_duration=1e-9), sim=sim)
    huge = replace(cfg, run=replace(cfg.run, window=1e300, distance_interval=1e300,
                                    lost_line_timeout=1e300))
    fit = replace(cfg, run=replace(cfg.run, window=1e-9, distance_interval=1e-9,
                                   lost_line_timeout=1e-9))
    a, b = (run_trial(c, loop_gain=5e-6) for c in (huge, fit))
    assert a.t.size == 10 and not a.aborted
    for name in ("t", "e", "ebar", "a_p", "kappa", "distance_t", "distances"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_set_up_calibrates_only_without_a_loop_gain():
    cfg = quick_cfg(max_duration=1.0)
    probe = exper.calibrate(cfg)
    got, canvas, net, filters, event = exper.set_up(cfg)
    assert got.reflex.loop_gain == probe.loop_gain and cfg.reflex.loop_gain is None
    assert event == {"kind": "calibration", "t": 0.0, "loop_gain": probe.loop_gain,
                     "plant_gain": probe.plant_gain}
    assert run_trial(cfg, canvas=canvas).events[0] == event
    again = exper.set_up(got, canvas)
    assert again[0] is got and again[1] is canvas and again[4] is None
    assert [w.tobytes() for w in again[2].weights] == [w.tobytes() for w in net.weights]


def test_each_trial_builds_its_network_and_filter_bank_once(monkeypatch):
    calls = dict.fromkeys(("build", "filters", "calibrate"), 0)

    def counting(name, orig):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(exper.NetParams, "build", counting("build", exper.NetParams.build))
    monkeypatch.setattr(exper.signals, "FilterArray",
                        counting("filters", exper.signals.FilterArray))
    monkeypatch.setattr(exper, "calibrate", counting("calibrate", exper.calibrate))
    run_trial(quick_cfg(max_duration=1.0))
    assert calls == {"build": 1, "filters": 1, "calibrate": 1}
    calls.update(build=0, filters=0, calibrate=0)
    # one set-up for the batch, which calibrates once, then one per trial
    run_batch(quick_cfg(max_duration=1.0), rules=["sar", "gdm"], etas=[0.1], seeds=[1, 2])
    assert calls == {"build": 5, "filters": 5, "calibrate": 1}


def test_poses_chain_through_the_saturated_step():
    # every recorded pose is the previous one stepped under the actuated
    # (clipped) MC, bit for bit; a lowered limit makes most ticks clip
    cfg = quick_cfg(rule=UpdateRule("sar", math.e**-1), max_duration=30.0)
    cfg = replace(cfg, reflex=replace(cfg.reflex, mc_limit=3.0))
    rec = run_trial(cfg, loop_gain=5e-6)
    assert not rec.aborted and rec.saturated_ticks > 0
    for name in ("t", "e", "ebar", "a_r", "a_p", "mc", "kappa", "pose_x", "pose_y",
                 "pose_theta"):
        col = getattr(rec, name)
        assert col.dtype == np.float64 and col.flags.c_contiguous, name
        assert col.shape == rec.t.shape
    poses = list(zip(rec.pose_x.tolist(), rec.pose_y.tolist(), rec.pose_theta.tolist()))
    pose = cfg.sim.start_pose(cfg.track.build())
    assert poses[0] == (pose.x, pose.y, pose.theta)
    for (x, y, theta), mc, recorded in zip(poses, rec.mc.tolist(), poses[1:]):
        actuated = min(max(mc, -3.0), 3.0)
        pose = simenv.step(replace(pose, x=x, y=y, theta=theta), actuated,
                           cfg.sim.dt, cfg.sim.integrator)
        assert (pose.x, pose.y, pose.theta) == recorded


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------


def test_calibrate_measures_negative_plant_gain():
    cfg = quick_cfg(rule=None)
    res = exper.calibrate(cfg)
    assert res.plant_gain < 0  # steering left pushes the error negative
    assert res.loop_gain > 0
    npt.assert_allclose(abs(res.loop_gain), cfg.loop_gain_magnitude)


def test_calibrate_measured_magnitude_mode():
    cfg = quick_cfg(rule=None)
    res = exper.calibrate(cfg, use_measured_magnitude=True)
    npt.assert_allclose(abs(res.loop_gain), abs(res.plant_gain))
    assert res.magnitude_source == "measured"


def test_calibrate_zero_reflex_gain_still_finite():
    cfg = quick_cfg(rule=None)
    cfg = replace(cfg, reflex=replace(cfg.reflex, reflex_gain=0.0))
    res = exper.calibrate(cfg)
    assert np.isfinite(res.plant_gain)
    assert res.plant_gain != 0.0


def test_calibrate_stronger_reflex_shrinks_measured_gain():
    cfg = quick_cfg(rule=None)
    weak = exper.calibrate(replace(cfg, reflex=replace(cfg.reflex, reflex_gain=0.04)))
    strong = exper.calibrate(replace(cfg, reflex=replace(cfg.reflex, reflex_gain=0.08)))
    assert abs(strong.plant_gain) < abs(weak.plant_gain)


# Reference: one probe run alone, the per-run loop calibrate ran before its
# two runs became lanes of one loop.


def _ref_probe_mean_error(cfg, canvas, a_p):
    pose = cfg.sim.start_pose(canvas)
    first = int(round(exper.PROBE_SETTLE / cfg.sim.dt))
    total = int(round((exper.PROBE_SETTLE + exper.PROBE_MEASURE) / cfg.sim.dt))
    acc = 0.0
    for i in range(total):
        readout = simenv.sample_ldr(canvas, [pose], cfg.layout)[0]
        e, _, _, _, pose = exper._reflex_step(readout, a_p, cfg.reflex, pose, cfg.sim)
        if i >= first:
            acc += e
    return acc / (total - first)


@st.composite
def probe_configs(draw):
    """The reference config with the reflex, the ground-sensor layout and the
    track's look drawn; narrow margins and negative reflex gains send some
    probe runs off the canvas, and weak contrast leaves some unmeasurable."""
    cfg = quick_cfg(rule=None)
    k1 = draw(st.floats(0.1, 3.0))
    k2 = k1 + draw(st.floats(0.1, 3.0))
    k3 = k2 + draw(st.floats(0.1, 3.0))
    reflex = replace(cfg.reflex, reflex_gain=draw(st.floats(-0.02, 0.3)), k=(k1, k2, k3))
    l1 = draw(st.floats(0.5, 6.0))
    l2 = l1 + draw(st.floats(0.1, 3.0))
    l3 = l2 + draw(st.floats(0.1, 3.0))
    layout = simenv.SensorLayout(ldr_lateral=(l1, l2, l3),
                                 ldr_fov_radius=draw(st.floats(0.2, 2.5)))
    path_value = draw(st.floats(0.0, 250.0))
    track = replace(cfg.track, width=draw(st.floats(0.5, 5.0)),
                    margin=draw(st.floats(8.0, 40.0)), path_value=path_value,
                    bg_value=draw(st.floats(path_value, 255.99, exclude_min=True)))
    return replace(cfg, reflex=reflex, layout=layout, track=track)


@settings(max_examples=60, deadline=None)
@given(probe_configs())
def test_probe_lanes_keep_the_bits_of_runs_alone(cfg):
    # the probe's straight track, as calibrate builds it
    length = cfg.sim.v0 * (exper.PROBE_SETTLE + exper.PROBE_MEASURE) * 1.5 + 20.0
    canvas = replace(cfg.track, kind="straight", params={"length": length}).build()
    try:
        e_plus = _ref_probe_mean_error(cfg, canvas, +exper.PROBE_AMPLITUDE)
        e_minus = _ref_probe_mean_error(cfg, canvas, -exper.PROBE_AMPLITUDE)
    except OutOfBoundsError:
        event("a run leaves the canvas")
        with pytest.raises(CalibrationError, match=_left_the_canvas(cfg)):
            exper.calibrate(cfg)
        return
    plant_gain = looplib.estimate_loop_gain(e_plus, e_minus, exper.PROBE_AMPLITUDE)
    if not abs(e_plus - e_minus) >= exper.MIN_PROBE_RESPONSE:
        event("no measurable response")
        with pytest.raises(CalibrationError, match="^probe produced no measurable"):
            exper.calibrate(cfg)
        return
    event("calibrated")
    for measured in (False, True):
        res = exper.calibrate(cfg, use_measured_magnitude=measured)
        magnitude = abs(plant_gain) if measured else cfg.loop_gain_magnitude
        assert res.plant_gain.hex() == plant_gain.hex()
        assert res.loop_gain.hex() == (-math.copysign(magnitude, plant_gain)).hex()


def _left_the_canvas(cfg):
    """The whole message of a probe that left the canvas: it names the
    margin that the probe's straight track takes from the trial."""
    return re.escape(f"probe left the canvas: sample point outside the canvas; its "
                     f"straight track spans 2 * track.margin across; got track.margin: "
                     f"{cfg.track.margin!r}") + "$"


def test_a_probe_on_a_5_cm_margin_leaves_the_canvas():
    # the ground sensors reach 8.08 cm, but the probe drifts off the line
    # under A_P = +/-0.2: it fails at 5 cm and succeeds at 15 cm
    cfg = quick_cfg(rule=None)
    cfg = replace(cfg, track=replace(cfg.track, margin=5.0))
    with pytest.raises(CalibrationError, match=_left_the_canvas(cfg)):
        exper.calibrate(cfg)
    exper.calibrate(replace(cfg, track=replace(cfg.track, margin=15.0)))


def test_sim_params_validation():
    for bad in ({"dt": 0.0}, {"v0": 0.0}, {"wheel_base": 0.0}):
        with pytest.raises(ConfigError):
            SimParams(**bad)


@pytest.mark.parametrize("bad", [
    {"lost_line_timeout": 0.0}, {"lost_line_timeout": -1.0}, {"grace": -1.0},
    {"distance_interval": 0.0}, {"distance_interval": -0.5},
    {"lost_line_timeout": math.nan}, {"grace": math.nan}, {"distance_interval": math.nan},
], ids=lambda bad: f"{next(iter(bad))}={next(iter(bad.values()))}")
def test_run_params_reject_what_the_config_table_rejects(bad):
    # a lost-line timeout of -1 s used to abort a trial at t = 0 with no
    # tick, for "line lost from camera view" while the line was in view
    with pytest.raises(ConfigError):
        exper.RunParams(max_duration=5.0, **bad)
    exper.RunParams(max_duration=5.0, grace=0.0)


def test_background_above_255_runs():
    # a background lighter than 255 makes G = 255 - GSV negative; the trial
    # and the probe must accept such readings
    cfg = quick_cfg(max_duration=20.0, track=TrackSpec(bg_value=255.5))
    assert np.isfinite(exper.calibrate(cfg).plant_gain)
    rec = run_trial(cfg, loop_gain=5.0e-6)
    assert not rec.aborted
    assert rec.duration == pytest.approx(20.0)


def test_calibrate_probe_failure_raises():
    # a world of 0.1 GSV contrast responds with far less than one gray level
    cfg = quick_cfg(rule=None)
    cfg = replace(cfg, track=replace(cfg.track, path_value=254.9, bg_value=255.0))
    with pytest.raises(CalibrationError):
        exper.calibrate(cfg)


# ----------------------------------------------------------------------
# batches and artifacts
# ----------------------------------------------------------------------


def test_batch_structure_censoring_and_seed_matching(tmp_path):
    cfg = quick_cfg(max_duration=30.0)
    res = run_batch(cfg, rules=["sar", "gdm"], etas=[0.1], seeds=[1, 2], out_dir=tmp_path)
    assert len(res.rows) == 4
    assert {r["rule"] for r in res.rows} == {"sar", "gdm"}
    for row in res.rows:
        assert row["censored"] == (not row["succeeded"])
        if row["censored"]:
            assert row["success_time"] == 30.0
    assert len(res.summary) == 2
    assert (tmp_path / "trials" / "sar-eta0.1-seed1" / "trace.csv").exists()


def test_batch_is_permutation_invariant_in_seed_order():
    cfg = quick_cfg(max_duration=20.0)
    a = run_batch(cfg, rules=["sar"], etas=[0.1], seeds=[1, 2, 3])
    b = run_batch(cfg, rules=["sar"], etas=[0.1], seeds=[3, 1, 2])
    sa = {(r["seed"]): r for r in a.rows}
    sb = {(r["seed"]): r for r in b.rows}
    assert sa == sb
    assert a.summary == b.summary


def test_batch_builds_the_canvas_once(monkeypatch):
    calls = []
    make_track = simenv.make_track

    def counting(*args, **kwargs):
        calls.append(args[0])
        return make_track(*args, **kwargs)

    monkeypatch.setattr(simenv, "make_track", counting)
    cfg = quick_cfg(max_duration=2.0)
    cfg = replace(cfg, reflex=replace(cfg.reflex, loop_gain=5e-6))
    run_batch(cfg, rules=["sar", "gdm"], etas=[0.1], seeds=[1, 2])
    assert calls == ["rounded_rect"]


def test_batch_rejects_bad_rules():
    cfg = quick_cfg()
    with pytest.raises(ConfigError):
        run_batch(cfg, rules=["sgd"], etas=[0.1], seeds=[1])
    with pytest.raises(ConfigError):
        run_batch(cfg, rules=["sar"], etas=[0.1], seeds=[])


def test_batch_rejects_an_empty_rule_or_eta_list():
    cfg = quick_cfg()
    for rules, etas in (([], [0.1]), (["sar"], [])):
        with pytest.raises(ConfigError, match="at least one rule, one eta and one seed"):
            run_batch(cfg, rules=rules, etas=etas, seeds=[1])


def test_batch_csvs_take_their_columns_from_the_rows(tmp_path):
    cfg = replace(quick_cfg(max_duration=1.0),
                  reflex=replace(quick_cfg().reflex, loop_gain=5e-6))
    result = run_batch(cfg, rules=["sar"], etas=[0.1], seeds=[1])
    exper.write_batch_artifacts(result, tmp_path)
    trials = (tmp_path / "trials.csv").read_text().splitlines()
    assert trials[0] == ("rule,eta,seed,succeeded,aborted,censored,success_time,"
                         "error_integral,final_dist_l1,duration,saturated_ticks")
    assert trials[1].startswith("sar,0.1,1,False,False,True,1,")
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == ("rule,eta,n,n_success,n_abort,success_time_q25,"
                          "success_time_median,success_time_q75,error_integral_q25,"
                          "error_integral_median,error_integral_q75,final_dist_l1_median")
    assert summary[1].startswith("sar,0.1,1,0,0,1,1,1,")


def test_trial_artifacts_round_trip(tmp_path, pgm_pixels):
    cfg = quick_cfg(rule=UpdateRule("sar", 0.1), max_duration=20.0)
    rec = run_trial(cfg, loop_gain=5e-6)
    exper.write_trial_artifacts(rec, tmp_path, config_hash="abc123")
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,E,Ebar,A_R,A_P,MC,kappa"
    assert len(trace) == rec.t.size + 1
    dist = (tmp_path / "distances.csv").read_text().splitlines()
    assert dist[0] == "t," + ",".join(f"l{i}" for i in range(1, 12))
    meta = json.loads((tmp_path / "record.json").read_text())
    assert meta["config_hash"] == "abc123"
    assert meta["ticks"] == rec.t.size
    mats = read_weight_snapshot(tmp_path / "weights.txt")
    assert [m.shape for m in mats] == [w.shape for w in rec.network.weights]
    npt.assert_array_equal(mats[0], rec.network.weights[0])
    img = pgm_pixels(tmp_path / "heatmap_layer1.pgm")
    assert img.shape == (13, 240)


@pytest.mark.parametrize("text, message", [
    ("layer 1 rows x cols 2\n1 2\n", "bad snapshot header at line 1"),
    ("layer 1 rows 1 cols 2.5\n1 2\n", "bad snapshot header at line 1"),
    ("layer 1 rows 1 cols 2\n1 2\nlayer 2 rows 2 cols 1\n3\nabc\n",
     "a value that is not a number at line 5"),
    ("layer 1 rows 0 cols 2\n", "bad snapshot header at line 1"),
    ("layer 1 rows -1 cols 2\n1 2\n", "bad snapshot header at line 1"),
    ("layer 1 rows 2 cols 2\n1 2\n3\n", "matrix shape mismatch at line 3"),
], ids=["rows-not-integer", "cols-not-integer", "value-not-a-number", "zero-rows",
        "negative-rows", "short-row"])
def test_a_malformed_weight_snapshot_names_its_file_and_line(tmp_path, text, message):
    path = tmp_path / "weights.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"weights\.txt: {message}$"):
        read_weight_snapshot(path)


def test_first_layer_heatmap_reorders_blocks_nearest_right():
    cfg = quick_cfg(rule=None, max_duration=1.0)
    rec = run_trial(cfg, loop_gain=5e-6)
    net = rec.network
    # paint camera-row blocks with increasing magnitude: near row 0 smallest
    for r in range(8):
        net.weights[0][:, r * 30 : (r + 1) * 30] = float(r + 1)
    img = exper.first_layer_heatmap_image(net)
    # the nearest (smallest, whitest) row lands in the rightmost block and
    # the farthest (largest, darkest) leftmost, so block means increase
    blocks = [img[:, b * 30 : (b + 1) * 30].mean() for b in range(8)]
    assert blocks == sorted(blocks)
    assert blocks[0] == 0.0 and blocks[-1] == 255.0
