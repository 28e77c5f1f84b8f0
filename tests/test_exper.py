import json
import math
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarbot import config as configlib
from sarbot import exper, netcore, simenv
from sarbot.errors import CalibrationError, ConfigError, NumericError
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
from sarbot.pgmio import read_pgm, read_weight_snapshot


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

    def unconditional(self, rule, e, kappa):
        for w, d in zip(self.weights, self.compute_update(rule, e, kappa)):
            w += d

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


def test_lost_line_aborts_cleanly():
    # a short dead-end track: the robot drives off the straight segment's end
    track = TrackSpec(kind="straight", params={"length": 30.0}, margin=40.0)
    cfg = replace(quick_cfg(rule=None, max_duration=120.0), track=track)
    rec = run_trial(cfg, loop_gain=5e-6)
    assert rec.aborted
    assert not rec.succeeded
    assert rec.abort_reason is not None
    assert any(ev["kind"] == "abort" for ev in rec.events)


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


def test_sim_params_validation():
    for bad in ({"dt": 0.0}, {"v0": 0.0}, {"wheel_base": 0.0}):
        with pytest.raises(ConfigError):
            SimParams(**bad)


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


def test_trial_artifacts_round_trip(tmp_path):
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
    img = read_pgm(tmp_path / "heatmap_layer1.pgm")
    assert img.shape == (13, 240)


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
