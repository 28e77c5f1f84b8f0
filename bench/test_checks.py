"""The benchmark's own tests: every output check passes on a real trial and
fails on a corrupted copy of it.

Run from the root of the repository:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sarbot import exper, pgmio  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import REFERENCE_S, TickClock, Tracer, reference_rate  # noqa: E402

DT = 0.05


@pytest.fixture(scope="module")
def trial():
    """A 60 s SAR trial at eta = e^-1 on the reference track."""
    setup = workloads.set_up(
        {"rule": {"eta": math.e**-1}, "trial": {"max_duration": 60.0}}, True)
    rec = exper.run_trial(setup.cfg, canvas=setup.canvas,
                          loop_gain=setup.cfg.reflex.loop_gain)
    return setup.cfg, rec


@pytest.fixture
def out_dir():
    """A temporary directory inside the checkout's benchmark output root."""
    (ROOT / "bench_out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=ROOT / "bench_out"))
    yield path
    shutil.rmtree(path)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # a benchmark run still uses it


def bumped(a, i):
    """Copy of ``a`` with entry ``i`` moved to the next float up."""
    a = np.array(a, dtype=float)
    a.flat[i] = np.nextafter(a.flat[i], np.inf)
    return a


def fails(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_common_checks_pass_on_a_real_trial(trial):
    cfg, rec = trial
    assert rec.t.size == 1200 and not rec.aborted
    workloads.common_checks(rec, cfg)


def test_complete_rejects_abort_and_short_arrays(trial):
    _, rec = trial
    fails(checks.check_complete, replace(rec, aborted=True, abort_reason="x"), DT)
    fails(checks.check_complete, replace(rec, kappa=rec.kappa[:-1]), DT)
    fails(checks.check_complete, replace(rec, t=bumped(rec.t, 7)), DT)


def test_motor_decomposition_rejects_one_ulp(trial):
    cfg, rec = trial
    gain = cfg.reflex.reflex_gain
    checks.check_motor_decomposition(rec, gain)
    i = int(np.argmax(np.abs(rec.e)))
    fails(checks.check_motor_decomposition, replace(rec, mc=bumped(rec.mc, i)), gain)
    fails(checks.check_motor_decomposition, replace(rec, a_r=bumped(rec.a_r, i)), gain)
    fails(checks.check_motor_decomposition, replace(rec, kappa=bumped(rec.kappa, i)), gain)


def test_ebar_rejects_a_wrong_mean(trial):
    _, rec = trial
    checks.check_ebar(rec, 500)
    ebar = rec.ebar.copy()
    ebar[700] += 1e-6
    fails(checks.check_ebar, replace(rec, ebar=ebar), 500)
    fails(checks.check_ebar, rec, 499)


def test_trailing_mean_matches_the_program():
    e = np.random.default_rng(0).normal(size=900)
    got = checks.trailing_mean(np.abs(e), 500)
    assert np.max(np.abs(got - exper.moving_average(e, 25.0, DT))) < 1e-12


def test_error_integral_rejects_a_wrong_sum(trial):
    _, rec = trial
    checks.check_error_integral(rec, DT)
    fails(checks.check_error_integral,
          replace(rec, error_integral=rec.error_integral * (1 + 1e-6)), DT)


def test_arc_steps_reject_a_moved_pose(trial):
    cfg, rec = trial
    args = (DT, cfg.sim.v0, cfg.sim.wheel_base, cfg.reflex.mc_limit)
    checks.check_arc_steps(rec, *args)
    x = rec.pose_x.copy()
    x[300] += 1e-6
    fails(checks.check_arc_steps, replace(rec, pose_x=x), *args)
    th = rec.pose_theta.copy()
    th[300] += 1e-6
    fails(checks.check_arc_steps, replace(rec, pose_theta=th), *args)


def test_frozen_distances_reject_movement_without_error(trial):
    _, rec = trial
    checks.check_frozen_distances(rec, DT)
    assert rec.distances[-1][0] > 0  # the trial did learn
    fails(checks.check_frozen_distances, replace(rec, kappa=np.zeros_like(rec.kappa)), DT)
    ticks = np.rint(rec.distance_t / DT).astype(int)
    quiet = [k for k in range(1, len(ticks))
             if not rec.kappa[ticks[k - 1] + 1 : ticks[k] + 1].any()]
    assert quiet
    fails(checks.check_frozen_distances,
          replace(rec, distances=bumped(rec.distances, quiet[-1] * rec.distances.shape[1])),
          DT)


def test_success_window():
    t = np.arange(2000) * DT
    ebar = np.where(t >= 40.0, 0.05, 1.0)
    ok = SimpleNamespace(t=t, ebar=ebar, succeeded=True, success_time=40.0)
    checks.check_success_window(ok, 0.1, 25.0)
    spike = ebar.copy()
    spike[int(60.0 / DT)] = 0.1
    fails(checks.check_success_window, replace_ns(ok, ebar=spike), 0.1, 25.0)
    fails(checks.check_success_window, replace_ns(ok, succeeded=False, success_time=None),
          0.1, 25.0)
    fails(checks.check_success_window, replace_ns(ok, t=t[:1200], ebar=ebar[:1200]),
          0.1, 25.0)


def replace_ns(ns, **changes):
    return SimpleNamespace(**{**vars(ns), **changes})


def test_layer1_distance_against_regenerated_weights(trial, out_dir):
    cfg, rec = trial
    path = out_dir / "weights.txt"
    pgmio.write_weight_snapshot(path, rec.network.weights)
    w0 = cfg.net.w0[0]
    checks.check_layer1_distance(rec, path, cfg.seed, w0)
    fails(checks.check_layer1_distance, rec, path, cfg.seed + 1, w0)
    dist = rec.distances.copy()
    dist[-1, 0] *= 1 + 1e-9
    fails(checks.check_layer1_distance, replace(rec, distances=dist), path, cfg.seed, w0)
    weights = [w.copy() for w in rec.network.weights]
    weights[0][3, 4] += 1e-3
    pgmio.write_weight_snapshot(path, weights)
    fails(checks.check_layer1_distance, rec, path, cfg.seed, w0)


def test_zero_distances():
    checks.check_zero_distances(SimpleNamespace(distances=np.zeros((4, 11))))
    fails(checks.check_zero_distances,
          SimpleNamespace(distances=bumped(np.zeros((4, 11)), 30)))


def test_centreline_distance():
    line = checks.spline_centreline(workloads.SPLINE_POINTS, workloads.SPLINE_SAMPLES,
                                    25.0)
    on = SimpleNamespace(pose_x=line[::7, 0], pose_y=line[::7, 1])
    checks.check_near_centreline(on, line, 3.0)
    off_y = on.pose_y.copy()
    off_y[100] += 3.5
    fails(checks.check_near_centreline, replace_ns(on, pose_y=off_y), line, 3.0)


def test_centreline_matches_the_program_track():
    params = {"points": workloads.SPLINE_POINTS, "samples_per_segment": 64}
    from sarbot import simenv
    canvas = simenv.make_track("spline", params, scale=1.0)
    line = checks.spline_centreline(workloads.SPLINE_POINTS, 64, 25.0)
    from scipy.spatial import cKDTree
    assert cKDTree(line).query(canvas.path)[0].max() < 1e-9


def test_batch_row(trial):
    _, rec = trial
    row = {"rule": rec.rule_kind, "seed": rec.seed, "succeeded": rec.succeeded,
           "aborted": rec.aborted, "error_integral": rec.error_integral,
           "duration": rec.duration, "final_dist_l1": float(rec.distances[-1][0])}
    checks.check_batch_row(row, rec)
    fails(checks.check_batch_row, {**row, "error_integral": row["error_integral"] + 1}, rec)
    fails(checks.check_batch_row, {**row, "seed": rec.seed + 1}, rec)


def test_record_digest_sees_one_ulp(trial):
    _, rec = trial
    assert checks.record_digest(rec) == checks.record_digest(replace(rec))
    assert checks.record_digest(rec) != checks.record_digest(
        replace(rec, a_p=bumped(rec.a_p, 5)))


def test_tracer_counts_self_time_and_restores():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Box.__dict__["outer"]
    tracer = Tracer()
    seen = []
    tracer.wrap(Box, "outer", "outer", per_tick=False, pause_inner=True,
                on_result=seen.append)
    tracer.wrap(Box, "inner", "inner")
    assert Box().outer() == 2 and seen == [2]
    # inner is per tick and runs inside a pausing wrapper: not recorded
    assert tracer.stats["outer"].calls == 1 and tracer.stats["inner"].calls == 0
    Box().inner()
    assert tracer.stats["inner"].calls == 1
    outer = tracer.stats["outer"]
    assert 0 <= outer.self_ns <= outer.ns
    tracer.restore()
    assert Box.__dict__["outer"] is original


def test_tick_clock_keeps_trials_apart_and_restores():
    def sample_camera():
        return "grid"

    def run_trial(n):
        return [package.simenv.sample_camera() for _ in range(n)]

    package = SimpleNamespace(simenv=SimpleNamespace(sample_camera=sample_camera),
                              exper=SimpleNamespace(run_trial=run_trial))
    with TickClock(package, ticks=10, reference=lambda: 0.5) as clock:
        assert package.exper.run_trial(35) == ["grid"] * 35
        package.exper.run_trial(20)
    # a stretch ends when the next one starts: of 35 ticks the clock times
    # three stretches and drops the last 5 ticks, of 20 ticks only the first 10
    assert [len(t) for t in clock.trials] == [3, 1]
    assert all(s >= 0 and r == 0.5 for t in clock.trials for s, r in t)
    assert clock.speed() == REFERENCE_S / 0.5
    assert package.simenv.sample_camera is sample_camera
    assert package.exper.run_trial is run_trial


def test_reference_rate_scales_each_trial_by_its_median_ratio():
    # a machine twice as slow doubles both times and leaves the rate alone
    fast = [(0.1, 1.0), (0.2, 1.0), (0.2, 2.0)]  # ratios 0.1, 0.2, 0.1
    slow = [(2 * s, 2 * r) for s, r in fast]
    assert reference_rate([fast], 100) == reference_rate([slow], 100)
    assert reference_rate([fast], 100) == pytest.approx(100 / (0.1 * REFERENCE_S))
    # two trials count with their own medians, weighted by their stretches
    other = [(0.4, 1.0)] * 6
    expected = 100 * 9 / (REFERENCE_S * (3 * 0.1 + 6 * 0.4))
    assert reference_rate([fast, other, []], 100) == pytest.approx(expected)
    assert reference_rate([], 100) == 0.0
