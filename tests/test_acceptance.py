"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The closed-loop criteria (5-7) run seeded batches on the default loop track
and take a few minutes; everything else is fast. Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines as they complete.
"""

import copy
import math
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import yaml
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sarbot import cli
from sarbot import config as configlib
from sarbot import exper, loop, signals, simenv
from sarbot.netcore import GDM, LOCALPROP, SAR, UpdateRule, init_weights
from sarbot.pgmio import write_pgm

SEEDS = list(range(1, 11))


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def default_trial_config():
    return configlib.to_trial_config(configlib.load_config())


# ----------------------------------------------------------------------
# criterion 1: gradient oracle
# ----------------------------------------------------------------------


def forward_from_v(net, layer, v_vec):
    act = {"tanh": np.tanh, "linear": lambda x: x}
    x = act[net.activations[layer]](v_vec)
    for l in range(layer + 1, net.n_layers):
        x = act[net.activations[l]](net.weights[l] @ x)
    return float(net.m @ x)


def test_criterion_01_gradient_oracle():
    start = time.perf_counter()
    h = 1e-5
    checked = 0
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        depth = int(rng.integers(2, 5))
        sizes = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
        net = init_weights(
            sizes,
            ["tanh"] * (len(sizes) - 1),
            seed=seed,
            w0=0.8,
            output_weighting=rng.uniform(-2, 2, sizes[-1]),
        )
        net.forward(rng.uniform(-1, 1, sizes[0]))
        delta = net.backprop_delta()
        for l in range(net.n_layers):
            v = net.v[l]
            for i in range(v.size):
                vp, vm = v.copy(), v.copy()
                vp[i] += h
                vm[i] -= h
                fd = (forward_from_v(net, l, vp) - forward_from_v(net, l, vm)) / (
                    2 * h
                )
                scale = max(abs(fd), abs(delta[l][i]), 1e-10)
                worst = max(worst, abs(fd - delta[l][i]) / scale)
                checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    report(
        1,
        ok,
        f"backprop delta vs central differences on 50 nets ({checked} entries), "
        f"worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# criterion 2: sign-chain equivalence
# ----------------------------------------------------------------------


def test_criterion_02_sign_chain_equivalence():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for trial in range(200):
        depth = int(rng.integers(2, 7))
        net = init_weights(
            [1] * (depth + 1),
            ["tanh"] * depth,
            seed=trial,
            w0=1.0,
            output_weighting=[float(rng.choice([-1.5, 1.0, 2.0]))],
        )
        if trial % 7 == 0:
            net.weights[int(rng.integers(0, depth))][:] = 0.0
        net.forward(rng.uniform(-1, 1, 1))
        e = float(rng.choice([-3.0, -0.4, 0.0, 0.4, 3.0]))
        signs = net.sign_prop(e)
        delta = net.backprop_delta()
        for s, d in zip(signs, delta):
            if not np.array_equal(s, np.sign(np.sign(e) * d)):
                mismatches += 1
    report(
        2,
        mismatches == 0,
        f"sign_prop equals sign(sign(E)*delta) exactly on 200 single-neuron chains "
        f"({mismatches} mismatching layers)",
    )


# ----------------------------------------------------------------------
# criterion 3: scaling immunity of the sign-and-relevance update
# ----------------------------------------------------------------------


def test_criterion_03_upper_layer_scaling_immunity():
    rng = np.random.default_rng(3)
    sar_exact = 0
    gdm_changed = 0
    total = 0
    for trial in range(100):
        depth = int(rng.integers(3, 6))  # need at least layers l+2..L to scale
        sizes = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
        net = init_weights(
            sizes,
            ["tanh"] * (len(sizes) - 1),
            seed=1000 + trial,
            w0=0.9,
            output_weighting=rng.uniform(-1, 1, sizes[-1]),
        )
        p = rng.uniform(-1, 1, sizes[0])
        e = float(rng.normal() + 0.1)
        kappa = 2.0 * e
        layer = 0  # first layer: scale layers 3..L (1-based l+2..L)
        net.forward(p)
        sar0 = net.compute_update(UpdateRule(SAR, 0.2), e, kappa)[layer]
        gdm0 = net.compute_update(UpdateRule(GDM, 0.2), e, kappa)[layer]
        for c in (0.1, 10.0):
            scaled = copy.deepcopy(net)
            for l in range(layer + 2, scaled.n_layers):
                scaled.weights[l] *= c
            scaled.forward(p)
            sar1 = scaled.compute_update(UpdateRule(SAR, 0.2), e, kappa)[layer]
            gdm1 = scaled.compute_update(UpdateRule(GDM, 0.2), e, kappa)[layer]
            total += 1
            sar_exact += np.array_equal(sar0, sar1)
            gdm_changed += np.abs(gdm1 - gdm0).max() > 0
    ok = sar_exact == total and gdm_changed == total
    report(
        3,
        ok,
        f"scaling upper layers by 0.1/10 left the sar first-layer update bitwise "
        f"unchanged in {sar_exact}/{total} cases and changed the gdm update in "
        f"{gdm_changed}/{total}",
    )


# ----------------------------------------------------------------------
# criterion 4: zero-error fixed point
# ----------------------------------------------------------------------


def test_criterion_04_zero_error_fixed_point():
    rng = np.random.default_rng(4)
    nonzero = 0
    for trial in range(50):
        sizes = [int(rng.integers(1, 8)) for _ in range(int(rng.integers(2, 6)))]
        if len(sizes) < 2:
            sizes.append(3)
        net = init_weights(
            sizes, ["tanh"] * (len(sizes) - 1), seed=trial, w0=1.0,
            output_weighting=rng.uniform(-2, 2, sizes[-1]),
        )
        net.forward(rng.uniform(-1, 1, sizes[0]))
        e = 0.0
        kappa = 2.0 * e * 5e-6
        for kind in (GDM, LOCALPROP, SAR):
            for d in net.compute_update(UpdateRule(kind, 0.5), e, kappa):
                if np.any(d != 0.0):
                    nonzero += 1
    report(
        4,
        nonzero == 0,
        f"E = 0 produced exactly zero weight deltas for all three rules on 50 "
        f"random states ({nonzero} nonzero layers)",
    )


# ----------------------------------------------------------------------
# criteria 5-7: closed-loop batches on the default track
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def low_eta_batch():
    cfg = default_trial_config()
    return exper.run_batch(
        cfg, rules=[GDM, LOCALPROP, SAR], etas=[math.e**-5], seeds=SEEDS, jobs=2
    )


@pytest.fixture(scope="module")
def high_eta_trials():
    cfg = default_trial_config()
    cfg = replace(cfg, run=replace(cfg.run, max_duration=400.0))
    lam = exper.calibrate(cfg).loop_gain
    records = {}
    for seed in SEEDS:
        trial_cfg = replace(cfg, seed=seed, rule=UpdateRule(SAR, math.e**-1))
        records[seed] = exper.run_trial(trial_cfg, loop_gain=lam)
    return records


def test_criterion_05_rule_ordering_at_low_eta(low_eta_batch):
    rows = {(r["rule"], r["seed"]): r for r in low_eta_batch.rows}
    med = {
        rule: {
            "time": float(np.median([rows[(rule, s)]["success_time"] for s in SEEDS])),
            "integral": float(
                np.median([rows[(rule, s)]["error_integral"] for s in SEEDS])
            ),
        }
        for rule in (GDM, LOCALPROP, SAR)
    }
    medians_ok = (
        med[SAR]["time"] < med[LOCALPROP]["time"] < med[GDM]["time"]
        and med[SAR]["integral"] < med[LOCALPROP]["integral"] < med[GDM]["integral"]
    )
    pairwise = {}
    for metric in ("success_time", "error_integral"):
        for a, b in ((SAR, LOCALPROP), (LOCALPROP, GDM)):
            wins = sum(rows[(a, s)][metric] < rows[(b, s)][metric] for s in SEEDS)
            pairwise[f"{a}<{b}:{metric}"] = wins
    pairwise_ok = all(v >= 7 for v in pairwise.values())
    report(
        5,
        medians_ok and pairwise_ok,
        "median success_time "
        f"{med[SAR]['time']:.0f} < {med[LOCALPROP]['time']:.0f} < {med[GDM]['time']:.0f} s, "
        "median error integral "
        f"{med[SAR]['integral']:.0f} < {med[LOCALPROP]['integral']:.0f} < "
        f"{med[GDM]['integral']:.0f}, pairwise wins {pairwise}",
    )


def test_criterion_06_one_shot_regime_at_high_eta(high_eta_trials):
    dt = default_trial_config().sim.dt
    good_seeds = 0
    details = []
    for seed, rec in high_eta_trials.items():
        episodes = exper.spike_episodes(rec.e, dt, height=2.0, merge_gap=2.0)
        before = [
            ep for ep in episodes
            if rec.success_time is not None and ep[0] <= rec.success_time
        ]
        n = rec.t.size
        tail_ar = float(np.abs(rec.a_r[3 * n // 4 :]).max())
        ok = rec.succeeded and len(before) <= 2 and tail_ar < 1e-9
        good_seeds += ok
        details.append(f"s{seed}:{len(before)}spk,tailAR={tail_ar:.0e}")
    report(
        6,
        good_seeds >= 8,
        f"{good_seeds}/10 seeds showed <= 2 error episodes before sustained "
        f"quiet and exactly zero reflex action in the final quarter "
        f"({' '.join(details)})",
    )


def test_criterion_07_first_layer_distance_ordering():
    # matched learning rate of the weight-distance comparison: eta = e^-1
    cfg = default_trial_config()
    cfg = replace(cfg, run=replace(cfg.run, max_duration=400.0))
    batch = exper.run_batch(
        cfg, rules=[GDM, LOCALPROP, SAR], etas=[math.e**-1], seeds=SEEDS, jobs=2
    )
    rows = {(r["rule"], r["seed"]): r for r in batch.rows}
    med = {
        rule: float(np.median([rows[(rule, s)]["final_dist_l1"] for s in SEEDS]))
        for rule in (GDM, LOCALPROP, SAR)
    }
    ok = med[LOCALPROP] > med[SAR] > med[GDM]
    report(
        7,
        ok,
        f"median final first-layer distance localprop {med[LOCALPROP]:.3f} > "
        f"sar {med[SAR]:.3f} > gdm {med[GDM]:.3f}",
    )


# ----------------------------------------------------------------------
# criterion 8: full-pipeline antisymmetry
# ----------------------------------------------------------------------


def test_criterion_08_pipeline_antisymmetry_on_mirrored_world():
    cfg = default_trial_config()
    canvas = simenv.make_track("straight", {"length": 160.0})
    y0 = canvas.start[1]
    reflex = replace(cfg.reflex, loop_gain=5e-6)
    net_a = cfg.net.build(seed=7)
    net_b = cfg.net.build(seed=7)
    fa_a, fa_b = signals.FilterArray(), signals.FilterArray()
    offset, heading = 2.2, 0.06
    pose_a = simenv.RobotPose(canvas.start[0], y0 + offset, heading)
    pose_b = simenv.RobotPose(canvas.start[0], y0 - offset, -heading)
    worst = dict(e=0.0, c=0.0, p=0.0, mc=0.0)
    for _ in range(400):
        grid_a, readout_a = simenv.sample_camera(canvas, pose_a, cfg.layout)
        grid_b, readout_b = simenv.sample_camera(canvas, pose_b, cfg.layout)
        ca = signals.difference_signals(grid_a)
        cb = signals.difference_signals(grid_b)
        pa, pb = fa_a.step(ca), fa_b.step(cb)
        apa, apb = net_a.forward(pa), net_b.forward(pb)
        ea = loop.control_error(readout_a, reflex)
        eb = loop.control_error(readout_b, reflex)
        mca = loop.motor_command(loop.reflex_action(ea, reflex), apa)
        mcb = loop.motor_command(loop.reflex_action(eb, reflex), apb)
        worst["e"] = max(worst["e"], abs(ea + eb))
        worst["c"] = max(worst["c"], float(np.abs(ca + cb).max()))
        worst["p"] = max(worst["p"], float(np.abs(pa + pb).max()))
        worst["mc"] = max(worst["mc"], abs(mca + mcb))
        pose_a = simenv.step(pose_a, loop.saturate(mca, reflex.mc_limit)[0], cfg.sim.dt)
        pose_b = simenv.step(pose_b, loop.saturate(mcb, reflex.mc_limit)[0], cfg.sim.dt)
    ok = (
        worst["e"] <= 1.0
        and worst["c"] <= 1.0
        and worst["p"] <= 1.0
        and worst["mc"] <= 0.5
    )
    report(
        8,
        ok,
        "mirrored world negates the pipeline: max |E+E'| = "
        f"{worst['e']:.2e} GSV, |C+C'| = {worst['c']:.2e}, |P+P'| = "
        f"{worst['p']:.2e}, |MC+MC'| = {worst['mc']:.2e}",
    )


@st.composite
def mirrored_tracks(draw):
    """A track that is mirror-symmetric about a horizontal line y = c, and
    c. Every length is a whole number of quarter-centimetre pixels, so the
    axis and every pixel centre are exact."""
    quarter = lambda lo, hi: draw(st.integers(4 * lo, 4 * hi)) / 4.0
    margin = quarter(25, 40)
    kind = draw(st.sampled_from(["straight", "circle", "rounded_rect"]))
    if kind == "straight":
        canvas = simenv.make_track(kind, {"length": quarter(40, 200)}, margin=margin)
        c = canvas.start[1]
    elif kind == "circle":
        radius = quarter(20, 60)
        canvas = simenv.make_track(kind, {"radius": radius}, margin=margin)
        c = canvas.start[1] + radius
    else:
        rw, rh = quarter(60, 120), quarter(60, 120)
        right, left = quarter(3, 25), quarter(3, 25)  # bottom and top corners alike
        canvas = simenv.make_track(
            kind, {"rect_width": rw, "rect_height": rh, "radii": [right, right, left, left]},
            margin=margin)
        c = canvas.start[1] + rh / 2
    # the raster mirrors about c: row j onto row 2c / scale - 1 - j
    r = canvas.raster
    h = r.shape[0]
    k = 2.0 * c / canvas.scale - 1.0
    assert k == int(k)
    for j in range(h):
        mirror = int(k) - j
        assert np.array_equal(r[j], r[mirror]) if 0 <= mirror < h else (r[j] == 255.0).all()
    return kind, canvas, c


@settings(max_examples=100, deadline=None)
@given(mirrored_tracks(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_the_pipeline_is_antisymmetric_on_random_mirrored_tracks(track, seed, ticks):
    # criterion 8 over random poses on random mirror-symmetric tracks: the
    # mirrored pose (x, 2c - y, -theta) sees the mirrored scene, and grid,
    # predictors, forward and E negate within criterion 8's tolerances
    kind, canvas, c = track
    event(kind)
    cfg = default_trial_config()
    rng = np.random.default_rng(seed)
    net_a, net_b = cfg.net.build(seed=seed % 1000), cfg.net.build(seed=seed % 1000)
    fa_a, fa_b = signals.FilterArray(), signals.FilterArray()
    reflex = replace(cfg.reflex, loop_gain=5e-6)
    path = canvas.path
    for _ in range(ticks):
        # near the line: up to 4 cm off it, heading along it within 0.4 rad
        i = int(rng.integers(len(path) - 1))
        (x0, y0), (x1, y1) = path[i], path[i + 1]
        along = math.atan2(y1 - y0, x1 - x0)
        off = rng.uniform(-4.0, 4.0)
        x, y = x0 - off * math.sin(along), y0 + off * math.cos(along)
        theta = along + rng.uniform(-0.4, 0.4)
        pose_a = simenv.RobotPose(x, y, theta)
        pose_b = simenv.RobotPose(x, 2.0 * c - y, -theta)
        grid_a, readout_a = simenv.sample_camera(canvas, pose_a, cfg.layout)
        grid_b, readout_b = simenv.sample_camera(canvas, pose_b, cfg.layout)
        ca, cb = signals.difference_signals(grid_a), signals.difference_signals(grid_b)
        pa, pb = fa_a.step(ca), fa_b.step(cb)
        apa, apb = net_a.forward(pa), net_b.forward(pb)
        ea = loop.control_error(readout_a, reflex)
        eb = loop.control_error(readout_b, reflex)
        mca = loop.motor_command(loop.reflex_action(ea, reflex), apa)
        mcb = loop.motor_command(loop.reflex_action(eb, reflex), apb)
        assert float(np.abs(ca + cb).max()) <= 1.0
        assert float(np.abs(pa + pb).max()) <= 1.0
        assert abs(ea + eb) <= 1.0
        assert abs(mca + mcb) <= 0.5
    event("line seen" if grid_a.min() < 128.0 else "line not seen")


# ----------------------------------------------------------------------
# criterion 9: signal plumbing
# ----------------------------------------------------------------------


def test_criterion_09_signal_plumbing(tmp_path, pgm_pixels):
    rng = np.random.default_rng(9)
    fa = signals.FilterArray()
    lengths = {
        fa.step(rng.uniform(-200, 200, (8, 6))).size for _ in range(30)
    }
    frames_ok = lengths == {240}

    mapping = {
        signals.predictor_index(i, j, h)
        for i in range(8) for j in range(6) for h in range(5)
    }
    mapping_ok = mapping == set(range(240))

    net = default_trial_config().net.build(seed=1)
    for r in range(8):
        net.weights[0][:, r * 30 : (r + 1) * 30] = float(r + 1)
    img = exper.first_layer_heatmap_image(net)
    write_pgm(tmp_path / "hm.pgm", img)
    loaded = pgm_pixels(tmp_path / "hm.pgm")
    blocks = [loaded[:, b * 30 : (b + 1) * 30].mean() for b in range(8)]
    heatmap_ok = loaded.shape == (13, 240) and blocks == sorted(blocks)

    dt = 0.05
    w = int(25.0 / dt)
    pulse = np.concatenate([np.ones(w // 2), np.zeros(w)])
    pulse_ok = exper.moving_average(pulse, 25.0, dt)[w - 1] == 0.5
    const_ok = bool(
        np.all(exper.moving_average(np.full(2 * w, -4.2), 25.0, dt)[w:] == 4.2)
    )

    tracker = exper.SuccessTracker(threshold=0.1, warmup=12.0, window=25.0)
    early = any(tracker.update(t, 0.0) for t in np.arange(0, 11.9, 0.05))
    for t in np.arange(12.0, 38.0, 0.05):
        tracker.update(t, 0.05)
    success_ok = (not early) and tracker.confirmed == 12.0

    ok = frames_ok and mapping_ok and heatmap_ok and pulse_ok and const_ok and success_ok
    report(
        9,
        ok,
        f"predictor frames always 240-long ({frames_ok}), index map bijective "
        f"({mapping_ok}), 13x240 8-block heatmap PGM ({heatmap_ok}), square "
        f"pulse average 0.5 ({pulse_ok}), constant average |c| ({const_ok}), "
        f"success detection honors warmup/window ({success_ok})",
    )


# ----------------------------------------------------------------------
# criterion 10: byte-identical determinism
# ----------------------------------------------------------------------


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg_path = tmp_path / "det.yaml"
    cfg_path.write_text(
        yaml.safe_dump(
            {
                "rule": {"kind": "sar", "eta": float(math.e**-1)},
                "loop": {"loop_gain": 5.0e-6},
                "trial": {"max_duration": 40.0, "seed": 3},
            }
        )
    )
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["trial", "--config", str(cfg_path), "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_NO_SUCCESS)
        run_dir = next(out.iterdir())
        digests.append(
            tuple(
                (run_dir / f).read_bytes()
                for f in ("trace.csv", "distances.csv", "weights.txt")
            )
        )
    ok = digests[0] == digests[1]
    report(10, ok, "identical config and seed reproduce byte-identical trial CSVs")
