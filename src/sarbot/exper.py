"""Trial orchestration: closed-loop trials and the loop-gain calibration probe,
which share one reflex step; success metrics, seeded batches, artifact writers."""

from __future__ import annotations

import copy
import json
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import loop as looplib
from . import netcore, pgmio, signals, simenv
from .errors import CalibrationError, ConfigError, NumericError, OutOfBoundsError


@dataclass
class TrackSpec:
    kind: str = "rounded_rect"
    params: dict = field(
        default_factory=lambda: copy.deepcopy(simenv.TRACK_PARAMS["rounded_rect"]))
    width: float = 2.0
    scale: float = 0.25
    margin: float = 25.0
    path_value: float = 0.0
    bg_value: float = 255.0

    def build(self) -> simenv.Canvas:
        return simenv.make_track(
            self.kind,
            self.params,
            width=self.width,
            scale=self.scale,
            margin=self.margin,
            path_value=self.path_value,
            bg_value=self.bg_value,
        )


@dataclass
class SimParams:
    dt: float = 0.05
    v0: float = 5.0
    wheel_base: float = 10.0
    integrator: str = "arc"

    def __post_init__(self):
        if self.dt <= 0 or self.v0 <= 0 or self.wheel_base <= 0:
            raise ConfigError("dt, v0 and wheel_base must be positive")

    def start_pose(self, canvas: simenv.Canvas) -> simenv.RobotPose:
        return simenv.RobotPose(*canvas.start, wheel_base=self.wheel_base, v0=self.v0)


@dataclass
class NetParams:
    hidden: tuple = (13, 12, 11, 10, 9, 8, 7, 6, 5, 4)
    outputs: int = 3
    activation: str = "tanh"
    # init width, a scalar or one per weight layer: small against raw
    # GSV-scale predictors, near-unity through the hidden stack, small again
    # at the output so the untrained predictive action stays close to zero
    w0: object = (0.004,) + (0.55,) * 9 + (0.05,)
    output_weighting: tuple = (1.0, 3.0, 5.0)

    def build(self, seed: int) -> netcore.Network:
        sizes = [signals.PREDICTOR_COUNT, *self.hidden, self.outputs]
        simenv.check_budget(sum(a * b for a, b in zip(sizes, sizes[1:])), "network weights",
                            f"network.hidden: {list(self.hidden)!r}, "
                            f"network.outputs: {self.outputs!r}")
        return netcore.init_weights(
            sizes,
            [self.activation] * (len(self.hidden) + 1),
            seed=seed,
            w0=self.w0,
            output_weighting=list(self.output_weighting),
        )


@dataclass
class RunParams:
    """When a trial stops and succeeds. The calibration probe runs the same
    reflex step, but for a fixed PROBE_SETTLE + PROBE_MEASURE seconds."""

    max_duration: float = 2400.0
    threshold: float = 0.1  # GSV, on the moving average
    window: float = 25.0  # seconds of trailing average
    warmup: float = 12.0  # seconds before the success test engages
    grace: float = 75.0  # extra seconds recorded after confirmed success
    distance_interval: float = 1.0  # seconds between weight-distance snapshots
    lost_line_timeout: float = 5.0  # abort after this long without the line in view

    def __post_init__(self):
        # a trial shorter than its warm-up is valid: it just cannot succeed,
        # so it is censored; it runs at least one tick however short
        if self.threshold <= 0 or self.window <= 0:
            raise ConfigError("threshold and window must be positive")
        if not (self.max_duration > 0 and self.warmup >= 0):
            raise ConfigError("need max_duration > 0 and warmup >= 0")
        if not (self.grace >= 0 and self.distance_interval > 0
                and self.lost_line_timeout > 0):
            raise ConfigError(
                "need grace >= 0, distance_interval > 0 and lost_line_timeout > 0")


@dataclass
class TrialConfig:
    net: NetParams = field(default_factory=NetParams)
    # None disables learning
    rule: netcore.UpdateRule | None = netcore.UpdateRule(netcore.SAR, math.e**-5)
    track: TrackSpec = field(default_factory=TrackSpec)
    layout: simenv.SensorLayout = field(default_factory=simenv.SensorLayout)
    reflex: looplib.ReflexConfig = field(default_factory=looplib.ReflexConfig)
    loop_gain_magnitude: float = 5.0e-6  # used when reflex.loop_gain is None
    sim: SimParams = field(default_factory=SimParams)
    run: RunParams = field(default_factory=RunParams)
    filter_taps: list | None = None
    seed: int = 1


@dataclass
class TrialRecord:
    """Everything one trial produced; array fields share one length."""

    t: np.ndarray
    e: np.ndarray
    ebar: np.ndarray
    a_r: np.ndarray
    a_p: np.ndarray
    mc: np.ndarray
    kappa: np.ndarray
    pose_x: np.ndarray
    pose_y: np.ndarray
    pose_theta: np.ndarray
    distance_t: np.ndarray
    distances: np.ndarray  # (snapshots, layers)
    success_time: float | None
    succeeded: bool
    aborted: bool
    abort_reason: str | None
    error_integral: float
    duration: float
    seed: int
    rule_kind: str
    eta: float
    loop_gain: float
    events: list
    saturated_ticks: int
    network: netcore.Network

    @property
    def final_distances(self) -> np.ndarray:
        return self.distances[-1]


class SuccessTracker:
    """Latches success the first time the trailing average drops below the
    threshold after warm-up, confirmed only once it stays below for a full
    further window."""

    def __init__(self, threshold: float, warmup: float, window: float):
        self.threshold = threshold
        self.warmup = warmup
        self.window = window
        self.candidate = None
        self.confirmed = None

    def update(self, t: float, ebar: float) -> bool:
        if self.confirmed is not None:
            return True
        if t < self.warmup or ebar >= self.threshold:
            self.candidate = None
            return False
        if self.candidate is None:
            self.candidate = t
        if t - self.candidate >= self.window:
            self.confirmed = self.candidate
        return self.confirmed is not None


# every finite float is a whole multiple of 2**-1074, the smallest subnormal
_UNIT = 2**1074


class TrailingMean:
    """Mean of the last ``window`` pushed samples (fewer at the start).

    The window's sum is kept exactly, as a Python int counting units of
    2**-1074, of which every finite float is a whole number: each sample
    adds its own count (from ``float.as_integer_ratio``, whose denominator
    is a power of two) and the one that leaves takes its count away.  Int
    true division is correctly rounded, so ``total / 2**1074`` is the
    correctly rounded sum, ``math.fsum`` of the window, and every mean is
    that divided by the window's length: a constant series averages to
    exactly itself.  Samples must be finite.
    """

    def __init__(self, window: int):
        self._units = deque(maxlen=window)
        self._total = 0

    def push(self, x: float) -> float:
        """Add a sample and return the mean of the window it ends."""
        n, d = x.as_integer_ratio()
        u = n << (1075 - d.bit_length())  # n * 2**1074 / d, with d = 2**k
        units = self._units
        if len(units) == units.maxlen:
            self._total -= units[0]
        units.append(u)
        self._total += u
        return self._total / _UNIT / len(units)


def moving_average(e, window: float, dt: float) -> np.ndarray:
    """Trailing mean of |e| over the last ``window`` seconds (truncated at
    the start of the series), element for element what a trial records.

    Each mean comes from ``TrailingMean``, the helper the trial loop uses,
    so a constant |e| gives back exactly that constant.
    """
    if window <= 0 or dt <= 0:
        raise ConfigError("window and dt must be positive")
    abs_e = np.abs(np.asarray(e, dtype=float))
    if not np.all(np.isfinite(abs_e)):
        raise NumericError("moving_average needs finite samples")
    trailing = TrailingMean(max(1, int(round(window / dt))))
    return np.array([trailing.push(x) for x in abs_e.tolist()], dtype=float)


def spike_episodes(e, dt: float, height: float = 2.0, merge_gap: float = 2.0):
    """Contiguous |e| > height stretches, merged when separated by less than
    ``merge_gap`` seconds; returns [(t_start, t_end), ...]."""
    mask = np.abs(np.asarray(e, dtype=float)) > height
    if not mask.any():
        return []
    idx = np.nonzero(mask)[0]
    splits = np.nonzero(np.diff(idx) * dt >= merge_gap)[0]
    starts = np.concatenate([[idx[0]], idx[splits + 1]])
    ends = np.concatenate([idx[splits], [idx[-1]]])
    return [(s * dt, t * dt) for s, t in zip(starts, ends)]


def _resolve_loop_gain(cfg: TrialConfig) -> tuple[float, float | None]:
    """Return (loop_gain, measured_plant_gain); probes when not configured."""
    if cfg.reflex.loop_gain is not None:
        return float(cfg.reflex.loop_gain), None
    result = calibrate(cfg)
    return result.loop_gain, result.plant_gain


def _reflex_step(readout, a_p, reflex, pose, sim):
    """One tick of the fixed reflex, E -> A_R -> MC -> saturation -> motion,
    under the predictive action ``a_p``; the trial loop and the calibration
    probe both run it. Returns (e, a_r, mc, clipped, next_pose)."""
    e = looplib.control_error(readout, reflex)
    a_r = looplib.reflex_action(e, reflex)
    mc = looplib.motor_command(a_r, a_p)
    actuated, clipped = looplib.saturate(mc, reflex.mc_limit)
    return e, a_r, mc, clipped, simenv.step(pose, actuated, sim.dt, sim.integrator)


# the TrialRecord columns, in the order of a row of run_trial's tick log
_TICK_COLUMNS = ("t", "e", "ebar", "a_r", "a_p", "mc", "kappa", "pose_x", "pose_y",
                 "pose_theta")


def run_trial(
    cfg: TrialConfig,
    canvas: simenv.Canvas | None = None,
    loop_gain: float | None = None,
) -> TrialRecord:
    """Run one closed-loop trial: sense, predict, err, reflex, learn, act.
    The reflex is the calibration probe's :func:`_reflex_step` under the
    network's A_P; either abort reason ends the trial before its tick is logged."""
    dt = cfg.sim.dt
    # the tick log's cells, bounded above, before any array is made
    n_ticks = cfg.run.max_duration / dt
    simenv.check_budget((n_ticks + 1) * len(_TICK_COLUMNS), "tick-log cells",
                        f"trial.max_duration: {cfg.run.max_duration!r}, sim.dt: {dt!r}")
    if canvas is None:
        canvas = cfg.track.build()
    events = []
    if loop_gain is None:
        loop_gain, plant_gain = _resolve_loop_gain(cfg)
        if plant_gain is not None:
            events.append({"kind": "calibration", "t": 0.0, "loop_gain": loop_gain,
                           "plant_gain": plant_gain})
    reflex = replace(cfg.reflex, loop_gain=loop_gain)

    net = cfg.net.build(cfg.seed)
    fa = signals.FilterArray(cfg.filter_taps)
    pose = cfg.sim.start_pose(canvas)
    n_max = max(1, int(round(n_ticks)))
    trailing = TrailingMean(max(1, int(round(cfg.run.window / dt))))
    dist_every = max(1, int(round(cfg.run.distance_interval / dt)))
    layers = range(1, net.n_layers + 1)

    log = np.empty((n_max, len(_TICK_COLUMNS)))
    dist_t, dist_rows = [], []
    # the distances at the last snapshot, reused until an update runs: a
    # kappa = 0 tick leaves every weight as it was
    dist_row = None
    tracker = SuccessTracker(cfg.run.threshold, cfg.run.warmup, cfg.run.window)
    abort_reason = None
    saturated_ticks = 0
    sat_active = False
    stop_at = None
    ticks = 0

    # the line counts as "in view" while any camera cell is darker than this
    seen_threshold = (cfg.track.path_value + cfg.track.bg_value) / 2.0
    lost_ticks = 0
    lost_limit = int(round(cfg.run.lost_line_timeout / dt))

    for i in range(n_max):
        t = i * dt
        try:
            grid, readout = simenv.sample_camera(canvas, pose, cfg.layout)
        except OutOfBoundsError as exc:
            abort_reason = str(exc)
            break
        lost_ticks = 0 if np.minimum.reduce(grid, axis=None) < seen_threshold else lost_ticks + 1
        if lost_ticks > lost_limit:
            abort_reason = "line lost from camera view"
            break
        p = fa.step(signals.difference_signals(grid))
        a_p = net.forward(p)
        e, a_r, mc, clipped, moved = _reflex_step(readout, a_p, reflex, pose, cfg.sim)
        if clipped:
            saturated_ticks += 1
            if not sat_active:
                events.append({"kind": "saturation", "t": t, "mc": mc})
        sat_active = clipped
        kappa = looplib.closed_loop_gradient(e, reflex)

        if cfg.rule is not None:
            net.apply_update(cfg.rule, e, kappa)
            if kappa != 0.0:
                dist_row = None

        ebar = trailing.push(abs(e))
        log[i] = (t, e, ebar, a_r, a_p, mc, kappa, pose.x, pose.y, pose.theta)
        if i % dist_every == 0:
            if dist_row is None:
                dist_row = [net.euclidean_distance(l) for l in layers]
            dist_t.append(t)
            dist_rows.append(dist_row)
        ticks = i + 1

        if tracker.update(t, ebar) and stop_at is None:
            events.append({"kind": "success", "t": tracker.confirmed})
            stop_at = t + cfg.run.grace
        if stop_at is not None and t >= stop_at:
            break
        pose = moved

    if abort_reason is not None:
        events.append({"kind": "abort", "t": t, "reason": abort_reason})
    last_t = max(ticks - 1, 0) * dt
    if not dist_t or dist_t[-1] != last_t:
        dist_t.append(last_t)
        if dist_row is None:
            dist_row = [net.euclidean_distance(l) for l in layers]
        dist_rows.append(dist_row)

    columns = dict(zip(_TICK_COLUMNS, log[:ticks].T.copy()))
    return TrialRecord(
        **columns,
        distance_t=np.array(dist_t),
        distances=np.array(dist_rows),
        success_time=tracker.confirmed,
        succeeded=tracker.confirmed is not None,
        aborted=abort_reason is not None,
        abort_reason=abort_reason,
        error_integral=float(np.sum(np.abs(columns["e"])) * dt),
        duration=ticks * dt,
        seed=cfg.seed,
        rule_kind=cfg.rule.kind if cfg.rule else "none",
        eta=cfg.rule.eta if cfg.rule else 0.0,
        loop_gain=loop_gain,
        events=events,
        saturated_ticks=saturated_ticks,
        network=net,
    )


# ----------------------------------------------------------------------
# loop-gain calibration
# ----------------------------------------------------------------------


PROBE_AMPLITUDE = 0.2  # the probe holds A_P at + and - this
PROBE_SETTLE = 3.0  # seconds the reflex settles before E is averaged
PROBE_MEASURE = 4.0  # seconds over which E is averaged

# smallest probe response |e_plus - e_minus| that calibration accepts: one
# gray level, the quantum of the 8-bit canvas and its PGM files. A weaker
# response cannot be told apart from the track's own quantization.
MIN_PROBE_RESPONSE = 1.0  # GSV


@dataclass
class CalibrationResult:
    plant_gain: float  # measured dE/dA_P
    loop_gain: float  # suggested signed constant for kappa
    magnitude_source: str  # "config" or "measured"


def calibrate(cfg: TrialConfig,
              use_measured_magnitude: bool = False) -> CalibrationResult:
    """Measure dE/dA_P on a straight segment and derive the loop gain.

    Two probe runs drive the trial's reflex step from the start pose, reading
    the ground sensors alone and holding the predictive action at
    +/- ``PROBE_AMPLITUDE``; the central difference of the mean settled error
    gives the plant sensitivity. The suggested loop gain takes the opposite
    sign (so updates descend E^2) and, by default, the configured magnitude.
    The two runs are lanes of one loop: each tick reads both lanes' sensors
    in one ``simenv.sample_ldr`` gather, and each lane takes its own reflex
    step and sums its own error in tick order, as a run alone would.

    Raises CalibrationError when the probe drifts off the canvas, whose
    margin beside the line is the trial's ``track.margin``, or when the
    response |e_plus - e_minus| falls below ``MIN_PROBE_RESPONSE`` (1 GSV),
    since then not even the sign of dE/dA_P can be trusted. A probe track
    that cannot be built raises the track's ConfigError, which then also
    names ``sim.v0``, the value that sets the track's length.
    """
    length = cfg.sim.v0 * (PROBE_SETTLE + PROBE_MEASURE) * 1.5 + 20.0
    try:
        canvas = replace(cfg.track, kind="straight", params={"length": length}).build()
    except ConfigError as exc:
        raise ConfigError(f"probe track: {exc}; its length is 1.5 * sim.v0 * "
                          f"{PROBE_SETTLE + PROBE_MEASURE:g} s + 20 cm; got sim.v0: "
                          f"{cfg.sim.v0!r}") from exc
    first = int(round(PROBE_SETTLE / cfg.sim.dt))
    total = int(round((PROBE_SETTLE + PROBE_MEASURE) / cfg.sim.dt))
    a_p = (+PROBE_AMPLITUDE, -PROBE_AMPLITUDE)
    poses = [cfg.sim.start_pose(canvas)] * 2
    acc = [0.0, 0.0]  # summed in tick order: sum() or np.mean would change the bits
    try:
        for i in range(total):
            readouts = simenv.sample_ldr(canvas, poses, cfg.layout)
            for k, readout in enumerate(readouts):
                e, _, _, _, poses[k] = _reflex_step(readout, a_p[k], cfg.reflex,
                                                    poses[k], cfg.sim)
                if i >= first:
                    acc[k] += e
    except OutOfBoundsError as exc:
        raise CalibrationError(f"probe left the canvas: {exc}; its straight track spans 2 * "
                               f"track.margin across; got track.margin: {cfg.track.margin!r}"
                               ) from exc
    e_plus, e_minus = (a / (total - first) for a in acc)
    plant_gain = looplib.estimate_loop_gain(e_plus, e_minus, PROBE_AMPLITUDE)
    response = abs(e_plus - e_minus)
    if not (np.isfinite(plant_gain) and response >= MIN_PROBE_RESPONSE):
        raise CalibrationError(
            f"probe produced no measurable error response: |e+ - e-| = "
            f"{response:g} GSV < {MIN_PROBE_RESPONSE:g} (dE/dA_P = {plant_gain:g})"
        )
    magnitude = abs(plant_gain) if use_measured_magnitude else cfg.loop_gain_magnitude
    lam = -math.copysign(magnitude, plant_gain)
    if not looplib.verify_descent(lam, plant_gain):
        raise CalibrationError(
            f"loop gain {lam:g} fails the descent check against measured "
            f"dE/dA_P = {plant_gain:g}"
        )
    return CalibrationResult(
        plant_gain=plant_gain,
        loop_gain=lam,
        magnitude_source="measured" if use_measured_magnitude else "config",
    )


# ----------------------------------------------------------------------
# batches
# ----------------------------------------------------------------------


@dataclass
class BatchResult:
    rows: list  # one dict per trial
    summary: list  # one dict per (rule, eta) cell
    loop_gain: float


def _batch_row(record: TrialRecord, max_duration: float) -> dict:
    censored = not record.succeeded
    return {
        "rule": record.rule_kind,
        "eta": record.eta,
        "seed": record.seed,
        "succeeded": record.succeeded,
        "aborted": record.aborted,
        "censored": censored,
        "success_time": record.success_time if record.succeeded else max_duration,
        "error_integral": record.error_integral,
        "final_dist_l1": float(record.final_distances[0]),
        "duration": record.duration,
        "saturated_ticks": record.saturated_ticks,
    }


def _run_batch_trial(args) -> dict:
    cfg, rule_kind, eta, seed, lam, canvas, out_dir = args
    trial_cfg = replace(
        cfg, rule=netcore.UpdateRule(rule_kind, eta), seed=seed
    )
    record = run_trial(trial_cfg, canvas=canvas, loop_gain=lam)
    row = _batch_row(record, cfg.run.max_duration)
    if out_dir is not None:
        sub = out_dir / f"{rule_kind}-eta{eta:.6g}-seed{seed}"
        sub.mkdir(parents=True, exist_ok=True)
        write_trial_artifacts(record, sub)
    return row


def run_batch(
    cfg: TrialConfig,
    rules,
    etas,
    seeds,
    jobs: int = 1,
    out_dir=None,
    canvas: simenv.Canvas | None = None,
) -> BatchResult:
    """Run len(rules) * len(etas) * len(seeds) independent trials.

    Seeds are shared across (rule, eta) cells so comparisons are seed-matched;
    trials that never reach success are censored at max_duration and flagged.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("batch needs at least one seed")
    for kind in rules:
        if kind not in netcore.RULES:
            raise ConfigError(f"unknown rule {kind!r} in batch")
    lam, _ = _resolve_loop_gain(cfg)
    if canvas is None:
        canvas = cfg.track.build()  # every trial runs on the same world
    trial_dir = None
    if out_dir is not None:
        trial_dir = out_dir / "trials"
    tasks = [
        (cfg, kind, float(eta), int(seed), lam, canvas, trial_dir)
        for kind in rules
        for eta in etas
        for seed in seeds
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_batch_trial, tasks))
    else:
        rows = [_run_batch_trial(t) for t in tasks]

    summary = []
    for kind in rules:
        for eta in etas:
            cell = [
                r for r in rows if r["rule"] == kind and r["eta"] == float(eta)
            ]
            times = np.array(sorted(r["success_time"] for r in cell))
            integrals = np.array(sorted(r["error_integral"] for r in cell))
            dists = np.array(sorted(r["final_dist_l1"] for r in cell))
            q = lambda a, p: float(np.percentile(a, p))
            summary.append(
                {
                    "rule": kind,
                    "eta": float(eta),
                    "n": len(cell),
                    "n_success": sum(r["succeeded"] for r in cell),
                    "n_abort": sum(r["aborted"] for r in cell),
                    "success_time_q25": q(times, 25),
                    "success_time_median": q(times, 50),
                    "success_time_q75": q(times, 75),
                    "error_integral_q25": q(integrals, 25),
                    "error_integral_median": q(integrals, 50),
                    "error_integral_q75": q(integrals, 75),
                    "final_dist_l1_median": q(dists, 50),
                }
            )
    return BatchResult(rows=rows, summary=summary, loop_gain=lam)


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------

TRACE_COLUMNS = ("t", "E", "Ebar", "A_R", "A_P", "MC", "kappa")


def _fmt(v) -> str:
    return f"{float(v):.10g}"


def _write_csv(path, columns, rows) -> None:
    """A header line, then one line per row of already formatted cells."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in rows)


def write_trace_csv(record: TrialRecord, path) -> None:
    arrays = (record.t, record.e, record.ebar, record.a_r, record.a_p,
              record.mc, record.kappa)
    _write_csv(path, TRACE_COLUMNS, (map(_fmt, vals) for vals in zip(*arrays)))


def write_distances_csv(record: TrialRecord, path) -> None:
    columns = ["t"] + [f"l{i + 1}" for i in range(record.distances.shape[1])]
    _write_csv(path, columns, (map(_fmt, (t, *row))
                               for t, row in zip(record.distance_t, record.distances)))


def heatmap_image(heatmap: np.ndarray) -> np.ndarray:
    """Normalized weights to gray levels: 0 -> white, 1 -> black."""
    return 255.0 - np.asarray(heatmap, dtype=float) * 255.0


def first_layer_heatmap_image(net: netcore.Network) -> np.ndarray:
    """Layer-1 heatmap image with camera-row blocks regrouped so the row
    nearest the robot lands in the rightmost block."""
    hm = net.weight_heatmap(1)
    block = signals.HALF_COLS * signals.FILTER_COUNT
    if hm.shape[1] == signals.PREDICTOR_COUNT:
        k = np.arange(hm.shape[1])
        rows, rest = k // block, k % block
        dest = (signals.CAMERA_ROWS - 1 - rows) * block + rest
        out = np.empty_like(hm)
        out[:, dest] = hm
        hm = out
    return heatmap_image(hm)


def write_record_json(record: TrialRecord, path, config_hash: str = "") -> None:
    payload = {
        "config_hash": config_hash,
        "seed": record.seed,
        "rule": record.rule_kind,
        "eta": record.eta,
        "loop_gain": record.loop_gain,
        "succeeded": record.succeeded,
        "success_time": record.success_time,
        "aborted": record.aborted,
        "abort_reason": record.abort_reason,
        "error_integral": record.error_integral,
        "duration": record.duration,
        "ticks": int(record.t.size),
        "saturated_ticks": record.saturated_ticks,
        "final_distances": [float(v) for v in record.final_distances],
        "events": record.events,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trial_artifacts(record: TrialRecord, out_dir, config_hash: str = "") -> None:
    write_trace_csv(record, out_dir / "trace.csv")
    write_distances_csv(record, out_dir / "distances.csv")
    write_record_json(record, out_dir / "record.json", config_hash)
    pgmio.write_weight_snapshot(out_dir / "weights.txt", record.network.weights)
    pgmio.write_pgm(
        out_dir / "heatmap_layer1.pgm", first_layer_heatmap_image(record.network)
    )


def _cell(v) -> str:
    return _fmt(v) if isinstance(v, float) else str(v)


def _write_dict_csv(rows, columns, path) -> None:
    _write_csv(path, columns, ([_cell(row[c]) for c in columns] for row in rows))


def write_batch_artifacts(result: BatchResult, out_dir) -> None:
    trial_cols = (
        "rule", "eta", "seed", "succeeded", "aborted", "censored",
        "success_time", "error_integral", "final_dist_l1", "duration",
        "saturated_ticks",
    )
    _write_dict_csv(result.rows, trial_cols, out_dir / "trials.csv")
    summary_cols = (
        "rule", "eta", "n", "n_success", "n_abort",
        "success_time_q25", "success_time_median", "success_time_q75",
        "error_integral_q25", "error_integral_median", "error_integral_q75",
        "final_dist_l1_median",
    )
    _write_dict_csv(result.summary, summary_cols, out_dir / "summary.csv")
