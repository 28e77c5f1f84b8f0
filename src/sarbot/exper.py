"""Trial orchestration: closed-loop runs, success metrics, loop-gain
calibration, seeded batches, and artifact writers."""

from __future__ import annotations

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
    # the reference track: a 110 x 80 cm rectangle with rounded corners
    params: dict = field(
        default_factory=lambda: {
            "rect_width": 110.0,
            "rect_height": 80.0,
            "radii": [12.0, 12.0, 18.0, 18.0],
        }
    )
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

    def layer_specs(self) -> list[netcore.LayerSpec]:
        sizes = [signals.PREDICTOR_COUNT, *self.hidden, self.outputs]
        return [netcore.LayerSpec(s, self.activation) for s in sizes]

    def build(self, seed: int) -> netcore.Network:
        return netcore.init_weights(
            self.layer_specs(),
            seed=seed,
            w0=self.w0,
            output_weighting=list(self.output_weighting),
        )


@dataclass
class RunParams:
    max_duration: float = 2400.0
    threshold: float = 0.1  # GSV, on the moving average
    window: float = 25.0  # seconds of trailing average
    warmup: float = 12.0  # seconds before the success test engages
    grace: float = 75.0  # extra seconds recorded after confirmed success
    distance_interval: float = 1.0  # seconds between weight-distance snapshots
    lost_line_timeout: float = 5.0  # abort after this long without the line in view

    def __post_init__(self):
        # a trial shorter than its warm-up is valid: it just cannot succeed,
        # so it is censored; max_duration > 0 guarantees at least one tick
        if self.threshold <= 0 or self.window <= 0:
            raise ConfigError("threshold and window must be positive")
        if not (self.max_duration > 0 and self.warmup >= 0):
            raise ConfigError("need max_duration > 0 and warmup >= 0")


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


def _add_exact(partials: list[float], x: float) -> None:
    """Add ``x`` to the exact sum held as Shewchuk's non-overlapping
    partials (the ``msum`` recipe that ``math.fsum`` is built on)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class TrailingMean:
    """Mean of the last ``window`` pushed samples (fewer at the start).

    The window's sum is kept exactly, as partials that gain each new sample
    and the negation of the one that leaves, so every mean is the correctly
    rounded sum, ``math.fsum`` of the window, divided by its length: a
    constant series averages to exactly itself.  Samples must be finite.
    """

    def __init__(self, window: int):
        self._samples = deque(maxlen=window)
        self._partials: list[float] = []

    def push(self, x: float) -> float:
        """Add a sample and return the mean of the window it ends."""
        if len(self._samples) == self._samples.maxlen:
            _add_exact(self._partials, -self._samples[0])
        self._samples.append(x)
        _add_exact(self._partials, x)
        return math.fsum(self._partials) / len(self._samples)


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


def run_trial(
    cfg: TrialConfig,
    canvas: simenv.Canvas | None = None,
    loop_gain: float | None = None,
) -> TrialRecord:
    """Run one closed-loop trial: sense, predict, err, reflex, learn, act."""
    if canvas is None:
        canvas = cfg.track.build()
    plant_gain = None
    if loop_gain is None:
        loop_gain, plant_gain = _resolve_loop_gain(cfg)
    reflex = replace(cfg.reflex, loop_gain=loop_gain)

    net = cfg.net.build(cfg.seed)
    fa = signals.FilterArray(cfg.filter_taps)
    pose = simenv.RobotPose(
        *canvas.start, wheel_base=cfg.sim.wheel_base, v0=cfg.sim.v0
    )
    dt = cfg.sim.dt
    n_max = int(round(cfg.run.max_duration / dt))
    trailing = TrailingMean(max(1, int(round(cfg.run.window / dt))))
    dist_every = max(1, int(round(cfg.run.distance_interval / dt)))
    n_layers = net.n_layers

    cols = {
        name: np.zeros(n_max)
        for name in ("t", "e", "ebar", "a_r", "a_p", "mc", "kappa", "x", "y", "th")
    }
    abs_e = np.zeros(n_max)
    dist_t, dist_rows = [], []
    events = []
    tracker = SuccessTracker(cfg.run.threshold, cfg.run.warmup, cfg.run.window)
    aborted = False
    abort_reason = None
    saturated_ticks = 0
    sat_active = False
    stop_at = None
    ticks = 0

    if plant_gain is not None:
        events.append(
            {"kind": "calibration", "t": 0.0, "loop_gain": loop_gain,
             "plant_gain": plant_gain}
        )

    # the line counts as "in view" while any camera cell is darker than this
    seen_threshold = (cfg.track.path_value + cfg.track.bg_value) / 2.0
    lost_ticks = 0
    lost_limit = int(round(cfg.run.lost_line_timeout / dt))

    for i in range(n_max):
        t = i * dt
        try:
            grid = simenv.sample_camera(canvas, pose, cfg.layout)
            readout = simenv.sample_ldr(canvas, pose, cfg.layout)
        except OutOfBoundsError as exc:
            aborted = True
            abort_reason = str(exc)
            events.append({"kind": "abort", "t": t, "reason": abort_reason})
            break
        lost_ticks = 0 if grid.min() < seen_threshold else lost_ticks + 1
        if lost_ticks > lost_limit:
            aborted = True
            abort_reason = "line lost from camera view"
            events.append({"kind": "abort", "t": t, "reason": abort_reason})
            break
        p = fa.step(signals.difference_signals(grid))
        a_p = net.forward(p)
        e = looplib.control_error(readout, reflex)
        a_r = looplib.reflex_action(e, reflex)
        mc = looplib.motor_command(a_r, a_p)
        actuated, clipped = looplib.saturate(mc, reflex.mc_limit)
        if clipped:
            saturated_ticks += 1
            if not sat_active:
                events.append({"kind": "saturation", "t": t, "mc": mc})
        sat_active = clipped
        kappa = looplib.closed_loop_gradient(e, reflex)

        if cfg.rule is not None:
            net.apply_update(cfg.rule, e, kappa)

        abs_e[i] = abs(e)
        ebar = trailing.push(abs(e))
        for name, val in (
            ("t", t), ("e", e), ("ebar", ebar), ("a_r", a_r), ("a_p", a_p),
            ("mc", mc), ("kappa", kappa), ("x", pose.x), ("y", pose.y),
            ("th", pose.theta),
        ):
            cols[name][i] = val
        if i % dist_every == 0:
            dist_t.append(t)
            dist_rows.append(
                [net.euclidean_distance(l) for l in range(1, n_layers + 1)]
            )
        ticks = i + 1

        if tracker.update(t, ebar) and stop_at is None:
            events.append({"kind": "success", "t": tracker.confirmed})
            stop_at = t + cfg.run.grace
        if stop_at is not None and t >= stop_at:
            break
        pose = simenv.step(pose, actuated, dt, cfg.sim.integrator)

    if not dist_t or dist_t[-1] != cols["t"][ticks - 1]:
        dist_t.append(cols["t"][ticks - 1] if ticks else 0.0)
        dist_rows.append([net.euclidean_distance(l) for l in range(1, n_layers + 1)])

    return TrialRecord(
        t=cols["t"][:ticks].copy(),
        e=cols["e"][:ticks].copy(),
        ebar=cols["ebar"][:ticks].copy(),
        a_r=cols["a_r"][:ticks].copy(),
        a_p=cols["a_p"][:ticks].copy(),
        mc=cols["mc"][:ticks].copy(),
        kappa=cols["kappa"][:ticks].copy(),
        pose_x=cols["x"][:ticks].copy(),
        pose_y=cols["y"][:ticks].copy(),
        pose_theta=cols["th"][:ticks].copy(),
        distance_t=np.array(dist_t),
        distances=np.array(dist_rows),
        success_time=tracker.confirmed,
        succeeded=tracker.confirmed is not None,
        aborted=aborted,
        abort_reason=abort_reason,
        error_integral=float(np.sum(abs_e[:ticks]) * dt),
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


# smallest probe response |e_plus - e_minus| that calibration accepts: one
# gray level, the quantum of the 8-bit canvas and its PGM files. A weaker
# response cannot be told apart from the track's own quantization.
MIN_PROBE_RESPONSE = 1.0  # GSV


@dataclass
class CalibrationResult:
    plant_gain: float  # measured dE/dA_P
    loop_gain: float  # suggested signed constant for kappa
    magnitude_source: str  # "config" or "measured"
    probe_amplitude: float
    settle: float
    measure: float


def _probe_mean_error(cfg: TrialConfig, canvas, a_p: float, settle: float,
                      measure: float) -> float:
    reflex = replace(cfg.reflex, loop_gain=0.0)
    pose = simenv.RobotPose(
        *canvas.start, wheel_base=cfg.sim.wheel_base, v0=cfg.sim.v0
    )
    dt = cfg.sim.dt
    total = int(round((settle + measure) / dt))
    first = int(round(settle / dt))
    acc = 0.0
    count = 0
    for i in range(total):
        readout = simenv.sample_ldr(canvas, pose, cfg.layout)
        e = looplib.control_error(readout, reflex)
        mc = looplib.motor_command(looplib.reflex_action(e, reflex), a_p)
        actuated, _ = looplib.saturate(mc, reflex.mc_limit)
        if i >= first:
            acc += e
            count += 1
        pose = simenv.step(pose, actuated, dt, cfg.sim.integrator)
    return acc / count


def calibrate(
    cfg: TrialConfig,
    probe_amplitude: float = 0.2,
    settle: float = 3.0,
    measure: float = 4.0,
    use_measured_magnitude: bool = False,
) -> CalibrationResult:
    """Measure dE/dA_P on a straight segment and derive the loop gain.

    Two reflex-only passes hold the predictive action at +/- the probe
    amplitude; the central difference of the mean settled error gives the
    plant sensitivity. The suggested loop gain takes the opposite sign (so
    updates descend E^2) and, by default, the configured magnitude.

    Raises CalibrationError when the probe leaves the canvas or when the
    response |e_plus - e_minus| falls below ``MIN_PROBE_RESPONSE`` (1 GSV),
    since then not even the sign of dE/dA_P can be trusted.
    """
    horizon = settle + measure
    length = cfg.sim.v0 * horizon * 1.5 + 20.0
    canvas = replace(cfg.track, kind="straight", params={"length": length}).build()
    try:
        e_plus = _probe_mean_error(cfg, canvas, +probe_amplitude, settle, measure)
        e_minus = _probe_mean_error(cfg, canvas, -probe_amplitude, settle, measure)
    except OutOfBoundsError as exc:
        raise CalibrationError(f"probe left the canvas: {exc}") from exc
    plant_gain = looplib.estimate_loop_gain(e_plus, e_minus, probe_amplitude)
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
        probe_amplitude=probe_amplitude,
        settle=settle,
        measure=measure,
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


def write_trace_csv(record: TrialRecord, path) -> None:
    arrays = (record.t, record.e, record.ebar, record.a_r, record.a_p,
              record.mc, record.kappa)
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for vals in zip(*arrays):
            fh.write(",".join(_fmt(v) for v in vals) + "\n")


def write_distances_csv(record: TrialRecord, path) -> None:
    n_layers = record.distances.shape[1]
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"l{i + 1}" for i in range(n_layers)) + "\n")
        for t, row in zip(record.distance_t, record.distances):
            fh.write(_fmt(t) + "," + ",".join(_fmt(v) for v in row) + "\n")


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


def _write_dict_csv(rows, columns, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    _fmt(row[c]) if isinstance(row[c], float) else str(row[c])
                    for c in columns
                )
                + "\n"
            )


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
