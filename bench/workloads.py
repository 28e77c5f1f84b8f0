"""The benchmark's workloads: the configs they hand the program, their
set-up, one round of trials, and the checks on each trial.

Every workload runs in this one process and touches only the public API of
``sarbot`` (``config``, ``exper``, ``simenv``).
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from sarbot import config, exper, simenv

import checks
from tracer import Tracer

E = math.e

# closed 8-point Catmull-Rom loop for reflex-spline, in cm
SPLINE_POINTS = [[0, 0], [45, -12], [95, -4], [140, 18],
                 [150, 62], [110, 90], [50, 84], [-10, 48]]
SPLINE_SAMPLES = 64
CENTRELINE_LIMIT = 3.0  # cm

BATCH_RULES = ("gdm", "localprop", "sar")
BATCH_SEEDS = (1, 2, 3)


@dataclass
class Setup:
    cfg_dict: dict
    cfg: exper.TrialConfig  # loop gain filled in by the calibration probe
    canvas: simenv.Canvas | None  # None where each trial builds its own

    def digest(self) -> str:
        h = hashlib.sha256(config.config_hash(self.cfg_dict).encode())
        h.update(repr(self.cfg.reflex.loop_gain).encode())
        if self.canvas is not None:
            h.update(self.canvas.raster.tobytes())
        return h.hexdigest()


@dataclass
class Round:
    wall_s: float  # first tick until the last trial's outputs are written
    loop_s: float  # time inside the trial loops
    ticks: int
    attempted: int
    failed: int
    # of the trials that passed, kept instead of their records so that memory
    # does not grow with the number of rounds
    integrals: list = field(default_factory=list)  # error integrals
    useful: int = 0  # ticks with kappa != 0 under a learning rule
    digest: str = ""  # of every output, to compare repeats
    artifact_bytes: int = 0
    peak_rss_mb: float = 0.0  # of the process, when the round ended

    def passed(self, rec) -> None:
        self.integrals.append(rec.error_integral)
        if rec.rule_kind != "none":
            self.useful += int(np.count_nonzero(rec.kappa))


def set_up(overrides: dict, build_canvas: bool) -> Setup:
    """Resolve the config, rasterise the track and calibrate the loop gain:
    the public calls a workload makes before its first control tick."""
    cfg_dict = config.load_config(None, overrides)
    cfg = config.to_trial_config(cfg_dict)
    canvas = cfg.track.build() if build_canvas else None
    lam = exper.calibrate(cfg).loop_gain
    cfg = replace(cfg, reflex=replace(cfg.reflex, loop_gain=lam))
    return Setup(cfg_dict, cfg, canvas)


def common_checks(rec, cfg: exper.TrialConfig) -> None:
    dt = cfg.sim.dt
    checks.check_complete(rec, dt)
    checks.check_motor_decomposition(rec, cfg.reflex.reflex_gain)
    checks.check_ebar(rec, max(1, int(round(cfg.run.window / dt))))
    checks.check_error_integral(rec, dt)
    checks.check_arc_steps(rec, dt, cfg.sim.v0, cfg.sim.wheel_base,
                           cfg.reflex.mc_limit)
    checks.check_frozen_distances(rec, dt)


def _report(workload: str, what: str, exc: Exception) -> None:
    print(f"{workload}: {what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


class Workload:
    name = ""
    overrides: dict = {}
    build_canvas = True

    def set_up(self) -> Setup:
        return set_up(self.overrides, self.build_canvas)

    def run_round(self, setup: Setup, seed: int, round_no: int, out_dir: Path) -> Round:
        raise NotImplementedError


class TrialSar(Workload):
    """One trial shaped like ``sarbot trial`` with the reference config."""

    name = "trial-sar"
    overrides = {"rule": {"kind": "sar", "eta": E**-5}, "trial": {"seed": 1}}

    def run_round(self, setup, seed, round_no, out_dir):
        cfg = setup.cfg
        out = out_dir / f"round{round_no}"
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            rec = exper.run_trial(cfg, canvas=setup.canvas, loop_gain=cfg.reflex.loop_gain)
            t1 = time.perf_counter()
            exper.write_trial_artifacts(rec, out, config.config_hash(setup.cfg_dict))
            t2 = time.perf_counter()
        except Exception as exc:  # a raising trial counts as failed
            _report(self.name, "trial", exc)
            return Round(time.perf_counter() - t0, 0.0, 0, 1, 1)
        result = Round(t2 - t0, t1 - t0, rec.t.size, 1, 0,
                       artifact_bytes=sum(p.stat().st_size for p in out.iterdir()))
        try:
            common_checks(rec, cfg)
            checks.check_success_window(rec, cfg.run.threshold, cfg.run.window)
            checks.check_layer1_distance(rec, out / "weights.txt", cfg.seed,
                                         cfg.net.w0[0])
        except Exception as exc:
            _report(self.name, f"seed {cfg.seed}", exc)
            result.failed = 1
        else:
            result.passed(rec)
        result.digest = checks.record_digest(rec)
        return result


class BatchRules(Workload):
    """``exper.run_batch`` over the three rules x seeds 1-3, jobs = 1."""

    name = "batch-rules"
    overrides = {
        "rule": {"eta": E**-1},
        "trial": {"max_duration": 400.0},
        "batch": {"rules": list(BATCH_RULES), "etas": [E**-1],
                  "seeds": list(BATCH_SEEDS), "jobs": 1},
        "output": {"trace": False},
    }
    build_canvas = False

    def run_round(self, setup, seed, round_no, out_dir):
        # the order of rules and seeds is drawn from the benchmark seed; the
        # batch's outputs must not depend on it
        rng = np.random.default_rng([seed, round_no])
        rules = [BATCH_RULES[i] for i in rng.permutation(len(BATCH_RULES))]
        seeds = [BATCH_SEEDS[i] for i in rng.permutation(len(BATCH_SEEDS))]
        records = []
        n = len(BATCH_RULES) * len(BATCH_SEEDS)
        with Tracer() as probe:
            # capture each trial's record, and time the canvas each trial builds
            probe.wrap(exper, "run_trial", "capture", per_tick=False,
                       on_result=records.append)
            probe.wrap(simenv, "make_track", "make_track", per_tick=False)
            t0 = time.perf_counter()
            try:
                batch = exper.run_batch(setup.cfg, rules, [E**-1], seeds, jobs=1)
            except Exception as exc:
                _report(self.name, "batch", exc)
                return Round(time.perf_counter() - t0, 0.0, 0, n, n)
            wall = time.perf_counter() - t0
        loop_s = wall - probe.stats["make_track"].ns / 1e9
        result = Round(wall, loop_s, sum(r.t.size for r in records), n, n)
        rows = {(r["rule"], r["seed"]): r for r in batch.rows}
        digests = []
        for rec in records:
            key = (rec.rule_kind, rec.seed)
            try:
                common_checks(rec, setup.cfg)
                checks.check_success_window(rec, setup.cfg.run.threshold,
                                            setup.cfg.run.window)
                checks.check_batch_row(rows[key], rec)
            except Exception as exc:
                _report(self.name, f"{key}", exc)
            else:
                result.failed -= 1
                result.passed(rec)
            digests.append((key, checks.record_digest(rec)))
        result.digest = repr(sorted(digests)) + repr(sorted(rows.items()))
        return result


class ReflexSpline(Workload):
    """Reflex only, 600 s on a closed 8-point spline track."""

    name = "reflex-spline"
    overrides = {
        "rule": {"kind": "none"},
        "trial": {"max_duration": 600.0, "seed": 1},
        "track": {"kind": "spline",
                  "params": {"points": SPLINE_POINTS,
                             "samples_per_segment": SPLINE_SAMPLES}},
        "output": {"trace": False},
    }

    def run_round(self, setup, seed, round_no, out_dir):
        cfg = setup.cfg
        t0 = time.perf_counter()
        try:
            rec = exper.run_trial(cfg, canvas=setup.canvas, loop_gain=cfg.reflex.loop_gain)
        except Exception as exc:
            _report(self.name, "trial", exc)
            return Round(time.perf_counter() - t0, 0.0, 0, 1, 1)
        wall = time.perf_counter() - t0
        result = Round(wall, wall, rec.t.size, 1, 0)
        centreline = checks.spline_centreline(
            SPLINE_POINTS, SPLINE_SAMPLES, cfg.track.margin)
        try:
            common_checks(rec, cfg)
            checks.check_zero_distances(rec)
            checks.check_near_centreline(rec, centreline, CENTRELINE_LIMIT)
        except Exception as exc:
            _report(self.name, f"seed {cfg.seed}", exc)
            result.failed = 1
        else:
            result.passed(rec)
        result.digest = checks.record_digest(rec)
        return result


WORKLOADS = {w.name: w for w in (TrialSar(), BatchRules(), ReflexSpline())}
