"""Closed-loop plumbing: control error from paired ground sensors, reflex
action, motor command, and the per-tick learning gradient scale.

The closed-loop gradient is kappa = 2 * E * loop_gain. ``loop_gain`` is a
signed constant standing in for the reflex loop's measured sensitivity; its
sign must make weight updates descend the squared error, which is what the
calibration probe checks (see :func:`verify_descent` and exper.calibrate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, StateError


@dataclass(slots=True)
class LdrReadout:
    """Six ground-sensor values: ``g`` for the left triple, ``g_star`` for
    their mirrored right counterparts, innermost first.

    Not checked here: they are derived from a canvas that ``make_track``
    checked, in the trial loop by ``simenv.sample_camera`` (in the same
    gather as the camera grid) and in the calibration probe by
    ``simenv.sample_ldr``, one readout per probe lane."""

    g: np.ndarray
    g_star: np.ndarray


@dataclass
class ReflexConfig:
    """Gains of the fixed inner loop.

    ``k`` weighs the sensor pairs (magnitudes must increase outward),
    ``reflex_gain`` converts the control error to the reflex action, and
    ``loop_gain`` is the signed calibration constant for kappa (None until a
    probe has set it). ``mc_limit`` bounds the actuated motor command so
    wheel speeds stay non-negative; clipping is logged, never silent.
    """

    k: tuple = (1.0, 2.0, 3.0)
    reflex_gain: float = 0.04
    loop_gain: float | None = None
    mc_limit: float | None = 5.0

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        if k.shape != (3,):
            raise ConfigError("reflex weighting k needs exactly 3 entries")
        if not (abs(k[0]) < abs(k[1]) < abs(k[2])):
            raise ConfigError("|k1| < |k2| < |k3| required")
        self.k = k
        if not np.isfinite(self.reflex_gain):
            raise ConfigError("reflex_gain must be finite")
        if self.mc_limit is not None and self.mc_limit <= 0:
            raise ConfigError("mc_limit must be positive or None")


def control_error(readout: LdrReadout, cfg: ReflexConfig) -> float:
    """Weighted sum of left-right sensor differences, in GSV."""
    # ndarray.dot and "-" reach np.dot's and np.subtract's loops directly
    return float(cfg.k.dot(readout.g - readout.g_star))


def reflex_action(e: float, cfg: ReflexConfig) -> float:
    """Proportional reflex: A_R = reflex_gain * E."""
    return cfg.reflex_gain * e


def motor_command(a_r: float, a_p: float) -> float:
    """MC = A_R + A_P, exactly; saturation is applied downstream at the
    actuator (see :func:`saturate`) so the logged decomposition stays exact."""
    mc = a_r + a_p
    if not math.isfinite(mc):
        raise NumericError(f"non-finite motor command from ({a_r}, {a_p})")
    return mc


def saturate(mc: float, limit: float | None) -> tuple[float, bool]:
    """Clip the actuated command to +/- limit; returns (value, clipped?)."""
    if limit is None or abs(mc) <= limit:
        return mc, False
    return float(np.clip(mc, -limit, limit)), True


def closed_loop_gradient(e: float, cfg: ReflexConfig) -> float:
    """kappa = 2 * E * loop_gain."""
    if cfg.loop_gain is None:
        raise StateError("loop gain not calibrated; run the probe first")
    return 2.0 * e * cfg.loop_gain


def estimate_loop_gain(e_plus: float, e_minus: float, eps: float) -> float:
    """Central-difference estimate of dE/dA_P from two probe runs that held
    the predictive action at +eps and -eps."""
    if eps <= 0:
        raise ConfigError("probe amplitude must be positive")
    return (e_plus - e_minus) / (2.0 * eps)


def verify_descent(loop_gain: float, plant_gain: float) -> bool:
    """Check that the loop gain makes the weight updates descend E^2.

    With E = E0 + plant_gain * A_P, the gradient rule moves a weight by
    eta * kappa * dA_P/dw = 2 * eta * E * loop_gain * dA_P/dw, while the
    gradient of E^2 is 2 * E * plant_gain * dA_P/dw. The step descends E^2
    exactly when ``loop_gain * plant_gain < 0``; a zero or non-finite gain
    fails.
    """
    return bool(
        np.isfinite(loop_gain)
        and np.isfinite(plant_gain)
        and loop_gain * plant_gain < 0
    )
