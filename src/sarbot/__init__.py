"""sarbot: sign-and-relevance learning on a simulated line-following robot."""

from .errors import (
    CalibrationError,
    ConfigError,
    NumericError,
    OutOfBoundsError,
    StateError,
)
from .netcore import ACTIVATIONS, GDM, LOCALPROP, RULES, SAR, Network, UpdateRule, init_weights
from .signals import (
    FilterArray,
    PREDICTOR_COUNT,
    default_filter_taps,
    difference_signals,
    predictor_index,
)
from .loop import (
    LdrReadout,
    ReflexConfig,
    closed_loop_gradient,
    control_error,
    motor_command,
    reflex_action,
)
from .simenv import Canvas, RobotPose, SensorLayout, make_track, sample_camera, sample_ldr, step
from .exper import (
    BatchResult,
    TrialConfig,
    TrialRecord,
    calibrate,
    moving_average,
    run_batch,
    run_trial,
    spike_episodes,
)
from .config import DEFAULTS, config_hash, load_config, to_trial_config

__version__ = "0.1.0"
