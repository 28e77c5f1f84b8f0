import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarbot.errors import ConfigError, NumericError, StateError
from sarbot.loop import (
    LdrReadout,
    ReflexConfig,
    closed_loop_gradient,
    control_error,
    estimate_loop_gain,
    motor_command,
    reflex_action,
    saturate,
    verify_descent,
)


def readout(g, g_star):
    return LdrReadout(g=np.array(g, dtype=float), g_star=np.array(g_star, dtype=float))


def test_control_error_examples():
    cfg = ReflexConfig(k=(1.0, 2.0, 3.0))
    assert control_error(readout([7, 7, 7], [7, 7, 7]), cfg) == 0.0
    assert control_error(readout([10, 0, 0], [0, 0, 0]), cfg) == 10.0
    # 1*5 + 2*(-5) + 3*5 = 10
    assert control_error(readout([5, 5, 5], [0, 10, 0]), cfg) == 10.0


def test_control_error_antisymmetric_under_swap():
    rng = np.random.default_rng(2)
    cfg = ReflexConfig()
    for _ in range(20):
        g = rng.uniform(0, 255, 3)
        gs = rng.uniform(0, 255, 3)
        e1 = control_error(readout(g, gs), cfg)
        e2 = control_error(readout(gs, g), cfg)
        npt.assert_allclose(e1, -e2, rtol=0, atol=0)


gsv = st.lists(st.floats(-300.0, 300.0), min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    k=st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3, unique=True),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
    g=gsv,
    g_star=gsv,
)
def test_control_error_equals_np_dot_of_np_subtract_bitwise(k, signs, g, g_star):
    cfg = ReflexConfig(k=tuple(s * m for s, m in zip(signs, sorted(k))))
    r = readout(g, g_star)
    e = control_error(r, cfg)
    assert type(e) is float
    ref = float(np.dot(cfg.k, np.subtract(r.g, r.g_star)))
    assert np.float64(e).tobytes() == np.float64(ref).tobytes()


def test_reflex_action_proportionality():
    cfg = ReflexConfig(reflex_gain=0.5)
    assert reflex_action(0.0, cfg) == 0.0
    assert reflex_action(10.0, cfg) == 5.0


def test_motor_command_sum_and_errors():
    assert motor_command(0.0, 0.0) == 0.0
    assert motor_command(5.0, -2.0) == 3.0
    with pytest.raises(NumericError):
        motor_command(np.nan, 1.0)
    with pytest.raises(NumericError):
        motor_command(np.inf, -np.inf)


def test_saturation_clips_and_flags():
    assert saturate(3.0, 5.0) == (3.0, False)
    assert saturate(7.0, 5.0) == (5.0, True)
    assert saturate(-7.0, 5.0) == (-5.0, True)
    assert saturate(99.0, None) == (99.0, False)


def test_closed_loop_gradient():
    cfg = ReflexConfig(loop_gain=-0.5)
    assert closed_loop_gradient(0.0, cfg) == 0.0
    assert closed_loop_gradient(4.0, cfg) == -4.0
    npt.assert_allclose(
        closed_loop_gradient(2.0 * 1.7, cfg), 2.0 * closed_loop_gradient(1.7, cfg)
    )
    with pytest.raises(StateError):
        closed_loop_gradient(1.0, ReflexConfig(loop_gain=None))


def test_reflex_config_validation():
    with pytest.raises(ConfigError):
        ReflexConfig(k=(3.0, 2.0, 1.0))
    with pytest.raises(ConfigError):
        ReflexConfig(k=(1.0, 1.0, 2.0))
    with pytest.raises(ConfigError):
        ReflexConfig(k=(1.0, 2.0))
    with pytest.raises(ConfigError):
        ReflexConfig(mc_limit=0.0)


def test_estimate_loop_gain():
    npt.assert_allclose(estimate_loop_gain(-10.0, 10.0, 0.2), -50.0)
    with pytest.raises(ConfigError):
        estimate_loop_gain(1.0, -1.0, 0.0)


def test_verify_descent_sign_logic():
    # plant gain negative -> positive loop gain descends, negative ascends
    assert verify_descent(+0.5, -40.0)
    assert not verify_descent(-0.5, -40.0)
    assert verify_descent(-0.5, +40.0)
    assert not verify_descent(+0.5, +40.0)
    assert not verify_descent(0.0, -40.0)
    # a non-finite gain never passes, whatever its sign
    assert not verify_descent(float("nan"), -40.0)
    assert not verify_descent(+0.5, float("-inf"))
