import contextlib
import copy
import pickle
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarbot.errors import ConfigError, NumericError, StateError
from sarbot.netcore import (
    GDM,
    LOCALPROP,
    RULES,
    SAR,
    Network,
    UpdateRule,
    init_weights,
)


def make_net(sizes, seed=0, w0=0.5, m=None, activation="tanh"):
    m = np.ones(sizes[-1]) if m is None else m
    return init_weights(sizes, [activation] * (len(sizes) - 1), seed=seed, w0=w0,
                        output_weighting=m)


def forward_from_v(net, layer, v_vec):
    """Independent downstream evaluation: activation of a perturbed sum-output
    vector pushed through the remaining layers by hand."""
    act = {"tanh": np.tanh, "linear": lambda x: x}
    x = act[net.activations[layer]](v_vec)
    for l in range(layer + 1, net.n_layers):
        x = act[net.activations[l]](net.weights[l] @ x)
    return float(net.m @ x)


# ----------------------------------------------------------------------
# forward
# ----------------------------------------------------------------------


def test_forward_zero_input_gives_zero_action():
    net = make_net([4, 3, 2, 3], m=[1.0, 3.0, 5.0])
    assert net.forward(np.zeros(4)) == 0.0


def test_forward_single_path_matches_hand_composition():
    net = make_net([1, 1, 1], m=[2.0])
    w1 = float(net.weights[0][0, 0])
    w2 = float(net.weights[1][0, 0])
    p = 0.37
    expected = 2.0 * np.tanh(w2 * np.tanh(w1 * p))
    npt.assert_allclose(net.forward(np.array([p])), expected, rtol=1e-12)


def test_forward_reference_architecture_shapes_and_output():
    sizes = [240, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3]
    net = make_net(sizes, w0=0.1, m=[1.0, 3.0, 5.0])
    assert net.weights[0].shape == (13, 240)
    assert [w.shape[0] for w in net.weights] == sizes[1:]
    npt.assert_array_equal(net.m, [1.0, 3.0, 5.0])
    rng = np.random.default_rng(1)
    p = rng.uniform(-1, 1, 240)
    a_p = net.forward(p)
    npt.assert_allclose(a_p, float(net.m @ net.a[-1]), rtol=0, atol=0)


def test_forward_dimension_mismatch_raises():
    net = make_net([4, 2])
    with pytest.raises(ConfigError):
        net.forward(np.zeros(5))


def test_forward_nonfinite_identifies_layer():
    net = make_net([2, 3, 1])
    net.weights[1][0, 0] = np.nan
    with pytest.raises(NumericError) as err:
        net.forward(np.ones(2))
    assert err.value.layer == 2


_REF_ACT = {"tanh": np.tanh, "linear": lambda v: v}


def reference_forward(net, p):
    """The forward pass layer by layer, each sum-output a fresh ``w @ x``:
    returns the action, the sum-outputs and the activations."""
    x, vs, acts = p, [], []
    for w, name in zip(net.weights, net.activations):
        vs.append(w @ x)
        x = _REF_ACT[name](vs[-1])
        acts.append(x)
    return float(net.m @ x), vs, acts


def random_net(rng, sizes, w0):
    activations = [str(rng.choice(["tanh", "linear"])) for _ in sizes[1:]]
    return init_weights(sizes, activations, seed=int(rng.integers(2**32)), w0=w0,
                        output_weighting=rng.uniform(-2, 2, sizes[-1]))


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 16), min_size=2, max_size=7),
    w0=st.sampled_from([0.05, 0.8, 40.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_equals_the_layer_by_layer_reference_bitwise(sizes, w0, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, sizes, w0)
    for _ in range(3):
        p = rng.uniform(-200, 200, sizes[0])
        a_p = net.forward(p)
        ref_a_p, ref_v, ref_a = reference_forward(net, p)
        assert np.float64(a_p).tobytes() == np.float64(ref_a_p).tobytes()
        for l in range(net.n_layers):
            assert net.v[l].tobytes() == ref_v[l].tobytes()
            assert net.a[l].tobytes() == ref_a[l].tobytes()


def test_single_element_products_keep_the_sign_of_zero_matmul_gives():
    # a 1x1 product through ndarray.dot would be a bare multiply, -0.0 here;
    # matmul adds it to 0.0 and gives +0.0, and so must the forward
    net = Network([[[0.5]], [[-2.0]]], ["linear", "linear"], [3.0])
    p = np.array([-0.0])
    a_p = net.forward(p)
    ref_a_p, ref_v, ref_a = reference_forward(net, p)
    assert [v.tobytes() for v in net.v] == [v.tobytes() for v in ref_v]
    assert np.float64(a_p).tobytes() == np.float64(ref_a_p).tobytes()
    assert not np.signbit(net.v[0][0]) and not np.signbit(a_p)


def test_an_overflowing_action_warns_as_matmul_does():
    net = Network([[[1e300], [-1e300]]], ["linear"], [1e10, -1e10])
    with recorded_warnings() as ref_warned:
        ref_a_p = reference_forward(net, np.array([1.0]))[0]
    with recorded_warnings() as warned:
        assert net.forward(np.array([1.0])) == ref_a_p == np.inf
    assert messages(warned) == messages(ref_warned) != []


def test_forward_sum_outputs_are_views_the_next_forward_overwrites():
    net = make_net([4, 3, 2])
    views = list(net.v)
    net.forward(np.ones(4))
    first = [v.copy() for v in net.v]
    net.forward(-np.ones(4))
    assert all(v is w for v, w in zip(net.v, views))
    npt.assert_array_equal(net.v[0], -first[0])


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))])
def test_a_copied_net_checks_its_own_sum_outputs(clone):
    net = make_net([3, 4, 2])
    net.forward(np.ones(3))
    twin = clone(net)
    npt.assert_array_equal(np.concatenate(twin.v), np.concatenate(net.v))
    twin.weights[1][0, 0] = np.nan
    with pytest.raises(NumericError) as err:
        twin.forward(np.ones(3))
    assert err.value.layer == 2
    assert np.isnan(twin.v[1][0]) and not np.isnan(net.v[1]).any()


def mixed_net():
    """A net of tanh, linear, tanh and linear layers."""
    rng = np.random.default_rng(3)
    return Network([rng.uniform(-0.5, 0.5, s) for s in ((5, 6), (4, 5), (3, 4), (2, 3))],
                   ["tanh", "linear", "tanh", "linear"], [1.0, -2.0])


def test_the_forward_writes_each_activation_into_its_own_buffer():
    net = mixed_net()
    buffers = list(net.a)
    rng = np.random.default_rng(4)
    net.forward(rng.uniform(-3, 3, 6))
    p = rng.uniform(-3, 3, 6)
    net.forward(p)
    _, _, ref_a = reference_forward(net, p)
    for l in range(net.n_layers):
        assert net.a[l] is buffers[l]
        assert net.a[l].tobytes() == ref_a[l].tobytes()
    # a linear layer's activation is its sum-output; nothing else is shared
    assert net.a[1] is net.v[1] and net.a[3] is net.v[3]
    arrays = list(net.v) + [net.a[0], net.a[2]]
    for j, x in enumerate(arrays):
        assert not any(np.shares_memory(x, y) for y in arrays[j + 1 :])


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))])
def test_a_copied_net_owns_its_activation_buffers(clone):
    net = mixed_net()
    rng = np.random.default_rng(5)
    net.forward(rng.uniform(-3, 3, 6))
    kept = [a.tobytes() for a in net.a]
    twin = clone(net)
    assert [a.tobytes() for a in twin.a] == kept  # the last forward's state
    assert twin.a[1] is twin.v[1] and twin.a[3] is twin.v[3]
    for mine in twin.a:
        assert not any(np.shares_memory(mine, theirs) for theirs in (*net.a, *net.v))
    p = rng.uniform(-3, 3, 6)
    twin.forward(p)
    assert [a.tobytes() for a in net.a] == kept
    assert [a.tobytes() for a in twin.a] == [a.tobytes() for a in reference_forward(twin, p)[2]]


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=2, max_size=7),
    bad=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_nonfinite_weights_name_the_first_nonfinite_layer(sizes, bad, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, sizes, 0.8)
    p0 = rng.uniform(-1, 1, sizes[0])
    net.forward(p0)
    # one bad value in each of up to three layers, from a random first one on
    layers = rng.choice(net.n_layers, len(bad))
    for value, l in zip(bad, layers):
        w = net.weights[l]
        w[rng.integers(w.shape[0]), rng.integers(w.shape[1])] = value
    p = rng.uniform(-1, 1, sizes[0])
    # inf * 0 and inf - inf make numpy warn: the forward must warn as the
    # pass that stops at the first bad layer does, and no more
    with recorded_warnings() as ref_warned:
        first = stopping_reference(net, p)
    with recorded_warnings() as warned, pytest.raises(NumericError) as err:
        net.forward(p)
    assert first == min(layers)
    assert err.value.layer == first + 1
    assert messages(warned) == messages(ref_warned)
    assert net.p is p0  # the failed forward left the last input alone


def stopping_reference(net, p):
    """The forward pass that tests each layer's sum before it runs the next;
    returns the index of the first layer whose sum is non-finite, or None."""
    x = p
    for l, (w, name) in enumerate(zip(net.weights, net.activations)):
        v = w @ x
        if not np.isfinite(v.sum()):
            return l
        x = _REF_ACT[name](v)
    return None


@contextlib.contextmanager
def recorded_warnings():
    """Every warning numpy gives for an overflow or an invalid value."""
    with warnings.catch_warnings(record=True) as warned, \
            np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("always")
        yield warned


def messages(warned):
    return [(w.category, str(w.message)) for w in warned]


@pytest.mark.parametrize("value", [1e160, 1e308])
def test_a_forward_whose_check_overflows_warns_of_nothing(value):
    # |v| above sqrt(DBL_MAX) overflows the sum of squares, not a layer's sum
    net = Network([[[value], [0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                  ["linear", "tanh"], [1.0, 0.0])
    with recorded_warnings() as warned:
        assert net.forward(np.array([1.0])) == 1.0
        assert stopping_reference(net, np.array([1.0])) is None
    assert messages(warned) == []


def test_finite_layer_sums_whose_total_overflows_do_not_raise():
    # each layer sums to 1e308; all of them together overflow
    net = Network([[[1e308], [0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                  ["linear", "linear"], [1.0, 0.0])
    with recorded_warnings() as warned:
        assert net.forward(np.array([1.0])) == 1e308
    assert messages(warned) == []
    assert [float(v.sum()) for v in net.v] == [1e308, 1e308]
    assert not np.isfinite(sum(float(v.sum()) for v in net.v))


def test_one_layer_overflow_raises_though_the_layers_cancel():
    # layer 1 sums to inf; layer 2 repeats its terms with the opposite sign,
    # so a plain total over both layers, in a different order, could be 0
    w1 = np.zeros((9, 1))
    w1[[0, 1], 0], w1[8, 0] = 1e308, -1e308
    w2 = np.zeros((9, 9))
    w2[0, 0] = -1.0
    net = Network([w1, w2], ["linear", "linear"], np.ones(9))
    with recorded_warnings() as ref_warned:
        assert stopping_reference(net, np.array([1.0])) == 0
    with recorded_warnings() as warned, pytest.raises(NumericError) as err:
        net.forward(np.array([1.0]))
    assert err.value.layer == 1
    assert messages(warned) == messages(ref_warned) != []


def test_an_unknown_activation_is_a_config_error():
    with pytest.raises(ConfigError) as err:
        Network([[[1.0]]], ["relu"], [1.0])
    assert str(err.value) == "unknown activation 'relu'; choose from ('tanh', 'linear')"


def test_a_broken_chain_names_the_layer_that_expects_and_the_one_that_has():
    with pytest.raises(ConfigError) as err:
        Network([np.ones((4, 3)), np.ones((2, 5))], ["tanh", "tanh"], [1.0, 1.0])
    assert str(err.value) == (
        "weight matrices do not chain: layer 2 expects 5 inputs, "
        "layer 1 has 4 neurons"
    )


# ----------------------------------------------------------------------
# backprop_delta
# ----------------------------------------------------------------------


def test_delta_output_layer_is_weighting_times_slope():
    net = make_net([2, 3], m=[1.0, 3.0, 5.0])
    net.forward(np.array([0.3, -0.2]))
    delta = net.backprop_delta()
    slope = 1.0 - net.a[-1] ** 2
    npt.assert_allclose(delta[-1], np.array([1.0, 3.0, 5.0]) * slope, rtol=1e-14)


@pytest.mark.parametrize("call", [
    lambda net: net.backprop_delta(),
    lambda net: net.local_prop(1.0),
    lambda net: net.sign_prop(1.0),
    lambda net: net.compute_update(UpdateRule(SAR, 0.1), 1.0, 1.0),
], ids=["backprop_delta", "local_prop", "sign_prop", "compute_update"])
def test_delta_requires_forward(call):
    net = make_net([2, 2])
    with pytest.raises(StateError):
        call(net)


def test_delta_zero_next_layer_weights_gives_zero():
    net = make_net([3, 4, 2])
    net.weights[1][:] = 0.0
    net.forward(np.array([0.5, -0.1, 0.2]))
    delta = net.backprop_delta()
    npt.assert_array_equal(delta[0], np.zeros(4))


@pytest.mark.parametrize("seed", range(5))
def test_delta_matches_central_finite_differences(seed):
    rng = np.random.default_rng(seed)
    depth = rng.integers(2, 5)
    sizes = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
    net = make_net(sizes, seed=seed, w0=0.8, m=rng.uniform(-2, 2, sizes[-1]))
    p = rng.uniform(-1, 1, sizes[0])
    net.forward(p)
    delta = net.backprop_delta()
    h = 1e-5
    for l in range(net.n_layers):
        v = net.v[l]
        for i in range(v.size):
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            fd = (forward_from_v(net, l, vp) - forward_from_v(net, l, vm)) / (2 * h)
            npt.assert_allclose(delta[l][i], fd, rtol=1e-6, atol=1e-10)


# ----------------------------------------------------------------------
# sign_prop
# ----------------------------------------------------------------------


def test_sign_prop_zero_error_silences_all_layers():
    net = make_net([3, 4, 2])
    net.forward(np.array([0.1, 0.2, -0.4]))
    signs = net.sign_prop(0.0)
    for s in signs:
        npt.assert_array_equal(s, np.zeros_like(s))


def test_sign_prop_positive_chain_is_all_plus_one():
    net = make_net([1, 1, 1, 1])
    for w in net.weights:
        w[:] = np.abs(w) + 0.1
    net.forward(np.array([0.5]))
    signs = net.sign_prop(2.5)
    for s in signs:
        npt.assert_array_equal(s, np.ones_like(s))


def test_sign_prop_invariant_under_positive_rescaling():
    net = make_net([4, 5, 4, 3], m=[1.0, 3.0, 5.0])
    net.forward(np.array([0.4, -0.3, 0.2, 0.6]))
    before = [s.copy() for s in net.sign_prop(-1.7)]
    scaled = copy.deepcopy(net)
    scaled.weights[2] *= 10.0
    scaled.forward(np.array([0.4, -0.3, 0.2, 0.6]))
    after = scaled.sign_prop(-1.7)
    for b, a in zip(before[:2], after[:2]):
        npt.assert_array_equal(b, a)


def test_sign_prop_entries_in_sign_domain():
    rng = np.random.default_rng(7)
    for trial in range(20):
        sizes = [int(rng.integers(1, 7)) for _ in range(rng.integers(3, 6))]
        net = make_net(sizes, seed=trial, w0=1.0, m=rng.uniform(-1, 1, sizes[-1]))
        net.weights[0][rng.integers(0, sizes[1]), :] = 0.0  # exercise sign(0)
        net.forward(rng.uniform(-1, 1, sizes[0]))
        for s in net.sign_prop(float(rng.normal())):
            assert np.all(np.isin(s, (-1.0, 0.0, 1.0)))


def test_sign_prop_equals_sign_of_delta_on_chains():
    rng = np.random.default_rng(11)
    for trial in range(40):
        depth = int(rng.integers(2, 7))
        net = make_net([1] * (depth + 1), seed=trial, w0=1.0, m=[1.0])
        net.forward(rng.uniform(-1, 1, 1))
        e = float(rng.choice([-2.0, -0.5, 0.0, 0.5, 2.0]))
        signs = net.sign_prop(e)
        delta = net.backprop_delta()
        for s, d in zip(signs, delta):
            npt.assert_array_equal(s, np.sign(np.sign(e) * d))


# ----------------------------------------------------------------------
# local_prop
# ----------------------------------------------------------------------


def test_local_prop_zero_error_and_homogeneity():
    net = make_net([3, 2, 2])
    p = np.array([0.2, -0.5, 0.3])
    net.forward(p)
    for g in net.local_prop(0.0):
        npt.assert_array_equal(g, np.zeros_like(g))
    g1 = [g.copy() for g in net.local_prop(0.7)]
    g2 = net.local_prop(1.4)
    for a, b in zip(g1, g2):
        npt.assert_array_equal(2.0 * a, b)


def test_local_prop_small_net_hand_computation():
    net = make_net([2, 2, 1], m=[1.0])
    net.weights[0][:] = [[0.3, -0.2], [0.1, 0.4]]
    net.weights[1][:] = [[0.5, -0.7]]
    p = np.array([0.6, -0.1])
    net.forward(p)
    e = 1.3
    gamma = net.local_prop(e)
    v1 = net.weights[0] @ p
    expected1 = (1 - np.tanh(v1) ** 2) * np.array([0.5, -0.7]) * e
    npt.assert_allclose(gamma[0], expected1, rtol=1e-14)
    v2 = net.weights[1] @ np.tanh(v1)
    expected2 = 1.0 * (1 - np.tanh(v2) ** 2) * e
    npt.assert_allclose(gamma[1], expected2, rtol=1e-14)


# ----------------------------------------------------------------------
# apply_update
# ----------------------------------------------------------------------


def test_zero_kappa_freezes_all_rules():
    for kind in (GDM, LOCALPROP, SAR):
        net = make_net([3, 3, 2], seed=3)
        net.forward(np.array([0.2, -0.1, 0.4]))
        before = [w.copy() for w in net.weights]
        net.apply_update(UpdateRule(kind, 0.5), 0.0, 0.0)
        for b, w in zip(before, net.weights):
            npt.assert_array_equal(b, w)


def bitwise(weights):
    return [w.tobytes() for w in weights]


@pytest.mark.parametrize("kappa", [0.0, -0.0], ids=["plus0", "minus0"])
@pytest.mark.parametrize("kind", RULES)
def test_zero_kappa_runs_no_pass_and_keeps_weights_bitwise(kind, kappa, monkeypatch):
    def no_pass(self, rule, e):
        raise AssertionError("an error pass ran on a kappa = 0 tick")

    monkeypatch.setattr(Network, "_rule_errors", no_pass)
    net = make_net([4, 3, 3, 2], seed=5)
    net.forward(np.array([0.2, -0.1, 0.4, 0.0]))
    before = bitwise(net.weights)
    net.apply_update(UpdateRule(kind, 0.5), 1.7, kappa)
    assert bitwise(net.weights) == before
    with pytest.raises(AssertionError, match="error pass ran"):
        net.apply_update(UpdateRule(kind, 0.5), 1.7, 1e-3)


@pytest.mark.parametrize("kind", RULES)
def test_zero_kappa_keeps_the_update_checks(kind):
    rule = UpdateRule(kind, 0.5)
    net = make_net([3, 2, 2])
    with pytest.raises(StateError):
        net.apply_update(rule, 0.0, 0.0)
    net.forward(np.array([0.2, -0.1, 0.4]))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError):
            net.apply_update(rule, 0.0, bad)


def test_negative_zero_weights_become_positive_zero():
    net = Network([[[-0.0, 1.0]], [[-0.0]]], ["tanh", "tanh"], [1.0])
    assert not any(np.signbit(w[w == 0]).any() for w in net.weights)
    assert not any(np.signbit(w[w == 0]).any() for w in net.initial_weights)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=6),
    w0=st.sampled_from([0.05, 0.8, 40.0]),
    kind=st.sampled_from(RULES),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_kappa_is_exact_and_no_weight_becomes_negative_zero(sizes, w0, kind, seed):
    # w0 = 40 saturates tanh, so slopes and many deltas round to +-0.0; zeroed
    # weights and inputs make +0.0 weights meet -0.0 deltas
    rng = np.random.default_rng(seed)
    net = make_net(sizes, seed=seed, w0=w0, m=rng.uniform(-2, 2, sizes[-1]))
    for w in net.weights:
        w[rng.random(w.shape) < 0.3] = 0.0
    rule = UpdateRule(kind, 0.7)
    for _ in range(8):
        p = rng.uniform(-1, 1, sizes[0])
        p[rng.random(sizes[0]) < 0.3] = 0.0
        net.forward(p)
        e = float(rng.choice([0.0, rng.normal(0, 5)]))
        kappa = float(rng.choice([0.0, -0.0]))
        before = bitwise(net.weights)
        full = [w.copy() for w in net.weights]
        for w, d in zip(full, net.compute_update(rule, e, kappa)):
            w += d
        assert bitwise(full) == before  # the update the guard skips is a no-op
        net.apply_update(rule, e, kappa)
        assert bitwise(net.weights) == before
        net.apply_update(rule, e, float(rng.normal(0, 0.1)))
        for w in net.weights:
            assert not np.signbit(w[w == 0.0]).any()


def test_sar_equals_localprop_when_signs_and_errors_positive():
    net = make_net([2, 2, 1], m=[1.0])
    for w in net.weights:
        w[:] = np.abs(w) + 0.05
    net.forward(np.array([0.3, 0.8]))
    e = 2.0
    d_lp = net.compute_update(UpdateRule(LOCALPROP, 0.1), e, 0.25)
    d_sar = net.compute_update(UpdateRule(SAR, 0.1), e, 0.25)
    for a, b in zip(d_lp, d_sar):
        npt.assert_array_equal(a, b)


def test_sar_update_invariant_gdm_update_scales_on_linear_chain():
    # 1-1-1-1 linear chain: doubling the top weight doubles the gdm delta in
    # layer 1 but leaves the sar update bitwise unchanged
    def build():
        net = make_net([1, 1, 1, 1], seed=5, w0=0.5, m=[1.0], activation="linear")
        return net

    p = np.array([0.7])
    e = 1.1
    kappa = 0.3

    net = build()
    net.forward(p)
    sar1 = net.compute_update(UpdateRule(SAR, 0.2), e, kappa)[0]
    gdm1 = net.compute_update(UpdateRule(GDM, 0.2), e, kappa)[0]

    scaled = build()
    scaled.weights[2] *= 2.0
    scaled.forward(p)
    sar2 = scaled.compute_update(UpdateRule(SAR, 0.2), e, kappa)[0]
    gdm2 = scaled.compute_update(UpdateRule(GDM, 0.2), e, kappa)[0]

    npt.assert_array_equal(sar1, sar2)
    npt.assert_allclose(gdm2, 2.0 * gdm1, rtol=1e-14)
    assert np.abs(gdm1).max() > 0


@pytest.mark.parametrize("kind", [GDM, LOCALPROP, SAR])
def test_update_is_outer_product_of_rule_errors(kind):
    rng = np.random.default_rng(7)
    for seed in range(10):
        sizes = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(2, 6)))]
        net = make_net(sizes, seed=seed, w0=0.8, m=rng.uniform(-2, 2, sizes[-1]))
        net.forward(rng.uniform(-1, 1, sizes[0]))
        e, kappa, eta = float(rng.normal()), float(rng.normal()), 0.3
        if kind == GDM:
            errors = net.backprop_delta()
        elif kind == LOCALPROP:
            errors = net.local_prop(e)
        else:
            signs, gamma = net.sign_prop(e), net.local_prop(e)
            errors = [s * np.abs(g) for s, g in zip(signs, gamma)]
        inputs = [net.p] + net.a[:-1]
        update = net.compute_update(UpdateRule(kind, eta), e, kappa)
        for d, err, x in zip(update, errors, inputs, strict=True):
            npt.assert_array_equal(d, eta * kappa * np.outer(err, x))


def test_update_determinism_over_ticks():
    def run():
        net = make_net([4, 3, 2], seed=9, m=[1.0, 2.0])
        rng = np.random.default_rng(42)
        rule = UpdateRule(SAR, 0.05)
        for _ in range(20):
            p = rng.uniform(-1, 1, 4)
            e = float(rng.normal())
            net.forward(p)
            net.apply_update(rule, e, 2.0 * e * 0.5)
        return net.weights

    w1, w2 = run(), run()
    for a, b in zip(w1, w2):
        npt.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# analysis helpers
# ----------------------------------------------------------------------


def test_euclidean_distance_zero_then_single_change():
    net = make_net([3, 2, 1])
    assert net.euclidean_distance(1) == 0.0
    assert net.euclidean_distance(2) == 0.0
    net.weights[0][0, 0] += 3.0
    npt.assert_allclose(net.euclidean_distance(1), 3.0, rtol=0)
    with pytest.raises(IndexError):
        net.euclidean_distance(3)
    with pytest.raises(IndexError):
        net.euclidean_distance(0)


def test_weight_heatmap_minmax_and_degenerate():
    net = make_net([2, 2])
    net.weights[0][:] = [[0.0, 5.0], [10.0, 5.0]]
    npt.assert_allclose(net.weight_heatmap(1), [[0.0, 0.5], [1.0, 0.5]])
    net.weights[0][:] = 4.2
    npt.assert_array_equal(net.weight_heatmap(1), np.zeros((2, 2)))


def test_init_weights_determinism_and_spread():
    sizes, acts = [5, 3, 2], ["tanh", "tanh"]
    a = init_weights(sizes, acts, seed=123, w0=0.1, output_weighting=[1.0, 1.0])
    b = init_weights(sizes, acts, seed=123, w0=0.1, output_weighting=[1.0, 1.0])
    for wa, wb in zip(a.weights, b.weights):
        npt.assert_array_equal(wa, wb)
    c = init_weights(sizes, acts, seed=124, w0=0.1, output_weighting=[1.0, 1.0])
    assert any(np.abs(wa - wc).sum() > 0 for wa, wc in zip(a.weights, c.weights))
    assert all(np.abs(w).max() <= 0.1 for w in a.weights)


def test_init_weights_validation():
    with pytest.raises(ConfigError):
        init_weights([3], [], seed=0, w0=0.1, output_weighting=[1.0])
    with pytest.raises(ConfigError):
        init_weights([3, 2], ["tanh"], seed=0, w0=[0.1, 0.2],
                     output_weighting=[1.0, 1.0])
    with pytest.raises(ConfigError, match="integers >= 1"):
        init_weights([3, 0], ["tanh"], seed=0, w0=0.1, output_weighting=[])
    with pytest.raises(ConfigError, match="integers >= 1"):
        init_weights([3, 2.0], ["tanh"], seed=0, w0=0.1, output_weighting=[1.0, 1.0])
    with pytest.raises(ConfigError, match="unknown activation 'relu'"):
        init_weights([3, 2], ["relu"], seed=0, w0=0.1, output_weighting=[1.0, 1.0])
    with pytest.raises(ConfigError):
        UpdateRule("adam", 0.1)
    with pytest.raises(ConfigError):
        UpdateRule(GDM, 0.0)


def test_positive_scaling_leaves_gamma_and_sar_update_unchanged():
    rng = np.random.default_rng(31)
    for trial in range(10):
        sizes = [int(rng.integers(2, 6)) for _ in range(5)]
        net = make_net(sizes, seed=trial, w0=0.9, m=rng.uniform(-1, 1, sizes[-1]))
        p = rng.uniform(-1, 1, sizes[0])
        e = float(rng.normal())
        net.forward(p)
        rule = UpdateRule(SAR, 0.1)
        base_update = net.compute_update(rule, e, 2.0 * e)[0]
        base_gamma = net.local_prop(e)[0]
        for c in (0.1, 10.0):
            scaled = copy.deepcopy(net)
            for l in range(2, scaled.n_layers):
                scaled.weights[l] *= c
            scaled.forward(p)
            npt.assert_array_equal(scaled.local_prop(e)[0], base_gamma)
            npt.assert_array_equal(
                scaled.compute_update(rule, e, 2.0 * e)[0], base_update
            )


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 8), min_size=4, max_size=7),
    w0=st.sampled_from([0.05, 0.9, 40.0]),
    k=st.integers(1, 30).flatmap(lambda k: st.sampled_from([k, -k])),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sar_layer_step_is_immune_to_scaling_the_layers_above_its_next(
    sizes, w0, k, seed, data
):
    # a tanh stack of depth len(sizes) - 1 = 3..6; w0 = 40 saturates layers,
    # so their slopes round to 0. Layer l's sar step reads the weights above
    # layer l + 1 only through the signs of the cascade. The factor is a power
    # of two, so every scaled product and sum is the unscaled one times 2^k
    # exactly and keeps its sign; a factor such as 0.1 rounds, and can flip
    # the sign of a sum that nearly cancels.
    rng = np.random.default_rng(seed)
    net = make_net(sizes, seed=int(rng.integers(2**32)), w0=w0,
                   m=rng.uniform(-2, 2, sizes[-1]))
    l = data.draw(st.integers(0, net.n_layers - 3), label="layer")
    p = rng.uniform(-1, 1, sizes[0])
    e = float(rng.normal())
    rule = UpdateRule(SAR, 0.3)
    net.forward(p)
    base = net.compute_update(rule, e, 2.0 * e)[l]
    for w in net.weights[l + 2:]:
        w *= 2.0**k
    net.forward(p)
    assert net.compute_update(rule, e, 2.0 * e)[l].tobytes() == base.tobytes()


# ----------------------------------------------------------------------
# the passes against the numpy forms they replace, byte for byte
# ----------------------------------------------------------------------


@st.composite
def forward_states(draw):
    """A random tanh/linear net after one forward, an error e and a kappa;
    w0 = 40 saturates tanh layers, so slopes round to 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=7))
    net = random_net(rng, sizes, draw(st.sampled_from([0.05, 0.8, 40.0])))
    p = rng.uniform(-200, 200, sizes[0])
    p[rng.random(sizes[0]) < 0.2] = 0.0
    net.forward(p)
    e = draw(st.sampled_from([0.0, -1.5, float(rng.normal(0, 20))]))
    kappa = float(rng.normal(0, 2))
    return net, e, kappa


def reference_slope(net, l):
    a = net.a[l]
    return 1.0 - a * a if net.activations[l] == "tanh" else np.ones_like(a)


def reference_local_prop(net, e):
    last = net.n_layers - 1
    g = [net.m * reference_slope(net, last) * e]
    for l in range(last - 1, -1, -1):
        g.insert(0, reference_slope(net, l) * (net.weights[l + 1].sum(axis=0) * e))
    return g


@settings(max_examples=150, deadline=None)
@given(forward_states())
def test_local_prop_equals_the_sum_form_bitwise(state):
    net, e, _ = state
    assert bitwise(net.local_prop(e)) == bitwise(reference_local_prop(net, e))


@settings(max_examples=150, deadline=None)
@given(forward_states(), st.sampled_from(RULES))
def test_compute_update_equals_scaled_np_outer_bitwise(state, kind):
    net, e, kappa = state
    if kind == GDM:
        errors = net.backprop_delta()
    elif kind == LOCALPROP:
        errors = net.local_prop(e)
    else:
        errors = [s * np.abs(g) for s, g in zip(net.sign_prop(e), net.local_prop(e))]
    scale = 0.3 * kappa
    ref = [scale * np.outer(err, x) for err, x in zip(errors, [net.p] + net.a[:-1])]
    assert bitwise(net.compute_update(UpdateRule(kind, 0.3), e, kappa)) == bitwise(ref)


@settings(max_examples=150, deadline=None)
@given(forward_states(), st.sampled_from(RULES))
def test_euclidean_distance_equals_the_np_sqrt_sum_form_bitwise(state, kind):
    net, e, kappa = state
    net.apply_update(UpdateRule(kind, 0.7), e, kappa)
    for l, (w, w_init) in enumerate(zip(net.weights, net.initial_weights)):
        diff = w - w_init
        ref = float(np.sqrt(np.sum(diff * diff)))
        got = net.euclidean_distance(l + 1)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()


@settings(max_examples=150, deadline=None)
@given(forward_states())
def test_sar_steps_are_localprop_steps_where_the_sign_cascade_is_nonzero(state):
    # from one forward state: |dw| of sar equals |dw| of localprop element
    # for element wherever sign_prop is nonzero, and sar leaves the rest alone
    net, e, kappa = state
    signs = net.sign_prop(e)
    d_sar = net.compute_update(UpdateRule(SAR, 0.4), e, kappa)
    d_lp = net.compute_update(UpdateRule(LOCALPROP, 0.4), e, kappa)
    for s, sar, lp in zip(signs, d_sar, d_lp, strict=True):
        assert np.isin(s, (-1.0, 0.0, 1.0)).all()
        on = s != 0
        assert np.abs(sar[on]).tobytes() == np.abs(lp[on]).tobytes()
        assert (sar[~on] == 0).all()
