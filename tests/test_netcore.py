import copy

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
    LayerSpec,
    Network,
    UpdateRule,
    init_weights,
)


def make_net(sizes, seed=0, w0=0.5, m=None, activation="tanh"):
    specs = [LayerSpec(s, activation) for s in sizes]
    return init_weights(specs, seed=seed, w0=w0, output_weighting=m)


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
    net = make_net([4, 3, 2, 3])
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
    net = make_net(sizes, w0=0.1)
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
    net = make_net([4, 5, 4, 3])
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
    specs = [LayerSpec(5), LayerSpec(3), LayerSpec(2)]
    a = init_weights(specs, seed=123)
    b = init_weights(specs, seed=123)
    for wa, wb in zip(a.weights, b.weights):
        npt.assert_array_equal(wa, wb)
    c = init_weights(specs, seed=124)
    assert any(np.abs(wa - wc).sum() > 0 for wa, wc in zip(a.weights, c.weights))
    assert all(np.abs(w).max() <= 0.1 for w in a.weights)


def test_init_weights_validation():
    with pytest.raises(ConfigError):
        init_weights([LayerSpec(3)], seed=0)
    with pytest.raises(ConfigError):
        init_weights([LayerSpec(3), LayerSpec(2)], seed=0, w0=[0.1, 0.2])
    with pytest.raises(ConfigError):
        LayerSpec(0)
    with pytest.raises(ConfigError):
        LayerSpec(3, "relu")
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
