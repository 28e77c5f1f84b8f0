"""Fully connected feed-forward core with three interchangeable update rules.

The network is a plain bias-free stack of dense layers, described by its
layer sizes, input first, and one activation name per weight layer, taken
from ``ACTIVATIONS``; ``init_weights`` draws its weights. Besides the forward
pass it offers three stateless error passes, each reading the last forward
state and returning one array per layer:

* ``backprop_delta`` -- sensitivity of the predictive output to every
  sum-output, by full backpropagation; drives the gradient rule (gdm).
* ``local_prop`` -- local error gamma: the scalar control error pushed one
  layer deep through each neuron's outgoing weights; drives localprop.
* ``sign_prop`` -- {-1, 0, +1} matrices produced by cascading only the sign of
  the error through the whole stack; together with ``|gamma|`` as magnitude
  they drive the sign-and-relevance rule (sar).  The cascade assumes a
  strictly increasing activation (every one of ``ACTIVATIONS`` is), so
  each slope has sign +1 and drops out; a saturated neuron, whose numerical
  slope rounds to 0, therefore still passes its sign on.

``apply_update(rule, e, kappa)`` applies ``d_w = kappa * eta * (err x input)``
where ``kappa`` is the closed-loop gradient supplied by the control loop,
``x`` the outer product, and ``input`` the incoming activation vector (the
predictor vector for the first layer).  The sign of ``kappa`` is what makes
the updates descend the squared error; see the loop module's calibration
helpers.  ``kappa`` is the relevance signal that gates all plasticity: a tick
with ``kappa == 0`` (no control error) runs no pass and leaves the weights
untouched, which is bit for bit what adding its all-zero deltas would do.
A tick with ``kappa != 0`` runs its rule's passes, then the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, StateError

GDM = "gdm"
LOCALPROP = "localprop"
SAR = "sar"
RULES = (GDM, LOCALPROP, SAR)

# activation -> (function, slope). A function f(v, out) returns the
# activation of v, written into out unless out is None; a linear layer's is
# v itself. The slope is computed from the stored (sum-output, activation)
# pair so the backward passes avoid recomputing the activation. Activations
# must be odd so that a symmetric scene yields exactly zero output from a
# bias-free network, and strictly increasing so that sign_prop may ignore
# their slopes
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda v, a: 1.0 - a * a),
    "linear": (lambda v, out: v, lambda v, a: np.ones_like(v)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


@dataclass(frozen=True)
class UpdateRule:
    """Which error quantity drives weight changes, and how fast."""

    kind: str
    eta: float

    def __post_init__(self):
        if self.kind not in RULES:
            raise ConfigError(f"unknown rule {self.kind!r}; choose from {RULES}")
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ConfigError(f"learning rate must be positive, got {self.eta}")


class Network:
    """Mutable network state: weights plus the last forward pass.

    One trial owns one instance and drives it strictly sequentially:
    forward -> apply_update, once per tick.  The error passes read the state
    the last forward left and store nothing; ``apply_update`` calls them only
    on ticks with ``kappa != 0``.  No weight is ever -0.0 (see ``__init__``),
    which is what makes skipping a ``kappa == 0`` update bitwise exact.

    The sum-outputs ``v[l]`` and the activations ``a[l]`` are fixed views
    into two buffers that ``__init__`` allocates and every ``forward``
    overwrites in place, one stretch per layer; a linear layer's ``a[l]`` is
    ``v[l]`` itself.  A caller who keeps them across ticks must copy them.
    """

    def __init__(self, weights, activations, output_weighting):
        if len(weights) < 1:
            raise ConfigError("a network needs at least one weight matrix")
        if len(activations) != len(weights):
            raise ConfigError("one activation per weight layer required")
        for name in activations:
            if name not in _ACTIVATIONS:
                raise ConfigError(f"unknown activation {name!r}; choose from {ACTIVATIONS}")
        # "+ 0.0" turns -0.0 into +0.0 and keeps every other value; from here
        # no update can make a -0.0 (x + y is -0.0 only if both are), so
        # "w + (+-0.0) == w" holds bitwise for every weight
        self.weights = [np.asarray(w, dtype=float) + 0.0 for w in weights]
        for l in range(1, len(self.weights)):
            if self.weights[l].shape[1] != self.weights[l - 1].shape[0]:
                raise ConfigError(
                    f"weight matrices do not chain: layer {l + 1} expects "
                    f"{self.weights[l].shape[1]} inputs, layer {l} has "
                    f"{self.weights[l - 1].shape[0]} neurons"
                )
        self.initial_weights = [w.copy() for w in self.weights]
        self.activations = list(activations)
        self.m = np.asarray(output_weighting, dtype=float)
        if self.m.shape != (self.weights[-1].shape[0],):
            raise ConfigError(
                f"output weighting length {self.m.size} != output layer size "
                f"{self.weights[-1].shape[0]}"
            )
        self._in_shape = (self.weights[0].shape[1],)
        # every layer's sum-outputs and activations, in layer order
        self._v_all = np.zeros(sum(w.shape[0] for w in self.weights))
        self._a_all = np.zeros_like(self._v_all)
        self._bind()
        self.p = None  # last input vector

    def _bind(self):
        """Point ``v[l]`` at layer l's stretch of the sum-output buffer and
        ``a[l]`` at its stretch of the activation buffer (at ``v[l]`` for a
        linear layer), and resolve each layer's activation function and
        product.

        A product is ``ndarray.dot``, which reaches the same BLAS routine as
        ``np.matmul`` and gives the same bits without the ufunc dispatch.
        Only a single-element operand (a 1x1 layer, a one-neuron output
        weighting) keeps ``np.matmul``: there dot multiplies, while matmul
        adds the product to 0.0, which turns a -0.0 into +0.0."""
        ends = np.cumsum([w.shape[0] for w in self.weights])
        stretches = [slice(e - w.shape[0], e) for e, w in zip(ends, self.weights)]
        self.v = [self._v_all[k] for k in stretches]
        self.a = [v if name == "linear" else self._a_all[k]
                  for v, k, name in zip(self.v, stretches, self.activations)]
        self._acts = [_ACTIVATIONS[name][0] for name in self.activations]
        self._dots = [
            np.matmul if a.size == 1 else np.ndarray.dot for a in (*self.weights, self.m)
        ]

    # a copy or an unpickled net binds anew: copied views would be detached
    # from the copied buffer, and the linear activation, a lambda, does not
    # pickle
    def __getstate__(self):
        return {
            k: v for k, v in self.__dict__.items() if k not in ("v", "a", "_acts", "_dots")
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind()

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _slope(self, l) -> np.ndarray:
        """Activation derivative at layer l, from the stored forward state."""
        return _ACTIVATIONS[self.activations[l]][1](self.v[l], self.a[l])

    # ------------------------------------------------------------------
    # forward and error passes
    # ------------------------------------------------------------------

    def forward(self, p) -> float:
        """Run the forward pass and return the predictive action M . A_last.

        The products are the ones ``_bind`` resolved, not ``@``: at these
        sizes matmul's ufunc dispatch costs more than the product itself, and
        the forward runs every tick.  A non-finite action is recomputed with
        ``@`` outside the held-back reports, so it warns as ``m @ x`` does.
        """
        p = np.asarray(p, dtype=float)
        if p.shape != self._in_shape:
            raise ConfigError(
                f"input length {p.shape} does not match {self._in_shape[0]}"
            )
        x = p
        a = self.a
        dots = self._dots
        # one reduction for all layers: a finite sum of squares (no term can
        # cancel another) bounds every |v| by sqrt(DBL_MAX), so no layer's
        # own sum is non-finite. Overflow and invalid-value reports are held
        # back: each one comes with a non-finite sum-output, sum of squares
        # or action, and then _test_layers or "m @ x" repeats it and reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for l, (w, v, act) in enumerate(zip(self.weights, self.v, self._acts)):
                dots[l](w, x, out=v)
                x = act(v, a[l])
            finite = math.isfinite(self._v_all.dot(self._v_all))
            out = float(dots[-1](self.m, x))
        if not finite:
            self._test_layers(p)
        self.p = p
        if not math.isfinite(out):
            out = float(self.m @ x)
        return out

    def _test_layers(self, p):
        """Repeat the forward pass of ``p`` layer by layer, each sum-output a
        fresh ``w @ x`` whose own sum is tested before the next layer runs,
        and raise for the first layer whose sum is non-finite.  It runs under
        the caller's floating-point error handling, so numpy warns (or
        raises) only for the layers up to that one, as a pass that stops
        there does; the values equal the buffer's bit for bit."""
        x = p
        for l, (w, act) in enumerate(zip(self.weights, self._acts)):
            v = w @ x
            if not np.isfinite(v.sum()):
                raise NumericError(
                    f"non-finite sum-output in layer {l + 1}", layer=l + 1
                )
            x = act(v, None)

    def _require_forward(self, what):
        if self.p is None:
            raise StateError(f"{what} requires a forward pass first")

    def backprop_delta(self) -> list[np.ndarray]:
        """Backpropagate the full output sensitivity d(A_P)/d(v) per layer."""
        self._require_forward("backprop_delta")
        n = self.n_layers
        d = [None] * n
        d[n - 1] = self.m * self._slope(n - 1)
        for l in range(n - 2, -1, -1):
            d[l] = self._slope(l) * (self.weights[l + 1].T @ d[l + 1])
        return d

    def sign_prop(self, e: float) -> list[np.ndarray]:
        """Cascade only the sign of the error through the stack.

        The output layer is seeded with sign(e) times the sign of each output
        neuron's weighting M; each deeper layer takes the sign of the
        sign-weighted transpose product, ``s[l] = sign(W[l+1]^T s[l+1])``.
        Activation slopes are left out: every activation is strictly
        increasing, so a slope's sign is always +1, even where saturation
        rounds its value to 0.  Entries are exactly -1, 0 or +1, with
        sign(0) = 0, so a zero error silences the whole cascade.
        """
        self._require_forward("sign_prop")
        n = self.n_layers
        s = [None] * n
        s[n - 1] = np.sign(e) * np.sign(self.m)
        for l in range(n - 2, -1, -1):
            s[l] = np.sign(self.weights[l + 1].T @ s[l + 1])
        return s

    def local_prop(self, e: float) -> list[np.ndarray]:
        """Propagate the raw error one layer deep everywhere.

        Every layer receives the scalar error directly: each neuron's local
        error is its activation slope times the sum of its outgoing weights
        scaled by ``e``.  The final layer uses the output weighting instead of
        outgoing weights.
        """
        self._require_forward("local_prop")
        n = self.n_layers
        g = [None] * n
        last = n - 1
        g[last] = self.m * self._slope(last) * e
        for l in range(n - 2, -1, -1):
            # ndarray.sum's own reduce, without its Python wrapper
            g[l] = self._slope(l) * (np.add.reduce(self.weights[l + 1], axis=0) * e)
        return g

    # ------------------------------------------------------------------
    # weight updates
    # ------------------------------------------------------------------

    def _rule_errors(self, rule: UpdateRule, e: float) -> list[np.ndarray]:
        if rule.kind == GDM:
            return self.backprop_delta()
        if rule.kind == LOCALPROP:
            return self.local_prop(e)
        return [s * np.abs(g) for s, g in zip(self.sign_prop(e), self.local_prop(e))]

    def _require_update(self, what, kappa):
        self._require_forward(what)
        if not math.isfinite(kappa):
            raise NumericError(f"non-finite closed-loop gradient {kappa}")

    def compute_update(
        self, rule: UpdateRule, e: float, kappa: float
    ) -> list[np.ndarray]:
        """Weight deltas kappa * eta * (err x input) without applying them;
        ``err`` is the rule's error quantity for the control error ``e``."""
        self._require_update("compute_update", kappa)
        errors = self._rule_errors(rule, e)
        inputs = [self.p] + self.a[:-1]
        scale = rule.eta * kappa
        # the products np.outer forms, without its Python wrapper
        return [scale * np.multiply.outer(err, x) for err, x in zip(errors, inputs)]

    def apply_update(self, rule: UpdateRule, e: float, kappa: float) -> None:
        """Apply the rule's weight deltas in place.

        ``kappa == 0`` (either sign) returns after the checks, without
        running a pass.  With finite errors and inputs every delta would be
        +-0.0, and adding +-0.0 leaves a weight that is not -0.0 bitwise
        unchanged, so the skip changes no result.
        """
        self._require_update("apply_update", kappa)
        if kappa == 0.0:
            return
        for w, d in zip(self.weights, self.compute_update(rule, e, kappa)):
            w += d

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def _layer_index(self, layer: int) -> int:
        if not 1 <= layer <= self.n_layers:
            raise IndexError(
                f"layer index {layer} out of range 1..{self.n_layers}"
            )
        return layer - 1

    def euclidean_distance(self, layer: int) -> float:
        """Euclidean distance of a layer's weights from their initial values.

        ``layer`` is 1-based; layer 1 is the input-facing matrix.
        """
        l = self._layer_index(layer)
        diff = self.weights[l] - self.initial_weights[l]
        # np.sum's reduce and a correctly rounded sqrt, without numpy's wrappers
        return math.sqrt(np.add.reduce(diff * diff, axis=None))

    def weight_heatmap(self, layer: int) -> np.ndarray:
        """Min-max normalized |weights| of one layer, in [0, 1].

        A constant layer maps to all zeros.
        """
        l = self._layer_index(layer)
        a = np.abs(self.weights[l])
        lo, hi = a.min(), a.max()
        if hi == lo:
            return np.zeros_like(a)
        return (a - lo) / (hi - lo)


def init_weights(sizes, activations, seed: int, w0, output_weighting) -> Network:
    """Build a reproducibly initialized network.

    ``sizes`` lists the layer sizes, input first, so the reference setup is
    ``[240, 13, ..., 4, 3]``; ``activations`` names one activation per weight
    layer, as :class:`Network` takes them. Weights are drawn uniformly from
    [-w0, +w0]; ``w0`` may be a scalar or a per-weight-layer sequence.
    ``output_weighting`` weighs the output neurons into the action.
    ``exper.NetParams`` holds the defaults of all but ``seed``.
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ConfigError("a network needs at least input and output sizes")
    if not all(isinstance(s, (int, np.integer)) and s >= 1 for s in sizes):
        raise ConfigError(f"layer sizes must be integers >= 1, got {sizes}")
    n = len(sizes) - 1
    if np.isscalar(w0):
        w0 = [float(w0)] * n
    else:
        w0 = [float(x) for x in w0]
        if len(w0) != n:
            raise ConfigError(f"w0 needs {n} entries, got {len(w0)}")
    if any(x <= 0 for x in w0):
        raise ConfigError("w0 entries must be positive")
    rng = np.random.default_rng(seed)
    weights = [
        rng.uniform(-w0[l], w0[l], size=(sizes[l + 1], sizes[l])) for l in range(n)
    ]
    return Network(weights, activations, output_weighting)
