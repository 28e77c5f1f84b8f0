"""Per-layer timers installed from outside the program.

A :class:`Tracer` replaces public functions and methods of ``sarbot`` with
wrappers that count calls and time them with ``time.perf_counter_ns``. Each
wrapper also charges its duration to the wrapped call that encloses it, so a
function's self time (its time minus the wrapped calls it made) is known.
:meth:`Tracer.restore` puts the original functions back. A
:class:`TickClock` times the trial loops in stretches of a fixed number of
ticks, each paired with the time of a fixed reference kernel, from which
:func:`reference_rate` gives the end-to-end tick rate.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np


class Stat:
    __slots__ = ("calls", "ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.self_ns = 0


class Tracer:
    """Call counts and times keyed by layer name, e.g. ``netcore.forward``.

    Wrappers made with ``per_tick=True`` stop recording while a wrapper made
    with ``pause_inner=True`` runs, so the probe loop of the loop-gain
    calibration does not count as trial ticks.
    """

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._open: list[int] = []  # child ns of each open wrapped call
        self._patches: list[tuple] = []
        self._paused = 0

    def wrap(self, owner, attr: str, name: str, per_tick: bool = True,
             pause_inner: bool = False, on_result=None) -> None:
        """Replace ``owner.attr`` (a module function or a class method) by a
        timed wrapper recorded under ``name``. ``on_result`` is called with
        each return value."""
        orig = getattr(owner, attr)
        stat = self.stats.setdefault(name, Stat())
        clock = time.perf_counter_ns
        opened = self._open

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if per_tick and self._paused:
                return orig(*args, **kwargs)
            self._paused += pause_inner
            opened.append(0)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = opened.pop()
                self._paused -= pause_inner
                stat.calls += 1
                stat.ns += dt
                stat.self_ns += dt - child
                if opened:
                    opened[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped function, last wrapped first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# (owner path, attribute, layer name) of every function timed per call; the
# owner path is relative to the sarbot package
PER_TICK = (
    ("simenv", "sample_camera", "simenv.sample_camera"),
    ("simenv", "sample_ldr", "simenv.sample_ldr"),
    ("simenv", "step", "simenv.step"),
    ("signals", "difference_signals", "signals.difference_signals"),
    ("signals.FilterArray", "step", "signals.FilterArray.step"),
    ("netcore.Network", "forward", "netcore.forward"),
    ("netcore.Network", "local_prop", "netcore.local_prop"),
    ("netcore.Network", "sign_prop", "netcore.sign_prop"),
    ("netcore.Network", "backprop_delta", "netcore.backprop_delta"),
    ("netcore.Network", "apply_update", "netcore.apply_update"),
    ("netcore.Network", "euclidean_distance", "netcore.euclidean_distance"),
    ("loop", "control_error", "loop.control_error"),
    ("loop", "reflex_action", "loop.reflex_action"),
    ("loop", "motor_command", "loop.motor_command"),
    ("loop", "saturate", "loop.saturate"),
    ("loop", "closed_loop_gradient", "loop.closed_loop_gradient"),
)

# functions timed per round: set-up, the trial loop and the artifact writers
PER_ROUND = (
    ("config", "load_config", "config.load_config"),
    ("config", "to_trial_config", "config.to_trial_config"),
    ("simenv", "make_track", "simenv.make_track"),
    ("exper", "run_trial", "exper.run_trial"),
    ("exper", "write_trial_artifacts", "exper.write_trial_artifacts"),
    ("pgmio", "write_weight_snapshot", "pgmio.write_weight_snapshot"),
)


# the reference kernel's median time on the machine the benchmark was
# defined on; times scaled by it read as on that machine at its usual speed
REFERENCE_S = 1.2e-3

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((24, 24))
_VECTOR = _rng.standard_normal(24)
_TABLE = _rng.standard_normal(1 << 19)  # 4 MiB, larger than a core's cache
_INDEX = _rng.integers(0, _TABLE.size, 256)


def reference_s() -> float:
    """Seconds one run of a fixed kernel takes: small numpy operations,
    interpreter overhead and scattered reads from a large table, the mix a
    control tick is made of. It runs no ``sarbot`` code, so its time moves
    with the machine's speed and not with the program."""
    t0 = time.perf_counter()
    a, total = _VECTOR, 0.0
    for i in range(60):
        x = np.tanh(_MATRIX @ a)
        total += float(_TABLE[(_INDEX + i * 7919) % _TABLE.size].sum())
        a = 0.5 * a + 0.5 * x
    return time.perf_counter() - t0


class TickClock:
    """Times the trial loops in stretches of ``ticks`` control ticks.

    It wraps ``simenv.sample_camera``, which the loop of ``exper.run_trial``
    calls once per tick and nothing else calls, and ``exper.run_trial``, so
    that the stretches of each trial are kept apart and none spans the work
    between two trials. Once every ``ticks`` calls the wrapper reads the
    clock and runs ``reference`` (by default :func:`reference_s`) between
    two stretches, so each stretch is paired with the machine's speed right
    after it. A partial stretch at the end of a trial is dropped. The
    wrappers go over whatever the attributes hold when the clock is entered.
    """

    def __init__(self, package, ticks: int = 100, reference=reference_s):
        self.ticks = ticks
        # (stretch seconds, reference seconds) per stretch, per trial
        self.trials: list[list[tuple[float, float]]] = []
        self._package = package
        self._reference = reference

    def __enter__(self):
        simenv, exper = self._package.simenv, self._package.exper
        sample_camera, run_trial = self._origs = (simenv.sample_camera,
                                                  exper.run_trial)
        trials, ticks, clock = self.trials, self.ticks, time.perf_counter
        reference = self._reference
        stretches, start, left = [], None, 0

        @functools.wraps(sample_camera)
        def timed_sample_camera(*args, **kwargs):
            nonlocal start, left
            if not left:
                if start is not None:
                    stretches.append((clock() - start, reference()))
                start, left = clock(), ticks
            left -= 1
            return sample_camera(*args, **kwargs)

        @functools.wraps(run_trial)
        def trial_run_trial(*args, **kwargs):
            nonlocal stretches, start, left
            stretches, start, left = [], None, 0
            trials.append(stretches)
            return run_trial(*args, **kwargs)

        simenv.sample_camera = timed_sample_camera
        exper.run_trial = trial_run_trial
        return self

    def __exit__(self, *exc):
        self._package.simenv.sample_camera, self._package.exper.run_trial = self._origs
        return False

    def speed(self) -> float:
        """REFERENCE_S over the median reference time of every stretch."""
        refs = [r for trial in self.trials for _, r in trial]
        return REFERENCE_S / statistics.median(refs) if refs else 1.0


def reference_rate(trials, ticks: int) -> float:
    """Ticks per second at the reference speed.

    Each stretch's time is divided by the reference time measured right
    after it, which takes out most of the machine's swings in speed; a
    trial's stretches count at the median of those ratios, times
    REFERENCE_S. Taken per trial, the medians do not mix up the rules,
    whose ticks differ in cost.
    """
    timed = [t for t in trials if t]
    seconds = REFERENCE_S * sum(statistics.median(s / r for s, r in t) * len(t)
                                for t in timed)
    return ticks * sum(map(len, timed)) / seconds if seconds else 0.0


def wrapper_cost_ns(blocks: int = 200, calls: int = 1000) -> float:
    """What one wrapped call costs on top of the call itself, in ns.

    A no-op method is timed bare and wrapped, in alternating blocks, so that
    drift in the machine's speed falls on both; the result is the difference
    of the two median block times per call.
    """
    class Bare:
        def f(self):
            return None

    class Wrapped(Bare):
        pass

    with Tracer() as tracer:
        tracer.wrap(Wrapped, "f", "probe")
        clock = time.perf_counter_ns
        times = {Bare: [], Wrapped: []}
        for _ in range(blocks):
            for cls in (Bare, Wrapped):
                f = cls().f
                t0 = clock()
                for _ in range(calls):
                    f()
                times[cls].append(clock() - t0)
    times = {cls: sorted(ts)[len(ts) // 2] for cls, ts in times.items()}
    return (times[Wrapped] - times[Bare]) / calls


def resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def install_all(tracer: Tracer, package) -> None:
    """Wrap every layer function of the ``sarbot`` package."""
    for path, attr, name in PER_ROUND:
        tracer.wrap(resolve(package, path), attr, name, per_tick=False)
    tracer.wrap(package.exper, "calibrate", "exper.calibrate", per_tick=False,
                pause_inner=True)
    for path, attr, name in PER_TICK:
        tracer.wrap(resolve(package, path), attr, name)
