"""Declarative run configuration: YAML loading, strict validation, and the
bridge to the runtime objects.

The defaults live in one place: the runtime dataclasses, ``exper.TrialConfig``
and the parts it holds. ``_LEAVES`` maps each YAML leaf to the
``TrialConfig`` attribute it sets and to the check its value must pass.
``DEFAULTS`` is read off ``TrialConfig()`` through that table, the YAML
merge and validation walk it, and ``to_trial_config`` writes a resolved
config back through it. Only ``batch.*`` and ``output.*``, which the CLI
alone reads, keep literal defaults here (``_CLI_LEAVES``).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
from functools import reduce
from typing import NamedTuple

import numpy as np
import yaml

from . import exper, netcore, simenv
from .errors import ConfigError


def _num(v) -> bool:
    """A finite number: an int (not a bool) or a finite float."""
    if isinstance(v, float):
        return math.isfinite(v)
    return isinstance(v, int) and not isinstance(v, bool)


def _nums(v) -> bool:
    return isinstance(v, list) and all(_num(x) for x in v)


def _one_of(*choices):
    return (lambda v: v in choices, "one of " + ", ".join(choices))


# checks shared by several leaves: (predicate, description)
NUMBER = (_num, "number")
POSITIVE = (lambda v: _num(v) and v > 0, "positive number")
NON_NEGATIVE = (lambda v: _num(v) and v >= 0, "non-negative number")
GRAY = (lambda v: _num(v) and 0 <= v < 256, "number in [0, 256)")
POSITIVE_INT = (lambda v: isinstance(v, int) and v >= 1, "positive integer")
SEED = (lambda v: isinstance(v, int) and v >= 0, "non-negative integer")  # as default_rng takes


class _Leaf(NamedTuple):
    attr: str  # dotted attribute of exper.TrialConfig
    check: tuple  # (predicate, description)
    none: str | None = None  # how YAML spells the attribute's None


_LEAVES = {
    "network.hidden": _Leaf("net.hidden", (
        lambda v: isinstance(v, list) and v and all(isinstance(x, int) and x >= 1 for x in v),
        "list of positive integers")),
    "network.outputs": _Leaf("net.outputs", POSITIVE_INT),
    "network.activation": _Leaf("net.activation", _one_of(*netcore.ACTIVATIONS)),
    "network.w0": _Leaf("net.w0", (
        lambda v: (_num(v) and v > 0) or (_nums(v) and all(x > 0 for x in v)),
        "positive number or list of positive numbers")),
    "network.output_weighting": _Leaf("net.output_weighting", (_nums, "list of numbers")),
    "rule.kind": _Leaf("rule.kind", _one_of(*netcore.RULES, "none"), "none"),
    "rule.eta": _Leaf("rule.eta", POSITIVE),
    "loop.k": _Leaf("reflex.k", (lambda v: _nums(v) and len(v) == 3, "list of 3 numbers")),
    "loop.reflex_gain": _Leaf("reflex.reflex_gain", NUMBER),
    "loop.loop_gain": _Leaf("reflex.loop_gain", (
        lambda v: v == "auto" or (_num(v) and v != 0),
        "'auto' or a signed nonzero number"), "auto"),
    "loop.loop_gain_magnitude": _Leaf("loop_gain_magnitude", POSITIVE),
    "loop.mc_limit": _Leaf("reflex.mc_limit", (
        lambda v: v is None or (_num(v) and v > 0), "positive number or null")),
    "sensors.ldr_lateral": _Leaf("layout.ldr_lateral", (
        lambda v: _nums(v) and len(v) == 3 and 0 < v[0] < v[1] < v[2],
        "3 ascending positive offsets")),
    "sensors.ldr_forward": _Leaf("layout.ldr_forward", NUMBER),
    "sensors.ldr_fov_radius": _Leaf("layout.ldr_fov_radius", POSITIVE),
    "sensors.camera.width": _Leaf("layout.cam_width", POSITIVE),
    "sensors.camera.depth": _Leaf("layout.cam_depth", POSITIVE),
    "sensors.camera.ahead": _Leaf("layout.cam_ahead", NON_NEGATIVE),
    "sensors.camera.supersample": _Leaf("layout.cam_supersample", (
        lambda v: isinstance(v, int) and 1 <= v <= 8, "integer in 1..8")),
    "filters.taps": _Leaf("filter_taps", (  # null: the built-in averaging bank
        lambda v: v is None or (isinstance(v, list) and len(v) == 5 and all(map(_nums, v))),
        "null or 5 lists of numbers")),
    "track.kind": _Leaf("track.kind", _one_of(*simenv.TRACK_KINDS)),
    "track.width": _Leaf("track.width", POSITIVE),
    "track.scale": _Leaf("track.scale", POSITIVE),
    "track.margin": _Leaf("track.margin", POSITIVE),
    "track.path_value": _Leaf("track.path_value", GRAY),
    "track.bg_value": _Leaf("track.bg_value", GRAY),
    "track.params": _Leaf("track.params", (lambda v: isinstance(v, dict), "mapping")),
    "sim.dt": _Leaf("sim.dt", POSITIVE),
    "sim.v0": _Leaf("sim.v0", POSITIVE),
    "sim.wheel_base": _Leaf("sim.wheel_base", POSITIVE),
    "sim.integrator": _Leaf("sim.integrator", _one_of("arc", "euler")),
    "trial.max_duration": _Leaf("run.max_duration", POSITIVE),
    "trial.threshold": _Leaf("run.threshold", POSITIVE),
    "trial.window": _Leaf("run.window", POSITIVE),
    "trial.warmup": _Leaf("run.warmup", NON_NEGATIVE),
    "trial.grace": _Leaf("run.grace", NON_NEGATIVE),
    "trial.seed": _Leaf("seed", SEED),
    "trial.distance_interval": _Leaf("run.distance_interval", POSITIVE),
    "trial.lost_line_timeout": _Leaf("run.lost_line_timeout", POSITIVE),
}

_REFERENCE = exper.TrialConfig()

# leaves only the CLI reads: path -> (default, check)
_CLI_LEAVES = {
    "batch.seeds": (10, (
        lambda v: (isinstance(v, int) and v >= 1)
        or (isinstance(v, list) and v and all(map(SEED[0], v))),
        "count or list of non-negative integer seeds")),
    "batch.rules": (list(netcore.RULES), (
        lambda v: isinstance(v, list) and v and all(x in netcore.RULES for x in v),
        "non-empty list drawn from gdm, localprop, sar")),
    "batch.etas": ([_REFERENCE.rule.eta], (
        lambda v: _nums(v) and v and all(x > 0 for x in v),
        "non-empty list of positive numbers")),
    "batch.jobs": (1, POSITIVE_INT),
    "output.dir": ("runs", (lambda v: isinstance(v, str) and v, "non-empty string")),
    "output.trace": (True, (lambda v: isinstance(v, bool), "boolean")),
}


def _get(obj, attr: str):
    return reduce(getattr, attr.split("."), obj)


def _lookup(tree: dict, leaf: str):
    return reduce(operator.getitem, leaf.split("."), tree)


def _put(tree: dict, leaf: str, value) -> None:
    *sections, key = leaf.split(".")
    for section in sections:
        tree = tree.setdefault(section, {})
    tree[key] = value


def _plain(v):
    """A runtime value as YAML holds it: sequences become lists."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    return copy.deepcopy(v)


def _runtime(v, like):
    """A YAML value as the runtime attribute whose default is ``like`` holds
    it: lists become tuples and numbers floats where the default is one."""
    if isinstance(v, list) and isinstance(like, (tuple, np.ndarray)):
        return tuple(v)
    if _num(v) and not isinstance(like, int):
        return float(v)
    return copy.deepcopy(v)


def _defaults() -> dict:
    tree: dict = {}
    for leaf, (attr, _, none) in _LEAVES.items():
        value = _get(_REFERENCE, attr)
        _put(tree, leaf, none if value is None else _plain(value))
    for leaf, (default, _) in _CLI_LEAVES.items():
        _put(tree, leaf, copy.deepcopy(default))
    return tree


DEFAULTS = _defaults()


def _merge(base: dict, override: dict, path: str = "") -> None:
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict) and here not in _LEAVES:
            if not isinstance(val, dict):
                raise ConfigError(f"{here}: expected a mapping")
            _merge(base[key], val, here)
            # a source naming a track kind but no params gets that kind's own
            kind = val.get("kind")
            if here == "track" and "params" not in val and kind in simenv.TRACK_KINDS:
                base[key]["params"] = copy.deepcopy(simenv.TRACK_PARAMS[kind])
        else:
            base[key] = val


def _validate(cfg: dict) -> None:
    checks = [(leaf, spec.check) for leaf, spec in _LEAVES.items()]
    checks += [(leaf, check) for leaf, (_, check) in _CLI_LEAVES.items()]
    for leaf, (pred, desc) in checks:
        val = _lookup(cfg, leaf)
        if not pred(val):
            raise ConfigError(f"{leaf}: expected {desc}, got {val!r}")


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Resolve the full configuration: defaults, then the YAML file, then
    programmatic overrides; rejects unknown keys and bad values."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                loaded = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f"{path}:{mark.line + 1}" if mark else str(path)
            raise ConfigError(f"{where}: invalid YAML: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        _merge(cfg, loaded)
    if overrides:
        _merge(cfg, overrides)
    _validate(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    """Stable 12-hex digest of a resolved configuration."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def dump_config(cfg: dict, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True, default_flow_style=False)


def to_trial_config(cfg: dict) -> exper.TrialConfig:
    """Build the runtime trial configuration from a resolved config dict.

    A value that passes its leaf check but not the check of the part that
    holds it (``loop.k`` out of order, say) raises a ConfigError prefixed
    with the part's YAML section."""
    fields: dict = {}
    parts: dict = {}
    sections: dict = {}
    for leaf, (attr, _, none) in _LEAVES.items():
        value = _lookup(cfg, leaf)
        value = None if value == none else _runtime(value, _get(_REFERENCE, attr))
        part, _, name = attr.rpartition(".")
        (parts.setdefault(part, {}) if part else fields)[name] = value
        sections.setdefault(part, leaf.partition(".")[0])
    for part, kwargs in parts.items():
        if part == "rule" and kwargs["kind"] is None:  # learning disabled
            fields[part] = None
            continue
        try:
            fields[part] = type(getattr(_REFERENCE, part))(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"{sections[part]}: {exc}") from exc
    return exper.TrialConfig(**fields)


def batch_seeds(cfg: dict) -> list[int]:
    spec = cfg["batch"]["seeds"]
    if isinstance(spec, int):
        base = int(cfg["trial"]["seed"])
        return [base + i for i in range(spec)]
    return list(spec)
