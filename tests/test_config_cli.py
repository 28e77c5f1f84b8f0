import dataclasses
import json
import math
import re

import numpy as np
import pytest
import yaml

from sarbot import cli
from sarbot import config as configlib
from sarbot.errors import ConfigError
from sarbot.exper import TrialConfig


def test_defaults_validate_and_build():
    cfg = configlib.load_config()
    trial_cfg = configlib.to_trial_config(cfg)
    assert trial_cfg.net.hidden == (13, 12, 11, 10, 9, 8, 7, 6, 5, 4)
    assert trial_cfg.net.outputs == 3
    assert trial_cfg.rule.kind == "sar"
    assert trial_cfg.reflex.loop_gain is None  # "auto"
    specs = trial_cfg.net.layer_specs()
    assert [s.size for s in specs] == [240, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3]


def test_unknown_keys_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("loop:\n  gainz: 3\n")
    with pytest.raises(ConfigError, match="loop.gainz"):
        configlib.load_config(p)
    p.write_text("nonsense: 1\n")
    with pytest.raises(ConfigError, match="nonsense"):
        configlib.load_config(p)


def test_bad_values_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("rule:\n  kind: adam\n")
    with pytest.raises(ConfigError, match="rule.kind"):
        configlib.load_config(p)
    p.write_text("trial:\n  seed: 1.5\n")
    with pytest.raises(ConfigError, match="trial.seed"):
        configlib.load_config(p)


def assert_same(a, b, where="cfg"):
    """Field-by-field equality that also requires equal types, so a list
    never passes for a tuple."""
    assert type(a) is type(b), f"{where}: {type(a).__name__} vs {type(b).__name__}"
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), where
    else:
        assert a == b, where


def test_default_config_is_the_dataclass_default():
    assert_same(configlib.to_trial_config(configlib.load_config()), TrialConfig())


# one value per config leaf that validation must reject
BAD_VALUES = {
    "network.hidden": [13, 0],
    "network.outputs": 0,
    "network.activation": "relu",
    "network.w0": [0.1, -0.1],
    "network.output_weighting": "heavy",
    "rule.kind": "adam",
    "rule.eta": 0,
    "loop.k": [1.0, 2.0],
    "loop.reflex_gain": "strong",
    "loop.loop_gain": 0,
    "loop.loop_gain_magnitude": -5e-6,
    "loop.mc_limit": 0,
    "sensors.ldr_lateral": [5.5, 4.5, 6.5],
    "sensors.ldr_forward": None,
    "sensors.ldr_fov_radius": 0,
    "sensors.camera.width": 0,
    "sensors.camera.depth": -10.0,
    "sensors.camera.ahead": -0.5,
    "sensors.camera.supersample": 9,
    "filters.taps": [[1.0]],
    "track.kind": "hexagon",
    "track.width": 0,
    "track.scale": -0.25,
    "track.margin": 0,
    "track.path_value": 256,
    "track.bg_value": -1,
    "track.params": [1, 2],
    "sim.dt": 0,
    "sim.v0": -5.0,
    "sim.wheel_base": 0,
    "sim.integrator": "rk4",
    "trial.max_duration": 0,
    "trial.threshold": 0,
    "trial.window": -25.0,
    "trial.warmup": -1,
    "trial.grace": -1,
    "trial.seed": 1.5,
    "trial.distance_interval": 0,
    "trial.lost_line_timeout": 0,
    "batch.seeds": 0,
    "batch.rules": ["adam"],
    "batch.etas": [],
    "batch.jobs": 0,
    "output.dir": "",
    "output.trace": "yes",
}


def config_leaves(tree, path=""):
    for key, val in tree.items():
        here = f"{path}.{key}" if path else key
        if isinstance(val, dict) and here != "track.params":
            yield from config_leaves(val, here)
        else:
            yield here


def test_every_config_leaf_has_a_bad_value():
    assert sorted(config_leaves(configlib.load_config())) == sorted(BAD_VALUES)


@pytest.mark.parametrize("leaf", sorted(BAD_VALUES))
def test_bad_value_names_its_leaf(leaf):
    overrides: dict = {}
    *sections, key = leaf.split(".")
    tree = overrides
    for section in sections:
        tree = tree.setdefault(section, {})
    tree[key] = BAD_VALUES[leaf]
    with pytest.raises(ConfigError, match=re.escape(leaf)):
        configlib.load_config(None, overrides)


def test_yaml_parse_error_reports_line(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("loop:\n  k: [1, 2\n")
    with pytest.raises(ConfigError, match=r":\d+"):
        configlib.load_config(p)


def test_config_hash_stability_and_sensitivity():
    a = configlib.load_config()
    b = configlib.load_config()
    assert configlib.config_hash(a) == configlib.config_hash(b)
    b["trial"]["seed"] = 99
    assert configlib.config_hash(a) != configlib.config_hash(b)


def test_batch_seed_expansion():
    cfg = configlib.load_config()
    cfg["trial"]["seed"] = 5
    cfg["batch"]["seeds"] = 3
    assert configlib.batch_seeds(cfg) == [5, 6, 7]
    cfg["batch"]["seeds"] = [2, 9]
    assert configlib.batch_seeds(cfg) == [2, 9]


def fast_config(tmp_path, **trial):
    trial_section = {"max_duration": 20.0, "seed": 1}
    trial_section.update(trial)
    cfg = {
        "rule": {"kind": "none"},
        "loop": {"loop_gain": 5.0e-6},
        "trial": trial_section,
    }
    p = tmp_path / "fast.yaml"
    p.write_text(yaml.safe_dump(cfg))
    return p


def test_cli_trial_no_success_exit_and_artifacts(tmp_path):
    cfg = fast_config(tmp_path)
    out = tmp_path / "runs"
    code = cli.main(["trial", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_NO_SUCCESS
    run_dirs = list(out.iterdir())
    assert len(run_dirs) == 1
    files = {f.name for f in run_dirs[0].iterdir()}
    assert {"config.yaml", "trace.csv", "distances.csv", "record.json",
            "weights.txt", "heatmap_layer1.pgm"} <= files


def test_cli_trial_abort_exit(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({
        "rule": {"kind": "none"},
        "loop": {"loop_gain": 5.0e-6},
        "track": {"kind": "straight", "params": {"length": 30.0}, "margin": 40.0},
        "trial": {"max_duration": 60.0},
    }))
    code = cli.main(["trial", "--config", str(p), "--out", str(tmp_path / "r")])
    assert code == cli.EXIT_ABORT


def test_cli_invalid_rule_is_config_error(tmp_path):
    code = cli.main(["trial", "--config", str(fast_config(tmp_path)),
                     "--out", str(tmp_path / "r"), "--eta", "-1.0"])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, override, section, code", [
    ("trial", {"loop": {"k": [3, 2, 1]}}, "loop", cli.EXIT_CONFIG),
    ("batch", {"loop": {"k": [3, 2, 1]}}, "loop", cli.EXIT_CONFIG),
    ("trial", {"track": {"path_value": 200, "bg_value": 100}}, None, cli.EXIT_CONFIG),
    ("batch", {"track": {"path_value": 200, "bg_value": 100}}, None, cli.EXIT_CONFIG),
    # a line 0.1 GSV darker than the ground gives the probe no response
    ("trial", {"track": {"path_value": 254.9, "bg_value": 255.0}}, None,
     cli.EXIT_CALIBRATION),
], ids=["trial-loop.k", "batch-loop.k", "trial-track.path_value",
        "batch-track.path_value", "trial-calibration"])
def test_cli_part_config_error_makes_no_run_dir(tmp_path, capsys, command, override,
                                                section, code):
    # values that pass their leaf check but not their part's, and a failed
    # calibration, fail before the run directory exists
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(override))
    out = tmp_path / "r"
    assert cli.main([command, "--config", str(p), "--out", str(out)]) == code
    if section is not None:
        assert f"config error: {section}: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_trace_csvs_are_byte_identical_across_runs(tmp_path):
    cfg = fast_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["trial", "--config", str(cfg), "--out", str(out)]) == 2
        run_dir = next(out.iterdir())
        outs.append(run_dir)
    for fname in ("trace.csv", "distances.csv", "weights.txt", "heatmap_layer1.pgm"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_cli_batch_degenerate_single_seed_matches_trial(tmp_path):
    cfg = fast_config(tmp_path)
    out = tmp_path / "batch"
    code = cli.main([
        "batch", "--config", str(cfg), "--out", str(out),
        "--rules", "sar", "--etas", "0.1", "--seeds", "1", "--no-trace",
    ])
    assert code == 0
    run_dir = next(out.iterdir())
    trials = (run_dir / "trials.csv").read_text().splitlines()
    assert len(trials) == 2  # header + one row
    summary = (run_dir / "summary.csv").read_text().splitlines()
    assert len(summary) == 2
    row = dict(zip(trials[0].split(","), trials[1].split(",")))
    assert row["rule"] == "sar" and row["seed"] == "1"


def test_cli_calibrate_writes_derived_config(tmp_path, capsys):
    cfg = fast_config(tmp_path)
    derived = tmp_path / "derived.yaml"
    code = cli.main(["calibrate", "--config", str(cfg), "--write", str(derived)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "dE/dA_P" in printed
    loaded = configlib.load_config(derived)
    assert isinstance(loaded["loop"]["loop_gain"], float)
    assert loaded["loop"]["loop_gain"] > 0  # sign flipped from measured negative


def test_cli_track_preview(tmp_path):
    target = tmp_path / "preview.pgm"
    code = cli.main(["track-preview", "--file", str(target)])
    assert code == 0
    assert target.read_bytes().startswith(b"P5")


def test_cli_out_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    cfg = fast_config(tmp_path)
    code = cli.main(["trial", "--config", str(cfg)])
    assert code == cli.EXIT_NO_SUCCESS
    assert (tmp_path / "envroot").is_dir()


def test_record_json_is_regenerable_from_config_and_seed(tmp_path):
    cfg = fast_config(tmp_path)
    a, b = tmp_path / "ra", tmp_path / "rb"
    cli.main(["trial", "--config", str(cfg), "--out", str(a)])
    stored = next(a.iterdir()) / "config.yaml"
    cli.main(["trial", "--config", str(stored), "--out", str(b)])
    rec_a = json.loads((next(a.iterdir()) / "record.json").read_text())
    rec_b = json.loads((next(b.iterdir()) / "record.json").read_text())
    assert rec_a == rec_b
    assert (next(a.iterdir()) / "trace.csv").read_bytes() == (
        next(b.iterdir()) / "trace.csv"
    ).read_bytes()
