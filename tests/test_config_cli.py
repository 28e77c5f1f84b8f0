import dataclasses
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from sarbot import cli, simenv
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
    net = trial_cfg.net.build(trial_cfg.seed)
    sizes = [net.weights[0].shape[1]] + [w.shape[0] for w in net.weights]
    assert sizes == [240, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3]
    assert net.activations == ["tanh"] * 11


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


@pytest.mark.parametrize("source", ["file", "overrides"])
@pytest.mark.parametrize("kind", ["circle", "straight"])
def test_a_track_kind_alone_takes_its_default_params(tmp_path, kind, source):
    # the rounded rectangle's default params must not leak into another kind
    track = {"track": {"kind": kind}}
    if source == "file":
        p = tmp_path / "c.yaml"
        p.write_text(yaml.safe_dump(track))
        cfg = configlib.load_config(p)
    else:
        cfg = configlib.load_config(None, track)
    assert cfg["track"]["params"] == simenv.TRACK_PARAMS[kind]
    assert configlib.to_trial_config(cfg).track.build().track_kind == kind


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


def _two_gb_address_space():
    # the CLI runs with 2 GB of address space: an array made before its
    # size is checked fails here with a MemoryError, not a config error
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


def _sarbot(tmp_path, command, override, timeout=60):
    """Run one sarbot command on ``override`` as a subprocess with 2 GB of
    address space; return the process and its --out directory."""
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(override))
    out = tmp_path / "r"
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "sarbot.cli", command, "--config", str(p), "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=_two_gb_address_space, timeout=timeout)
    return proc, out


@pytest.mark.parametrize("override, leaves", [
    ({"network": {"hidden": [100000000], "w0": [0.01, 0.01]}}, ["network.hidden"]),
    ({"network": {"outputs": 100000000}}, ["network.outputs"]),
    ({"trial": {"max_duration": 1.0e15}}, ["trial.max_duration", "sim.dt"]),
], ids=["hidden-huge", "outputs-huge", "max-duration-huge"])
def test_cli_oversized_network_or_trial_is_a_config_error(tmp_path, override, leaves):
    # the weights and the tick log are checked against the track's budget
    # before they are made: exit 4 naming the leaf, and no run directory
    proc, out = _sarbot(tmp_path, "trial", override)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: too large: ")
    assert all(f"{leaf}: " in proc.stderr for leaf in leaves)
    assert not out.exists()


@pytest.mark.parametrize("leaf, value", [("trial.seed", -1), ("batch.seeds", [2, -1])])
def test_a_negative_seed_is_a_config_error(leaf, value):
    # numpy's default_rng takes no negative seed
    section, key = leaf.split(".")
    with pytest.raises(ConfigError, match=rf"^{re.escape(leaf)}: expected [^,]*non-negative"):
        configlib.load_config(None, {section: {key: value}})


@pytest.mark.parametrize("override, names", [
    ({"network": {"w0": [0.1, 0.1]}}, "w0 needs 11 entries, got 2"),
    ({"network": {"output_weighting": [1.0, 2.0]}}, "output weighting length 2"),
    ({"filters": {"taps": [[0.5], [1.0], [1.0], [1.0], [1.0]]}}, "DC gain must be 1"),
    ({"trial": {"seed": -1}}, "trial.seed: "),
    ({"batch": {"seeds": [2, -1]}}, "batch.seeds: "),
    ({"trial": {"max_duration": 1.0e15}}, "trial.max_duration: "),
    ({"network": {"hidden": [100000000], "w0": [0.01, 0.01]}}, "network.hidden: "),
    # with the loop gain to calibrate: the tick log is checked first
    ({"sim": {"dt": 1.0e-7}, "loop": {"loop_gain": "auto"}}, "sim.dt: 1e-07"),
], ids=["w0-length", "output-weighting-length", "taps-dc-gain", "seed-negative",
        "batch-seed-negative", "tick-log-huge", "hidden-huge", "dt-tiny"])
def test_cli_batch_checks_its_trials_before_its_run_directory(tmp_path, override, names):
    # every check a trial makes before its first tick runs before the batch
    # makes its run directory: exit 4 with one line, no traceback
    base = {"loop": {"loop_gain": 5.0e-6}, "batch": {"seeds": 1, "rules": ["sar"]}}
    proc, out = _sarbot(tmp_path, "batch", {k: {**base.get(k, {}), **override.get(k, {})}
                                            for k in {*base, *override}})
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: ") and names in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert not out.exists()


def test_cli_batch_runs_a_window_longer_than_any_tick_count(tmp_path):
    # 1e300 s at dt = 1e-10 overflowed the window's tick count
    proc, out = _sarbot(tmp_path, "batch", {
        "loop": {"loop_gain": 5.0e-6}, "batch": {"seeds": 1, "rules": ["sar"]},
        "sim": {"dt": 1.0e-10}, "trial": {"max_duration": 1.0e-9, "window": 1.0e300}})
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr == ""
    assert {f.name for f in next(out.iterdir()).iterdir()} >= {"trials.csv", "summary.csv"}


def test_cli_calibrate_bounds_the_probe_ticks(tmp_path):
    # the probe's 7 s at dt = 1e-7 is 7e7 ticks, more than any trial's tick
    # log may hold: exit 4 at once, naming sim.dt
    proc, _ = _sarbot(tmp_path, "calibrate", {"sim": {"dt": 1.0e-7}}, timeout=30)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: too large: ")
    assert "sim.dt: 1e-07" in proc.stderr


def test_cli_calibrate_names_sim_v0_when_the_probe_track_is_too_large(tmp_path, capsys):
    # the probe's straight track is 1.5 * v0 * 7 s + 20 cm long
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({"sim": {"v0": 1.0e12}}))
    assert cli.main(["calibrate", "--config", str(p)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: probe track: too large: ")
    assert "sim.v0: 1000000000000.0" in err


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


SQUARE = [[0, 0], [60, 0], [60, 60], [0, 60]]


def _serpentine(rows=398, length=12000.0, gap=0.01):
    """A closed loop of ``rows`` rows ``length`` cm long and ``gap`` cm
    apart, run left to right and back, that returns along x = -1."""
    pts = []
    for j in range(rows):
        row = [[-1.0 if j in (0, rows - 1) else 0.0, j * gap], [length, j * gap]]
        pts += row if j % 2 == 0 else row[::-1]
    return pts


@pytest.mark.parametrize("track, name", [
    ({"kind": "spline", "params": {"points": SQUARE, "samples_per_segment": 0}},
     "samples_per_segment"),
    ({"kind": "spline", "params": {"points": SQUARE, "samples_per_segment": -3}},
     "samples_per_segment"),
    ({"kind": "spline", "params": {"points": SQUARE, "samples_per_segment": "x"}},
     "samples_per_segment"),
    ({"kind": "spline", "params": {"points": [[0, 0], [60, 0], [60], [0, 60]]}}, "points"),
    ({"kind": "spline", "params": {"points": [[0, 0], [60, math.nan], [60, 60], [0, 60]]}},
     "points"),
    ({"kind": "spline", "params": {"points": "abcd"}}, "points"),
    ({"kind": "spline", "params": {"points": [p + [0] for p in SQUARE]}}, "points"),
    ({"kind": "circle", "params": {"radius": "big"}}, "radius"),
    ({"kind": "circle", "params": {"radius": math.inf}}, "radius"),
    ({"kind": "circle", "params": {"radius": math.nan}}, "radius"),
    ({"kind": "straight", "params": {"length": -100}}, "length"),
    ({"kind": "rounded_rect", "params": {"radii": 5}}, "radii"),
    ({"width": math.inf}, "track.width"),
    ({"margin": math.inf}, "track.margin"),
    ({"scale": math.inf}, "track.scale"),
    # too large to build: checked before any array is made
    ({"kind": "circle", "params": {"radius": 1.0e18}}, "radius"),
    ({"kind": "straight", "params": {"length": 1.0e12}}, "length"),
    ({"kind": "rounded_rect", "params": {"rect_width": 1.0e9}}, "rect_width"),
    ({"scale": 1.0e-6}, "scale"),
    ({"kind": "spline", "params": {"points": SQUARE, "samples_per_segment": 10**18}},
     "samples_per_segment"),
    ({"kind": "spline", "params": {"points": [[x * 1.0e18, y * 1.0e18] for x, y in SQUARE]}},
     "points"),
    # a 12,003 x 6 px canvas at 1 cm a pixel, but 19.1 million points of
    # dense cloud at scale / 4 along its 48 km
    ({"kind": "spline", "params": {"points": _serpentine(), "samples_per_segment": 1},
      "scale": 1.0, "margin": 1.0}, "points"),
], ids=["samples-0", "samples-negative", "samples-string", "points-ragged", "points-nan",
        "points-string", "points-3d", "radius-string", "radius-inf", "radius-nan",
        "length-negative", "radii-scalar", "width-inf", "margin-inf", "scale-inf",
        "radius-huge", "length-huge", "rect-width-huge", "scale-tiny", "samples-huge",
        "points-huge", "cloud-huge"])
def test_cli_malformed_track_is_a_config_error(tmp_path, capsys, track, name):
    # exit 4 with a message naming the bad value, not a traceback and exit 1
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({"track": track}))
    target = tmp_path / "preview.pgm"
    argv = ["track-preview", "--config", str(p), "--file", str(target)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err
    assert not target.exists()


def test_importing_the_cli_loads_no_scipy():
    src = Path(cli.__file__).parents[1]
    code = ("import sys, sarbot.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_out_root_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    cfg = fast_config(tmp_path)
    code = cli.main(["trial", "--config", str(cfg)])
    assert code == cli.EXIT_NO_SUCCESS
    assert (tmp_path / "envroot").is_dir()


def test_cli_out_root_falls_back_to_output_dir(tmp_path, monkeypatch):
    # --out > SARBOT_OUT_ROOT > output.dir, whose default is "runs"
    monkeypatch.delenv(cli.OUT_ROOT_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({**yaml.safe_load(fast_config(tmp_path).read_text()),
                                 "output": {"dir": str(tmp_path / "cfgroot")}}))
    assert cli.main(["trial", "--config", str(p)]) == cli.EXIT_NO_SUCCESS
    assert len(list((tmp_path / "cfgroot").iterdir())) == 1
    assert not (tmp_path / "runs").exists()
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "envroot"))
    assert cli.main(["trial", "--config", str(p)]) == cli.EXIT_NO_SUCCESS
    assert (tmp_path / "envroot").is_dir()
    assert len(list((tmp_path / "cfgroot").iterdir())) == 1


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


@pytest.mark.parametrize("argv, leaf, value", [
    (["trial", "--rule", "gdm"], "rule.kind", "gdm"),
    (["trial", "--eta", "0.5"], "rule.eta", 0.5),
    (["trial", "--seed", "7"], "trial.seed", 7),
    (["trial", "--no-trace"], "output.trace", False),
    (["batch", "--rules", "sar,gdm"], "batch.rules", ["sar", "gdm"]),
    (["batch", "--etas", "0.1,0.2"], "batch.etas", [0.1, 0.2]),
    (["batch", "--seeds", "3"], "batch.seeds", 3),
    (["batch", "--jobs", "2"], "batch.jobs", 2),
], ids=["rule", "eta", "seed", "trace", "rules", "etas", "seeds", "jobs"])
def test_every_override_flag_lands_on_its_leaf(argv, leaf, value):
    cfg = cli._load(cli.build_parser().parse_args(argv))
    expected = configlib.load_config()
    configlib._put(expected, leaf, value)
    assert configlib._lookup(cfg, leaf) == value
    assert cfg == expected  # and nowhere else


@pytest.mark.parametrize("argv", [["batch", "--etas", "x"], ["batch", "--seed", "x"],
                                  ["batch", "--etas", "0.1,"]],
                         ids=["etas", "seed", "etas-trailing-comma"])
def test_a_malformed_flag_is_a_usage_error(capsys, argv):
    # argparse's exit 2 naming the flag, not a traceback and exit 1
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: invalid" in capsys.readouterr().err


def test_cli_calibrate_writes_the_resolved_config(tmp_path, capsys):
    derived = tmp_path / "d.yaml"
    code = cli.main(["calibrate", "--config", str(fast_config(tmp_path)), "--seed", "7",
                     "--no-trace", "--use-measured-magnitude", "--write", str(derived)])
    assert code == 0
    printed = re.search(r"loop gain = (\S+) ", capsys.readouterr().out).group(1)
    written = configlib.load_config(derived)
    assert written["trial"]["seed"] == 7
    assert written["output"]["trace"] is False
    assert f"{written['loop']['loop_gain']:.6g}" == printed
    assert written["trial"]["max_duration"] == 20.0  # the file's values kept
