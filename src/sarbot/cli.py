"""Command-line interface: single trials, batches, loop-gain calibration,
and track previews.

Exit codes: 0 success (trial reached the success state), 2 no success,
3 aborted (robot left the canvas), 4 configuration error, 1 calibration
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import config as configlib
from . import exper
from .errors import CalibrationError, ConfigError

EXIT_OK = 0
EXIT_NO_SUCCESS = 2
EXIT_ABORT = 3
EXIT_CONFIG = 4
EXIT_CALIBRATION = 1

OUT_ROOT_ENV = "SARBOT_OUT_ROOT"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="YAML config file")
    parser.add_argument("--seed", type=int, help="override trial.seed")
    parser.add_argument("--out", metavar="DIR", help="output root directory")
    parser.add_argument(
        "--trace",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="write per-tick trace artifacts",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarbot",
        description="Closed-loop line-following trials with sign-and-relevance, "
        "local-propagation, and gradient-descent learning rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trial = sub.add_parser("trial", help="run a single trial")
    _add_common(p_trial)
    p_trial.add_argument(
        "--rule", choices=["gdm", "localprop", "sar", "none"], help="override rule.kind"
    )
    p_trial.add_argument("--eta", type=float, help="override rule.eta")

    p_batch = sub.add_parser("batch", help="run a seeded batch grid")
    _add_common(p_batch)
    p_batch.add_argument("--rules", help="comma-separated rules override")
    p_batch.add_argument("--etas", help="comma-separated learning rates override")
    p_batch.add_argument("--seeds", type=int, help="number of seeds override")
    p_batch.add_argument("--jobs", type=int, help="parallel worker processes")

    p_cal = sub.add_parser("calibrate", help="measure the reflex loop gain")
    _add_common(p_cal)
    p_cal.add_argument(
        "--write", metavar="PATH", help="write a derived config with the result"
    )
    p_cal.add_argument(
        "--use-measured-magnitude",
        action="store_true",
        help="take |loop gain| from the probe instead of the config",
    )

    p_prev = sub.add_parser("track-preview", help="render the track canvas as PGM")
    _add_common(p_prev)
    p_prev.add_argument("--file", metavar="PATH", help="write the PGM here")

    return parser


def _make_run_dir(root: Path, digest: str) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = root / f"{digest}-{stamp}"
    candidate = base
    serial = 1
    while candidate.exists():
        serial += 1
        candidate = Path(f"{base}-{serial}")
    candidate.mkdir(parents=True)
    return candidate


def _out_root(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get(OUT_ROOT_ENV)
    if env:
        return Path(env)
    return Path("runs")


def _load(args) -> dict:
    overrides: dict = {}
    if getattr(args, "rule", None) is not None:
        overrides.setdefault("rule", {})["kind"] = args.rule
    if getattr(args, "eta", None) is not None:
        overrides.setdefault("rule", {})["eta"] = args.eta
    if args.seed is not None:
        overrides.setdefault("trial", {})["seed"] = args.seed
    if getattr(args, "rules", None):
        overrides.setdefault("batch", {})["rules"] = args.rules.split(",")
    if getattr(args, "etas", None):
        overrides.setdefault("batch", {})["etas"] = [
            float(v) for v in args.etas.split(",")
        ]
    if getattr(args, "seeds", None) is not None:
        overrides.setdefault("batch", {})["seeds"] = args.seeds
    if getattr(args, "jobs", None) is not None:
        overrides.setdefault("batch", {})["jobs"] = args.jobs
    if args.trace is not None:
        overrides.setdefault("output", {})["trace"] = args.trace
    return configlib.load_config(args.config, overrides)


def cmd_trial(args) -> int:
    cfg = _load(args)
    record = exper.run_trial(configlib.to_trial_config(cfg))
    digest = configlib.config_hash(cfg)
    run_dir = _make_run_dir(_out_root(args), digest)
    configlib.dump_config(cfg, run_dir / "config.yaml")
    if cfg["output"]["trace"]:
        exper.write_trial_artifacts(record, run_dir, digest)
    else:
        exper.write_record_json(record, run_dir / "record.json", digest)
    status = (
        "aborted"
        if record.aborted
        else ("success" if record.succeeded else "no-success")
    )
    success = "none" if record.success_time is None else f"{record.success_time:.2f}s"
    print(f"trial {status}: rule={record.rule_kind} eta={record.eta:g} "
          f"seed={record.seed} success_time={success} "
          f"error_integral={record.error_integral:.2f} "
          f"loop_gain={record.loop_gain:g}")
    print(f"artifacts: {run_dir}")
    if record.aborted:
        return EXIT_ABORT
    return EXIT_OK if record.succeeded else EXIT_NO_SUCCESS


def cmd_batch(args) -> int:
    cfg = _load(args)
    trial_cfg = configlib.to_trial_config(cfg)
    # build and calibrate first, so that a failure leaves no run directory
    canvas = trial_cfg.track.build()
    if trial_cfg.reflex.loop_gain is None:
        lam = exper.calibrate(trial_cfg).loop_gain
        trial_cfg = replace(trial_cfg, reflex=replace(trial_cfg.reflex, loop_gain=lam))
    digest = configlib.config_hash(cfg)
    run_dir = _make_run_dir(_out_root(args), digest)
    configlib.dump_config(cfg, run_dir / "config.yaml")
    result = exper.run_batch(
        trial_cfg,
        rules=cfg["batch"]["rules"],
        etas=cfg["batch"]["etas"],
        seeds=configlib.batch_seeds(cfg),
        jobs=cfg["batch"]["jobs"],
        out_dir=run_dir if cfg["output"]["trace"] else None,
        canvas=canvas,
    )
    exper.write_batch_artifacts(result, run_dir)
    for cell in result.summary:
        print(
            f"{cell['rule']:>9} eta={cell['eta']:<10g} "
            f"success={cell['n_success']}/{cell['n']} "
            f"median_time={cell['success_time_median']:.1f}s "
            f"median_integral={cell['error_integral_median']:.1f}"
        )
    print(f"artifacts: {run_dir}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = _load(args)
    trial_cfg = configlib.to_trial_config(cfg)
    result = exper.calibrate(
        trial_cfg, use_measured_magnitude=args.use_measured_magnitude
    )
    print(f"measured dE/dA_P = {result.plant_gain:.6g}")
    print(
        f"loop gain = {result.loop_gain:.6g} "
        f"(sign from probe, magnitude from {result.magnitude_source})"
    )
    if args.write:
        derived = configlib.load_config(
            args.config, {"loop": {"loop_gain": float(result.loop_gain)}}
        )
        configlib.dump_config(derived, args.write)
        print(f"wrote {args.write}")
    return EXIT_OK


def cmd_track_preview(args) -> int:
    cfg = _load(args)
    trial_cfg = configlib.to_trial_config(cfg)
    canvas = trial_cfg.track.build()
    if args.file:
        target = Path(args.file)
        target.parent.mkdir(parents=True, exist_ok=True)
    else:
        run_dir = _make_run_dir(_out_root(args), configlib.config_hash(cfg))
        target = run_dir / "track.pgm"
    canvas.save_pgm(target)
    h, w = canvas.raster.shape
    size = canvas.world_size
    print(
        f"track {canvas.track_kind}: {w}x{h} px ({size[0]:.0f}x{size[1]:.0f} cm), "
        f"start=({canvas.start[0]:.1f}, {canvas.start[1]:.1f}, {canvas.start[2]:.2f})"
    )
    print(f"wrote {target}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "trial": cmd_trial,
        "batch": cmd_batch,
        "calibrate": cmd_calibrate,
        "track-preview": cmd_track_preview,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationError as exc:
        print(f"calibration error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION


if __name__ == "__main__":
    sys.exit(main())
