"""Check that a revision and the working tree write byte-identical artifacts.

    python3 tools/identity.py REV

Unpacks REV with ``git archive`` into a temporary directory, runs one fixed
list of ``sarbot trial``, ``sarbot batch``, ``sarbot calibrate`` and
``sarbot track-preview`` commands with the ``src/`` of that copy and with
the ``src/`` of the working tree, and compares every file each command
wrote, byte for byte, together with its exit code and its printed summary.
A command given ``--write`` writes its config into a run directory of its
own. Prints one line per command and exits 0 when every artifact is
identical, 1 when any differs, and 2 when REV cannot be unpacked. Run it
from anywhere inside the repository; it writes only to the temporary
directory, which it deletes.
"""

from __future__ import annotations

import filecmp
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import yaml

TREE = Path(__file__).resolve().parents[1]
ETA = math.e**-1
# the closed 8-point loop of the benchmark's reflex-spline workload, in cm
SPLINE = {"kind": "spline",
          "params": {"points": [[0, 0], [45, -12], [95, -4], [140, 18],
                                [150, 62], [110, 90], [50, 84], [-10, 48]],
                     "samples_per_segment": 64}}

# name -> (sarbot command and its flags, config overrides)
CASES = {
    # the byte-identical rerun config of acceptance criterion 10
    "criterion-10": ("trial", {
        "rule": {"kind": "sar", "eta": ETA},
        "loop": {"loop_gain": 5.0e-6},
        "trial": {"max_duration": 40.0, "seed": 3},
    }),
    **{
        f"{rule}-seed{seed}": ("trial", {
            "rule": {"kind": rule, "eta": ETA},
            "trial": {"max_duration": 150.0, "seed": seed},
        })
        for rule in ("gdm", "localprop", "sar")
        for seed in (1, 2)
    },
    "reflex-only": ("trial", {
        "rule": {"kind": "none"},
        "trial": {"max_duration": 60.0, "seed": 2},
    }),
    # a 30 cm dead end: with a 10 cm margin the camera leaves the canvas
    # (at 4.05 s), with a 40 cm margin it loses the line first (at 9.0 s)
    **{
        f"abort-margin{margin:g}": ("trial", {
            "rule": {"kind": "none"},
            "loop": {"loop_gain": 5.0e-6},
            "track": {"kind": "straight", "params": {"length": 30.0}, "margin": margin},
            "trial": {"max_duration": 60.0},
        })
        for margin in (10.0, 40.0)
    },
    # the spline and the circle rasters, under the reflex alone (loop gain
    # calibrated) and under sar; the preview writes the spline's track.pgm
    "spline-reflex": ("trial", {
        "rule": {"kind": "none"},
        "track": SPLINE,
        "trial": {"max_duration": 60.0},
    }),
    "circle-sar": ("trial", {
        "rule": {"kind": "sar", "eta": ETA},
        "track": {"kind": "circle", "params": {"radius": 40.0}},
        "trial": {"max_duration": 60.0, "seed": 1},
    }),
    # with a 16 cm margin, 895 of the 2,400 ticks put the pose within the
    # camera's reach of an edge: the trial mixes sample_camera's in-place
    # gather with the bounds-tested one of sample_points
    "circle-edge16": ("trial", {
        "rule": {"kind": "sar", "eta": ETA},
        "track": {"kind": "circle", "params": {"radius": 40.0}, "margin": 16.0},
        "trial": {"max_duration": 120.0},
    }),
    "track-preview": ("track-preview", {"track": SPLINE}),
    # a rounded rectangle with uneven corners, whose eight pieces each shade
    # only the pixels near their own box
    "rect-preview": ("track-preview", {"track": {
        "kind": "rounded_rect",
        "params": {"rect_width": 110.0, "rect_height": 80.0,
                   "radii": [3.0, 25.0, 7.0, 19.0]},
        "width": 3.0, "scale": 0.3, "path_value": 17, "bg_value": 241,
    }}),
    # a straight, a circle and a spline on margins below the reach of
    # width / 2 + scale, so that the canvas edge clips the box of a piece
    "straight-preview": ("track-preview", {"track": {
        "kind": "straight", "params": {"length": 47.5}, "margin": 1.2,
        "width": 2.6, "scale": 0.35, "path_value": 23, "bg_value": 229,
    }}),
    "circle-preview": ("track-preview", {"track": {
        "kind": "circle", "params": {"radius": 9.5}, "margin": 1.5,
        "width": 3.4, "scale": 0.45, "path_value": 9, "bg_value": 250,
    }}),
    "spline-preview": ("track-preview", {"track": {
        **SPLINE, "margin": 1.1, "width": 2.8, "scale": 0.3, "path_value": 31,
        "bg_value": 236,
    }}),
    # every trial above takes the configured loop-gain magnitude, so only
    # the sign of the probe's plant gain reaches its bytes; these write the
    # probe's measured loop gain, on the default track and on the spline
    "calibrate": ("calibrate --use-measured-magnitude --write", {}),
    "calibrate-spline": ("calibrate --use-measured-magnitude --write", {"track": SPLINE}),
    "batch": ("batch", {
        "trial": {"max_duration": 60.0},
        "batch": {"rules": ["gdm", "localprop", "sar"], "etas": [ETA],
                  "seeds": 2, "jobs": 1},
    }),
}


def unpack(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest`` and return its full commit id."""
    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=TREE, capture_output=True,
                              check=True).stdout
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run(tree: Path, command: str, config: Path, out: Path) -> tuple[int, list[str]]:
    """Run one sarbot command with ``tree``'s sources; return its exit code
    and its printed lines, less those naming the output directory."""
    argv = command.split()
    if argv[-1] == "--write":
        (out / "written").mkdir(parents=True)
        argv.append(str(out / "written" / "config.yaml"))
    proc = subprocess.run(
        [sys.executable, "-m", "sarbot.cli", *argv, "--config", str(config),
         "--out", str(out)],
        cwd=out.parent, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True,
    )
    lines = [l for l in proc.stdout.splitlines() if str(out) not in l]
    return proc.returncode, lines + proc.stderr.splitlines()


def files(out: Path) -> dict[str, Path]:
    """Every file under the command's one run directory, by relative path;
    the run directory's own name holds a time stamp and is left out."""
    run_dirs = list(out.iterdir()) if out.is_dir() else []
    if len(run_dirs) != 1:
        return {}
    return {str(p.relative_to(run_dirs[0])): p
            for p in sorted(run_dirs[0].rglob("*")) if p.is_file()}


def compare(a: tuple, b: tuple, fa: dict, fb: dict) -> list[str]:
    faults = []
    if a != b:
        faults.append(f"exit code or output differs: {a} vs {b}")
    if not fa:
        faults.append("wrote no run directory")
    if fa.keys() != fb.keys():
        faults.append(f"file sets differ: {sorted(fa.keys() ^ fb.keys())}")
    faults += [f"{rel} differs" for rel in sorted(fa.keys() & fb.keys())
               if not filecmp.cmp(fa[rel], fb[rel], shallow=False)]
    return faults


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="sarbot-identity-") as tmp:
        tmp = Path(tmp)
        try:
            unpack(rev, tmp / "rev")
        except subprocess.CalledProcessError as exc:
            print(f"cannot unpack {rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        differs = 0
        for name, (command, overrides) in CASES.items():
            config = tmp / f"{name}.yaml"
            config.write_text(yaml.safe_dump(overrides))
            sides = []
            for side, tree in (("rev", tmp / "rev"), ("tree", TREE)):
                out = tmp / "out" / side / name
                out.parent.mkdir(parents=True, exist_ok=True)
                sides.append((run(tree, command, config, out), files(out)))
            (a, fa), (b, fb) = sides
            faults = compare(a, b, fa, fb)
            differs += bool(faults)
            status = "DIFFERS" if faults else "identical"
            print(f"{name:<16} {status:<9} {len(fa)} files, exit {a[0]}", flush=True)
            for fault in faults:
                print(f"    {fault}")
    print(f"{len(CASES) - differs}/{len(CASES)} commands byte-identical to {rev}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
