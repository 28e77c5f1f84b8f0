"""Run the benchmark in alternating pairs of a revision and the working tree.

    python3 tools/pairs.py REV --pairs N --out BENCH_x.json
        [--workloads W ...] [--claim WORKLOAD:METRIC] [--seed S] [--change TEXT]

Unpacks REV with ``git archive`` into a temporary directory and runs
``bench/run.py`` there ("parent") and in the working tree ("change"), each
side from its own checkout, for the benchmark's ``run_seconds`` and without
the tracer, as the benchmark measures. Pair k of a workload runs both sides
with ``--seed S + k``; the parent runs first in even pairs and second in odd ones,
so drift in the machine's speed falls on both sides. Every finished pair is
written to ``--out`` at once: the machine (with the BLAS that numpy links,
whose routines decide the bits of its products), the command, the protocol,
the claim, each side's raw result line and, per workload and metric, each
side's median and quartiles, the median ratio (change / parent) and the pairs
the change won. A claim names one of the benchmark's end-to-end metrics; with
``--claim`` the file also says whether it holds: the change wins at least
nine tenths of the pairs, and the medians differ by more than the distance
between the parent's quartiles. Exits 0 when every run
reads ``correct: true``, 1 when one does not or a run fails (the pairs run
so far are kept), and 2 when REV cannot be unpacked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from identity import unpack

TREE = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((TREE / "BENCHMARK.json").read_text())
# the benchmark's own run: its run length, no tracer
RUN_ARGS = ["--seconds", f"{BENCHMARK['run_seconds']:g}", "--trace", "0"]
CLAIM_WIN_SHARE = 0.9


def parse_args(argv, benchmark):
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--claim", help="WORKLOAD:METRIC")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--change", default="the working tree")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workloads or metric not in metrics:
            parser.error(f"--claim {args.claim}: need WORKLOAD:METRIC over the "
                         f"workloads run and the end-to-end metrics of "
                         f"BENCHMARK.json")
    return args


def run_side(root: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` run from the checkout at ``root``; its last line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         *RUN_ARGS],
        cwd=root, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def wins(parent: list, change: list, better: str | None) -> int:
    """Pairs in which the change is strictly better; ties count for neither."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return 0


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def summarize(pairs: list, better: dict) -> dict:
    metrics = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        pm, cm = statistics.median(parent), statistics.median(change)
        metrics[name] = {
            "better": better.get(name),
            "parent_median": pm,
            "parent_quartiles": quartiles(parent),
            "change_median": cm,
            "change_quartiles": quartiles(change),
            "median_ratio": cm / pm if pm else None,
            "change_wins": f"{wins(parent, change, better.get(name))}/{len(pairs)}",
        }
    return {
        "pairs": len(pairs),
        "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")},
        "metrics": metrics,
    }


def dumps(value, depth: int = 4, indent: str = "") -> str:
    """JSON with the containers of the first ``depth`` levels spread one
    item a line and everything deeper on one line: a line per metric
    summary, a few per pair."""
    if depth == 0 or not isinstance(value, (dict, list)) or not value:
        return json.dumps(value)
    inner = indent + " "
    if isinstance(value, dict):
        items = [f"{inner}{json.dumps(k)}: {dumps(v, depth - 1, inner)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    items = [inner + dumps(v, depth - 1, inner) for v in value]
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def claim_holds(summary: dict, claim: str) -> bool:
    workload, _, metric = claim.partition(":")
    if workload not in summary:
        return False
    m = summary[workload]["metrics"][metric]
    won, n = map(int, m["change_wins"].split("/"))
    q1, q3 = m["parent_quartiles"]
    gain = m["change_median"] - m["parent_median"]
    if m["better"] == "lower":
        gain = -gain
    return won >= CLAIM_WIN_SHARE * n and gain > q3 - q1


def main(argv: list[str]) -> int:
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    args = parse_args(argv, BENCHMARK)
    with tempfile.TemporaryDirectory(prefix="sarbot-pairs-") as tmp:
        parent_root = Path(tmp) / "parent"
        try:
            commit = unpack(args.rev, parent_root)
        except subprocess.CalledProcessError as exc:
            print(f"cannot unpack {args.rev}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        report = {
            "change": args.change,
            "parent_commit": commit,
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__, "platform": platform.platform(),
                        "blas": {k: blas.get(k) for k in ("name", "version")}},
            "command": " ".join(["python3 bench/run.py --workload W --seed S",
                                 *RUN_ARGS]),
            "protocol": "pairs alternate which side runs first (even index: parent "
                        f"first); each pair runs both sides with the same --seed "
                        f"({args.seed} upward); each side runs from its own checkout",
            "claim": args.claim.replace(":", " ") if args.claim else None,
            "summary": {},
            "runs": {},
        }
        roots = {"parent": parent_root, "change": TREE}
        status = 0
        for workload in args.workloads:
            runs = report["runs"][workload] = []
            for k in range(args.pairs):
                seed = args.seed + k
                order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
                pair = {"seed": seed, "order": order}
                try:
                    for side in order:
                        pair[side] = run_side(roots[side], workload, seed)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    status = 1
                    break
                runs.append(pair)
                report["summary"][workload] = summarize(runs, better)
                if args.claim:
                    report["claim_holds"] = claim_holds(report["summary"], args.claim)
                args.out.write_text(dumps(report) + "\n")
                print(f"{workload} pair {k + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{name} {pair['parent']['metrics'][name]['value']:.6g} -> "
                    f"{pair['change']['metrics'][name]['value']:.6g}"
                    for name in list(pair["parent"]["metrics"])[:5]), flush=True)
            if status:
                break
    summary = report["summary"]
    if not all(s["all_correct"] for s in summary.values()):
        status = 1
    if args.claim:
        print(f"claim {args.claim}: {'holds' if report.get('claim_holds') else 'not met'}")
    print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
