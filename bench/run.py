"""Run one benchmark workload of sarbot and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload trial-sar --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See bench/README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / "bench_out"  # trial artifacts, removed at the end of a run

# set-up is repeated at least MIN_SETUPS times, and more until it has taken
# SETUP_BUDGET_S in all; setup_s is the median, scaled to the reference speed
MIN_SETUPS, SETUP_BUDGET_S = 3, 2.0
CHUNK_TICKS = 100  # the trial loops are timed in stretches of this many ticks
HARD_LIMIT_S = 120.0  # start no further round after this much of a run


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["trial-sar", "batch-rules", "reflex-spline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_rounds(workload, setup, seed, seconds, out_dir, started):
    """Whole rounds until the next one would end after ``seconds``; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round(setup, seed, len(rounds), out_dir))
        rounds[-1].peak_rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if (elapsed * (len(rounds) + 1) / len(rounds) > seconds
                or time.perf_counter() - started > HARD_LIMIT_S):
            return rounds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def wall_s(rounds, rate, speed) -> float:
    """A round's wall time at the reference speed: its ticks at ``rate``
    plus the median time the rounds spent outside the trial loops, scaled
    by ``speed``."""
    outside = statistics.median(r.wall_s - r.loop_s for r in rounds) * speed
    return rounds[0].ticks / rate + outside if rate else outside


def measure(workload, args, out_dir, started):
    """Untraced run: the end-to-end metrics."""
    import sarbot
    from tracer import TickClock, reference_rate

    setup_times, setup_digests = [], set()

    def set_up_until(count, seconds):
        while len(setup_times) < count or sum(setup_times) < seconds:
            t0 = time.perf_counter()
            setup = workload.set_up()
            setup_times.append(time.perf_counter() - t0)
            setup_digests.add(setup.digest())
        return setup

    # half the set-ups before the rounds and half after, so that setup_s
    # samples the machine's speed at both ends of the run
    setup = set_up_until(MIN_SETUPS - 1, SETUP_BUDGET_S / 2)
    with TickClock(sarbot, CHUNK_TICKS) as clock:
        rounds = run_rounds(workload, setup, args.seed, args.seconds, out_dir, started)
    set_up_until(MIN_SETUPS, SETUP_BUDGET_S)
    rate, speed = reference_rate(clock.trials, CHUNK_TICKS), clock.speed()
    consistent = len(setup_digests) == 1 and len({r.digest for r in rounds}) == 1
    integrals = rounds[0].integrals
    metrics = {
        "setup_s": (statistics.median(setup_times) * speed, "s"),
        "wall_s": (wall_s(rounds, rate, speed), "s"),
        "ticks_per_s": (rate, "ticks/s"),
        # after the first round: later rounds add only the allocator's growth
        "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
        "error_integral_gsv_s": (statistics.median(integrals) if integrals else 0.0,
                                 "GSV.s"),
    }
    note = (f"{len(setup_times)} set-ups, {len(rounds)} rounds, "
            f"{sum(r.ticks for r in rounds)} ticks, "
            f"{sum(map(len, clock.trials))} stretches of {CHUNK_TICKS}")
    return rounds, consistent, metrics, note


def measure_traced(workload, args, out_dir, started):
    """Untraced and traced rounds in turn: the per-layer metrics."""
    import sarbot
    import tracer as tracing
    from tracer import PER_TICK, TickClock, Tracer, install_all, reference_rate

    # untraced and traced rounds alternate, so drift in the machine's speed
    # falls on both; the traced rounds also trace their own set-up
    setup = workload.set_up()
    tracer = Tracer()
    plain, traced = [], []
    plain_clock = TickClock(sarbot, CHUNK_TICKS)
    traced_clock = TickClock(sarbot, CHUNK_TICKS,
                             reference=lambda: tracing.reference_s())
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with plain_clock:
            plain.append(workload.run_round(setup, args.seed, 2 * len(plain),
                                            out_dir))
        install_all(tracer, sarbot)
        # the tick clock goes over the layer wrappers, and its reference
        # kernel is wrapped too, so that neither the sensors' time nor the
        # trial loop's self time includes it
        tracer.wrap(tracing, "reference_s", "trace.reference", per_tick=False)
        try:
            with traced_clock:
                traced.append(workload.run_round(workload.set_up(), args.seed,
                                                 2 * len(traced) + 1, out_dir))
        finally:
            tracer.restore()
        now = time.perf_counter()
        if (now - start + (now - t0) > args.seconds
                or now - started > HARD_LIMIT_S):
            break
    rounds = plain + traced
    consistent = len({r.digest for r in rounds}) == 1

    n = len(traced)
    ticks = max(1, sum(r.ticks for r in traced))  # 0 only if every trial raised
    st = tracer.stats
    metrics = {}
    for _, _, name in PER_TICK:
        if name.startswith("loop."):
            continue
        s = st[name]
        metrics[f"{name}.us"] = (s.ns / s.calls / 1e3 if s.calls else 0.0, "us")
        metrics[f"{name}.calls"] = (s.calls / n, "count")
    loop_ns = sum(s.ns for name, s in st.items() if name.startswith("loop."))
    metrics["loop.us_per_tick"] = (loop_ns / ticks / 1e3, "us")
    useful = sum(r.useful for r in traced)
    calls = st["netcore.apply_update"].calls
    metrics["netcore.apply_update.useful_calls"] = (useful / n, "count")
    metrics["netcore.apply_update.useful_ratio"] = (useful / calls if calls else 0.0,
                                                    "ratio")
    metrics["exper.ticks"] = (ticks / n, "count")
    metrics["exper.run_trial.self_us_per_tick"] = (
        st["exper.run_trial"].self_ns / ticks / 1e3, "us")
    metrics["exper.calibrate.s"] = (st["exper.calibrate"].ns / n / 1e9, "s")
    metrics["simenv.make_track.s"] = (st["simenv.make_track"].ns / n / 1e9, "s")
    metrics["simenv.make_track.calls"] = (st["simenv.make_track"].calls / n, "count")
    metrics["exper.write_trial_artifacts.s"] = (
        st["exper.write_trial_artifacts"].ns / n / 1e9, "s")
    metrics["exper.artifact_bytes"] = (sum(r.artifact_bytes for r in traced) / n, "bytes")
    metrics["pgmio.write_weight_snapshot.s"] = (
        st["pgmio.write_weight_snapshot"].ns / n / 1e9, "s")
    metrics["config.load.s"] = (
        (st["config.load_config"].ns + st["config.to_trial_config"].ns) / n / 1e9, "s")
    plain_tps = reference_rate(plain_clock.trials, CHUNK_TICKS)
    traced_tps = reference_rate(traced_clock.trials, CHUNK_TICKS)
    metrics["trace.reference_us"] = (
        1e6 * tracing.REFERENCE_S / traced_clock.speed(), "us")
    metrics["trace.ticks_per_s_untraced"] = (plain_tps, "ticks/s")
    metrics["trace.ticks_per_s_traced"] = (traced_tps, "ticks/s")
    metrics["trace.overhead_pct"] = (
        100.0 * (plain_tps - traced_tps) / plain_tps if plain_tps else 0.0, "%")
    # the measured difference above is within the machine's run-to-run
    # spread; the wrappers' own cost per tick bounds it more tightly
    cost_ns = tracing.wrapper_cost_ns()
    per_tick = sum(st[name].calls for _, _, name in PER_TICK) / ticks
    metrics["trace.wrapper_ns"] = (cost_ns, "ns")
    # the tick rate at the speed the wrappers ran at, not the reference speed
    measured_tps = traced_tps * traced_clock.speed()
    metrics["trace.wrapper_overhead_pct"] = (
        100.0 * cost_ns * per_tick * measured_tps / 1e9, "%")
    note = (f"{len(plain)} untraced and {n} traced rounds of {ticks // n} ticks; "
            f"apply_update useful ratio {useful} / {calls} calls")
    return rounds, consistent, metrics, note


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "sarbot" / "__init__.py").is_file():
        print(f"bench: no sarbot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        run = measure_traced if args.trace else measure
        rounds, consistent, metrics, note = run(workload, args, out_dir, started)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if not consistent:
        print(f"{args.workload}: repeats gave different outputs", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  trials attempted {attempted}, failed {failed}, "
          f"repeats identical {consistent}")
    print(json.dumps({
        "correct": consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
