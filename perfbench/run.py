"""Wall-clock benchmark of DIPBench runs on this repository's engines.

Usage, from the repository root::

    python3 perfbench/run.py --workload classic_bulk --seed 42 \\
        --seconds 25 --trace 0

``--trace 0`` times the end-to-end metrics with tracing off; ``--trace
1`` alternates untraced and traced repetitions and reports the per-layer
split of the traced repetition with the median ``run_s``.

Each run repeats its workload from set-up onwards until the timed
phases add up to ``--seconds`` and reports medians over repetitions.
End-to-end timings are stated at a reference processor speed (see
``speed.py``); the measured ``run_s`` of each repetition is printed
beside its reference-speed value.  Metric names and units are those of
``BENCHMARK.json``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
before it name the run fingerprint, any metric that no longer exists,
and every failed check.  The program is imported from ``src/`` of the
checkout, so a directory without it fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="timed seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(times: int = 5) -> float:
    """Median time for a fresh interpreter to import the program.

    Each import runs in a process of its own, so that this part of
    set-up is repeated like every other one; the process states its
    import time at the reference speed it sampled right after it.
    """
    from workloads import median

    code = (
        "import sys, time\n"
        "started = time.perf_counter()\n"
        f"sys.path[:0] = {[str(HERE), str(ROOT / 'src')]!r}\n"
        "import workloads\n"
        "elapsed = time.perf_counter() - started\n"
        "from speed import Speedometer\n"
        "speed = Speedometer()\n"
        "speed.sample()\n"
        "print(elapsed / speed.slowdown())\n"
    )
    samples = [
        float(subprocess.run(
            [sys.executable, "-c", code],
            check=True, capture_output=True, text=True,
        ).stdout)
        for _ in range(times)
    ]
    return median(samples)


def end_to_end(workload, plain, tally) -> dict[str, float]:
    """End-to-end figures at the reference speed.

    Times are medians over repetitions; latency percentiles are taken
    over the operations of every repetition together.  On the storm
    they are taken over the sessions that ran the engine: a cache hit is
    served in about 2 ms, mostly socket and event-loop work whose speed
    on a shared machine drifts by more than any bound from run to run,
    so hits are reported by the traced run (``serve.hit_p50_ms``).
    """
    from workloads import median, percentile

    peak_rss_mb = workload.peak_rss_mb()  # before any import is timed
    latencies = [s for r in plain for s in r.latencies_s]
    print(f"latency samples: {len(latencies)}")
    return {
        "setup_s": import_seconds()
        + median([r.setup_s / r.slowdown for r in plain]),
        "run_s": median([r.run_ref_s for r in plain]),
        "ops_per_s": median([r.ops / r.run_ref_s for r in plain]),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": 1.0 - tally.failed / tally.attempted,
    }


def per_layer(workload, plain, traced) -> dict[str, float]:
    """The split of the median traced repetition, in measured seconds,
    and what the workload pools over all traced repetitions."""
    from workloads import layer_metrics, median

    rep = sorted(traced, key=lambda r: r.run_s)[(len(traced) - 1) // 2]
    metrics = layer_metrics(rep)
    metrics.update(workload.pooled_layer())
    metrics["trace.run_s"] = rep.run_s
    # Traced repetitions have no speed samples inside their timed phase,
    # so both sides are corrected with the samples at their edges.
    metrics["trace.overhead_s"] = (
        median([r.run_s / r.slowdown for r in traced])
        - median([r.run_s / r.slowdown for r in plain])
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # Shipped defaults only: physical knobs are read from the environment
    # at import time, so clear them before the program is imported.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    tally = workloads.Tally()
    plain, traced = workload.run(seed, args.seconds, bool(args.trace), tally)

    fingerprints = {rep.fingerprint for rep in plain + traced}
    tally.check(len(fingerprints) == 1,
                "repetitions produced different run fingerprints")
    fingerprint = plain[0].fingerprint
    if seed == workloads.DEFAULT_SEED:
        expected = json.loads((HERE / "expected.json").read_text())
        tally.check(fingerprint == expected[args.workload],
                    f"fingerprint {fingerprint} differs from the recorded "
                    f"{expected[args.workload]} at seed {seed}")
    print(f"fingerprint: {fingerprint}")
    print("measured run_s / at reference speed: " + ", ".join(
        f"{r.run_s:.4f}/{r.run_ref_s:.4f}" for r in plain
    ))

    if args.trace:
        values = per_layer(workload, plain, traced)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        values = end_to_end(workload, plain, tally)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    absent = sorted(set(units) - set(values))
    if absent:
        print("absent: " + ", ".join(absent))
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
