"""Run the repository benchmark: four serving workloads, wall and simulated metrics.

One workload, measured in this process (the command BENCHMARK.json declares)::

    python3 bench/run.py --workload chat-decode --seed 0 --seconds 20 --trace 0

It prints the metrics by name with their units, then one JSON line::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run and writes
the full layer table and a Chrome trace to ``bench/out/``.

Several workloads or trials, each a fresh subprocess, interleaved
round-robin, summarised as median, IQR and n per metric::

    python3 bench/run.py --trials 5 [--workload W] [--trace 1]

The command exits non-zero when any output check fails.
"""

from __future__ import annotations

import os

# Single-threaded numerics: set before anything imports numpy.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: The root spans' inclusive time must cover the externally timed wall.
ROOT_COVERAGE_TOLERANCE = 0.05
#: A hung child fails the command instead of blocking it.
CHILD_TIMEOUT_S = 900


# ----------------------------------------------------------------------
# One workload, measured in this process
# ----------------------------------------------------------------------
def _expected_signature(name: str, seed: int) -> str | None:
    table = json.loads((BENCH_DIR / "expected_signatures.json").read_text())
    return table.get(name, {}).get(str(seed))


def _purpose_failures(name: str, metrics: dict[str, float]) -> list[str]:
    """What each workload exists to exercise, checked on its traced run."""
    chaos = name == "disagg-chaos"
    rules = [
        (name != "short-nocache" or metrics["block_store.calls"] == 0,
         "short-nocache must never call the block store"),
        (name != "prefix-hit" or metrics["block_store.evictions"] == 0,
         "prefix-hit must evict nothing"),
        (name != "chat-decode" or metrics["block_store.evictions"] > 0,
         "chat-decode must evict"),
        ((metrics["faults.calls"] > 0) == chaos,
         "only disagg-chaos may reach the fault layer"),
        ((metrics["disagg.migrated"] > 0) == chaos,
         "only disagg-chaos may migrate KV"),
    ]
    return [message for ok, message in rules if not ok]


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Measure one workload; returns ``(checks, metrics)``.

    ``SETUPS`` fresh set-ups are timed; the last one serves the first pass.
    Untraced, passes (each on a fresh set-up) repeat until ``seconds`` of
    ``ShardedServingSystem.run`` wall have been measured.  Traced,
    untraced passes for a quarter of ``seconds`` are followed by traced
    passes for ``seconds``.  Every set-up and pass wall time is also
    scaled to the reference host by the ``HostSpeed`` kernel timed next
    to it.
    """
    from bench_workloads import SMOKE_DIVISOR, WORKLOADS, Checks, result_metrics
    from host_speed import HostSpeed

    build_setup = WORKLOADS[name]
    divisor = SMOKE_DIVISOR if smoke else 1
    checks = Checks(None if smoke else _expected_signature(name, seed))
    speed = HostSpeed()
    #: ``(phase seconds, scale)`` of every timed set-up.
    setup_times: list[tuple[dict[str, float], float]] = []
    metrics: dict[str, float] = {}

    def timed_setup():
        scale = speed.scale()
        setup = build_setup(seed, divisor)
        setup_times.append((setup.times, scale))
        return setup, scale

    for _ in range(SETUPS - 1):
        timed_setup()

    def serve_for(budget: float, after_pass=None) -> list[tuple[int, float, float]]:
        """``(requests, wall_s, scaled wall_s)`` of each checked pass until
        ``budget`` wall seconds."""
        passes: list[tuple[int, float, float]] = []
        while sum(wall for _, wall, _ in passes) < budget or not passes:
            # Each pass starts from a collected heap: no garbage of the
            # previous pass is freed inside this one's timing or memory peak.
            gc.collect()
            setup, before = timed_setup()
            result = checks.serve(setup)
            del setup
            if result is None:
                break
            if not metrics:
                metrics.update(result_metrics(result.results))
            # The host can change speed during the pass: take the mean of
            # the scales timed just before and just after it.
            scale = (before + speed.scale()) / 2
            passes.append((result.requests, result.wall_s, result.wall_s * scale))
            del result
            if after_pass is not None:
                after_pass()
        return passes

    untraced = serve_for(seconds / 4 if trace else seconds)
    if not untraced:
        return checks, {}
    requests = untraced[0][0]
    metrics["req_per_s"] = requests / statistics.median(scaled for *_, scaled in untraced)
    metrics["setup_s"] = statistics.median(
        sum(times.values()) * scale for times, scale in setup_times
    )
    for phase in ("policy", "inputs", "system"):
        metrics[f"setup.{phase}_s"] = statistics.median(
            times[phase] * scale for times, scale in setup_times
        )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"unscaled: req_per_s "
        f"{requests / statistics.median(wall for _, wall, _ in untraced):.6g}, setup_s "
        f"{statistics.median(sum(times.values()) for times, _ in setup_times):.6g}; "
        f"host scale median {statistics.median(scale for _, scale in setup_times):.4g}"
    )
    if not trace:
        return checks, metrics

    from bench_trace import ROOT as EVENT_LOOP
    from bench_trace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = serve_for(seconds, after_pass=tracer.harvest)
    finally:
        tracer.uninstall()
    if not traced or checks.failed:
        return checks, {}
    wall = sum(wall for _, wall, _ in traced)
    coverage = tracer.root_inclusive_s() / wall
    if abs(coverage - 1.0) > ROOT_COVERAGE_TOLERANCE:
        checks.failures.append(f"root spans cover {coverage:.3f} of the run wall")
    metrics.update(tracer.layer_metrics(len(traced), wall))
    metrics["event_loop.events"] = (
        requests + metrics["engine.steps"] + tracer.callbacks / len(traced)
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(scaled for *_, scaled in traced)
        / statistics.median(scaled for *_, scaled in untraced)
        - 1.0
    )
    if not smoke:
        checks.failures.extend(_purpose_failures(name, metrics))
    named = {
        key: value
        for key, value in metrics.items()
        if key.endswith(".self_share") and key != f"{EVENT_LOOP}.self_share"
    }
    print(f"largest named self share: {max(named, key=named.get)}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}"
    Path(f"{stem}-layers.json").write_text(json.dumps(metrics, indent=1, sort_keys=True))
    tracer.write_chrome_trace(Path(f"{stem}-trace.json"))
    print(f"wrote {stem}-layers.json and {stem}-trace.json ({len(tracer.spans)} spans)")
    return checks, metrics


def worker(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    checks, measured = measure(
        args.workload, args.seed, args.seconds, args.trace == 1, args.scale == "smoke"
    )
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in SPEC[section]:
        if entry["name"] in measured:
            metrics[entry["name"]] = {
                "value": measured[entry["name"]],
                "unit": entry["unit"],
            }
            print(f"{entry['name']:>30} {measured[entry['name']]:>16.6g} {entry['unit']}")
    correct = not checks.failures and len(metrics) == len(SPEC[section])
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Trials: fresh subprocesses, interleaved round-robin
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """One worker subprocess; its JSON result plus its signature."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scale", scale,
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["signature"] = next(
        (line.split()[1] for line in lines if line.startswith("signature ")), None
    )
    result["exit_code"] = completed.returncode
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr[-4000:])
    return result


def _summary(values: list[float]) -> dict[str, float]:
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"median": statistics.median(values), "iqr": iqr, "n": len(values)}


def trials(args) -> int:
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for trial in range(args.trials):
        for name in names:
            seed = args.seed + trial
            result = run_child(name, seed, args.seconds, 0, args.scale)
            result["seed"] = seed
            runs[name].append(result)
            print(
                f"{name:>14} seed {seed:>3} correct {result['correct']} "
                f"signature {str(result['signature'])[:12]} "
                + " ".join(
                    f"{key}={value['value']:.6g}"
                    for key, value in result["metrics"].items()
                ),
                flush=True,
            )
    traced = {}
    if args.trace:
        for name in names:
            traced[name] = run_child(name, args.seed, args.seconds, 1, args.scale)
            print(f"{name:>14} traced correct {traced[name]['correct']}", flush=True)
    summary = {
        name: {
            metric: _summary([r["metrics"][metric]["value"] for r in results
                              if metric in r["metrics"]])
            for metric in UNITS
            if any(metric in r["metrics"] for r in results)
        }
        for name, results in runs.items()
    }
    print(f"\n{'workload':>14} {'metric':>18} {'median':>14} {'IQR':>12} {'n':>3}")
    for name, metrics in summary.items():
        for metric, stats in metrics.items():
            print(
                f"{name:>14} {metric:>18} {stats['median']:>14.6g} "
                f"{stats['iqr']:>12.4g} {stats['n']:>3}  {UNITS[metric]}"
            )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "trials.json").write_text(
        json.dumps({"runs": runs, "traced": traced, "summary": summary}, indent=1)
    )
    every = [r for results in runs.values() for r in results] + list(traced.values())
    return 0 if all(r["correct"] and r["exit_code"] == 0 for r in every) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES,
        help="workload to run (default: all, each in a fresh subprocess)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (trial t uses seed + t)")
    parser.add_argument(
        "--seconds", type=float, default=SPEC["run_seconds"],
        help="measured seconds per run (at least one pass always runs)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help="run N fresh-subprocess trials per workload and summarise them",
    )
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke divides every request count by 100",
    )
    args = parser.parse_args(argv)
    if args.trials is None and args.workload:
        return worker(args)
    if args.trials is None:
        args.trials = 1
    return trials(args)


if __name__ == "__main__":
    raise SystemExit(main())
