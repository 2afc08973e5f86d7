"""Benchmark for netdecide: trial throughput, round cost, world build and memory.

Usage, from the repository root::

    python3 benchmark/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs one seeded batch of trials the way ``netdecide <mode>``
does (config, serial ``harness.run_monte_carlo``, ``records.save_record``
into a scratch directory), again and again over identical inputs for about
``--seconds`` of measured time, then checks every trial's output (see
checks.py). With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it executes a half batch plain and then as often with a span
around every layer call, and prints the per-layer metrics. The last line of the output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. README.md explains the metrics.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: on two cores a second
# BLAS thread only measures contention with whatever else runs there.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
from spans import LAYER_SPANS, TRIAL_SPANS, Tracer, installed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

try:
    import numpy as np
    import netdecide
    from netdecide import ExperimentConfig, harness, records
except ImportError as exc:
    sys.exit(f"benchmark: cannot import netdecide from {SRC}: {exc}")
if Path(netdecide.__file__).resolve().parent != SRC / "netdecide":
    sys.exit(f"benchmark: netdecide was imported from {netdecide.__file__}, not {SRC}")

END_TO_END = {"trials_per_s": "1/s", "round_ms": "ms", "setup_s": "s", "peak_mb": "MB"}

PER_LAYER = {
    "harness.trial_ms": "ms",
    "harness.summarize_ms": "ms",
    "network.topology_ms": "ms",
    "network.streams_ms": "ms",
    "network.streams_mb": "MB",
    "network.component_count_ms": "ms/round",
    "network.pairwise_close_ms": "ms/round",
    "diffusion.adapt_ms": "ms/round",
    "diffusion.cluster_ms": "ms/round",
    "diffusion.combine_ms": "ms/round",
    "labeling.agreement_ms": "ms/round",
    "labeling.view_ms": "ms/round",
    "labeling.views": "count/trial",
    "decision.switch_ms": "ms/round",
    "decision.switches": "count/trial",
    "decision.switch_yield": "ratio",
    "decision.desired_ms": "ms/round",
    "follow.relay_ms": "ms/round",
    "follow.matrices_ms": "ms/round",
    "metrics.msd_ms": "ms/round",
    "mobility.motion_ms": "ms/round",
    "mobility.rebuild_ms": "ms/round",
    "records.save_ms": "ms/trial",
    "records.bytes": "B/trial",
    "loop.rounds": "count/trial",
    "loop.self_ms": "ms/round",
    "trace.overhead_pct": "%",
}

# span names whose self time is reported per round, as <name>_ms
PER_ROUND_SPANS = [m[:-3] for m, unit in PER_LAYER.items()
                   if unit == "ms/round" and m != "loop.self_ms"]


@dataclass
class Execution:
    """One run of a batch: its spans, wall time and outcome."""

    tracer: Tracer
    seconds: float
    records: list | None = None
    networks: list | None = None
    error: str | None = None


@dataclass
class Batch:
    """One seeded batch of trials, executed one or more times over identical inputs."""

    config: object
    directory: Path
    runs: list

    @property
    def error(self):
        return next((e.error for e in self.runs if e.error is not None), None)

    @property
    def records(self):
        # the files on disk were written by the last execution
        return self.runs[-1].records

    @property
    def networks(self):
        return self.runs[-1].networks

    @property
    def seconds(self):
        return sum(e.seconds for e in self.runs)


@dataclass
class Clock:
    """Where one trial's time went (seconds)."""

    setup: float
    loop: float


def batch_config(workload, seed, n_trials):
    """The mode's CLI defaults, the workload's overrides, and ``seed`` as the
    master seed, from which netdecide spawns every trial's seeds."""
    return ExperimentConfig.for_mode(workload.mode, **workload.overrides,
                                     n_trials=n_trials, seed=seed)


def execute(config, directory, spans):
    """Run one batch the way the CLI does and write its records."""
    tracer = Tracer()
    with installed(tracer, spans):
        t0 = time.perf_counter()
        try:
            summary = harness.run_monte_carlo(config, keep_records=True,
                                              export_networks=True)
            for i, record in enumerate(summary.records, start=1):
                records.save_record(record, directory, f"trial_{i:03d}")
        except Exception:  # a broken batch is counted as failed trials
            return Execution(tracer, time.perf_counter() - t0,
                             error=traceback.format_exc())
        return Execution(tracer, time.perf_counter() - t0,
                         summary.records, summary.networks)


def run_batch(config, spans, directory, *, seconds=None, executions=None):
    """Execute the batch ``executions`` times or, given ``seconds``, while one
    more execution of the mean length still fits (at least once)."""
    batch = Batch(config, directory, [])
    while True:
        n = len(batch.runs)
        if executions is not None and n >= executions:
            return batch
        if executions is None and n and batch.seconds * (n + 1) / n > seconds:
            return batch
        batch.runs.append(execute(config, directory, spans))


def warm_up(config):
    """Run the batch's first trial once untraced, so that lazy imports and
    first-call caches, which a process pays once, are neither timed nor
    counted in ``peak_mb``."""
    harness.run_monte_carlo(config.replace(n_trials=1), keep_records=True,
                            export_networks=True)


def peak_mb(config):
    """Peak traced allocation of one trial, the first of the batch."""
    tracemalloc.start()
    try:
        harness.run_monte_carlo(config.replace(n_trials=1), keep_records=True,
                                export_networks=True)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def check_batch(workload, batch):
    """Return ``(attempted, failed, problems)``."""
    attempted, failed, successes = batch.config.n_trials, 0, 0
    problems = []
    if batch.error is not None:
        print(f"batch raised:\n{batch.error}", file=sys.stderr)
        return attempted, attempted, problems
    if any(e.records != batch.records for e in batch.runs):
        problems.append("repeated executions differ")
    for i, (record, network) in enumerate(zip(batch.records, batch.networks), start=1):
        stem = f"trial_{i:03d}"
        if record.diverged:
            failed += 1
            print(f"{stem} diverged", file=sys.stderr)
            continue
        found = checks.check_trial(batch.config, record, network, batch.directory, stem)
        if found:
            failed += 1
            problems += [f"{stem}: {p}" for p in found]
        successes += bool(record.success)
    if workload.success_floor is not None and attempted > failed:
        share = successes / (attempted - failed)
        if share < workload.success_floor:
            problems.append(f"success share {share:.3f} is below the floor "
                            f"{workload.success_floor}")
    return attempted, failed, problems


def trial_clocks(tracer):
    """A :class:`Clock` per trial, from the trial-level spans."""
    trials = {}
    for i, name, parent, start, end in tracer.spans():
        if name == "harness.trial":
            trials[i] = {"start": start, "export": 0.0}
        elif name == "network.export":
            trials[parent]["export"] += end - start
        elif name == "loop":
            trials[parent]["loop"] = (start, end)
    return [Clock(setup=t["loop"][0] - t["start"] - t["export"],
                  loop=t["loop"][1] - t["loop"][0])
            for t in trials.values()]


def end_to_end(batch, peak):
    """Throughput and round time over every execution, world build as the
    median of every trial's build."""
    clocks = [c for e in batch.runs for c in trial_clocks(e.tracer)]
    rounds = len(batch.runs) * sum(r.n_iters for r in batch.records)
    return {
        "trials_per_s": len(clocks) / batch.seconds,
        "round_ms": 1e3 * sum(c.loop for c in clocks) / rounds,
        "setup_s": statistics.median(c.setup for c in clocks),
        "peak_mb": peak,
    }


def per_layer(traced, plain):
    """Per-layer figures, each the mean over the traced executions."""
    executions = len(traced.runs)
    totals = {}
    for e in traced.runs:
        for name, (calls, incl, own) in e.tracer.totals().items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls / executions
            acc[1] += incl / executions
            acc[2] += own / executions

    def get(name, k):
        return totals.get(name, (0, 0.0, 0.0))[k]

    recs = traced.records
    trials, rounds = len(recs), sum(r.n_iters for r in recs)
    switches = sum(int(r.switch_adopt.sum() + r.switch_random.sum()) for r in recs)
    views = get("labeling.view", 0)
    written = sum(p.stat().st_size for p in traced.directory.iterdir())
    out = {f"{name}_ms": 1e3 * get(name, 2) / rounds for name in PER_ROUND_SPANS}
    out.update({
        "harness.trial_ms": 1e3 * get("harness.trial", 1) / trials,
        "harness.summarize_ms": 1e3 * get("harness.summarize", 2),
        "network.topology_ms": 1e3 * get("network.topology", 2) / trials,
        "network.streams_ms": 1e3 * get("network.streams", 2) / trials,
        "network.streams_mb": sum(e.tracer.stream_bytes for e in traced.runs)
                              / executions / trials / 1e6,
        "labeling.views": views / trials,
        "decision.switches": switches / trials,
        "decision.switch_yield": switches / views if views else 0.0,
        "records.save_ms": 1e3 * get("records.save", 2) / trials,
        "records.bytes": written / trials,
        "loop.rounds": rounds / trials,
        "loop.self_ms": 1e3 * get("loop", 2) / rounds,
        "trace.overhead_pct": 100.0 * (traced.seconds / plain.seconds - 1.0),
    })
    return {name: out[name] for name in PER_LAYER}


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    mode = "traced" if trace else "untraced"
    print(f"== {name}  seed {seed}  {seconds:g} s  {mode}")
    if trace:
        # a half batch, executed plain and then as often traced
        config = batch_config(workload, seed, max(1, workload.batch // 2))
        warm_up(config)
        plain = run_batch(config, TRIAL_SPANS, out / "plain", seconds=seconds / 2)
        traced = run_batch(config, TRIAL_SPANS + LAYER_SPANS, out / "traced",
                           executions=len(plain.runs))
        traced.runs[-1].tracer.dump(out / "spans.csv")
        attempted, failed, problems = check_batch(workload, plain)
        if plain.error is None and traced.error is None and plain.records != traced.records:
            problems.append("traced trials differ from their plain runs")
        ok = plain.error is None and traced.error is None
        values, units = (per_layer(traced, plain) if ok else {}), PER_LAYER
    else:
        config = batch_config(workload, seed, workload.batch)
        warm_up(config)
        peak = peak_mb(config)
        plain = run_batch(config, TRIAL_SPANS, out / "plain", seconds=seconds)
        attempted, failed, problems = check_batch(workload, plain)
        values, units = (end_to_end(plain, peak) if plain.error is None else {}), END_TO_END
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"   executions {len(plain.runs)}  trials {attempted}  failed {failed}  "
          f"measured {plain.seconds:.2f} s")
    for metric, value in values.items():
        print(f"   {metric:28s} {value:14.6g} {units[metric]}")
    correct = not problems
    print(f"   correct {str(correct).lower()}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
