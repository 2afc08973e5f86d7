"""Monte Carlo harness: seeded trial construction and aggregation.

Seed discipline: the master seed feeds one SeedSequence whose spawned
children seed the trials in index order; each trial spawns five children
for topology, models, assignment, noise, and the simulation streams, which
split into the data stream's seed, the decision generator and the
reassignment generator (see network.build_streams). Every draw is an array
draw over all agents, so none depends on the order agents are visited in,
and trials are independent of scheduling: serial and parallel execution
produce bit-identical aggregates, and summaries carry no wall-clock content.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial, reduce

import numpy as np

from .config import ConfigError, ExperimentConfig
from .decision import run_decision
from .follow import run_follow
from .mobility import MotionDriver, rebuild_topology
from .network import (DivergenceError, build_streams, corner_models,
                      draw_noise_profile, generate_models, generate_topology,
                      link_grid, network_to_json, random_assignment)
from .records import RunRecord, jsonable

SUMMARY_SCHEMA = "netdecide.summary/1"


def trial_seeds(master_seed, n_trials):
    """The per-trial seed sequences for a master seed, in trial order."""
    return np.random.SeedSequence(master_seed).spawn(n_trials)


def run_single_trial(config, trial_seed, *, check_invariants=False,
                     export_network=False):
    """Build one seeded world and run the configured mode on it.

    Returns ``(record, network_doc_or_None)``; a diverged trial comes back
    as a failure stub instead of raising.
    """
    topo_ss, model_ss, assign_ss, noise_ss, sim_ss = trial_seed.spawn(5)
    if config.mode == "mobile":
        # the swarm takes off from a patch around the box center; sources
        # sit at the corners when there are four of them, so the initial
        # flock is connected while the targets are maximally spread
        lo, hi = config.model_range
        center = 0.5 * (lo + hi)
        positions = np.random.default_rng(topo_ss).uniform(
            center - config.start_extent, center + config.start_extent,
            size=(config.n_agents, 2))
        links = link_grid(rebuild_topology(positions, config.radius, config.max_degree))
    else:
        positions, links = generate_topology(config.n_agents, config.max_degree,
                                             config.radius, seed=topo_ss)
    if config.mode == "mobile" and config.n_models == 4:
        models = corner_models(config.model_range)
    else:
        models = generate_models(config.n_models, config.dim, config.model_range,
                                 seed=model_ss, min_separation_sq=4.0 * config.beta)
    assignment = random_assignment(config.n_agents, len(models),
                                   np.random.default_rng(assign_ss))
    sigma_v2, reg_power = draw_noise_profile(config.n_agents, config.dim, seed=noise_ss,
                                             sigma_v2_range=config.sigma_v2_range,
                                             reg_power_range=config.reg_power_range)
    streams = build_streams(sigma_v2, reg_power, sim_ss)
    network_doc = None
    if export_network:
        network_doc = network_to_json(positions, links, models, assignment)

    try:
        if config.mode == "decide":
            record = run_decision(config, links, models, assignment, streams,
                                  check_invariants=check_invariants)
        elif config.mode == "follow":
            record = run_follow(config, links, models, assignment, streams,
                                check_invariants=check_invariants)
        else:
            record = run_decision(config, links, models, assignment, streams,
                                  check_invariants=check_invariants,
                                  motion=MotionDriver(config, positions, links, models))
    except DivergenceError:
        record = RunRecord.failed(config, models, assignment)
    return record, network_doc


@dataclass(eq=False)
class MonteCarloSummary:
    """Order-independent aggregate of one batch of trials.

    Curve aggregates are nan where no trial contributed at that
    iteration. ``records`` and ``networks`` are session-only extras and
    never serialized.
    """

    config: ExperimentConfig
    n_trials: int
    success_count: int
    diverged_count: int
    trial_success: list
    final_models: list
    mean_msd_observed: np.ndarray
    p10_msd_observed: np.ndarray
    p90_msd_observed: np.ndarray
    mean_msd_desired: np.ndarray
    p10_msd_desired: np.ndarray
    p90_msd_desired: np.ndarray
    desired_support: np.ndarray
    mean_switches_per_trial: float
    records: list | None = None
    networks: list | None = None

    @property
    def success_rate(self):
        return self.success_count / self.n_trials

    def to_json(self):
        doc = {f.name: jsonable(getattr(self, f.name)) for f in fields(self)
               if f.name not in ("records", "networks")}
        doc.update(schema=SUMMARY_SCHEMA, success_rate=self.success_rate,
                   config=json.loads(self.config.to_json()),
                   final_models=[None if m is None else int(m) + 1
                                 for m in self.final_models])
        return json.dumps(doc, indent=2, sort_keys=True)


# columns _nan_stats sorts at a time
_COLUMNS_PER_BLOCK = 256


def _nan_stats(stack):
    """Per-column mean, 10th and 90th percentile over the trial axis,
    skipping NaN, and per-column count of values; the values
    ``np.nanpercentile`` gives, with NaN and no warning for columns that
    hold no value.

    The columns are taken ``_COLUMNS_PER_BLOCK`` at a time, so beyond its
    four outputs the summary holds one block of every trial, however long
    the curves. A mean adds its column's values in trial order.
    """
    trials = stack.reshape(stack.shape[0], -1)
    mean, p10, p90 = (np.full(trials.shape[1], np.nan) for _ in range(3))
    counts = np.empty(trials.shape[1], dtype=int)
    for lo in range(0, trials.shape[1], _COLUMNS_PER_BLOCK):
        cols = slice(lo, lo + _COLUMNS_PER_BLOCK)
        block = trials[:, cols]
        valid = ~np.isnan(block)
        k = counts[cols] = valid.sum(axis=0)
        # row by row: numpy sums a one-column block's axis 0 pairwise
        sums = reduce(np.add, np.where(valid, block, 0.0))
        np.divide(sums, k, out=mean[cols], where=k > 0)
        # NaN sorts last, so a column with k values holds them in its first
        # k rows; columns with equal k share one vectorized percentile call
        ordered = np.sort(block, axis=0)
        for size in set(k.tolist()) - {0}:
            same = k == size
            p10[cols][same], p90[cols][same] = np.percentile(
                ordered[:size, same], [10, 90], axis=0)
    shape = stack.shape[1:]
    return mean.reshape(shape), p10.reshape(shape), p90.reshape(shape), counts.reshape(shape)


def _pad_stack(arrays):
    # trials that stop early contribute nan past their last round
    length = max(a.shape[0] for a in arrays)
    out = np.full((len(arrays), length) + arrays[0].shape[1:], np.nan)
    for i, a in enumerate(arrays):
        out[i, : a.shape[0]] = a
    return out


def summarize(config, records, networks=None, keep_records=False):
    """Aggregate records in trial order into a :class:`MonteCarloSummary`."""
    obs = _pad_stack([r.msd_observed for r in records])
    des = _pad_stack([r.msd_desired for r in records])
    mean_obs, p10_obs, p90_obs, _ = _nan_stats(obs)
    mean_des, p10_des, p90_des, support = _nan_stats(des)
    switches = [int(r.switch_adopt.sum() + r.switch_random.sum()) for r in records]
    return MonteCarloSummary(
        config=config,
        n_trials=len(records),
        success_count=int(sum(1 for r in records if r.success)),
        diverged_count=int(sum(1 for r in records if r.diverged)),
        trial_success=[bool(r.success) for r in records],
        final_models=[r.final_model for r in records],
        mean_msd_observed=mean_obs,
        p10_msd_observed=p10_obs,
        p90_msd_observed=p90_obs,
        mean_msd_desired=mean_des,
        p10_msd_desired=p10_des,
        p90_msd_desired=p90_des,
        desired_support=support,
        mean_switches_per_trial=float(np.mean(switches)),
        records=list(records) if keep_records else None,
        networks=networks,
    )


def run_monte_carlo(config, n_jobs=1, *, keep_records=False, check_invariants=False,
                    export_networks=False):
    """Run ``config.n_trials`` independent trials and aggregate them.

    ``n_jobs`` > 1 fans trials out to worker processes, no more than
    there are trials; results are collected in trial order either way, so
    the aggregate is identical.
    """
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be at least 1, got {n_jobs}")
    config.validate()
    seeds = trial_seeds(config.seed, config.n_trials)
    trial = partial(run_single_trial, config, check_invariants=check_invariants,
                    export_network=export_networks)
    if n_jobs == 1:
        outcomes = [trial(ss) for ss in seeds]
    else:
        # the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(n_jobs, config.n_trials)) as pool:
            outcomes = list(pool.map(trial, seeds, chunksize=1))
    records = [r for r, _ in outcomes]
    networks = [doc for _, doc in outcomes] if export_networks else None
    return summarize(config, records, networks=networks, keep_records=keep_records)


def run_sweep(config, model_counts, n_jobs=1):
    """Monte Carlo batches across model counts, same master seed each.
    A count given twice raises :class:`ConfigError`: its batch would run
    twice and keep one result. Every count is checked before the first
    batch runs."""
    counts = [int(c) for c in model_counts]
    repeated = sorted({c for c in counts if counts.count(c) > 1})
    if repeated:
        raise ConfigError(f"model counts repeat: {repeated}")
    configs = {c: config.replace(n_models=c) for c in counts}
    return {c: run_monte_carlo(cfg, n_jobs=n_jobs) for c, cfg in configs.items()}
