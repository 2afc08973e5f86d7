"""Monte Carlo harness: aggregation, argument checks and diverged trials."""

import gc
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import netdecide.harness
from netdecide.cli import main
from netdecide.config import ConfigError
from netdecide.harness import _nan_stats, _pad_stack, run_monte_carlo
from netdecide.network import network_from_json
from netdecide.records import record_to_json

from conftest import strict_json, tiny_config


def nanpercentile_reference(stack):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return (np.nanpercentile(stack, 10, axis=0),
                np.nanpercentile(stack, 90, axis=0))


def test_nan_stats_matches_nanpercentile_on_ragged_trials(rng):
    # trials that stop early are padded with trailing nan
    lengths = [50, 7, 120, 120, 1, 33]
    stack = _pad_stack([rng.lognormal(size=(k, 3)) for k in lengths])
    stack[2, 10, 1] = np.nan  # a gap inside a column
    _, p10, p90, counts = _nan_stats(stack)
    want10, want90 = nanpercentile_reference(stack)
    assert np.array_equal(p10, want10)
    assert np.array_equal(p90, want90)
    assert np.array_equal(counts, (~np.isnan(stack)).sum(axis=0))


def test_nan_stats_matches_nanpercentile_on_one_dimensional_curves(rng):
    stack = _pad_stack([rng.normal(size=k) for k in (9, 4, 9, 2)])
    stack[[0, 2], 3] = np.nan
    mean, p10, p90, _ = _nan_stats(stack)
    want10, want90 = nanpercentile_reference(stack)
    assert np.array_equal(p10, want10)
    assert np.array_equal(p90, want90)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.allclose(mean, np.nanmean(stack, axis=0))


def test_nan_stats_at_block_edges_matches_nanpercentile(rng):
    # 3 x 401 columns fill several blocks and a ragged last one
    lengths = [401, 17, 256, 390, 1, 300, 401, 86]
    stack = _pad_stack([rng.lognormal(size=(k, 3)) for k in lengths])
    stack[3, 100:110, 2] = np.nan
    assert stack[0].size > 4 * netdecide.harness._COLUMNS_PER_BLOCK
    mean, p10, p90, counts = _nan_stats(stack)
    want10, want90 = nanpercentile_reference(stack)
    assert np.array_equal(p10, want10, equal_nan=True)
    assert np.array_equal(p90, want90, equal_nan=True)
    assert np.array_equal(counts, (~np.isnan(stack)).sum(axis=0))
    # each mean adds its column's values in trial order
    total = stack[0].copy()
    for trial in stack[1:]:
        total += np.where(np.isnan(trial), 0.0, trial)
    assert np.array_equal(mean, total / counts)


def test_nan_stats_memory_beyond_its_outputs_does_not_grow_with_rounds(rng):
    def held(rounds):
        stack = _pad_stack([rng.lognormal(size=(k, 3))
                            for k in (rounds, rounds // 2, rounds - 7)])
        tracemalloc.start()
        try:
            out = _nan_stats(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - sum(values.nbytes for values in out)

    # each np.percentile call leaves a small tuple on CPython's free list
    # until the list holds 2000; fill it first, and keep the collector,
    # which empties it, off
    gc.disable()
    try:
        for _ in range(2100):
            np.percentile(np.zeros((3, 2)), [10, 90], axis=0)
        held(300)
        assert held(4000) <= held(1400)
    finally:
        gc.enable()


def test_nan_stats_all_nan_columns_are_nan_without_warning():
    stack = np.full((3, 4, 2), np.nan)
    stack[:, 0, 0] = [3.0, 1.0, 2.0]
    stack[1, 2, 1] = 5.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, p10, p90, counts = _nan_stats(stack)
    empty = counts == 0
    assert empty.sum() == 6
    for values in (mean, p10, p90):
        assert np.isnan(values[empty]).all()
        assert not np.isnan(values[~empty]).any()
    assert p10[0, 0] == pytest.approx(1.2) and p90[0, 0] == pytest.approx(2.8)
    assert p10[2, 1] == p90[2, 1] == 5.0


@pytest.mark.parametrize("n_jobs", [0, -1])
def test_run_monte_carlo_rejects_fewer_than_one_job(n_jobs):
    with pytest.raises(ConfigError, match="n_jobs"):
        run_monte_carlo(tiny_config(), n_jobs=n_jobs)


class SerialPool:
    """A stand-in for ``ProcessPoolExecutor`` that records its
    ``max_workers`` and maps in this process."""

    def __init__(self, max_workers, created):
        created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def test_worker_pool_is_capped_at_the_batch(monkeypatch):
    created = []
    monkeypatch.setattr(netdecide.harness, "ProcessPoolExecutor",
                        lambda max_workers: SerialPool(max_workers, created))
    config = tiny_config(max_iters=20, t_hold=5)
    pooled = run_monte_carlo(config, n_jobs=64, keep_records=True)
    assert created == [2]
    serial = run_monte_carlo(config, keep_records=True)
    assert pooled.records == serial.records
    assert pooled.to_json() == serial.to_json()


@pytest.mark.parametrize("mode", ["decide", "follow"])
def test_exported_networks_match_their_trials(mode):
    config = tiny_config(mode=mode, max_iters=60, target_agent=3, n_trials=3)
    summary = run_monte_carlo(config, keep_records=True, export_networks=True)
    assert len(summary.networks) == len(summary.records) == 3
    for record, doc in zip(summary.records, summary.networks):
        _, _, models, assignment = network_from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(models, record.models)
        assert np.array_equal(assignment, record.assignment)


# at step size 3 an agent's estimate error grows by a factor of about
# e^0.88 a round on average (about e^0.11 at 1.5), so every estimate
# blows up well within 100 rounds
DIVERGING = dict(n_agents=20, n_models=2, radius=0.4, max_iters=100, t_hold=10,
                 n_trials=2, step_size=3.0, seed=1)


def test_diverging_batch_records_every_trial_as_failed():
    summary = run_monte_carlo(tiny_config(**DIVERGING), keep_records=True)
    assert summary.diverged_count == summary.n_trials == 2
    assert summary.success_count == 0
    assert all(r.diverged and not r.success for r in summary.records)


@pytest.mark.parametrize("mode, step_size, diverged, target", [
    ("decide", DIVERGING["step_size"], 2, None), ("decide", 0.01, 0, None),
    ("follow", DIVERGING["step_size"], 2, 5)])
def test_records_name_a_target_only_in_follow_mode(mode, step_size, diverged, target):
    # a decide config may carry a target_agent; its records, failure stubs
    # included, name none
    config = tiny_config(**dict(DIVERGING, mode=mode, step_size=step_size,
                                target_agent=5))
    summary = run_monte_carlo(config, keep_records=True)
    assert summary.diverged_count == diverged
    for record in summary.records:
        assert record.target_agent == (None if target is None else target - 1)
        assert strict_json(record_to_json(record))["target_agent"] == target


def test_diverging_cli_run_writes_strict_json(tmp_path, monkeypatch):
    monkeypatch.delenv("NETDECIDE_OUTPUT_DIR", raising=False)
    flags = ["--agents", "20", "--models", "2", "--radius", "0.4", "--iters", "100",
             "--t-hold", "10", "--trials", "2", "--step-size", "3.0", "--seed", "1"]
    assert main(["decide", *flags, "--quiet", "--out-dir", str(tmp_path)]) == 0
    sidecars = sorted(tmp_path.glob("trial_*.json"))
    assert len(sidecars) == 2
    for path in sidecars:
        assert strict_json(path.read_text())["diverged"] is True
    assert strict_json((tmp_path / "summary.json").read_text())["diverged_count"] == 2
