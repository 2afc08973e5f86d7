"""Golden digests: fixed-seed batches must reproduce their summary.json bytes
and the files of every record.

One small config per mode, each run serially and on a two-process pool.
The digests are SHA-256 of the text those files hold; they change
only when a change to the simulation is meant to change its outputs, and
such a change says so where it updates them.

The decide and follow digests do not depend on the CPU's instruction set:
their rounds add, multiply and divide elementwise and sum over links in a
fixed order, and the noise draw avoids the math library; CI runs them
under an SSE-only and an AVX2-only profile. The mobile digests also rest
on three BLAS products (aggregation, the estimate update and the alignment
term of the motion law), so they hold only where the BLAS kernel rounds
as the one they were taken with.
"""

import dataclasses
import hashlib

import pytest

from netdecide.config import ExperimentConfig
from netdecide.harness import run_monte_carlo
from netdecide.records import serialize_record

GOLDEN = {
    # N=20 at radius 0.4 sits over the degree cap, so world build prunes
    "decide": (dict(n_agents=20, n_models=2, radius=0.4, max_iters=300,
                    n_trials=4, seed=7),
               "6c66947956330e2f38bd7527ef85567b871c73978d6c23c71507147d06fcc4d9"),
    "follow": (dict(n_agents=20, n_models=3, radius=0.4, target_agent=3,
                    max_iters=200, n_trials=4, seed=11),
               "9c0bd5298453404d3329e06dbd822f57e4011ad67624a3bad17c34bf165d08d4"),
    # a degree cap of 5 makes every per-round rebuild prune without the
    # connectivity constraint
    "mobile": (dict(n_agents=20, max_iters=150, max_degree=5, radius=30.0,
                    n_trials=4, seed=13),
               "ac2585205a89bef052f1623ab83832a4f28934f7ff97d4b65ffd255ef5f576f9"),
}


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_summary_digest_is_pinned(mode, n_jobs):
    overrides, digest = GOLDEN[mode]
    config = ExperimentConfig.for_mode(mode, **overrides)
    summary = run_monte_carlo(config, n_jobs=n_jobs)
    text = summary.to_json() + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def records_digest(summary):
    """SHA-256 over every record's CSV, JSON sidecar and trajectory CSV
    (when it has one), in trial order."""
    digest = hashlib.sha256()
    for record in summary.records:
        # the sidecar holds wall_time, which no run reproduces
        for text in serialize_record(dataclasses.replace(record, wall_time=0.0)):
            if text is not None:
                digest.update(text.encode())
    return digest.hexdigest()


# every mobile record's CSV, JSON sidecar and trajectory CSV, which pin
# positions round by round rather than through summary.json alone
MOBILE_RECORDS = "c2c4646d42cc2f1145cee28023cf9b795c327c1da87d24996b259034c21d58bf"


def test_mobile_record_digest_is_pinned():
    overrides, _ = GOLDEN["mobile"]
    config = ExperimentConfig.for_mode("mobile", **overrides,
                                       snapshot_iters=(1, 75, 150))
    summary = run_monte_carlo(config, keep_records=True)
    assert records_digest(summary) == MOBILE_RECORDS


# every decide and follow record's CSV and JSON sidecar, which hold the
# per-agent switch counts, the desired-model counts and the relay coverage
# that summary.json only aggregates
RECORDS = {
    "decide": "476eacadbd4074680b46a49cabed17af1b652a586c5016e651d1c84f3d6ecf04",
    "follow": "13c899363cdf3c51463a896eac6e6b6055babd99e0d053a4785d09cc3c7f917f",
}


@pytest.mark.parametrize("mode", sorted(RECORDS))
def test_record_digest_is_pinned(mode):
    overrides, _ = GOLDEN[mode]
    config = ExperimentConfig.for_mode(mode, **overrides)
    summary = run_monte_carlo(config, keep_records=True)
    assert records_digest(summary) == RECORDS[mode]


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_invariant_checks_leave_the_summary_unchanged(mode):
    # follow reassigns mid-run, so the relay's hop-ball check spans a
    # reassignment
    overrides, _ = GOLDEN[mode]
    if mode == "follow":
        overrides = dict(overrides, reassign_at=(50,))
    config = ExperimentConfig.for_mode(mode, **overrides)
    checked = run_monte_carlo(config, check_invariants=True)
    assert checked.to_json() == run_monte_carlo(config).to_json()


# N=160 at radius 0.15 links 3.6% of pairs, a sparse adjacency for the
# link-list round
SPARSE_RECORDS = {
    "decide": (dict(seed=21),
               "f3d3f58a6477ffc1e2e9d7d7862a8092f9f1a1afd145fd63d9de61ba811578be"),
    "follow": (dict(seed=23, target_agent=5),
               "8c8db93fd652ccfdcbc8f97d4f9b7bf9257c95bc7e612b5cdd82e6a72ac12a22"),
}


@pytest.mark.parametrize("mode", sorted(SPARSE_RECORDS))
def test_sparse_record_digest_is_pinned(mode):
    overrides, digest = SPARSE_RECORDS[mode]
    config = ExperimentConfig.for_mode(mode, n_agents=160, radius=0.15, max_iters=60,
                                       n_trials=2, **overrides)
    summary = run_monte_carlo(config, keep_records=True)
    assert records_digest(summary) == digest
