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
               "6a5deba00f325abdd8ea2b93b5fdf3a3f46b50c4ea821c4c219444b5322020a8"),
    "follow": (dict(n_agents=20, n_models=3, radius=0.4, target_agent=3,
                    max_iters=200, n_trials=4, seed=11),
               "2dfea585d226c5aa01dc1099cf55e4908d252777834c08fd3d7dd949fe353acd"),
    # a degree cap of 5 makes every per-round rebuild prune without the
    # connectivity constraint
    "mobile": (dict(n_agents=20, max_iters=150, max_degree=5, comm_radius=30.0,
                    n_trials=4, seed=13),
               "d4fbc5949fdc83eb50e980317d8bc06d5b0f5db241d38fd4a9be44edd08f2895"),
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
MOBILE_RECORDS = "bc15e476f21d692ddb29c4f10bd6920ea1cd5a5274a6a90266a7c49613014ab0"


def test_mobile_record_digest_is_pinned():
    overrides, _ = GOLDEN["mobile"]
    config = ExperimentConfig.for_mode("mobile", **overrides,
                                       snapshot_iters=(1, 75, 150))
    summary = run_monte_carlo(config, keep_records=True, trajectories=True)
    assert records_digest(summary) == MOBILE_RECORDS


# every decide and follow record's CSV and JSON sidecar, which hold the
# per-agent switch counts, the desired-model counts and the relay coverage
# that summary.json only aggregates
RECORDS = {
    "decide": "b0e7979484932bf8e7eeed72620d7430540e513a49d86da88a11607433d011f1",
    "follow": "aed88cc5549c98b9fa5dfdbc4fc06ecd2b2a98e0e2cc288969ef400c5e62e252",
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
               "984c868983e963484f7dfcc9ce9854d5761685d4dbd4394b5a90ac6f85c06c34"),
    "follow": (dict(seed=23, target_agent=5),
               "2d78ef547037ce7505213096e4ca4d68c9515d2cce00b678b1c690676a9ecf1b"),
}


@pytest.mark.parametrize("mode", sorted(SPARSE_RECORDS))
def test_sparse_record_digest_is_pinned(mode):
    overrides, digest = SPARSE_RECORDS[mode]
    config = ExperimentConfig.for_mode(mode, n_agents=160, radius=0.15, max_iters=60,
                                       n_trials=2, **overrides)
    summary = run_monte_carlo(config, keep_records=True)
    assert records_digest(summary) == digest
