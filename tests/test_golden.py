"""Golden digests: fixed-seed batches must reproduce their summary.json bytes
and the files of every record.

One small config per mode, each run serially and on a two-process pool.
The digests are SHA-256 of the text those files hold; they change
only when a change to the simulation is meant to change its outputs, and
such a change says so where it updates them.
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
               "297ed813cf054e77e525319b47b2aa90df12be1a8dac26c281e19ce47434e11e"),
    "follow": (dict(n_agents=20, n_models=3, radius=0.4, target_agent=3,
                    max_iters=200, n_trials=4, seed=11),
               "b85b7eda798694f58911eae69d10336e000665f999408d41862e035c8a61ab12"),
    # a degree cap of 5 makes every per-round rebuild prune without the
    # connectivity constraint
    "mobile": (dict(n_agents=20, max_iters=150, max_degree=5, comm_radius=30.0,
                    n_trials=4, seed=13),
               "fa7492d5d67821c4a44a15c7ace885a79b82bf8e1c54ff9efdecb1cd4a75da9b"),
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
MOBILE_RECORDS = "5ac3259e554b033bc1c4c02c350899b8cfb74571f66597088155fd62d32185f2"


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
    "decide": "9fe3de3f909e6d024ccadd54381e630ccd63b59b832499b81fcf66257379eb8c",
    "follow": "1f59d6c33f2e13f2b5f3b50e5cf2195a262f03bd95793cc1ecf8f87fb720a8d2",
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


# N=160 at radius 0.15 links 3.6% of pairs, where the round runs its
# neighborhood stages on the adjacency's link list; the digests were taken
# with the dense N x N stages, so they hold the link-list stages to them
SPARSE_RECORDS = {
    "decide": (dict(seed=21),
               "a20ccb972f79829630411df91f8ae05d8e3d5683382f1ad57140d5c9f536e057"),
    "follow": (dict(seed=23, target_agent=5),
               "4984d5e2fa00d7e9837135712781a4374519b13aa5c1368eff0ecbceebc808e8"),
}


@pytest.mark.parametrize("mode", sorted(SPARSE_RECORDS))
def test_sparse_record_digest_is_pinned(mode):
    overrides, digest = SPARSE_RECORDS[mode]
    config = ExperimentConfig.for_mode(mode, n_agents=160, radius=0.15, max_iters=60,
                                       n_trials=2, **overrides)
    summary = run_monte_carlo(config, keep_records=True)
    assert records_digest(summary) == digest
