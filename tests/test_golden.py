"""Golden digests: fixed-seed batches must reproduce their summary.json bytes.

One small config per mode, each run serially and on a two-process pool.
The digests are SHA-256 of the text ``summary.json`` holds; they change
only when a change to the simulation is meant to change its outputs, and
such a change says so where it updates them.
"""

import hashlib

import pytest

from netdecide.config import ExperimentConfig
from netdecide.harness import run_monte_carlo

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
