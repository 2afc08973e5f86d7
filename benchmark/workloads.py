"""The benchmark's workloads: the config and batch shape of each.

A workload is a netdecide mode with its CLI defaults plus a few overrides.
A run executes one batch of ``batch`` trials, with the run's ``--seed`` as
its master seed, over and over until ``--seconds`` are used. On the
reference machine (README.md) one execution of follow-n80 or mobile-n80
takes about 8 s, so a 30 s run executes it three times. The cost of a
decide-n320 trial varies with its seed, so that batch holds more, shorter
trials and a run executes it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    mode: str
    batch: int
    overrides: dict = field(default_factory=dict)
    # least share of successful trials in a run; None where the round cap
    # ends trials before the method is expected to agree
    success_floor: float | None = None


WORKLOADS = {
    # follow defaults: 1400 rounds, no early stop, no switch stage
    "follow-n80": Workload("follow", batch=7, success_floor=0.5),
    # mobile defaults: 1000 rounds on a radius graph rebuilt every round
    "mobile-n80": Workload("mobile", batch=4, success_floor=0.5),
    # a cap far below what agreement needs at N=320, so every trial runs it;
    # many trials, since the work a round does varies with the seed
    "decide-n320": Workload("decide", batch=14,
                            overrides={"n_agents": 320, "max_iters": 50}),
}
