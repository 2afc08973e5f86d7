"""Output checks, computed apart from netdecide.

Every check reads what a run left behind, the record files through the
standard ``csv`` and ``json`` modules and the exported network documents,
and recomputes a property the method must have with plain Python. None of
them imports netdecide or compares against a stored copy of earlier output.
Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import deque
from pathlib import Path

# metrics.captured_source: a mobile swarm is parked at a source when every
# agent is within 5 body lengths of it
CAPTURE_RADIUS = 5.0

# step_motion rescales each velocity to max_speed, which rounding can overshoot
# by an ulp or two (1.0000000000000002 for a cap of 1.0); a real breach of
# the cap is many orders larger
SPEED_ROUNDING = 16 * sys.float_info.epsilon

# squared distances are compared with a threshold; the program computes them
# as |x|^2 + |y|^2 - 2 x.y, so a value this close to the threshold may fall
# on either side of it and both verdicts are accepted
_REL_TIE = 1e-9


def _cell(text):
    return math.nan if text == "" else float(text)


def read_record(directory, stem):
    """One record as plain Python values, straight from its files."""
    directory = Path(directory)
    with open(directory / f"{stem}.csv", newline="") as fh:
        header, *body = list(csv.reader(fh))
    with open(directory / f"{stem}.json") as fh:
        doc = json.load(fh)
    n_models = sum(1 for h in header if h.startswith("msd_") and h != "msd_desired")
    col = {h: i for i, h in enumerate(header)}
    return {
        "doc": doc,
        "iters": [int(r[0]) for r in body],
        "msd_observed": [[_cell(c) for c in r[1:1 + n_models]] for r in body],
        "msd_desired": [_cell(r[col["msd_desired"]]) for r in body],
        "n_desired": [int(r[col["num_distinct_desired_models"]]) for r in body],
        "agreed": [r[col["all_agreed"]] == "1" for r in body],
        "coverage": ([int(r[col["source_coverage"]]) for r in body]
                     if "source_coverage" in col else None),
    }


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def check_roundtrip(rec, memory):
    """The files re-read to the in-memory record.

    ``memory`` holds the record's arrays as Python lists under the keys of
    :func:`read_record` (curves) and of the JSON sidecar (final state).
    """
    problems = []
    for key in ("msd_observed", "msd_desired", "n_desired", "agreed", "coverage"):
        if not _same(rec[key], memory[key]):
            problems.append(f"{key} in the CSV differs from the in-memory record")
    doc = rec["doc"]
    if rec["iters"] != list(range(1, doc["n_iters"] + 1)):
        problems.append("CSV rows are not iterations 1..n_iters")
    for key, value in memory["doc"].items():
        if not _same(doc.get(key), value):
            problems.append(f"{key} in the JSON differs from the in-memory record")
    return problems


def check_curves(rec):
    """Curves are finite and non-negative wherever they are defined."""
    problems = []
    assignment = rec["doc"]["assignment"]
    followed = {j - 1 for j in assignment}
    for t, row in enumerate(rec["msd_observed"]):
        for j, x in enumerate(row):
            if j in followed and not (math.isfinite(x) and x >= 0.0):
                problems.append(f"msd_{j + 1} at iteration {t + 1} is {x}")
                return problems
    for t, x in enumerate(rec["msd_desired"]):
        if not math.isnan(x) and not (math.isfinite(x) and x >= 0.0):
            problems.append(f"msd_desired at iteration {t + 1} is {x}")
            return problems
    if rec["doc"]["mode"] != "follow":
        defined = [t for t, x in enumerate(rec["msd_desired"]) if not math.isnan(x)]
        if defined and not all(rec["agreed"][defined[0]:]):
            problems.append(f"msd_desired defined at iteration {defined[0] + 1} outside "
                            "the final agreement stretch")
    if any(n < 1 for n in rec["n_desired"]):
        problems.append("a round counted no desired model")
    return problems


def _within(d2, limit):
    """True, False, or None when ``d2`` ties ``limit`` to rounding."""
    if abs(d2 - limit) <= _REL_TIE * max(limit, 1.0):
        return None
    return d2 <= limit


def _sq(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _common(points, sources, limit):
    """The lowest source index every point is within ``limit`` of (None when
    there is none), as the set of answers rounding allows."""
    answers = set()
    for j, s in enumerate(sources):
        verdicts = {_within(_sq(p, s), limit) for p in points}
        if False in verdicts:
            continue
        answers.add(j)
        if None not in verdicts:
            return answers
    answers.add(None)
    return answers


def check_static_success(rec, max_iters):
    """Decide and follow: success and final model follow from the record.

    Success needs every one of the last ``t_hold`` rounds agreed and every
    final desired estimate within ``threshold`` (squared) of one model;
    follow also needs that model to be the target's observed one. A trial
    that stopped before the cap did so because it had settled.
    """
    doc = rec["doc"]
    problems = []
    t_hold, n_iters = doc["t_hold"], doc["n_iters"]
    held = n_iters >= t_hold and all(rec["agreed"][-t_hold:])
    models = _common(doc["final_w"], doc["models"], doc["threshold"])
    reported = None if doc["final_model"] is None else doc["final_model"] - 1
    if reported not in models:
        problems.append(f"final_model {doc['final_model']} is not the common model")
    expected = held and reported is not None
    if doc["mode"] == "follow" and reported is not None:
        expected = expected and reported == doc["assignment"][doc["target_agent"] - 1] - 1
    if doc["success"] != expected:
        problems.append(f"success is {doc['success']}, the record implies {expected}")
    if rec["agreed"] and rec["agreed"][-1] != all(p == 1.0 for p in doc["final_agreement"]):
        problems.append("last all_agreed flag disagrees with final_agreement")
    if n_iters < max_iters and not doc["success"]:
        problems.append(f"stopped at {n_iters} of {max_iters} rounds without success")
    return problems


def hop_depths(network, root):
    """Plain breadth-first hop counts from 0-based ``root`` over the links."""
    n = len(network["agents"])
    nbrs = [[] for _ in range(n)]
    for a, b in network["links"]:
        nbrs[a - 1].append(b - 1)
        nbrs[b - 1].append(a - 1)
    depth = [-1] * n
    depth[root] = 0
    queue = deque([root])
    while queue:
        k = queue.popleft()
        for m in nbrs[k]:
            if depth[m] < 0:
                depth[m] = depth[k] + 1
                queue.append(m)
    return depth


def check_follow(rec, network):
    """The relay covers exactly the (t+1)-hop ball around the target, and a
    successful trial settles on the target's observed model."""
    doc = rec["doc"]
    problems = []
    target = doc["target_agent"] - 1
    depth = hop_depths(network, target)
    within = [0] * (len(depth) + 1)  # within[h]: agents at most h hops away
    for d in depth:
        if d >= 0:
            within[d] += 1
    for h in range(1, len(within)):
        within[h] += within[h - 1]
    for t, covered in enumerate(rec["coverage"]):
        ball = within[min(t + 1, len(within) - 1)]
        if covered != ball:
            problems.append(f"source_coverage at iteration {t + 1} is {covered}, "
                            f"the {t + 1}-hop ball holds {ball}")
            break
    if doc["success"] and doc["final_model"] != doc["assignment"][target]:
        problems.append("successful follow trial is not on the target's model")
    return problems


def check_mobile(rec, max_speed):
    """The speed cap held, and a reported source holds the whole swarm."""
    doc = rec["doc"]
    problems = []
    if not doc["max_speed_observed"] <= max_speed * (1.0 + SPEED_ROUNDING):
        problems.append(f"max_speed_observed {doc['max_speed_observed']} exceeds {max_speed}")
    sources = _common(doc["final_positions"], doc["models"], CAPTURE_RADIUS ** 2)
    reported = None if doc["final_model"] is None else doc["final_model"] - 1
    if reported not in sources:
        problems.append(f"reported source {doc['final_model']} is not the one "
                        "holding the swarm")
    if doc["success"] != (reported is not None):
        problems.append("success disagrees with the reported source")
    return problems


def check_topology(network, max_degree, connected):
    """Links are proper undirected pairs, closed degrees respect the cap, and
    a static graph is connected."""
    n = len(network["agents"])
    problems = []
    seen = set()
    degree = [1] * n
    for a, b in network["links"]:
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            problems.append(f"link {a}-{b} is not between two distinct agents")
            return problems
        pair = (min(a, b), max(a, b))
        if pair in seen:
            problems.append(f"link {a}-{b} is listed twice (asymmetric export)")
            return problems
        seen.add(pair)
        degree[a - 1] += 1
        degree[b - 1] += 1
    worst = max(degree, default=0)
    if worst > max_degree:
        problems.append(f"closed degree {worst} exceeds the cap {max_degree}")
    if connected and n and min(hop_depths(network, 0)) < 0:
        problems.append("topology is not connected")
    return problems


def record_view(rec):
    """An in-memory ``RunRecord`` as plain Python values, in the shape
    :func:`read_record` returns."""
    doc = {
        "mode": rec.mode,
        "n_iters": rec.n_iters,
        "success": bool(rec.success),
        "diverged": bool(rec.diverged),
        "final_model": None if rec.final_model is None else rec.final_model + 1,
        "target_agent": None if rec.target_agent is None else rec.target_agent + 1,
        "threshold": rec.threshold,
        "t_hold": rec.t_hold,
        "wall_time": rec.wall_time,
        "models": rec.models.tolist(),
        "assignment": (rec.assignment + 1).tolist(),
        "final_w": rec.final_w.tolist(),
        "final_agreement": rec.final_agreement.tolist(),
        "switch_counts": {"adopt_majority": rec.switch_adopt.tolist(),
                          "random_neighbor": rec.switch_random.tolist()},
        "final_positions": (None if rec.final_positions is None
                            else rec.final_positions.tolist()),
        "max_speed_observed": rec.max_speed_observed,
    }
    return {
        "doc": doc,
        "msd_observed": rec.msd_observed.tolist(),
        "msd_desired": rec.msd_desired.tolist(),
        "n_desired": rec.n_desired_models.tolist(),
        "agreed": rec.all_agreed.tolist(),
        "coverage": None if rec.source_coverage is None else rec.source_coverage.tolist(),
    }


def check_trial(config, record, network, directory, stem):
    """Every check that applies to one trial of ``config``: its in-memory
    record, exported network and files ``<directory>/<stem>.*``."""
    problems = []
    rec = read_record(directory, stem)
    problems += check_roundtrip(rec, record_view(record))
    problems += check_curves(rec)
    if config.mode == "mobile":
        problems += check_mobile(rec, config.max_speed)
        problems += check_topology(network, config.max_degree, connected=False)
    else:
        problems += check_static_success(rec, config.max_iters)
        problems += check_topology(network, config.max_degree, connected=True)
    if config.mode == "follow":
        problems += check_follow(rec, network)
    return problems
