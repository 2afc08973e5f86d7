"""Run records and their on-disk form.

One run serializes to a per-iteration CSV (deviation curves and agreement
flags), a JSON sidecar (final state, switch counts, success), and, for
mobile runs that sampled positions, a trajectory CSV. Serialization round
trips exactly: floats are written with repr, blanks mean nan, and agent
and model ids are 1-based on disk while arrays stay 0-based in memory.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RECORD_SCHEMA = "netdecide.run/1"


def _fmt(x):
    return "" if np.isnan(x) else repr(float(x))


def _parse(cell):
    return np.nan if cell == "" else float(cell)


@dataclass(eq=False)
class RunRecord:
    """Everything one simulation run leaves behind.

    Per-iteration arrays are indexed by iteration-1; ``msd_desired`` is
    nan outside the window where the network-wide desired deviation is
    defined. ``source_coverage`` exists only for follow runs and
    ``trajectory`` (rows of iter, agent, x, y, nearest-model label) only
    for mobile runs that sampled positions.
    """

    mode: str
    n_iters: int
    msd_observed: np.ndarray
    msd_desired: np.ndarray
    all_agreed: np.ndarray
    n_desired_models: np.ndarray
    source_coverage: np.ndarray | None
    models: np.ndarray
    assignment: np.ndarray
    final_w: np.ndarray
    final_agreement: np.ndarray
    switch_adopt: np.ndarray
    switch_random: np.ndarray
    success: bool
    final_model: int | None
    target_agent: int | None
    threshold: float
    t_hold: int
    trajectory: np.ndarray | None = None
    final_positions: np.ndarray | None = None
    max_speed_observed: float | None = None
    diverged: bool = False
    wall_time: float = 0.0

    @property
    def n_models(self):
        return self.models.shape[0]

    @property
    def n_agents(self):
        return self.assignment.shape[0]

    def __eq__(self, other):
        if not isinstance(other, RunRecord):
            return NotImplemented
        def arr_eq(a, b):
            if a is None or b is None:
                return a is None and b is None
            return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=np.asarray(a).dtype.kind == "f")
        return (
            self.mode == other.mode
            and self.n_iters == other.n_iters
            and self.success == other.success
            and self.final_model == other.final_model
            and self.target_agent == other.target_agent
            and self.threshold == other.threshold
            and self.t_hold == other.t_hold
            and self.diverged == other.diverged
            and self.max_speed_observed == other.max_speed_observed
            and all(
                arr_eq(getattr(self, name), getattr(other, name))
                for name in ("msd_observed", "msd_desired", "all_agreed",
                             "n_desired_models", "source_coverage", "models",
                             "assignment", "final_w", "final_agreement",
                             "switch_adopt", "switch_random", "trajectory",
                             "final_positions")
            )
        )

    @classmethod
    def failed(cls, mode, n_iters, models, assignment, threshold, t_hold,
               target_agent=None):
        """Stub for a trial that blew up: no curves, counted as a failure."""
        models = np.atleast_2d(models)
        n = len(assignment)
        return cls(
            mode=mode, n_iters=n_iters,
            msd_observed=np.full((n_iters, models.shape[0]), np.nan),
            msd_desired=np.full(n_iters, np.nan),
            all_agreed=np.zeros(n_iters, dtype=bool),
            n_desired_models=np.zeros(n_iters, dtype=int),
            source_coverage=np.zeros(n_iters, dtype=int) if mode == "follow" else None,
            models=models, assignment=np.asarray(assignment, dtype=int),
            final_w=np.full((n, models.shape[1]), np.nan),
            final_agreement=np.zeros(n),
            switch_adopt=np.zeros(n, dtype=int),
            switch_random=np.zeros(n, dtype=int),
            success=False, final_model=None, target_agent=target_agent,
            threshold=threshold, t_hold=t_hold, diverged=True,
        )


def record_to_csv(record):
    """Per-iteration table: iter, msd_1..msd_C, msd_desired,
    num_distinct_desired_models, all_agreed and, for follow runs,
    source_coverage."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (["iter"]
              + [f"msd_{j + 1}" for j in range(record.n_models)]
              + ["msd_desired", "num_distinct_desired_models", "all_agreed"])
    if record.source_coverage is not None:
        header.append("source_coverage")
    writer.writerow(header)
    for t in range(record.n_iters):
        row = ([str(t + 1)]
               + [_fmt(x) for x in record.msd_observed[t]]
               + [_fmt(record.msd_desired[t]),
                  str(int(record.n_desired_models[t])),
                  str(int(record.all_agreed[t]))])
        if record.source_coverage is not None:
            row.append(str(int(record.source_coverage[t])))
        writer.writerow(row)
    return buf.getvalue()


def record_to_json(record):
    """Sidecar with final state and run-level outcomes (1-based ids)."""
    doc = {
        "schema": RECORD_SCHEMA,
        "mode": record.mode,
        "n_iters": record.n_iters,
        "success": bool(record.success),
        "diverged": bool(record.diverged),
        "final_model": None if record.final_model is None else int(record.final_model) + 1,
        "target_agent": None if record.target_agent is None else int(record.target_agent) + 1,
        "threshold": record.threshold,
        "t_hold": record.t_hold,
        "wall_time": record.wall_time,
        "models": [[float(x) for x in row] for row in record.models],
        "assignment": [int(j) + 1 for j in record.assignment],
        "final_w": [[float(x) for x in row] for row in record.final_w],
        "final_agreement": [float(x) for x in record.final_agreement],
        "switch_counts": {
            "adopt_majority": [int(x) for x in record.switch_adopt],
            "random_neighbor": [int(x) for x in record.switch_random],
        },
    }
    if record.final_positions is not None:
        doc["final_positions"] = [[float(x) for x in row]
                                  for row in record.final_positions]
    if record.max_speed_observed is not None:
        doc["max_speed_observed"] = float(record.max_speed_observed)
    return json.dumps(doc, indent=2, sort_keys=True)


def trajectory_to_csv(record):
    """Mobile position samples: iter, agent, x, y, desired_label."""
    if record.trajectory is None:
        return None
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iter", "agent", "x", "y", "desired_label"])
    for it, agent, x, y, label in record.trajectory:
        writer.writerow([str(int(it)), str(int(agent) + 1), repr(float(x)),
                         repr(float(y)), str(int(label) + 1)])
    return buf.getvalue()


def serialize_record(record):
    """Full on-disk form: (csv_text, json_text, trajectory_csv_or_None)."""
    return record_to_csv(record), record_to_json(record), trajectory_to_csv(record)


def parse_record(csv_text, json_text, trajectory_csv=None):
    """Inverse of :func:`serialize_record`."""
    doc = json.loads(json_text)
    rows = list(csv.reader(io.StringIO(csv_text)))
    header, body = rows[0], rows[1:]
    n_models = sum(1 for h in header if h.startswith("msd_") and h != "msd_desired")
    has_coverage = "source_coverage" in header
    n_iters = doc["n_iters"]
    if len(body) != n_iters:
        raise ValueError(f"expected {n_iters} rows, found {len(body)}")

    msd_observed = np.full((n_iters, n_models), np.nan)
    msd_desired = np.full(n_iters, np.nan)
    all_agreed = np.zeros(n_iters, dtype=bool)
    n_desired = np.zeros(n_iters, dtype=int)
    coverage = np.zeros(n_iters, dtype=int) if has_coverage else None
    for row in body:
        t = int(row[0]) - 1
        msd_observed[t] = [_parse(c) for c in row[1:1 + n_models]]
        msd_desired[t] = _parse(row[1 + n_models])
        n_desired[t] = int(row[2 + n_models])
        all_agreed[t] = bool(int(row[3 + n_models]))
        if has_coverage:
            coverage[t] = int(row[4 + n_models])

    trajectory = None
    if trajectory_csv is not None:
        traj_rows = list(csv.reader(io.StringIO(trajectory_csv)))[1:]
        trajectory = np.array(
            [[float(r[0]), float(r[1]) - 1, float(r[2]), float(r[3]), float(r[4]) - 1]
             for r in traj_rows]
        )

    return RunRecord(
        mode=doc["mode"],
        n_iters=n_iters,
        msd_observed=msd_observed,
        msd_desired=msd_desired,
        all_agreed=all_agreed,
        n_desired_models=n_desired,
        source_coverage=coverage,
        models=np.array(doc["models"], dtype=float),
        assignment=np.array(doc["assignment"], dtype=int) - 1,
        final_w=np.array(doc["final_w"], dtype=float),
        final_agreement=np.array(doc["final_agreement"], dtype=float),
        switch_adopt=np.array(doc["switch_counts"]["adopt_majority"], dtype=int),
        switch_random=np.array(doc["switch_counts"]["random_neighbor"], dtype=int),
        success=doc["success"],
        final_model=None if doc["final_model"] is None else doc["final_model"] - 1,
        target_agent=None if doc["target_agent"] is None else doc["target_agent"] - 1,
        threshold=doc["threshold"],
        t_hold=doc["t_hold"],
        trajectory=trajectory,
        final_positions=(np.array(doc["final_positions"], dtype=float)
                         if "final_positions" in doc else None),
        max_speed_observed=doc.get("max_speed_observed"),
        diverged=doc["diverged"],
        wall_time=doc["wall_time"],
    )


def save_record(record, directory, stem):
    """Write the record under ``directory`` as ``<stem>.csv`` /
    ``<stem>.json`` (and ``<stem>_trajectory.csv`` when present)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_text, json_text, traj = serialize_record(record)
    (directory / f"{stem}.csv").write_text(csv_text)
    (directory / f"{stem}.json").write_text(json_text)
    if traj is not None:
        (directory / f"{stem}_trajectory.csv").write_text(traj)


def load_record(directory, stem):
    directory = Path(directory)
    traj_path = directory / f"{stem}_trajectory.csv"
    return parse_record(
        (directory / f"{stem}.csv").read_text(),
        (directory / f"{stem}.json").read_text(),
        traj_path.read_text() if traj_path.exists() else None,
    )
