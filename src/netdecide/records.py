"""Run records and their on-disk form.

One run serializes to a per-iteration CSV (deviation curves and agreement
flags), a JSON sidecar (final state, switch counts, success), and, for
mobile runs that sampled positions, a trajectory CSV. Serialization round
trips exactly: floats are written with repr, nan is a blank CSV cell or
a JSON null, and agent and model ids are 1-based on disk while arrays
stay 0-based in memory.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

RECORD_SCHEMA = "netdecide.run/1"


def _fmt(x):
    """A float cell from a Python float (``.tolist()``): blank for nan."""
    return "" if x != x else repr(x)


def _parse(cell):
    return np.nan if cell == "" else float(cell)


def jsonable(value):
    """``value`` as plain JSON values: arrays and lists as nested lists,
    numpy scalars as Python numbers, nan as None."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, list):
        return [jsonable(v) for v in value]
    return None if isinstance(value, float) and math.isnan(value) else value


# the per-iteration CSV columns after iter and msd_1..msd_C, as
# (header, RunRecord field, dtype); a field that is None has no column
CURVE_COLUMNS = (
    ("msd_desired", "msd_desired", float),
    ("num_distinct_desired_models", "n_desired_models", int),
    ("all_agreed", "all_agreed", bool),
    ("source_coverage", "source_coverage", int),
)


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

    def __eq__(self, other):
        """Every field but ``wall_time`` equal; arrays compare by value,
        nan equal to nan in float arrays."""
        if not isinstance(other, RunRecord):
            return NotImplemented
        for f in fields(self):
            if f.name == "wall_time":
                continue
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not f.type.startswith("np.ndarray"):
                same = a == b
            elif a is None or b is None:
                same = a is b
            else:
                a = np.asarray(a)
                same = np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            if not same:
                return False
        return True

    @classmethod
    def failed(cls, config, models, assignment):
        """Stub for a trial of ``config`` that blew up: no curves, counted
        as a failure. A follow stub names the target and has a zero
        coverage curve."""
        follow = config.mode == "follow"
        n_iters = config.max_iters
        models = np.atleast_2d(models)
        n = len(assignment)
        return cls(
            mode=config.mode, n_iters=n_iters,
            msd_observed=np.full((n_iters, models.shape[0]), np.nan),
            msd_desired=np.full(n_iters, np.nan),
            all_agreed=np.zeros(n_iters, dtype=bool),
            n_desired_models=np.zeros(n_iters, dtype=int),
            source_coverage=np.zeros(n_iters, dtype=int) if follow else None,
            models=models, assignment=np.asarray(assignment, dtype=int),
            final_w=np.full((n, models.shape[1]), np.nan),
            final_agreement=np.zeros(n),
            switch_adopt=np.zeros(n, dtype=int),
            switch_random=np.zeros(n, dtype=int),
            success=False, final_model=None,
            target_agent=config.target_agent - 1 if follow else None,
            threshold=config.beta, t_hold=config.t_hold, diverged=True,
        )


def record_to_csv(record):
    """Per-iteration table: iter, msd_1..msd_C, then the
    :data:`CURVE_COLUMNS` the record has."""
    curves = [(name, getattr(record, attr), dtype) for name, attr, dtype in CURVE_COLUMNS
              if getattr(record, attr) is not None]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iter"] + [f"msd_{j + 1}" for j in range(record.n_models)]
                    + [name for name, _, _ in curves])
    # Python values, not numpy scalars, which format several times slower
    msd = record.msd_observed.tolist()
    columns = [(values.tolist(), dtype) for _, values, dtype in curves]
    for t in range(record.n_iters):
        writer.writerow([str(t + 1)] + [_fmt(x) for x in msd[t]]
                        + [_fmt(values[t]) if dtype is float else str(int(values[t]))
                           for values, dtype in columns])
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
        "models": jsonable(record.models),
        "assignment": jsonable(record.assignment + 1),
        "final_w": jsonable(record.final_w),
        "final_agreement": jsonable(record.final_agreement),
        "switch_counts": {
            "adopt_majority": jsonable(record.switch_adopt),
            "random_neighbor": jsonable(record.switch_random),
        },
    }
    if record.final_positions is not None:
        doc["final_positions"] = jsonable(record.final_positions)
    if record.max_speed_observed is not None:
        doc["max_speed_observed"] = float(record.max_speed_observed)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def trajectory_to_csv(record):
    """Mobile position samples: iter, agent, x, y, desired_label."""
    if record.trajectory is None:
        return None
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iter", "agent", "x", "y", "desired_label"])
    for it, agent, x, y, label in record.trajectory.tolist():
        writer.writerow([str(int(it)), str(int(agent) + 1), repr(x), repr(y),
                         str(int(label) + 1)])
    return buf.getvalue()


def serialize_record(record):
    """Full on-disk form: (csv_text, json_text, trajectory_csv_or_None)."""
    return record_to_csv(record), record_to_json(record), trajectory_to_csv(record)


def parse_record(csv_text, json_text, trajectory_csv=None):
    """Inverse of :func:`serialize_record`."""
    doc = json.loads(json_text)
    header, *body = csv.reader(io.StringIO(csv_text))
    n_iters = doc["n_iters"]
    columns = {name: [row[i] for row in body] for i, name in enumerate(header)}
    if columns["iter"] != [str(t) for t in range(1, n_iters + 1)]:
        raise ValueError(f"expected rows for iterations 1..{n_iters}")
    msd_observed = np.column_stack([[_parse(c) for c in columns[f"msd_{j + 1}"]]
                                    for j in range(len(doc["models"]))])
    curves = {attr: (np.array([(_parse if dtype is float else int)(c)
                               for c in columns[name]], dtype=dtype)
                     if name in columns else None)
              for name, attr, dtype in CURVE_COLUMNS}

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
        **curves,
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
