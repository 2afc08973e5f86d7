"""On-disk record formats and their exact round trips."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from conftest import build_world, strict_json, tiny_config
from netdecide.config import ExperimentConfig
from netdecide.decision import run_decision
from netdecide.follow import run_follow
from netdecide.harness import run_single_trial, trial_seeds
from netdecide.records import (RunRecord, load_record, parse_record,
                               record_to_csv, record_to_json, save_record,
                               serialize_record, trajectory_to_csv)


def decide_record(seed=3, **overrides):
    cfg = tiny_config(max_iters=120, early_stop=False, **overrides)
    return run_decision(cfg, *build_world(cfg, seed=seed))


def test_decide_record_round_trip():
    record = decide_record()
    assert parse_record(*serialize_record(record)) == record


def test_follow_record_round_trip():
    cfg = tiny_config(mode="follow", n_models=2, max_iters=150, target_agent=4)
    record = run_follow(cfg, *build_world(cfg, seed=11))
    again = parse_record(*serialize_record(record))
    assert again == record
    assert again.source_coverage is not None


def test_mobile_record_round_trip_keeps_trajectory():
    cfg = ExperimentConfig.for_mode("mobile", n_agents=20, max_iters=120,
                                    n_trials=1, seed=1,
                                    snapshot_iters=(1, 50, 120))
    record, _ = run_single_trial(cfg, trial_seeds(cfg.seed, 1)[0],
                                 trajectories=True)
    again = parse_record(*serialize_record(record))
    assert again == record
    assert again.trajectory.shape == record.trajectory.shape
    assert again.final_positions is not None
    assert again.max_speed_observed == record.max_speed_observed


def test_csv_has_one_row_per_iteration():
    record = decide_record()
    rows = list(csv.reader(io.StringIO(record_to_csv(record))))
    assert rows[0] == ["iter", "msd_1", "msd_2", "msd_desired",
                       "num_distinct_desired_models", "all_agreed"]
    assert len(rows) == record.n_iters + 1
    assert rows[1][0] == "1"
    assert rows[-1][0] == str(record.n_iters)


def test_blank_cells_encode_nan():
    record = decide_record()
    record.msd_desired[:] = np.nan
    text = record_to_csv(record)
    first_row = text.splitlines()[1].split(",")
    assert first_row[3] == ""
    again = parse_record(text, record_to_json(record))
    assert np.isnan(again.msd_desired).all()


def test_json_ids_are_one_based_on_disk():
    record = decide_record()
    doc = json.loads(record_to_json(record))
    assert doc["schema"] == "netdecide.run/1"
    assert min(doc["assignment"]) >= 1
    if doc["final_model"] is not None:
        assert doc["final_model"] >= 1
        assert doc["final_model"] == record.final_model + 1


def test_trajectory_ids_are_one_based_on_disk():
    cfg = ExperimentConfig.for_mode("mobile", n_agents=10, max_iters=30,
                                    t_hold=10, n_trials=1, seed=2,
                                    snapshot_iters=(1, 30))
    record, _ = run_single_trial(cfg, trial_seeds(cfg.seed, 1)[0],
                                 trajectories=True)
    rows = list(csv.reader(io.StringIO(trajectory_to_csv(record))))
    assert rows[0] == ["iter", "agent", "x", "y", "desired_label"]
    agents = {int(r[1]) for r in rows[1:]}
    labels = {int(r[4]) for r in rows[1:]}
    assert min(agents) == 1 and max(agents) == 10
    assert labels <= {1, 2, 3, 4}


def test_save_and_load_files(tmp_path):
    record = decide_record()
    save_record(record, tmp_path, "trial_007")
    assert (tmp_path / "trial_007.csv").exists()
    assert (tmp_path / "trial_007.json").exists()
    assert not (tmp_path / "trial_007_trajectory.csv").exists()
    assert load_record(tmp_path, "trial_007") == record


def test_failed_stub_shape_and_flags():
    models = np.array([[0.0, 0.0], [1.0, 1.0]])
    stub = RunRecord.failed("decide", 40, models, np.zeros(6, dtype=int),
                            threshold=0.08, t_hold=50)
    assert stub.diverged and not stub.success
    assert np.isnan(stub.msd_observed).all()
    assert stub.msd_observed.shape == (40, 2)
    assert not stub.all_agreed.any()
    assert parse_record(*serialize_record(stub)) == stub


def test_failed_stub_sidecar_is_strict_json():
    models = np.array([[0.0, 0.0], [1.0, 1.0]])
    stub = RunRecord.failed("decide", 40, models, np.zeros(6, dtype=int),
                            threshold=0.08, t_hold=50)
    csv_text, json_text, traj = serialize_record(stub)
    doc = strict_json(json_text)
    assert doc["final_w"] == [[None, None]] * 6
    assert parse_record(csv_text, json_text, traj) == stub


def test_equality_ignores_wall_time():
    record = decide_record()
    csv_text, json_text, traj = serialize_record(record)
    doc = json.loads(json_text)
    doc["wall_time"] = 123.456
    again = parse_record(csv_text, json.dumps(doc), traj)
    assert again == record


def test_equality_detects_content_changes():
    record = decide_record()
    other = parse_record(*serialize_record(record))
    other.msd_observed[0, 0] += 1e-9
    assert other != record


def _altered(value):
    """A value unequal to ``value`` of a record field."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        out = value.copy()
        if out.dtype == bool:
            out.flat[0] = not out.flat[0]
        else:
            out.flat[0] = 7 if out.flat[0] != 7 else 8
        return out
    if isinstance(value, (bool, np.bool_)):
        return not value
    if isinstance(value, str):
        return value + "x"
    return value + 1


@pytest.fixture(scope="module")
def mobile_record():
    """A record with every optional field set."""
    cfg = ExperimentConfig.for_mode("mobile", n_agents=12, max_iters=30, t_hold=5,
                                    n_trials=1, seed=2, snapshot_iters=(1, 30))
    return run_single_trial(cfg, trial_seeds(cfg.seed, 1)[0], trajectories=True)[0]


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunRecord)])
def test_equality_compares_every_field_but_wall_time(mobile_record, name):
    record = mobile_record
    other = dataclasses.replace(record, **{name: _altered(getattr(record, name))})
    assert (other == record) == (name == "wall_time")
