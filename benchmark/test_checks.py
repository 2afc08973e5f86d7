"""The benchmark's output checks pass real records and fail doctored ones.

Run from the repository root: ``python3 -m pytest benchmark/test_checks.py``.
"""

import copy
import csv
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from netdecide import ExperimentConfig, records, run_single_trial, trial_seeds  # noqa: E402

SMALL = {
    "decide": dict(n_agents=20, n_models=2, radius=0.4, max_iters=300),
    "follow": dict(n_agents=20, n_models=2, radius=0.4, max_iters=80, target_agent=3),
    "mobile": dict(n_agents=12, max_iters=80),
}


def trial(tmp_path, mode):
    """One small seeded trial saved under ``tmp_path`` as ``trial_001``."""
    config = ExperimentConfig.for_mode(mode, n_trials=1, seed=7, **SMALL[mode])
    record, network = run_single_trial(config, trial_seeds(config.seed, 1)[0],
                                       export_network=True)
    records.save_record(record, tmp_path, "trial_001")
    return config, record, network


def flags(problems, fragment):
    """True when some problem mentions ``fragment``: the failure is the one
    the doctoring aimed at, not a side effect."""
    return any(fragment in p for p in problems)


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def edit_csv(path, row, column, value):
    rows = list(csv.reader(path.open(newline="")))
    rows[row][rows[0].index(column)] = value
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("mode", ["decide", "follow", "mobile"])
def test_real_trials_pass(tmp_path, mode):
    config, record, network = trial(tmp_path, mode)
    assert checks.check_trial(config, record, network, tmp_path, "trial_001") == []


def test_flipped_success_fails(tmp_path):
    config, record, _ = trial(tmp_path, "decide")
    edit_json(tmp_path / "trial_001.json", lambda d: d.update(success=not d["success"]))
    rec = checks.read_record(tmp_path, "trial_001")
    assert flags(checks.check_static_success(rec, config.max_iters), "success is")
    assert flags(checks.check_roundtrip(rec, checks.record_view(record)), "success in the JSON")


def test_edited_curve_fails_roundtrip(tmp_path):
    _, record, _ = trial(tmp_path, "decide")
    edit_csv(tmp_path / "trial_001.csv", 5, "msd_1", "0.125")
    rec = checks.read_record(tmp_path, "trial_001")
    assert flags(checks.check_roundtrip(rec, checks.record_view(record)), "msd_observed")


def test_negative_curve_fails(tmp_path):
    trial(tmp_path, "decide")
    edit_csv(tmp_path / "trial_001.csv", 3, "msd_2", "-0.5")
    assert flags(checks.check_curves(checks.read_record(tmp_path, "trial_001")),
                 "msd_2 at iteration 3")


def test_desired_curve_outside_agreement_fails(tmp_path):
    trial(tmp_path, "decide")
    rec = checks.read_record(tmp_path, "trial_001")
    rec["msd_desired"][0] = 0.01
    rec["agreed"][0] = False
    assert flags(checks.check_curves(rec), "outside the final agreement stretch")


def test_early_stop_without_success_fails(tmp_path):
    _, record, _ = trial(tmp_path, "decide")
    rec = checks.read_record(tmp_path, "trial_001")
    rec["doc"]["success"] = False
    rec["agreed"] = [False] * len(rec["agreed"])
    rec["doc"]["final_agreement"] = [0.5] * len(rec["doc"]["final_agreement"])
    assert checks.check_static_success(rec, record.n_iters) == []
    assert flags(checks.check_static_success(rec, record.n_iters + 1), "without success")


def test_wrong_coverage_fails(tmp_path):
    _, _, network = trial(tmp_path, "follow")
    rec = checks.read_record(tmp_path, "trial_001")
    assert checks.check_follow(rec, network) == []
    rec["coverage"][0] += 1
    assert flags(checks.check_follow(rec, network), "source_coverage at iteration 1")


def test_follow_success_on_wrong_model_fails(tmp_path):
    _, _, network = trial(tmp_path, "follow")
    rec = checks.read_record(tmp_path, "trial_001")
    target = rec["doc"]["target_agent"] - 1
    rec["doc"]["success"] = True
    rec["doc"]["final_model"] = 3 - rec["doc"]["assignment"][target]
    assert flags(checks.check_follow(rec, network), "target's model")


def test_mobile_speed_and_capture_fail(tmp_path):
    config, _, _ = trial(tmp_path, "mobile")
    rec = checks.read_record(tmp_path, "trial_001")
    assert checks.check_mobile(rec, config.max_speed) == []

    fast = copy.deepcopy(rec)
    fast["doc"]["max_speed_observed"] = config.max_speed * 1.001
    assert flags(checks.check_mobile(fast, config.max_speed), "exceeds")

    scattered = copy.deepcopy(rec)
    source = scattered["doc"]["models"][0]
    scattered["doc"].update(success=True, final_model=1)
    scattered["doc"]["final_positions"] = [list(source) for _ in scattered["doc"]["assignment"]]
    assert checks.check_mobile(scattered, config.max_speed) == []
    scattered["doc"]["final_positions"][4][0] += 2 * checks.CAPTURE_RADIUS
    assert flags(checks.check_mobile(scattered, config.max_speed), "holding the swarm")


def test_doctored_topology_fails(tmp_path):
    config, _, network = trial(tmp_path, "decide")
    cap = config.max_degree
    assert checks.check_topology(network, cap, connected=True) == []

    a, b = network["links"][0]
    twice = copy.deepcopy(network)
    twice["links"].append([b, a])
    assert flags(checks.check_topology(twice, cap, connected=True), "listed twice")

    loop = copy.deepcopy(network)
    loop["links"].append([a, a])
    assert flags(checks.check_topology(loop, cap, connected=True), "two distinct agents")

    crowded = copy.deepcopy(network)
    present = {tuple(sorted(link)) for link in network["links"]}
    n = len(network["agents"])
    crowded["links"] += [[1, m] for m in range(2, n + 1) if (1, m) not in present]
    assert flags(checks.check_topology(crowded, cap, connected=True), "exceeds the cap")

    cut = copy.deepcopy(network)
    cut["links"] = [link for link in cut["links"] if 1 not in link]
    assert flags(checks.check_topology(cut, cap, connected=True), "not connected")
    assert checks.check_topology(cut, cap, connected=False) == []
