"""Command line front end: exit codes for bad input, files each command
writes, and where configuration values come from."""

import json

import numpy as np
import pytest

from netdecide.cli import main

TINY = ["--agents", "12", "--radius", "0.5", "--iters", "20", "--t-hold", "5",
        "--trials", "1", "--quiet"]


@pytest.fixture(autouse=True)
def no_output_override(monkeypatch):
    monkeypatch.delenv("NETDECIDE_OUTPUT_DIR", raising=False)


def test_jobs_below_one_exits_with_code_2(tmp_path, capsys):
    code = main(["decide", "--agents", "20", "--iters", "20", "--t-hold", "5",
                 "--trials", "1", "--jobs", "0", "--out-dir", str(tmp_path),
                 "--quiet"])
    assert code == 2
    assert "n_jobs" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_zero_goal_gain_exits_with_code_2(tmp_path, capsys):
    code = main(["mobile", "--goal-gain", "0", "--agents", "12", "--iters", "40",
                 "--t-hold", "10", "--trials", "1", "--out-dir", str(tmp_path),
                 "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "goal_gain" in err and "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


def test_repeated_sweep_count_exits_with_code_2(tmp_path, capsys):
    code = main(["sweep", *TINY, "--model-counts", "2", "3", "2",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "model counts repeat: [2]" in err and "Traceback" not in err
    assert not (tmp_path / "sweep.json").exists()


def test_unreachable_model_spacing_exits_with_code_2(tmp_path, capsys):
    # five models more than sqrt(8) apart do not fit in the default range
    code = main(["decide", *TINY, "--beta", "2", "--models", "5",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert all(name in err for name in ("n_models", "beta", "model_range"))
    assert "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


def test_negative_seed_exits_with_code_2(tmp_path, capsys):
    code = main(["decide", *TINY, "--seed", "-1", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


def test_unmeetable_degree_cap_exits_with_code_2(tmp_path, capsys):
    # a closed degree of 1 leaves no link, so no world of 12 agents is
    # connected and no placement is tried
    code = main(["decide", "--agents", "12", "--radius", "0.5", "--max-degree", "1",
                 "--iters", "20", "--t-hold", "5", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: no connected topology of 12 agents has closed degree <= 1; "
        "need max_degree >= 3"]
    assert "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("flag", ["--summary-only", "--export-networks",
                                  "--check-invariants"])
def test_sweep_refuses_the_per_trial_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", *TINY, "--model-counts", "2", flag, "--out-dir", str(tmp_path)])
    assert exit_.value.code == 2
    assert flag in capsys.readouterr().err
    assert not tmp_path.joinpath("sweep.json").exists()


def written(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("make_config", [
    lambda d: d / "missing.json",
    lambda d: d,
    lambda d: written(d / "bad.json", "{not json"),
    lambda d: written(d / "list.json", "[1, 2]"),
], ids=["missing", "directory", "malformed", "list"])
def test_bad_config_file_exits_with_code_2(tmp_path, capsys, make_config):
    path = make_config(tmp_path)
    code = main(["decide", "--config", str(path), "--print-config"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("mode, extra, files", [
    ("decide", ["--export-networks"],
     ["summary.json", "trial_001.csv", "trial_001.json", "trial_001_network.json"]),
    ("follow", ["--target-agent", "2"],
     ["summary.json", "trial_001.csv", "trial_001.json"]),
    ("mobile", ["--snapshot-iters", "1", "20"],
     ["summary.json", "trial_001.csv", "trial_001.json", "trial_001_trajectory.csv"]),
    ("sweep", ["--model-counts", "1", "2"], ["sweep.json", "sweep.csv"]),
    ("mobile", [], ["summary.json", "trial_001.csv", "trial_001.json"]),
])
def test_tiny_runs_write_their_files(tmp_path, mode, extra, files):
    assert main([mode, *TINY, *extra, "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    if mode == "sweep":
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert sorted(doc["batches"]) == ["1", "2"]
        assert (tmp_path / "sweep.csv").read_text().count("\n") == 3


def test_mobile_radius_sets_the_swarm_links(tmp_path):
    # agents start in a 4 x 4 square, so some pairs lie within radius 1
    # and some do not; the cap of 80 cannot bind on 12 agents
    assert main(["mobile", *TINY, "--radius", "1", "--start-extent", "2",
                 "--export-networks", "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "trial_001_network.json").read_text())
    xy = np.array([[a["x"], a["y"]] for a in doc["agents"]])
    near = ((xy[:, None] - xy[None]) ** 2).sum(axis=2) <= 1.0
    want = [[a + 1, b + 1] for a, b in zip(*np.nonzero(np.triu(near, 1)))]
    assert doc["links"] == want and 0 < len(want) < 66


@pytest.mark.parametrize("iters", ["0", "21"])
def test_snapshot_outside_the_run_exits_with_code_2(tmp_path, capsys, iters):
    code = main(["mobile", *TINY, "--snapshot-iters", "1", iters,
                 "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: snapshot_iters iterations must lie in [1, max_iters]"]
    assert "Traceback" not in err
    assert not (tmp_path / "summary.json").exists()


def test_flag_beats_config_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_agents": 30, "radius": 0.3}))
    assert main(["decide", "--config", str(path), "--agents", "12",
                 "--print-config"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["n_agents"] == 12
    assert printed["radius"] == 0.3


@pytest.mark.parametrize("mode", ["decide", "follow", "mobile"])
def test_partial_config_file_equals_the_same_flags(tmp_path, capsys, mode):
    path = written(tmp_path / "part.json",
                   json.dumps({"n_agents": 30, "max_iters": 60, "n_trials": 1}))
    assert main([mode, "--config", str(path), "--print-config"]) == 0
    from_file = capsys.readouterr().out
    assert main([mode, "--agents", "30", "--iters", "60", "--trials", "1",
                 "--print-config"]) == 0
    assert from_file == capsys.readouterr().out


def test_follow_config_file_keeps_the_default_target(tmp_path):
    path = written(tmp_path / "f.json", json.dumps({"n_agents": 30}))
    assert main(["follow", "--config", str(path), "--iters", "20", "--t-hold", "5",
                 "--trials", "1", "--quiet", "--out-dir", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["target_agent"] == 10
    assert summary["config"]["n_agents"] == 30


def test_output_dir_variable_beats_out_dir_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("NETDECIDE_OUTPUT_DIR", str(tmp_path / "from-env"))
    assert main(["decide", *TINY, "--summary-only",
                 "--out-dir", str(tmp_path / "from-flag")]) == 0
    assert (tmp_path / "from-env" / "summary.json").exists()
    assert not (tmp_path / "from-flag").exists()
