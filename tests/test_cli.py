"""Command line front end: exit codes for bad input."""

from netdecide.cli import main


def test_jobs_below_one_exits_with_code_2(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("NETDECIDE_OUTPUT_DIR", raising=False)
    code = main(["decide", "--agents", "20", "--iters", "20", "--t-hold", "5",
                 "--trials", "1", "--jobs", "0", "--out-dir", str(tmp_path),
                 "--quiet"])
    assert code == 2
    assert "n_jobs" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
