"""Tests of the experiment CLI runner."""

from pathlib import Path

import pytest

from repro.experiments.runner import main


class TestRunnerCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E12" in out

    def test_run_one_quick(self, capsys):
        assert main(["--quick", "E1"]) == 0
        out = capsys.readouterr().out
        assert "[E1]" in out
        assert "regenerated in" in out

    def test_out_dir_quick_suffix(self, tmp_path: Path, capsys):
        assert main(["--quick", "--out", str(tmp_path), "E5"]) == 0
        written = tmp_path / "e5.quick.txt"
        assert written.exists()
        assert "[E5]" in written.read_text()
        # quick artifacts must never clobber full results
        assert not (tmp_path / "e5.txt").exists()

    def test_out_dir_full_name(self, tmp_path: Path, capsys):
        assert main(["--out", str(tmp_path), "E5"]) == 0
        assert (tmp_path / "e5.txt").exists()

    def test_unknown_id_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--quick", "E99"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'E99'" in err
        assert "Traceback" not in err
