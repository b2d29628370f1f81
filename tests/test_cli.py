"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_info_command(self, capsys):
        assert main(["info", "--preset", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "preset: smoke" in output
        assert "array" in output

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--preset", "galactic"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_fig2a_runs_and_writes_json(self, capsys, tmp_path):
        output_path = tmp_path / "fig2a.json"
        assert main(["fig2a", "--preset", "smoke", "--output", str(output_path)]) == 0
        stdout = capsys.readouterr().out
        assert "Fig. 2a" in stdout
        payload = json.loads(output_path.read_text())
        assert payload["figure"] == "2a"
        assert len(payload["rows"]) > 0

    def test_fig3_runs_with_chip_override(self, capsys):
        assert main(["fig3", "--preset", "smoke", "--chips", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "reduce-max" in stdout
        assert "Pareto" in stdout


class TestRemovedComputeEnvVar:
    def test_stale_compute_env_var_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fused")
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--preset", "smoke"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "REPRO_BACKEND='fused'" in message
        assert "was removed" in message
        assert "'numpy'" in message
