"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.servers is None
        assert args.seed == 0

    def test_locate_arguments(self):
        args = build_parser().parse_args(
            ["locate", "48.1", "11.5", "--algorithm", "cbg"])
        assert args.lat == 48.1
        assert args.algorithm == "cbg"

    def test_bad_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["locate", "0", "0", "--algorithm", "dowsing"])


class TestCommands:
    def test_audit_command(self, scenario, capsys):
        assert main(["audit", "--servers", "15", "--ground-truth"]) == 0
        out = capsys.readouterr().out
        assert "audited 15 servers" in out
        assert "verdicts" in out
        assert "ground truth" in out

    def test_locate_command(self, scenario, capsys):
        assert main(["locate", "48.14", "11.58"]) == 0
        out = capsys.readouterr().out
        assert "countries:" in out
        assert "DE" in out

    @pytest.mark.parametrize("lat,lon", [
        ("100", "0"), ("-90.5", "0"), ("0", "400"), ("0", "-181"),
        ("nan", "0")])
    def test_locate_rejects_bad_coordinates(self, lat, lon, capsys):
        assert main(["locate", lat, lon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "out of range" in lines[0]

    def test_locate_bad_coordinates_exit_without_traceback(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "locate", "100", "0"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: latitude out of range [-90, 90]: 100.0\n")

    def test_channels_command(self, scenario, capsys):
        assert main(["channels"]) == 0
        out = capsys.readouterr().out
        assert "ICMP" in out
        assert "port 80" in out

    def test_eta_command(self, scenario, capsys):
        assert main(["eta"]) == 0
        assert "eta" in capsys.readouterr().out

    def test_figure_command(self, scenario, capsys):
        assert main(["figure", "fig02"]) == 0
        assert "bestline" in capsys.readouterr().out

    def test_figure_unknown(self, scenario, capsys):
        assert main(["figure", "fig99"]) == 2


class TestCampaignCommand:
    def _plan_file(self, tmp_path, max_servers=20):
        from repro.experiments import DeploymentPlan
        path = tmp_path / "plan.json"
        plan = DeploymentPlan(name="cli-slice", max_servers=max_servers)
        path.write_text(plan.to_json(), encoding="utf-8")
        return str(path)

    def test_campaign_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.shards is None
        assert args.shard_index is None
        assert not args.merge

    def test_campaign_command_with_report(self, scenario, capsys, tmp_path):
        import json
        report_path = tmp_path / "report.json"
        assert main(["campaign", "--plan", self._plan_file(tmp_path),
                     "--shards", "2", "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2" in out
        assert "campaign 'cli-slice'" in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["n_servers"] == 20

    def test_shard_then_merge_workflow(self, scenario, capsys, tmp_path):
        plan = self._plan_file(tmp_path)
        directory = str(tmp_path / "journals")
        import os
        os.makedirs(directory)
        for index in ("0", "1"):
            assert main(["campaign", "--plan", plan, "--shards", "2",
                         "--shard-index", index,
                         "--journal-dir", directory]) == 0
        assert main(["campaign", "--plan", plan, "--shards", "2",
                     "--merge", "--journal-dir", directory]) == 0
        out = capsys.readouterr().out
        assert "verdicts (pre-disambiguation)" in out
        assert "campaign 'cli-slice'" in out

    def test_shard_index_needs_journal_dir(self, scenario, capsys, tmp_path):
        assert main(["campaign", "--plan", self._plan_file(tmp_path),
                     "--shards", "2", "--shard-index", "0"]) == 2
        assert "journal" in capsys.readouterr().err

    def test_shard_index_and_merge_exclusive(self, scenario, capsys,
                                             tmp_path):
        assert main(["campaign", "--shard-index", "0", "--merge",
                     "--journal-dir", str(tmp_path)]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
