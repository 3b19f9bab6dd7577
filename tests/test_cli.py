"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_check_spec_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "nope"])

    def test_config_args(self):
        args = build_parser().parse_args(
            ["check", "mSpec-2", "--txns", "2", "--crashes", "3"]
        )
        assert args.txns == 2 and args.crashes == 3

    def test_engine_args(self):
        args = build_parser().parse_args(
            ["check", "mSpec-3", "--strategy", "random", "--seed", "4"]
        )
        assert args.strategy == "random" and args.seed == 4

    def test_engine_args_on_bugs_and_protocol(self):
        args = build_parser().parse_args(["bugs", "--seed", "2"])
        assert args.seed == 2 and args.strategy == "bfs"
        args = build_parser().parse_args(["protocol", "--strategy", "dfs"])
        assert args.strategy == "dfs"

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "mSpec-1", "--strategy", "zen"])


class TestCommands:
    def test_check_finds_zk4394(self, capsys):
        code = main(
            [
                "check",
                "mSpec-1",
                "--unmask-zk4394",
                "--max-states",
                "50000",
                "--max-time",
                "60",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # violation found
        assert "I-14" in out

    def test_check_with_trace(self, capsys):
        code = main(
            [
                "check",
                "mSpec-1",
                "--unmask-zk4394",
                "--trace",
                "--max-states",
                "50000",
                "--max-time",
                "60",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # violation found
        assert "State 0 (initial):" in out

    def test_check_masked_passes(self, capsys):
        code = main(
            ["check", "mSpec-1", "--max-states", "30000", "--max-time", "30"]
        )
        assert code == 0

    def test_check_portfolio_strategy(self, capsys):
        # The portfolio race is gone: argparse rejects the choice.
        with pytest.raises(SystemExit) as exc:
            main(["check", "mSpec-3", "--strategy", "portfolio"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--workers", "2"], ["--dedupe", "shared"]]
    )
    def test_check_rejects_parallel_flags(self, flags, capsys):
        # Exploration runs in one process; the parallel flags are gone.
        with pytest.raises(SystemExit) as exc:
            main(["check", "mSpec-3"] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_check_rejects_compile_flag(self, capsys):
        # The generated kernel is the only successor path; --compile is gone.
        with pytest.raises(SystemExit) as exc:
            main(["check", "mSpec-3", "--compile", "off"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_conformance(self, capsys):
        code = main(
            ["conformance", "mSpec-3", "--traces", "10", "--steps", "15"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 discrepancies" in out

    def test_efforts(self, capsys):
        assert main(["efforts"]) == 0
        out = capsys.readouterr().out
        assert "mSpec-1 - SysSpec" in out

    def test_lineage(self, capsys):
        assert main(["lineage"]) == 0
        out = capsys.readouterr().out
        assert "ZK-2678" in out
