"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import ARTIFACTS, build_parser, main


def _count_flag_cases():
    """(subcommand, flag, bad value) for every count flag the CLI takes."""
    parser = build_parser()
    subcommands = next(
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    cases = []
    for name, command in subcommands.items():
        flags = {
            option
            for action in command._actions
            for option in action.option_strings
        }
        for flag, bad in (
            ("--requests", "0"),
            ("--repeats", "0"),
            ("--workers", "-2"),
        ):
            if flag in flags:
                cases.append((name, flag, bad))
    return cases


class TestParser:
    def test_every_artifact_has_a_subcommand(self):
        parser = build_parser()
        for name in ARTIFACTS:
            args = parser.parse_args([name])
            assert args.handler is ARTIFACTS[name]
            assert args.requests == 4000

    def test_requests_flag(self):
        parser = build_parser()
        args = parser.parse_args(["fig2", "--requests", "123"])
        assert args.requests == 123

    def test_simulate_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["simulate"])
        assert args.workload == "websearch"
        assert args.actuators == 1
        assert args.rpm is None
        assert not args.md

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command,flag,bad", _count_flag_cases())
    def test_bad_count_flag_is_a_one_line_usage_error(
        self, command, flag, bad, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, bad])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be >= " in err
        assert f"got {bad}" in err
        assert "Traceback" not in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig8" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "barracuda-es-750" in out
        assert "6600" in out or "6599" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "financial" in out
        assert "5334945" in out

    def test_fig9(self, capsys):
        assert main(["fig9"]) == 0
        out = capsys.readouterr().out
        assert "$67.7-$80.8" in out
        assert "0.40" in out

    def test_workloads(self, capsys):
        assert main(["workloads", "--requests", "500"]) == 0
        out = capsys.readouterr().out
        for name in ("financial", "websearch", "tpcc", "tpch"):
            assert name in out

    def test_simulate_small(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--workload",
                    "tpch",
                    "--actuators",
                    "2",
                    "--requests",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "SA(2)" in out
        assert "power_W" in out

    def test_simulate_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["simulate", "--workload", "nope", "--requests", "10"])

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--requests", "400"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2 [websearch]" in out
        assert "200+" in out


class TestResults:
    def test_results_to_stdout(self, capsys):
        assert main(["results", "--requests", "300"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction results" in out
        assert "## table1" in out
        assert "## fig8" in out

    def test_results_to_file(self, tmp_path, capsys):
        target = tmp_path / "results.md"
        assert (
            main(["results", "--requests", "300", "-o", str(target)]) == 0
        )
        text = target.read_text()
        assert text.count("## ") == 10
        assert "barracuda-es-750" in text
        assert "wrote" in capsys.readouterr().out


class TestFaults:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["faults"])
        assert args.requests == 2000
        assert args.fault_seed == 101
        assert args.plan is None
        assert args.validate is None

    def test_study_runs_end_to_end(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        assert (
            main(
                [
                    "faults",
                    "--requests",
                    "120",
                    "--emit-plan",
                    str(plan_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Reliability study" in out
        assert "MTTDL" in out
        assert "4xHC-SD-RAID5" in out
        assert plan_path.exists()

    def test_replay_emitted_plan(self, tmp_path, capsys):
        from repro.experiments.reliability_study import default_fault_plan
        from repro.faults.plan import write_fault_plan

        plan_path = tmp_path / "plan.json"
        write_fault_plan(default_fault_plan(7, 480.0), str(plan_path))
        assert (
            main(["faults", "--requests", "120", "--plan", str(plan_path)])
            == 0
        )
        assert "faulted" in capsys.readouterr().out

    def test_validate_good_plan(self, tmp_path, capsys):
        from repro.faults.plan import FaultPlan, write_fault_plan

        plan_path = tmp_path / "plan.json"
        write_fault_plan(FaultPlan.empty(), str(plan_path))
        assert main(["faults", "--validate", str(plan_path)]) == 0
        assert "valid fault plan" in capsys.readouterr().out

    def test_validate_bad_plan_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 3, "events": 1}')
        with pytest.raises(SystemExit):
            main(["faults", "--validate", str(bad)])
        assert "INVALID" in capsys.readouterr().out

    def test_missing_plan_file_errors(self):
        with pytest.raises(SystemExit, match="faults --plan"):
            main(["faults", "--plan", "/nonexistent/plan.json"])
