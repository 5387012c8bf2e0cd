"""Tests for the bench regression gate (repro.tools.regress) and the
snapshot loader/validator (repro.tools.bench)."""

import json

import pytest

from repro.cli import main
from repro.tools.bench import (
    BENCH_SCHEMA,
    load_bench,
    validate_bench,
    write_bench,
)
from repro.tools.regress import CheckResult, compare_bench, format_check


def snapshot(**overrides):
    base = {
        "schema": BENCH_SCHEMA,
        "date": "2026-08-06",
        "python": "3.11.0",
        "platform": "test",
        "cpu_count": 4,
        "requests": 6000,
        "repeats": 3,
        "workloads": ["financial", "websearch", "tpcc", "tpch"],
        "events": 1000,
        "figures_sha256": "a" * 64,
        "figures_identical": True,
        "workload_results": [
            {
                "workload": "websearch",
                "events": 250,
                "wall_s": 0.5,
                "events_per_s": 500.0,
            }
        ],
        "kernel": {
            "processes": 50,
            "timeouts": 2000,
            "events": 100050,
            "wall_s": 0.3,
            "events_per_s": 333500.0,
        },
        "results": [
            {
                "workers": 1,
                "wall_s": 2.0,
                "events_per_s": 500.0,
                "speedup_vs_serial": 1.0,
            }
        ],
        "metrics_overhead": {
            "workload": "websearch",
            "requests": 2000,
            "events": 250,
            "off_events_per_s": 500.0,
            "on_events_per_s": 495.0,
            "overhead_fraction": 0.01,
            "figures_identical": True,
        },
    }
    base.update(overrides)
    return base


class TestValidateBench:
    def test_valid_passes(self):
        validate_bench(snapshot())

    def test_not_a_dict(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            validate_bench([])

    def test_missing_schema(self):
        bad = snapshot()
        del bad["schema"]
        with pytest.raises(ValueError, match="missing 'schema'"):
            validate_bench(bad)

    def test_unsupported_schema(self):
        with pytest.raises(ValueError, match="unsupported schema"):
            validate_bench(snapshot(schema="repro-bench/9"))

    def test_missing_keys_listed(self):
        bad = snapshot()
        del bad["events"], bad["figures_sha256"]
        with pytest.raises(ValueError, match="events"):
            validate_bench(bad)

    def test_empty_results(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_bench(snapshot(results=[]))

    def test_entry_missing_workers(self):
        bad = snapshot(results=[{"events_per_s": 1.0}])
        with pytest.raises(ValueError, match="missing 'workers'"):
            validate_bench(bad)

    def test_timed_entry_needs_events_per_s(self):
        bad = snapshot(results=[{"workers": 1}])
        with pytest.raises(ValueError, match="events_per_s"):
            validate_bench(bad)

    def test_skipped_entry_needs_no_timing(self):
        validate_bench(
            snapshot(
                results=[
                    {"workers": 1, "events_per_s": 1.0},
                    {"workers": 8, "skipped": True, "reason": "x"},
                ]
            )
        )

    def test_source_named_in_error(self):
        with pytest.raises(ValueError, match="base.json"):
            validate_bench([], source="base.json")

    def test_v3_requires_workload_results_and_kernel(self):
        bad = snapshot()
        del bad["workload_results"], bad["kernel"]
        with pytest.raises(ValueError, match="workload_results"):
            validate_bench(bad)

    def test_older_schema_asks_for_a_rerecording(self):
        with pytest.raises(ValueError, match="re-record"):
            validate_bench(snapshot(schema="repro-bench/6"))


class TestLoadBench:
    def test_round_trip(self, tmp_path):
        path = write_bench(snapshot(), str(tmp_path / "b.json"))
        assert load_bench(path) == snapshot()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_bench(str(path))

    def test_path_named_in_schema_error(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(snapshot(schema="repro-bench/0")))
        with pytest.raises(ValueError, match="old.json"):
            load_bench(str(path))


class TestCompareBench:
    def test_identical_snapshots_pass(self):
        result = compare_bench(snapshot(), snapshot())
        assert result.ok
        assert result.digest_checked
        assert result.throughput_ratio == 1.0
        assert "PASSED" in format_check(result)

    def test_digest_mismatch_fails(self):
        result = compare_bench(
            snapshot(), snapshot(figures_sha256="b" * 64)
        )
        assert not result.ok
        assert any("digest mismatch" in p for p in result.problems)
        assert "FAILED" in format_check(result)

    def test_event_count_change_fails(self):
        result = compare_bench(snapshot(), snapshot(events=999))
        assert any("event count" in p for p in result.problems)

    def test_figures_not_identical_fails(self):
        result = compare_bench(
            snapshot(), snapshot(figures_identical=False)
        )
        assert any("determinism" in p for p in result.problems)

    def test_different_requests_skips_digest(self):
        current = snapshot(
            requests=500, figures_sha256="b" * 64, events=7
        )
        result = compare_bench(snapshot(), current)
        assert result.ok
        assert not result.digest_checked
        assert any("digest not compared" in n for n in result.notes)
        assert "skipped" in format_check(result)

    def test_throughput_below_tolerance_fails(self):
        slow = snapshot(
            results=[
                {"workers": 1, "wall_s": 10.0, "events_per_s": 100.0,
                 "speedup_vs_serial": 1.0}
            ]
        )
        result = compare_bench(snapshot(), slow, tolerance=0.5)
        assert not result.ok
        assert result.throughput_ratio == pytest.approx(0.2)
        assert any("regressed" in p for p in result.problems)

    def test_zero_tolerance_disables_gate(self):
        slow = snapshot(
            results=[
                {"workers": 1, "wall_s": 10.0, "events_per_s": 100.0,
                 "speedup_vs_serial": 1.0}
            ]
        )
        result = compare_bench(snapshot(), slow, tolerance=0)
        assert result.ok
        assert result.throughput_ratio == pytest.approx(0.2)

    def test_missing_serial_entry_noted(self):
        headless = snapshot(
            results=[{"workers": 8, "skipped": True, "reason": "x"}]
        )
        result = compare_bench(snapshot(), headless)
        assert result.throughput_ratio is None
        assert any("not compared" in n for n in result.notes)

    def test_invalid_baseline_is_a_problem(self):
        result = compare_bench({"schema": "repro-bench/9"}, snapshot())
        assert not result.ok
        assert any("baseline invalid" in p for p in result.problems)

    def test_invalid_current_is_a_problem(self):
        result = compare_bench(snapshot(), {})
        assert any("current run invalid" in p for p in result.problems)

    def test_older_baseline_is_a_problem(self):
        result = compare_bench(snapshot(schema="repro-bench/6"), snapshot())
        assert not result.ok
        assert any("re-record" in p for p in result.problems)

    def test_platform_difference_noted(self):
        result = compare_bench(snapshot(), snapshot(platform="other"))
        assert result.ok
        assert any("platform differs" in n for n in result.notes)

    def test_cpu_count_mismatch_is_a_note_not_a_problem(self):
        result = compare_bench(snapshot(), snapshot(cpu_count=1))
        assert result.ok
        assert any("cpu_count differs" in n for n in result.notes)
        assert any("throughput gate disabled" in n for n in result.notes)

    def test_cpu_count_mismatch_noted_with_gate_off(self):
        result = compare_bench(
            snapshot(), snapshot(cpu_count=1), tolerance=0
        )
        assert result.ok
        assert any("cpu_count differs" in n for n in result.notes)

    def test_cpu_count_mismatch_skips_throughput_gate(self):
        # Even a catastrophic apparent slowdown is not gated when the
        # hosts differ — the gate auto-disables with a note while the
        # correctness gates stay armed.
        slow = snapshot(
            cpu_count=1,
            results=[
                {"workers": 1, "wall_s": 100.0, "events_per_s": 10.0,
                 "speedup_vs_serial": 1.0}
            ],
        )
        result = compare_bench(snapshot(), slow, tolerance=0.5)
        assert result.ok
        assert not any("regressed" in p for p in result.problems)
        assert any("cpu_count differs" in n for n in result.notes)

    def test_cpu_count_mismatch_still_gates_digest(self):
        # Host differences never excuse a digest mismatch.
        bad = snapshot(cpu_count=1, figures_sha256="f" * 64)
        result = compare_bench(snapshot(), bad)
        assert not result.ok
        assert any("digest mismatch" in p for p in result.problems)

    def test_kernel_throughput_noted(self):
        result = compare_bench(snapshot(), snapshot())
        assert any("kernel microbench" in n for n in result.notes)

    def test_empty_checkresult_is_ok(self):
        assert CheckResult().ok


@pytest.mark.bench_smoke
class TestBenchCheckCli:
    def baseline_from_run(self, tmp_path):
        from repro.tools.bench import run_bench

        result = run_bench(
            requests=300, workers=1, repeats=1, workloads=("websearch",)
        )
        return result, write_bench(result, str(tmp_path / "base.json"))

    def test_check_against_matching_baseline(self, tmp_path, capsys):
        _, path = self.baseline_from_run(tmp_path)
        code = main(
            [
                "bench", "--check", path, "--repeats", "1",
                "--workloads", "websearch", "--tolerance", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bench check PASSED (figure digest identical)" in out

    def test_check_adopts_baseline_requests(self, tmp_path, capsys):
        # No --requests on the command line: the checker reruns at the
        # baseline's request count so digests stay comparable.
        _, path = self.baseline_from_run(tmp_path)
        assert (
            main(
                [
                    "bench", "--check", path, "--repeats", "1",
                    "--workloads", "websearch", "--tolerance", "0",
                ]
            )
            == 0
        )
        assert "digest identical" in capsys.readouterr().out

    def test_check_digest_mismatch_exits_nonzero(self, tmp_path, capsys):
        result, _ = self.baseline_from_run(tmp_path)
        result["figures_sha256"] = "0" * 64
        doctored = str(tmp_path / "doctored.json")
        write_bench(result, doctored)
        with pytest.raises(SystemExit):
            main(
                [
                    "bench", "--check", doctored, "--repeats", "1",
                    "--workloads", "websearch", "--tolerance", "0",
                ]
            )
        assert "digest mismatch" in capsys.readouterr().out

    def test_check_bad_baseline_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro-bench/9"}')
        with pytest.raises(SystemExit, match="bench --check"):
            main(["bench", "--check", str(bad), "--repeats", "1"])
