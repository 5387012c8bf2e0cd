"""The shipped tracing example runs end to end at a small size."""

import importlib.util
import json
import pathlib
import sys

from repro.obs.export import validate_chrome_trace

EXAMPLE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "examples"
    / "trace_limit_study.py"
)


def test_trace_limit_study_example(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("trace_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(EXAMPLE), "200"])
    module.main()

    out = capsys.readouterr().out
    assert "# TYPE repro_engine_events_total counter" in out
    assert "-> MATCH" in out
    trace = json.loads((tmp_path / module.OUT).read_text())
    assert validate_chrome_trace(trace) == []
    assert trace["otherData"]["telemetry"]["schema"] == "repro-metrics/1"
