"""Shared fixtures: a small, fast drive spec for unit tests."""

import pytest

from repro.disk.request import IORequest
from repro.disk.specs import DriveSpec


@pytest.fixture
def tiny_spec():
    """A small drive (≈1 GB) so geometry work stays cheap in tests."""
    return DriveSpec(
        name="tiny-test-drive",
        capacity_bytes=1_000_000_000,
        platters=2,
        rpm=7200,
        diameter_inches=3.7,
        spt_outer=100,
        spt_inner=60,
        zones=4,
        seek_track_to_track_ms=0.5,
        seek_average_ms=5.0,
        seek_full_stroke_ms=10.0,
        cache_bytes=512 * 1024,
        controller_overhead_ms=0.1,
        head_switch_ms=0.4,
    )


@pytest.fixture
def forbid_request_equality(monkeypatch):
    """Make comparing two requests by value an error for one test.

    Drives must dequeue the exact object their scheduler chose; a
    value comparison (``list.remove``) would call ``IORequest.__eq__``.
    """

    def no_value_equality(self, other):
        raise AssertionError("requests compared by value")

    monkeypatch.setattr(IORequest, "__eq__", no_value_equality)
