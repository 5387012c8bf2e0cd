"""Bit-identity of the one-pass SPTF window pricing.

``positioning_times`` prices a whole scheduling window in one call.
Every estimate must equal, bit for bit, the per-request arithmetic it
replaces: ``Spindle.latency_to`` on a conventional drive and
``ParallelDisk._best_arm`` over the idle arms of a multi-actuator one.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import SchedulingContext, SPTFScheduler
from repro.sim.engine import Environment

#: ``None`` is the conventional drive; otherwise (arms, heads per arm).
LAYOUTS = [None, (1, 1), (2, 1), (4, 1), (2, 2), (1, 3)]
#: 0.3 is not a power of two, so a reordered scale multiply would round
#: differently and show up.
SCALES = st.sampled_from([0.0, 0.5, 1.0, 0.3])
SEGMENT_SECTORS = 64


def reference_estimate(drive, request):
    """Per-request pricing, written out the way it read before batching."""
    if request.is_read and drive.cache.contains(request.lba, request.size):
        return 0.0
    cylinder, sector_angle = drive.geometry.decode_target(request.lba)
    now = drive.env.now
    if isinstance(drive, ParallelDisk):
        _, seek, rotation, _ = drive._best_arm(cylinder, sector_angle, now)
        return seek + rotation
    seek = (
        drive.seek_model.seek_time(drive.current_cylinder, cylinder)
        * drive.seek_scale
    )
    rotation = (
        drive.spindle.latency_to(now + seek, sector_angle)
        * drive.rotation_scale
    )
    return seek + rotation


def build(spec, layout, seek_scale, rotation_scale, now):
    env = Environment()
    if layout is None:
        drive = ConventionalDrive(
            env, spec, seek_scale=seek_scale, rotation_scale=rotation_scale
        )
    else:
        arms, heads = layout
        drive = ParallelDisk(
            env,
            spec,
            config=DashConfig(arm_assemblies=arms, heads_per_arm=heads),
            seek_scale=seek_scale,
            rotation_scale=rotation_scale,
        )
    env.run(until=now)
    return drive


@st.composite
def scenarios(draw, spec_sectors):
    layout = draw(st.sampled_from(LAYOUTS))
    arms = 1 if layout is None else layout[0]
    limit = spec_sectors - SEGMENT_SECTORS
    segments = draw(
        st.lists(st.integers(0, limit), min_size=0, max_size=4)
    )

    def candidate():
        # Half the candidates start inside a cached segment, so cached
        # reads (and cached-extent writes, which still need pricing)
        # show up often.
        near = (
            st.sampled_from(segments).flatmap(
                lambda start: st.integers(start, start + 32)
            )
            if segments
            else st.integers(0, limit)
        )
        return st.tuples(
            st.one_of(near, st.integers(0, limit)),
            st.integers(1, 32),
            st.booleans(),
        )

    return {
        "layout": layout,
        "seek_scale": draw(SCALES),
        "rotation_scale": draw(SCALES),
        "now": draw(st.floats(0.0, 500.0, allow_nan=False)),
        "cylinders": draw(
            st.lists(st.floats(0.0, 1.0), min_size=arms, max_size=arms)
        ),
        # Arm states: 0 idle, 1 busy (prepositioned), 2 deconfigured.
        "states": draw(
            st.lists(st.sampled_from([0, 0, 1, 2]), min_size=arms,
                     max_size=arms)
        ),
        "segments": segments,
        "candidates": draw(st.lists(candidate(), min_size=1, max_size=10)),
    }


def arrange(drive, scenario):
    """Place arms, busy/failed states and cache contents."""
    top = drive.geometry.cylinders - 1
    cylinders = [int(fraction * top) for fraction in scenario["cylinders"]]
    if isinstance(drive, ParallelDisk):
        for arm, cylinder, state in zip(
            drive.arms, cylinders, scenario["states"]
        ):
            arm.cylinder = cylinder
            if state == 1:
                arm.busy_until = drive.env.now + 1.5
            elif state == 2 and drive.healthy_arm_count > 1:
                drive.deconfigure_arm(arm.arm_id)
    else:
        drive._current_cylinder = cylinders[0]
    for start in scenario["segments"]:
        drive.cache.install_read(start, SEGMENT_SECTORS)


def bits(values):
    return [value.hex() for value in values]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_batch_matches_per_request_pricing(tiny_spec, data):
    sectors = tiny_spec.build_geometry().total_sectors
    scenario = data.draw(scenarios(sectors))
    drive = build(
        tiny_spec,
        scenario["layout"],
        scenario["seek_scale"],
        scenario["rotation_scale"],
        scenario["now"],
    )
    arrange(drive, scenario)
    candidates = [
        IORequest(lba=lba, size=size, is_read=is_read, arrival_time=0.0)
        for lba, size, is_read in scenario["candidates"]
    ]
    try:
        expected = [reference_estimate(drive, r) for r in candidates]
    except RuntimeError as exc:
        assert "no idle arm" in str(exc)
        with pytest.raises(RuntimeError, match="no idle arm"):
            drive.positioning_times(candidates)
        return
    assert bits(drive.positioning_times(candidates)) == bits(expected)
    # A second pass reads the decode memo and must not drift.
    assert bits(drive.positioning_times(candidates)) == bits(expected)
    assert bits(
        [drive.positioning_estimate(r) for r in candidates]
    ) == bits(expected)

    scheduler = SPTFScheduler(window=None)
    reference = SchedulingContext(
        current_cylinder=drive.current_cylinder,
        cylinder_of=lambda r: 0,
        positioning_time=lambda r: reference_estimate(drive, r),
    )
    assert scheduler.select(candidates, drive._context()) is (
        scheduler.select(candidates, reference)
    )


def _stranded_drive(tiny_spec):
    """An SA(2) drive with arm 0 deconfigured and arm 1 busy."""
    drive = build(tiny_spec, (2, 1), 1.0, 1.0, 10.0)
    drive.deconfigure_arm(0)
    drive.arms[1].busy_until = 20.0
    drive.cache.install_read(1000, SEGMENT_SECTORS)
    return drive


def test_cached_reads_price_zero_without_an_idle_arm(tiny_spec):
    drive = _stranded_drive(tiny_spec)
    cached = [
        IORequest(lba=1000, size=8, is_read=True),
        IORequest(lba=1010, size=16, is_read=True),
    ]
    assert drive.positioning_times(cached) == [0.0, 0.0]


def test_no_idle_arm_raised_for_a_candidate_that_needs_pricing(tiny_spec):
    drive = _stranded_drive(tiny_spec)
    window = [
        IORequest(lba=1000, size=8, is_read=True),
        # Same extent, but a write: it must reach the media.
        IORequest(lba=1000, size=8, is_read=False),
    ]
    with pytest.raises(RuntimeError, match="no idle arm"):
        drive.positioning_times(window)


@pytest.mark.parametrize("layout", [None, (2, 1)])
def test_gap_rounding_to_a_full_turn_prices_zero(tiny_spec, layout):
    """A platter a hair past the sector gives ``gap % 1.0 == 1.0``;
    ``Spindle.latency_to`` clamps that to 0.0, and so must the batch."""
    drive = build(tiny_spec, layout, 1.0, 1.0, 0.0)
    request = IORequest(lba=0, size=8, is_read=False)
    cylinder, sector_angle = drive.geometry.decode_target(request.lba)
    while not 0.125 <= sector_angle < 0.5:
        request = IORequest(lba=request.lba + 7, size=8, is_read=False)
        cylinder, sector_angle = drive.geometry.decode_target(request.lba)
    if isinstance(drive, ParallelDisk):
        drive.arms[0].cylinder = cylinder
    else:
        drive._current_cylinder = cylinder
    drive.spindle.phase = math.nextafter(sector_angle, 1.0)
    assert (sector_angle - drive.spindle.phase) % 1.0 == 1.0
    assert reference_estimate(drive, request) == 0.0
    assert drive.positioning_times([request]) == [0.0]
