"""Seek-time models.

The main model is the classic three-point curve used by DiskSim: given
the published single-cylinder, average (≈ one-third stroke) and
full-stroke seek times, fit

    t(d) = a + b·sqrt(d) + c·d        for d >= 1, t(0) = 0

The sqrt term captures the acceleration-limited short-seek regime; the
linear term the coast-limited long-seek regime.  Simpler models are
provided for tests and analytic sanity checks.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

__all__ = [
    "ConstantSeekModel",
    "LinearSeekModel",
    "SeekModel",
    "ThreePointSeekModel",
    "TwoPhaseSeekModel",
]


#: Distance tables shared by identically parameterised models, keyed by
#: the model's fit parameters.  A sweep builds the same drives over and
#: over (one system per run, several runs per experiment); sharing the
#: table means the seek curve is evaluated once per (parameters,
#: distance) per process, and later constructions start with the table
#: already populated.
_SHARED_TABLES: dict = {}


class SeekModel:
    """Interface: seek time (ms) as a function of cylinder distance.

    Seek time depends only on the cylinder *distance*, and a trace
    revisits the same distances constantly (hot regions, sequential
    runs), so lookups go through a ``distance -> time`` table filled
    from ``_time_for_distance``.  The table is shared between models
    with identical parameters (see :meth:`_table_key`); models with
    different parameters never share entries.  Scale factors are
    applied by the owning drive, outside the table.
    """

    def __init__(self) -> None:
        #: distance -> seek time (ms); lazily filled.  Subclasses with
        #: parameter-determined curves swap this for a shared table via
        #: :meth:`_share_table` once their parameters are set.
        self._memo: dict = {}

    def _share_table(self, *key) -> None:
        """Adopt the process-wide table for this parameter ``key``.

        Call at the end of a subclass ``__init__``, after every
        parameter that determines ``_time_for_distance`` is set.
        """
        self._memo = _SHARED_TABLES.setdefault(
            (type(self).__name__,) + key, {}
        )

    def seek_time(self, from_cylinder: int, to_cylinder: int) -> float:
        distance = to_cylinder - from_cylinder
        if distance == 0:
            return 0.0
        if distance < 0:
            distance = -distance
        memo = self._memo
        time_ms = memo.get(distance)
        if time_ms is None:
            time_ms = memo[distance] = self._time_for_distance(distance)
        return time_ms

    def seek_times(
        self, from_cylinder: int, to_cylinders: Sequence[int]
    ) -> List[float]:
        """:meth:`seek_time` from one cylinder to each of several.

        One call per arm prices a whole scheduling window.  Table hits
        resolve inline; misses and zero distances (which the table
        never holds) go through :meth:`seek_time`, so every entry is
        bit-identical to it.
        """
        get = self._memo.get
        times = []
        for to_cylinder in to_cylinders:
            distance = to_cylinder - from_cylinder
            if distance < 0:
                distance = -distance
            time_ms = get(distance)
            if time_ms is None:
                time_ms = self.seek_time(from_cylinder, to_cylinder)
            times.append(time_ms)
        return times

    def _time_for_distance(self, distance: int) -> float:
        raise NotImplementedError


class ConstantSeekModel(SeekModel):
    """Every non-zero seek costs the same time (testing aid)."""

    def __init__(self, time_ms: float):
        super().__init__()
        if time_ms < 0:
            raise ValueError(f"time must be non-negative, got {time_ms}")
        self.time_ms = time_ms
        self._share_table(time_ms)

    def _time_for_distance(self, distance: int) -> float:
        return self.time_ms


class LinearSeekModel(SeekModel):
    """``t(d) = base + slope * d`` (testing / old-drive approximation)."""

    def __init__(self, base_ms: float, slope_ms_per_cyl: float):
        super().__init__()
        if base_ms < 0 or slope_ms_per_cyl < 0:
            raise ValueError("base and slope must be non-negative")
        self.base_ms = base_ms
        self.slope_ms_per_cyl = slope_ms_per_cyl
        self._share_table(base_ms, slope_ms_per_cyl)

    def _time_for_distance(self, distance: int) -> float:
        return self.base_ms + self.slope_ms_per_cyl * distance


class TwoPhaseSeekModel(SeekModel):
    """Physics-based bang-bang seek: accelerate, (coast,) decelerate.

    The voice-coil motor applies maximum acceleration ``a`` toward the
    target and symmetric deceleration, limited by a maximum head
    velocity ``v``; every seek ends with a fixed servo ``settle`` time.

        d <  v²/a :  t = 2·sqrt(d/a) + settle          (triangular)
        d >= v²/a :  t = d/v + v/a + settle            (trapezoidal)

    This is the model underneath the empirical sqrt+linear curve of
    :class:`ThreePointSeekModel`; having both lets the test suite and
    ablations confirm the empirical fit against first principles.

    Units: distance in cylinders, time in ms, so ``a`` is cylinders/ms²
    and ``v`` cylinders/ms.
    """

    def __init__(
        self,
        acceleration: float,
        max_velocity: float,
        settle_ms: float,
    ):
        super().__init__()
        if acceleration <= 0:
            raise ValueError(
                f"acceleration must be positive, got {acceleration}"
            )
        if max_velocity <= 0:
            raise ValueError(
                f"max_velocity must be positive, got {max_velocity}"
            )
        if settle_ms < 0:
            raise ValueError(
                f"settle must be non-negative, got {settle_ms}"
            )
        self.acceleration = acceleration
        self.max_velocity = max_velocity
        self.settle_ms = settle_ms
        self._share_table(acceleration, max_velocity, settle_ms)

    @property
    def coast_threshold_cylinders(self) -> float:
        """Distance above which the head saturates at max velocity."""
        return self.max_velocity ** 2 / self.acceleration

    def _time_for_distance(self, distance: int) -> float:
        if distance < self.coast_threshold_cylinders:
            return (
                2.0 * math.sqrt(distance / self.acceleration)
                + self.settle_ms
            )
        return (
            distance / self.max_velocity
            + self.max_velocity / self.acceleration
            + self.settle_ms
        )

    @classmethod
    def fit_published(
        cls,
        track_to_track_ms: float,
        average_ms: float,
        full_stroke_ms: float,
        cylinders: int,
    ) -> "TwoPhaseSeekModel":
        """Solve (a, v, settle) from the three published seek times.

        Assumes the average (one-third stroke) and full-stroke seeks
        are both velocity-limited, and the single-cylinder seek is
        acceleration-limited — true for every modern drive.
        """
        if not 0 < track_to_track_ms <= average_ms <= full_stroke_ms:
            raise ValueError(
                "need 0 < track_to_track <= average <= full_stroke"
            )
        d_avg = cylinders / 3.0
        d_full = float(cylinders - 1)
        # Two velocity-limited points give v and (v/a + settle).
        velocity = (d_full - d_avg) / (full_stroke_ms - average_ms)
        intercept = average_ms - d_avg / velocity  # = v/a + settle
        # The single-cylinder seek gives the remaining equation:
        #   t1 = 2*sqrt(1/a) + settle,  settle = intercept - v/a.
        # Solve for a by bisection on a in (v/intercept, inf).
        def settle_for(a: float) -> float:
            return intercept - velocity / a

        def t1_error(a: float) -> float:
            return (
                2.0 * math.sqrt(1.0 / a)
                + settle_for(a)
                - track_to_track_ms
            )

        # t1_error is increasing in a: at a_min (settle = 0) it is
        # 2/sqrt(a_min) - t1 (negative for real drives); as a → ∞ it
        # tends to intercept - t1 (positive when the published times
        # are consistent).  Bisect between them.
        a_min = velocity / intercept * 1.0000001  # settle just above 0
        if intercept <= track_to_track_ms or t1_error(a_min) >= 0:
            # Degenerate published numbers: fall back to a pure
            # acceleration fit of the single-cylinder time.
            acceleration = 4.0 / track_to_track_ms ** 2
            return cls(acceleration, velocity, 0.0)
        low, high = a_min, a_min * 2.0
        while t1_error(high) < 0:
            high *= 2.0
            if high > a_min * 1e12:  # pragma: no cover - numeric guard
                break
        for _ in range(200):
            mid = math.sqrt(low * high)
            if t1_error(mid) < 0:
                low = mid
            else:
                high = mid
        acceleration = math.sqrt(low * high)
        return cls(
            acceleration, velocity, max(0.0, settle_for(acceleration))
        )


class ThreePointSeekModel(SeekModel):
    """Curve fit through (1, t_track), (C/3, t_avg), (C-1, t_full).

    Parameters
    ----------
    track_to_track_ms:
        Published adjacent-cylinder seek time.
    average_ms:
        Published average seek time; by convention the time of a seek of
        one third of the full stroke.
    full_stroke_ms:
        Published end-to-end seek time.
    cylinders:
        Total cylinder count of the drive.
    """

    def __init__(
        self,
        track_to_track_ms: float,
        average_ms: float,
        full_stroke_ms: float,
        cylinders: int,
    ):
        super().__init__()
        if cylinders < 4:
            raise ValueError(f"need at least 4 cylinders, got {cylinders}")
        if not 0 < track_to_track_ms <= average_ms <= full_stroke_ms:
            raise ValueError(
                "need 0 < track_to_track <= average <= full_stroke, got "
                f"{track_to_track_ms}/{average_ms}/{full_stroke_ms}"
            )
        self.track_to_track_ms = track_to_track_ms
        self.average_ms = average_ms
        self.full_stroke_ms = full_stroke_ms
        self.cylinders = cylinders
        self._a, self._b, self._c = self._fit(
            track_to_track_ms, average_ms, full_stroke_ms, cylinders
        )
        self._share_table(
            track_to_track_ms, average_ms, full_stroke_ms, cylinders
        )

    @staticmethod
    def _fit(
        t1: float, tavg: float, tmax: float, cylinders: int
    ) -> Tuple[float, float, float]:
        """Solve the 3×3 linear system for (a, b, c)."""
        d1, d2, d3 = 1.0, max(2.0, cylinders / 3.0), float(cylinders - 1)
        rows = [
            (1.0, math.sqrt(d1), d1, t1),
            (1.0, math.sqrt(d2), d2, tavg),
            (1.0, math.sqrt(d3), d3, tmax),
        ]
        # Gaussian elimination on the tiny system (no numpy needed).
        m = [list(row) for row in rows]
        for col in range(3):
            pivot_row = max(range(col, 3), key=lambda r: abs(m[r][col]))
            m[col], m[pivot_row] = m[pivot_row], m[col]
            pivot = m[col][col]
            if abs(pivot) < 1e-12:
                raise ValueError("degenerate seek-curve fit")
            for r in range(3):
                if r == col:
                    continue
                factor = m[r][col] / pivot
                for k in range(col, 4):
                    m[r][k] -= factor * m[col][k]
        a = m[0][3] / m[0][0]
        b = m[1][3] / m[1][1]
        c = m[2][3] / m[2][2]
        return a, b, c

    @property
    def coefficients(self) -> Tuple[float, float, float]:
        return self._a, self._b, self._c

    def _time_for_distance(self, distance: int) -> float:
        if distance == 1:
            return self.track_to_track_ms
        value = (
            self._a + self._b * math.sqrt(distance) + self._c * distance
        )
        # The fit can dip slightly below the track-to-track time for very
        # short seeks; clamp so the curve stays monotone at the bottom.
        return max(value, self.track_to_track_ms)
