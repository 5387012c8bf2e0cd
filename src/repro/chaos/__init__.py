"""Seeded, replayable chaos engineering for the serve stack.

The package splits the same way :mod:`repro.faults` does:

* :mod:`repro.chaos.failpoints` — the zero-cost-when-disabled site
  facility threaded through the serve stack.
* :mod:`repro.chaos.plan` — versioned, validated, seed-generated
  chaos plans (what to inject, where, when).
* :mod:`repro.chaos.injector` — replays a plan at the failpoints,
  with cross-process applied-once latches.
* :mod:`repro.chaos.campaign` — the invariant-checked campaign loop
  behind ``python -m repro chaos``.
"""

from repro.chaos.failpoints import (
    FAILPOINT_SITES,
    NULL_FAILPOINTS,
    NullFailpoints,
)
from repro.chaos.injector import ChaosInjector, ChaosKill, applied_events
from repro.chaos.plan import (
    CHAOS_KINDS,
    KIND_SITES,
    SCENARIO_ALIASES,
    ChaosEvent,
    ChaosPlan,
    load_chaos_plan,
    validate_chaos_plan,
    write_chaos_plan,
)

# The campaign runner imports the serve stack, whose modules import
# repro.chaos.failpoints — a cycle if campaign loaded eagerly here.
# PEP 562 lazy attributes break it: the campaign module only loads on
# first access, long after both packages are initialised.
_CAMPAIGN_EXPORTS = ("CampaignResult", "resolve_scenarios", "run_campaign")


def __getattr__(name: str):
    if name in _CAMPAIGN_EXPORTS:
        from repro.chaos import campaign

        return getattr(campaign, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "CHAOS_KINDS",
    "CampaignResult",
    "ChaosEvent",
    "ChaosInjector",
    "ChaosKill",
    "ChaosPlan",
    "FAILPOINT_SITES",
    "KIND_SITES",
    "NULL_FAILPOINTS",
    "NullFailpoints",
    "SCENARIO_ALIASES",
    "applied_events",
    "load_chaos_plan",
    "resolve_scenarios",
    "run_campaign",
    "validate_chaos_plan",
    "write_chaos_plan",
]
