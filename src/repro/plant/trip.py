"""Protective thermal trips: overtemp thresholds, staged shedding.

A :class:`ThermalTripPolicy` is the plant's last line of defence when
chaos (or just weather) pushes a pod's intake past safe limits.  The
state machine per pod:

- **armed** — intake below ``trip_c``; nothing happens.
- **tripped** — intake crossed ``trip_c``: publish a ``ThermalTrip``,
  open the emergency flap (if configured), and shed the first stage of
  load (power hosts down, lowest host index first).
- **escalate** — still above ``trip_c`` after ``stage_hold_s``: shed
  the next stage.  Stages are cumulative fractions of the pod's tent
  hosts, running or not: a stage with fraction ``f`` keeps
  ``ceil(f * tent hosts in the pod)`` hosts shed.  The last stage is
  usually 1.0 (everything off).
- **clear** — intake fell below ``clear_c`` (hysteresis gap): publish
  ``ThermalTripCleared``, close the flap, and arm a restore timer.
- **restore** — ``cooldown_s`` after clearing, shed hosts power back
  up (``LoadRestored``).

The policy object itself is a frozen value: all mutable state lives in
:class:`~repro.plant.fleet.FleetPlant` so it snapshots with the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.plant.faults import _parse_duration, _parse_float


@dataclass(frozen=True)
class ThermalTripPolicy:
    """Intake-overtemp protection with hysteresis and staged shedding."""

    trip_c: float = 45.0
    clear_c: float = 38.0
    shed_stages: Tuple[float, ...] = (0.5, 1.0)
    stage_hold_s: float = 1800.0
    cooldown_s: float = 3600.0
    emergency_flap: bool = True

    def __post_init__(self) -> None:
        if self.clear_c >= self.trip_c:
            raise ValueError(
                "clear_c must be below trip_c (hysteresis gap required)"
            )
        if not self.shed_stages:
            raise ValueError("at least one shed stage is required")
        previous = 0.0
        for stage in self.shed_stages:
            if not previous < stage <= 1.0:
                raise ValueError(
                    "shed_stages must be increasing fractions in (0, 1]"
                )
            previous = stage
        if self.stage_hold_s <= 0.0:
            raise ValueError("stage_hold_s must be positive")
        if self.cooldown_s < 0.0:
            raise ValueError("cooldown_s must be >= 0")

    @property
    def max_stage(self) -> int:
        return len(self.shed_stages)

    def stage_fraction(self, stage: int) -> float:
        """Cumulative shed fraction for 1-based ``stage`` (clamped)."""
        if stage <= 0:
            return 0.0
        return self.shed_stages[min(stage, self.max_stage) - 1]

    @classmethod
    def parse(cls, text: str) -> "ThermalTripPolicy":
        """Parse the CLI grammar, e.g.

        ``trip=45,clear=38,shed=0.5+1.0,hold=30m,cooldown=1h,flap=on``

        Every key is optional; omitted keys keep their defaults.  An
        empty string yields the default policy.
        """
        values = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"expected key=value in trip-policy clause {part!r}"
                )
            key, _, raw = part.partition("=")
            key = key.strip().lower()
            raw = raw.strip()
            if key == "trip":
                values["trip_c"] = _parse_float(raw, part)
            elif key == "clear":
                values["clear_c"] = _parse_float(raw, part)
            elif key == "shed":
                values["shed_stages"] = tuple(
                    _parse_float(s, part) for s in raw.split("+") if s
                )
            elif key == "hold":
                values["stage_hold_s"] = _parse_duration(raw, part)
            elif key == "cooldown":
                values["cooldown_s"] = _parse_duration(raw, part)
            elif key == "flap":
                if raw.lower() not in ("on", "off"):
                    raise ValueError(
                        f"flap must be on or off in clause {part!r}"
                    )
                values["emergency_flap"] = raw.lower() == "on"
            else:
                raise ValueError(
                    f"unknown trip-policy key {key!r} "
                    "(allowed: trip, clear, shed, hold, cooldown, flap)"
                )
        return cls(**values)
