"""The paper campaign's plant: a 1-pod :class:`FleetPlant` on real hosts.

The paper site is one tent pod on two power feeds: feed 0 carries the
tent group, feed 1 the basement control group (:data:`FEED_GROUPS`).
All plant-fault and trip *state* -- the fault schedule, storms, repairs,
intake ice, airflow degradation, CRAC up/down, trip stages and the
survival census -- lives in the :class:`~repro.plant.fleet.FleetPlant`
this controller owns, the same state machine ``FleetScaleCampaign``
runs.  :class:`PlantController` only adapts it to the host model:

- it ticks on its own ``"plant.tick"`` engine key, right behind
  ``"fleet.tick"``, and snapshots with the campaign;
- it maps the plant's feed drops/restores and the trip's ``(shed,
  restore)`` lists onto :class:`~repro.hardware.host.Host` objects
  through the campaign's :class:`~repro.control.actuators.ActuatorBus`
  (lowest host id first, every transition a typed bus event);
- it hands the airflow degradation to the bus, which also owns the
  emergency flap because the thermostat commands it too, and mirrors
  CRAC up/down onto the basement machine room;
- it counts a ``HostFailed`` during an incident as a host lost.

With no plan and no policy the campaign never constructs a controller,
so the seeded baseline records stay byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.hardware.host import HostState
from repro.plant.faults import PlantFaultPlan
from repro.plant.fleet import FleetPlant
from repro.plant.trip import ThermalTripPolicy
from repro.sim.events import HostFailed, LoadRestored, LoadShed
from repro.state.protocol import check_version

if TYPE_CHECKING:
    from repro.control.actuators import ActuatorBus

#: Power-feed domains of the paper site: feed 0 carries the tent pod,
#: feed 1 the basement control group.
FEED_GROUPS: Tuple[str, ...] = ("tent", "basement")


class PlantController:
    """Host adapter running the paper site's plant as a 1-pod cohort."""

    STATE_VERSION = 2

    def __init__(
        self,
        sim,
        fleet,
        plan: Optional[PlantFaultPlan],
        policy: Optional[ThermalTripPolicy],
        start_s: float,
        bus=None,
        actuators: Optional["ActuatorBus"] = None,
    ) -> None:
        from repro.control.actuators import ActuatorBus

        self.sim = sim
        self.fleet = fleet
        # Physical actions route through the campaign's actuator bus; a
        # standalone controller (tests, ad-hoc harnesses) gets its own.
        self.actuators = actuators if actuators is not None else ActuatorBus(fleet)
        self.cohort = FleetPlant(
            plan, policy, n_pods=1, start_s=start_s, bus=bus,
            n_feeds=len(FEED_GROUPS),
        )
        self._last_now: Optional[float] = None
        self._tick_handle = None
        self._restore_task_id: Optional[int] = None
        self._intake = np.zeros(1)

        # Hosts this plant powered down, in shed order, per cause.
        self._shed_trip: List[int] = []
        self._shed_feed: List[List[int]] = [[] for _ in FEED_GROUPS]
        if bus is not None:
            bus.subscribe(HostFailed, self._on_host_failed)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def register_keys(self, sim) -> None:
        sim.register("plant.tick", self._tick)

    def start_ticking(self, start: float) -> None:
        """Begin the periodic plant loop at simulated time ``start``.

        Scheduled with the same period as (and right after) the fleet
        tick, so every plant decision sees freshly advanced enclosures.
        """
        if self._tick_handle is not None:
            raise RuntimeError("plant controller already ticking")
        self.register_keys(self.sim)
        self._tick_handle = self.sim.every_key(
            self.fleet.config.tick_interval_s,
            "plant.tick",
            start=start,
            label="plant-tick",
        )

    def rebind(self, sim) -> None:
        """Re-acquire the periodic tick handle after an engine load."""
        self.sim = sim
        if self._restore_task_id is not None:
            self._tick_handle = sim.periodic_task(int(self._restore_task_id))
            self._restore_task_id = None

    # ------------------------------------------------------------------
    # Census
    # ------------------------------------------------------------------
    @property
    def census(self) -> Dict[str, float]:
        return self.cohort.census

    def shed_host_count(self) -> int:
        return len(self._shed_trip) + sum(map(len, self._shed_feed))

    def _on_host_failed(self, event: HostFailed) -> None:
        now = self.sim.now
        cohort = self.cohort
        if (
            self.shed_host_count()
            or cohort.incident_pods(now).any()
            or (cohort.feed_until > now).any()
        ):
            cohort.hosts_lost += 1

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        dt = 0.0 if self._last_now is None else now - self._last_now
        self._last_now = now
        cohort = self.cohort
        cohort.host_hours_shed += self.shed_host_count() * dt / 3600.0

        if cohort.advance(now, dt, self.fleet.weather.sample(now).temp_c):
            self.actuators.set_plant_degradation(*cohort.airflow_inputs(0))
        for feed in cohort.feed_dropped_now:
            self._drop_feed(feed, now)
        for feed in cohort.feed_restored_now:
            self._power_up(self._shed_feed[feed], now, pod=feed, reason="feed")
            self._shed_feed[feed] = []
        self._mirror_crac(now)

        intake = self.fleet.tent.intake_temp_c
        if cohort.trip_idle(now, intake):
            return
        # The bus owns the flap: the trip machine sees its position and
        # any move it makes goes back through the bus.
        self._intake[0] = intake
        cohort.flap[0] = self.actuators.flap_open
        shed, restore = cohort.evaluate(now, dt, self._intake)
        self.actuators.set_flap(bool(cohort.flap[0]), now)
        for _pod, stage, fraction in shed:
            self._shed_stage(stage, fraction, now)
        if restore:
            self._power_up(self._shed_trip, now, pod=0, reason="trip")
            self._shed_trip = []

    def _mirror_crac(self, now: float) -> None:
        """Fail or repair the basement CRAC to match the plant."""
        basement = self.fleet.basement
        if self.cohort.crac_down(now):
            if basement.crac_operational:
                basement.fail_crac(now)
        elif not basement.crac_operational:
            basement.repair_crac(now)

    # -- host transitions ----------------------------------------------
    def _drop_feed(self, feed: int, now: float) -> None:
        shed = self._shed_feed[feed]
        for host in self.fleet.hosts_in_group(FEED_GROUPS[feed]):
            if host.state is HostState.RUNNING:
                self.actuators.power_down(host, now, reason="feed drop")
                shed.append(host.host_id)
        if shed:
            self.cohort.hosts_shed += len(shed)
            self.cohort.publish(
                LoadShed(time=now, pod=feed, hosts=len(shed), stage=0, reason="feed")
            )

    def _shed_stage(self, stage: int, fraction: float, now: float) -> None:
        """Power tent hosts down until the stage's shed fraction is met."""
        before = len(self._shed_trip)
        self.actuators.shed_lowest_first(
            self._shed_trip, fraction, now, group="tent", reason="thermal trip"
        )
        shed_now = len(self._shed_trip) - before
        if shed_now:
            self.cohort.hosts_shed += shed_now
            self.cohort.publish(
                LoadShed(time=now, pod=0, hosts=shed_now, stage=stage, reason="trip")
            )

    def _power_up(self, host_ids: List[int], now: float, pod: int, reason: str) -> None:
        """Power back up every host in ``host_ids`` that is still shed."""
        restored = 0
        for host_id in host_ids:
            host = self.fleet.host(host_id)
            if host.state is HostState.SHED:
                self.actuators.power_up(host, now)
                restored += 1
        if restored:
            self.cohort.hosts_restored += restored
            self.cohort.publish(
                LoadRestored(time=now, pod=pod, hosts=restored, reason=reason)
            )

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "version": self.STATE_VERSION,
            "last_now": self._last_now,
            "tick_task_id": (
                self._tick_handle.task_id if self._tick_handle is not None else None
            ),
            "cohort": self.cohort.state_dict(),
            "shed_trip": list(self._shed_trip),
            "shed_feed": [list(ids) for ids in self._shed_feed],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        # Version 1 held a second copy of the fault/trip state machine;
        # it is refused whole rather than half-loaded.
        check_version("PlantController", state, self.STATE_VERSION)
        self._last_now = state["last_now"]
        self._restore_task_id = state.get("tick_task_id")
        self.cohort.load_state_dict(state["cohort"])
        self._shed_trip = [int(v) for v in state["shed_trip"]]
        self._shed_feed = [[int(v) for v in ids] for ids in state["shed_feed"]]
