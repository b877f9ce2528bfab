"""The plant-fault and protective-trip state machine, one cohort of pods.

:class:`FleetPlant` is the only implementation of plant state in the
repository.  It owns the fault schedule cursor, storm sampling, fault
activation and repair expiry, intake ice, the composed per-pod airflow
factors, CRAC up/down, the per-pod trip stages and emergency flap, and
the survival-census counters.  ``FleetScaleCampaign`` runs it over
thousands of pods; the paper campaign runs it as a 1-pod cohort with
its two feed groups through :class:`~repro.plant.controller.PlantController`.
The caller calls :meth:`advance` once per frame (after weather, before
thermal) and :meth:`evaluate` after thermal, then acts on the feed
transitions and the ``(shed, restore)`` lists against its own hosts.

Both passes are vector arithmetic plus short python loops over
*transitions* (faults striking, trips firing), which are rare by
construction, and an idle frame skips most of it: expiry waits for the
earliest live repair deadline, airflow factors are only recomposed after
a transition, and trip evaluation returns at once while no pod is hot,
tripped or due to restore.

Determinism: storm coins are stateless (pure functions of
``(seed, kind, domain, day)``, see :class:`~repro.plant.faults.PlantStorm`),
scheduled faults are data, and nothing here touches the campaign's
pooled RNG -- so two runs with the same plan agree fault-for-fault
regardless of host count, job fan-out, or kill-and-resume.  The whole
object round-trips through :meth:`state_dict`/:meth:`load_state_dict`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.plant.faults import (
    BLOCKAGE_ACH_LOSS,
    BLOCKAGE_UA_LOSS,
    AIRFLOW_FLOOR,
    DAY_S,
    FAN_ACH_LOSS,
    FAN_UA_LOSS,
    FEED_GROUP_PODS,
    FLAP_ACH_GAIN,
    FLAP_UA_GAIN,
    ICE_ACCRETION_PER_H,
    ICE_SEVERITY_CAP,
    POD_SCOPED,
    PlantFault,
    PlantFaultKind,
    PlantFaultPlan,
)
from repro.plant.trip import ThermalTripPolicy
from repro.sim import events as ev
from repro.thermal.enclosure import crac_room_temp

_INACTIVE = -math.inf

#: The survival-census counters, in snapshot order.
CENSUS_FIELDS = (
    "faults_injected",
    "faults_repaired",
    "trips",
    "trip_clears",
    "hosts_shed",
    "hosts_restored",
    "host_hours_shed",
    "excursion_minutes",
    "hosts_lost",
)


class FleetPlant:
    """Plant state for one cohort of ``n_pods`` pods on ``n_feeds`` feeds.

    ``n_feeds`` comes from the caller's topology; it defaults to the
    fleet-scale grouping of :data:`~repro.plant.faults.FEED_GROUP_PODS`
    pods per feed.
    """

    STATE_VERSION = 1

    def __init__(
        self,
        plan: Optional[PlantFaultPlan],
        policy: Optional[ThermalTripPolicy],
        n_pods: int,
        start_s: float,
        bus: Optional[ev.EventBus] = None,
        n_feeds: Optional[int] = None,
    ) -> None:
        self.plan = plan if plan is not None else PlantFaultPlan()
        self.policy = policy
        self.n_pods = int(n_pods)
        if n_feeds is None:
            n_feeds = (self.n_pods + FEED_GROUP_PODS - 1) // FEED_GROUP_PODS
        self.n_feeds = int(n_feeds)
        self._start_s = float(start_s)
        self.bus = bus

        # Airflow faults: per-pod (targeted / storm strikes) plus one
        # site-wide channel per kind (scheduled faults with pod=None).
        self.fan_until = np.full(self.n_pods, _INACTIVE)
        self.fan_severity = np.zeros(self.n_pods)
        self.block_until = np.full(self.n_pods, _INACTIVE)
        self.block_severity = np.zeros(self.n_pods)
        self.fan_all_until = _INACTIVE
        self.fan_all_severity = 0.0
        self.block_all_until = _INACTIVE
        self.block_all_severity = 0.0

        # Power feeds, CRAC, intake heater (site scalars).
        self.feed_until = np.full(self.n_feeds, _INACTIVE)
        self.crac_until = _INACTIVE
        self.crac_recovering = False
        self.heater_until = _INACTIVE
        self.ice_severity = 0.0

        # Protective-trip state machine, per pod.
        self.tripped = np.zeros(self.n_pods, dtype=np.bool_)
        self.stage = np.zeros(self.n_pods, dtype=np.int8)
        self.stage_deadline = np.full(self.n_pods, np.inf)
        self.restore_at = np.full(self.n_pods, np.inf)
        self.flap = np.zeros(self.n_pods, dtype=np.bool_)

        # Composed airflow inputs and factors, recomputed only after a
        # transition (a strike, a repair, ice growth, a flap move).
        self.fan_level = np.zeros(self.n_pods)
        self.block_level = np.zeros(self.n_pods)
        self.ua_factor = np.ones(self.n_pods)
        self.ach_factor = np.ones(self.n_pods)
        self._factors_stale = False

        #: Intake line for excursion minutes and trips (45 degC unarmed).
        self.excursion_c = policy.trip_c if policy is not None else 45.0

        # Idle-frame gates: no repair falls due before _next_deadline, and
        # with no pod hot or tripped the trip state machine has nothing
        # to do before the earliest cool-down ends (_next_restore).
        self._next_deadline = math.inf
        self._tripped_any = False
        self._next_restore = math.inf

        # Fault-schedule cursors.
        self._next_fault = 0  # into plan.faults (sorted by start_day)
        self._storm_day = 0  # next day index to sample
        self._pending: List[Tuple[float, PlantFault]] = []

        # Feed transitions from the last advance (feed indices), and the
        # feeds' down mask from before its first feed strike.
        self.feed_dropped_now: List[int] = []
        self.feed_restored_now: List[int] = []
        self._feed_was_down: Optional[np.ndarray] = None

        # Survival census counters (CENSUS_FIELDS).
        self.faults_injected = 0
        self.faults_repaired = 0
        self.trips = 0
        self.trip_clears = 0
        self.hosts_shed = 0
        self.hosts_restored = 0
        self.host_hours_shed = 0.0
        self.excursion_minutes = 0.0
        self.hosts_lost = 0

    @property
    def census(self) -> Dict[str, float]:
        """The survival-census counters by name."""
        return {name: getattr(self, name) for name in CENSUS_FIELDS}

    # ------------------------------------------------------------------
    # Fault schedule
    # ------------------------------------------------------------------
    def publish(self, event: ev.Event) -> None:
        if self.bus is not None:
            self.bus.publish(event)

    def _storm_domains(self, kind: PlantFaultKind) -> range:
        if kind in POD_SCOPED:
            return range(self.n_pods)
        if kind is PlantFaultKind.FEED_DROP:
            return range(self.n_feeds)
        return range(1)  # site-scoped: one coin per day

    def _sample_storms(self, now: float) -> None:
        """Flip the daily coins for every campaign day reached so far."""
        day = int((now - self._start_s) // DAY_S)
        sampled = False
        while self._storm_day <= day:
            d = self._storm_day
            for storm in self.plan.storms:
                for domain in self._storm_domains(storm.kind):
                    fault = storm.fault_for(domain, d)
                    if fault is not None:
                        start = self._start_s + fault.start_s
                        self._pending.append((start, fault))
                        sampled = True
            self._storm_day += 1
        if sampled:
            self._pending.sort(
                key=lambda item: (
                    item[0],
                    item[1].kind.value,
                    -1 if item[1].pod is None else item[1].pod,
                    -1 if item[1].feed is None else item[1].feed,
                )
            )

    def _activate(self, fault: PlantFault, start: float, now: float) -> None:
        """Apply one fault whose start time has arrived."""
        until = start + fault.repair_s
        if until <= now:
            return  # struck and repaired entirely between frames
        kind = fault.kind
        domain = -1
        if kind in POD_SCOPED and fault.pod is not None:
            if fault.pod >= self.n_pods:
                return  # targets a pod this cohort does not have
            domain = fault.pod
            fan = kind is PlantFaultKind.FAN_FAILURE
            until_arr = self.fan_until if fan else self.block_until
            severity_arr = self.fan_severity if fan else self.block_severity
            until_arr[domain] = max(until_arr[domain], until)
            severity_arr[domain] = max(severity_arr[domain], fault.severity)
        elif kind is PlantFaultKind.FAN_FAILURE:
            self.fan_all_until = max(self.fan_all_until, until)
            self.fan_all_severity = max(self.fan_all_severity, fault.severity)
        elif kind is PlantFaultKind.INTAKE_BLOCKAGE:
            self.block_all_until = max(self.block_all_until, until)
            self.block_all_severity = max(self.block_all_severity, fault.severity)
        elif kind is PlantFaultKind.CRAC_OUTAGE:
            self.crac_until = max(self.crac_until, until)
            self.crac_recovering = False
        elif kind is PlantFaultKind.HEATER_LOSS:
            self.heater_until = max(self.heater_until, until)
        elif kind is PlantFaultKind.FEED_DROP:
            if fault.feed is not None and fault.feed >= self.n_feeds:
                return
            if self._feed_was_down is None:
                self._feed_was_down = self.feed_until > now
            if fault.feed is None:
                self.feed_until[:] = np.maximum(self.feed_until, until)
            else:
                domain = fault.feed
                self.feed_until[domain] = max(self.feed_until[domain], until)
        self._next_deadline = min(self._next_deadline, until)
        self._factors_stale = True
        self.faults_injected += 1
        self.publish(
            ev.PlantFaultInjected(
                time=now,
                kind=kind.value,
                domain=domain,
                severity=fault.severity,
                repair_s=fault.repair_s,
            )
        )

    def _expire(self, now: float) -> None:
        """Lift faults whose repair time has passed, publishing repairs."""
        for arr_until, arr_sev, kind in (
            (self.fan_until, self.fan_severity, PlantFaultKind.FAN_FAILURE),
            (self.block_until, self.block_severity, PlantFaultKind.INTAKE_BLOCKAGE),
        ):
            expired = np.isfinite(arr_until) & (arr_until <= now)
            for pod in np.flatnonzero(expired):
                self.faults_repaired += 1
                self.publish(
                    ev.PlantFaultRepaired(time=now, kind=kind.value, domain=int(pod))
                )
            arr_until[expired] = _INACTIVE
            arr_sev[expired] = 0.0
        if math.isfinite(self.fan_all_until) and self.fan_all_until <= now:
            self.fan_all_until = _INACTIVE
            self.fan_all_severity = 0.0
            self.faults_repaired += 1
            self.publish(ev.PlantFaultRepaired(time=now, kind="fan", domain=-1))
        if math.isfinite(self.block_all_until) and self.block_all_until <= now:
            self.block_all_until = _INACTIVE
            self.block_all_severity = 0.0
            self.faults_repaired += 1
            self.publish(ev.PlantFaultRepaired(time=now, kind="intake", domain=-1))
        if math.isfinite(self.crac_until) and self.crac_until <= now:
            self.crac_until = _INACTIVE
            self.crac_recovering = True
            self.faults_repaired += 1
            self.publish(ev.PlantFaultRepaired(time=now, kind="crac", domain=-1))
        if math.isfinite(self.heater_until) and self.heater_until <= now:
            self.heater_until = _INACTIVE
            self.ice_severity = 0.0  # crew clears the accreted ice too
            self.faults_repaired += 1
            self.publish(ev.PlantFaultRepaired(time=now, kind="heater", domain=-1))
        expired = np.isfinite(self.feed_until) & (self.feed_until <= now)
        for feed in np.flatnonzero(expired):
            self.faults_repaired += 1
            self.feed_restored_now.append(int(feed))
            self.publish(
                ev.PlantFaultRepaired(time=now, kind="feed", domain=int(feed))
            )
        self.feed_until[expired] = _INACTIVE
        self._next_deadline = self._earliest_deadline()
        self._factors_stale = True

    def _earliest_deadline(self) -> float:
        """The soonest live repair deadline (``inf`` with nothing active)."""
        scalars = (
            self.fan_all_until, self.block_all_until, self.crac_until, self.heater_until
        )
        deadlines = np.concatenate(
            (self.fan_until, self.block_until, self.feed_until, scalars)
        )
        live = deadlines[deadlines != _INACTIVE]
        return float(live.min()) if live.size else math.inf

    def advance(self, now: float, dt_s: float, outside_c: float) -> bool:
        """One frame of fault-schedule progress.

        Samples any newly reached storm days, activates due faults,
        expires due repairs, accretes intake ice when the heater is
        down in sub-zero air, and recomposes the per-pod airflow
        factors if any of that changed them (then returns True).  Feed
        transitions land in :attr:`feed_dropped_now` /
        :attr:`feed_restored_now` for the campaign to act on.
        """
        self.feed_dropped_now = []
        self.feed_restored_now = []
        self._sample_storms(now)

        faults = self.plan.faults
        while self._next_fault < len(faults):
            fault = faults[self._next_fault]
            start = self._start_s + fault.start_s
            if start > now:
                break
            self._activate(fault, start, now)
            self._next_fault += 1
        while self._pending and self._pending[0][0] <= now:
            start, fault = self._pending.pop(0)
            self._activate(fault, start, now)
        if now >= self._next_deadline:
            self._expire(now)

        if self._feed_was_down is not None:
            feed_down = self.feed_until > now
            for feed in np.flatnonzero(feed_down & ~self._feed_was_down):
                self.feed_dropped_now.append(int(feed))
            self._feed_was_down = None

        # Ice accretion on the unheated intake path.
        if self.heater_until > now and outside_c < 0.0:
            self.ice_severity = min(
                ICE_SEVERITY_CAP,
                self.ice_severity + ICE_ACCRETION_PER_H * dt_s / 3600.0,
            )
            self._factors_stale = True

        if not self._factors_stale:
            return False
        self._compose_factors(now)
        return True

    def _compose_factors(self, now: float) -> None:
        fan = np.where(self.fan_until > now, self.fan_severity, 0.0)
        if self.fan_all_until > now:
            fan = np.maximum(fan, self.fan_all_severity)
        block = np.where(self.block_until > now, self.block_severity, 0.0)
        if self.block_all_until > now:
            block = np.maximum(block, self.block_all_severity)
        ua = (1.0 - FAN_UA_LOSS * fan) * (1.0 - BLOCKAGE_UA_LOSS * block)
        ach = (1.0 - FAN_ACH_LOSS * fan) * (1.0 - BLOCKAGE_ACH_LOSS * block)
        if self.ice_severity > 0.0:
            ua *= 1.0 - BLOCKAGE_UA_LOSS * self.ice_severity
            ach *= 1.0 - BLOCKAGE_ACH_LOSS * self.ice_severity
        if self.flap.any():
            ua = np.where(self.flap, ua * FLAP_UA_GAIN, ua)
            ach = np.where(self.flap, ach * FLAP_ACH_GAIN, ach)
        self.fan_level = fan
        self.block_level = block
        self.ua_factor = np.maximum(ua, AIRFLOW_FLOOR)
        self.ach_factor = np.maximum(ach, AIRFLOW_FLOOR)
        self._factors_stale = False

    def airflow_inputs(self, pod: int) -> Tuple[float, float, float]:
        """One pod's composed ``(fan, blockage, ice)`` severities."""
        fan, block = self.fan_level[pod], self.block_level[pod]
        return float(fan), float(block), self.ice_severity

    @property
    def degraded(self) -> bool:
        """True when any airflow factor differs from 1.0 (fast-path gate)."""
        return bool(
            (self.ua_factor != 1.0).any() or (self.ach_factor != 1.0).any()
        )

    # ------------------------------------------------------------------
    # CRAC consequences
    # ------------------------------------------------------------------
    def crac_down(self, now: float) -> bool:
        return self.crac_until > now

    def basement_temp(
        self, now: float, dt_s: float, prev_c: float, analytic_c: float,
        outside_c: float,
    ) -> float:
        """Machine-room temperature given the CRAC's state.

        Healthy: the analytic setpoint curve, untouched (the byte-
        identity fast path).  Otherwise the room drifts as
        :func:`~repro.thermal.enclosure.crac_room_temp` says.
        """
        temp, self.crac_recovering = crac_room_temp(
            prev_c, analytic_c, outside_c, dt_s, self.crac_down(now),
            self.crac_recovering,
        )
        return temp

    # ------------------------------------------------------------------
    # Protective trips
    # ------------------------------------------------------------------
    def evaluate(
        self, now: float, dt_s: float, pod_intake_c: np.ndarray
    ) -> Tuple[List[Tuple[int, int, float]], List[int]]:
        """Run the trip state machine against this frame's pod intakes.

        Returns ``(shed, restore)``: ``shed`` lists ``(pod, stage,
        cumulative_fraction)`` for pods whose shedding should be
        (re)applied, ``restore`` lists pods whose trip-shed hosts are
        due to power back up.
        """
        if self.trip_idle(now, float(pod_intake_c.max())):
            return [], []
        pol = self.policy
        hot = pod_intake_c >= self.excursion_c
        n_hot = np.count_nonzero(hot)
        if n_hot:
            self.excursion_minutes += float(n_hot) * dt_s / 60.0
        if pol is None:
            return [], []

        shed: List[Tuple[int, int, float]] = []
        restore: List[int] = []
        intake = pod_intake_c

        fire = (~self.tripped) & hot
        for pod in np.flatnonzero(fire):
            p = int(pod)
            self.tripped[p] = True
            if self.stage[p] == 0:
                self.stage[p] = 1
            self.stage_deadline[p] = now + pol.stage_hold_s
            self.restore_at[p] = np.inf
            self.trips += 1
            stage = int(self.stage[p])
            self.publish(
                ev.ThermalTrip(
                    time=now, pod=p, intake_c=float(intake[p]), stage=stage
                )
            )
            if pol.emergency_flap and not self.flap[p]:
                self.flap[p] = True
                self._factors_stale = True
                self.publish(ev.EmergencyFlapOpened(time=now, pod=p))
            shed.append((p, stage, pol.stage_fraction(stage)))

        escalate = (
            self.tripped
            & hot
            & (self.stage_deadline <= now)
            & (self.stage < pol.max_stage)
        )
        for pod in np.flatnonzero(escalate):
            p = int(pod)
            self.stage[p] += 1
            self.stage_deadline[p] = now + pol.stage_hold_s
            stage = int(self.stage[p])
            self.publish(
                ev.ThermalTrip(
                    time=now, pod=p, intake_c=float(intake[p]), stage=stage
                )
            )
            shed.append((p, stage, pol.stage_fraction(stage)))

        clear = self.tripped & (intake <= pol.clear_c)
        for pod in np.flatnonzero(clear):
            p = int(pod)
            self.tripped[p] = False
            self.stage_deadline[p] = np.inf
            self.restore_at[p] = now + pol.cooldown_s
            self.trip_clears += 1
            self.publish(
                ev.ThermalTripCleared(time=now, pod=p, intake_c=float(intake[p]))
            )
            if self.flap[p]:
                self.flap[p] = False
                self.publish(ev.EmergencyFlapClosed(time=now, pod=p))

        due = (~self.tripped) & (self.stage > 0) & (self.restore_at <= now)
        for pod in np.flatnonzero(due):
            p = int(pod)
            self.stage[p] = 0
            self.restore_at[p] = np.inf
            restore.append(p)

        if clear.any() or due.any():
            self._compose_factors(now)  # flap changes feed back into airflow
        self._update_trip_gates()
        return shed, restore

    def trip_idle(self, now: float, hottest_c: float) -> bool:
        """Would :meth:`evaluate` do nothing this frame?

        True while the hottest pod intake is below :attr:`excursion_c`,
        no pod is tripped and no cool-down has run out: then nothing can
        fire, escalate, clear, restore or count as an excursion.
        """
        return (
            hottest_c < self.excursion_c
            and not self._tripped_any
            and now < self._next_restore
        )

    def _update_trip_gates(self) -> None:
        self._tripped_any = bool(self.tripped.any())
        self._next_restore = float(self.restore_at.min())

    def incident_pods(self, now: float) -> np.ndarray:
        """Pods currently inside an incident (for loss attribution)."""
        active = (
            (self.fan_until > now)
            | (self.block_until > now)
            | self.tripped
            | (self.stage > 0)
        )
        if (
            self.fan_all_until > now
            or self.block_all_until > now
            or self.crac_until > now
            or self.heater_until > now
        ):
            active = np.ones(self.n_pods, dtype=np.bool_)
            return active
        feed_down = self.feed_until > now
        if feed_down.any():
            pod_feed = np.arange(self.n_pods) // FEED_GROUP_PODS
            active = active | feed_down[pod_feed]
        return active

    # ------------------------------------------------------------------
    # Snapshot plane
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        from repro.state.codec import encode_value, pack_bools, pack_floats, pack_ints

        return {
            "version": self.STATE_VERSION,
            "fan_until": pack_floats(self.fan_until.tolist()),
            "fan_severity": pack_floats(self.fan_severity.tolist()),
            "block_until": pack_floats(self.block_until.tolist()),
            "block_severity": pack_floats(self.block_severity.tolist()),
            "fan_all": [self.fan_all_until, self.fan_all_severity],
            "block_all": [self.block_all_until, self.block_all_severity],
            "feed_until": pack_floats(self.feed_until.tolist()),
            "crac": [self.crac_until, bool(self.crac_recovering)],
            "heater": [self.heater_until, self.ice_severity],
            "tripped": pack_bools(self.tripped.tolist()),
            "stage": pack_ints(self.stage.tolist()),
            "stage_deadline": pack_floats(self.stage_deadline.tolist()),
            "restore_at": pack_floats(self.restore_at.tolist()),
            "flap": pack_bools(self.flap.tolist()),
            "cursor": [self._next_fault, self._storm_day],
            "pending": [
                [start, encode_value(fault)] for start, fault in self._pending
            ],
            "census": [getattr(self, name) for name in CENSUS_FIELDS],
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        from repro.state.codec import (
            decode_value,
            unpack_bools,
            unpack_floats,
            unpack_ints,
        )
        from repro.state.protocol import check_version

        check_version("FleetPlant", state, self.STATE_VERSION)
        self.fan_until = np.array(unpack_floats(state["fan_until"]))
        self.fan_severity = np.array(unpack_floats(state["fan_severity"]))
        self.block_until = np.array(unpack_floats(state["block_until"]))
        self.block_severity = np.array(unpack_floats(state["block_severity"]))
        self.fan_all_until, self.fan_all_severity = state["fan_all"]
        self.block_all_until, self.block_all_severity = state["block_all"]
        self.feed_until = np.array(unpack_floats(state["feed_until"]))
        self.crac_until, self.crac_recovering = state["crac"]
        self.heater_until, self.ice_severity = state["heater"]
        self.tripped = np.array(unpack_bools(state["tripped"]), dtype=np.bool_)
        self.stage = np.array(unpack_ints(state["stage"]), dtype=np.int8)
        self.stage_deadline = np.array(unpack_floats(state["stage_deadline"]))
        self.restore_at = np.array(unpack_floats(state["restore_at"]))
        self.flap = np.array(unpack_bools(state["flap"]), dtype=np.bool_)
        self._next_fault, self._storm_day = (int(c) for c in state["cursor"])
        self._pending = [
            (float(start), decode_value(fault))
            for start, fault in state["pending"]
        ]
        for name, value in zip(CENSUS_FIELDS, state["census"]):
            setattr(self, name, value)
        self.feed_dropped_now = []
        self.feed_restored_now = []
        self._feed_was_down = None
        self._next_deadline = self._earliest_deadline()
        self._update_trip_gates()
        self._compose_factors(-math.inf)
