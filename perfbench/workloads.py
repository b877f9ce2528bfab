"""The benchmark's three workloads.

Each workload is one unit of closed-loop batch work on one thread:
``setup`` builds a runnable simulation from the workload seed, ``run``
drives it to the workload's horizon (the timed span), and ``check``
verifies the outputs and returns the deterministic work counters.

- ``paper-season``: the default 19-host seed campaign over the whole
  season.  Event-bound; the engine, hardware, workload, monitoring,
  climate and thermal layers carry it, while plant, control and state
  stay idle.
- ``fleet-100k``: the vectorized 100k-host cohort over a week.  About 120
  engine events per simulated day; never touches ``Host``, the archiver
  or the monitoring host, so per-object work cannot move it while array
  work in ``core.fleetscale`` and ``thermal.vectorized`` does.
- ``chaos-resume``: the paper campaign with plant faults, protective
  trips and the thermostat controller, checkpointed weekly, then resumed
  from the mid-season checkpoint to the horizon.  The only workload on
  which plant, control and state run.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Any, Dict, List

from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.core.fleetscale import FleetScaleCampaign
from repro.plant.faults import PlantFaultPlan
from repro.plant.trip import ThermalTripPolicy
from repro.runner.records import record_from_results
from repro.state.checkpoint import read_checkpoint

DAY_S = 86_400.0
PAPER_HOSTS = 19

FLEET_HOSTS = 100_000
FLEET_DAYS = 7.0

#: The chaos plan: a CRAC outage, a full intake blockage, a drop of the
#: tent's power feed (feed 0) and a fan-failure storm.
CHAOS_PLAN = (
    "crac:outage@day20,repair=12h;"
    "intake:blockage@day35,repair=18h,severity=1.0;"
    "feed:drop@day50,feed=0,repair=6h;"
    "storm:fan:0.05,seed=3"
)
CHAOS_TRIP = "trip=32,clear=27,shed=0.5+1.0,hold=1h,cooldown=6h"
CHAOS_CONTROLLER = "thermostat"
CHECKPOINT_EVERY_S = 7 * DAY_S


class NullTracer:
    """Stand-in for :class:`~layers.LayerTracer` on untraced units."""

    def install(self):
        pass

    def uninstall(self):
        pass

    def call(self, name, layer, fn, *args):
        return fn(*args)

    def telemetry(self):
        return None


def record_digest(seed: int, results) -> str:
    """sha256 of the run record's canonical JSON (the pinned-digest recipe)."""
    record = record_from_results(seed, results)
    return hashlib.sha256(record.canonical_json().encode("utf-8")).hexdigest()


def canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def campaign_counters(campaign: Campaign) -> Dict[str, int]:
    """Deterministic work counters a finished 19-host campaign exposes."""
    return {
        "sim.events_fired": campaign.sim.events_fired,
        "sim.events_cancelled": campaign.sim.events_cancelled,
        "sim.heap_compactions": campaign.sim.heap_compactions,
        "workload.cycles": campaign.fleet.ledger.total_runs,
        "monitoring.rounds_kept": len(campaign.monitoring.rounds),
        "monitoring.lascar_readings": len(campaign.lascar.readings),
        "monitoring.power_readings": len(campaign.powermeter.readings),
        "monitoring.webcam_frames": len(campaign.webcam.frames),
        "climate.station_readings": len(campaign.station.readings),
        "hardware.fault_events": len(campaign.fault_log.events),
    }


class Workload:
    """One named workload: ``setup`` -> ``run`` (timed) -> ``check``."""

    name = ""
    hosts = 0

    def __init__(self, pins: Dict[str, Any], workdir: str) -> None:
        self.pins = pins.get(self.name, {})
        self.workdir = workdir

    def horizon(self, seed: int) -> str:
        raise NotImplementedError

    def setup(self, seed: int, tracer) -> Any:
        raise NotImplementedError

    def run(self, state: Any, tracer) -> Any:
        raise NotImplementedError

    def check(self, seed: int, state: Any, out: Any) -> Dict[str, Any]:
        """Verify the outputs; returns ``{"counters", "sim_days", "failures"}``."""
        raise NotImplementedError


class PaperSeason(Workload):
    name = "paper-season"
    hosts = PAPER_HOSTS

    def horizon(self, seed: int) -> str:
        return ExperimentConfig(seed=seed).end_date.isoformat()

    def setup(self, seed, tracer):
        return CampaignBuilder(ExperimentConfig(seed=seed)).build()

    def run(self, campaign, tracer):
        return campaign.run()

    def check(self, seed, campaign, results):
        failures: List[str] = []
        digest = record_digest(seed, results)
        pinned = self.pins.get(str(seed))
        if digest != pinned:
            failures.append(f"record digest {digest} != pinned {pinned}")
        return {
            "counters": campaign_counters(campaign),
            "sim_days": campaign.sim.now / DAY_S,
            "failures": failures,
        }


class Fleet100k(Workload):
    name = "fleet-100k"
    hosts = FLEET_HOSTS

    def horizon(self, seed: int) -> str:
        start = ExperimentConfig(seed=seed).test_start.isoformat()
        return f"{start} + {FLEET_DAYS:g} days"

    def setup(self, seed, tracer):
        return FleetScaleCampaign(
            FLEET_HOSTS, ExperimentConfig(seed=seed), telemetry=tracer.telemetry()
        )

    def run(self, fleet, tracer):
        return fleet.run(FLEET_DAYS)

    def check(self, seed, fleet, summary):
        failures: List[str] = []
        pinned = self.pins.get(str(seed))
        if pinned is None or canonical(summary) != canonical(pinned):
            failures.append(f"summary {canonical(summary)} != pinned {canonical(pinned)}")
        engine = summary["engine"]
        return {
            "counters": {
                "sim.events_fired": engine["events_fired"],
                "sim.heap_compactions": engine["heap_compactions"],
                "fleetscale.frames": engine["frames"],
                "fleetscale.monitor_rounds": summary["monitor_rounds"],
            },
            "sim_days": summary["simulated_s"] / DAY_S,
            "failures": failures,
        }


class ChaosResume(Workload):
    name = "chaos-resume"
    hosts = PAPER_HOSTS

    def horizon(self, seed: int) -> str:
        end = ExperimentConfig(seed=seed).end_date.isoformat()
        return f"{end}, resumed from the mid-season checkpoint"

    def setup(self, seed, tracer):
        return (
            CampaignBuilder(ExperimentConfig(seed=seed))
            .with_plant_faults(PlantFaultPlan.parse(CHAOS_PLAN))
            .with_trip_policy(ThermalTripPolicy.parse(CHAOS_TRIP))
            .with_controller(CHAOS_CONTROLLER)
            .build()
        )

    def run(self, campaign, tracer):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            results = campaign.run(
                checkpoint_every=CHECKPOINT_EVERY_S, checkpoint_dir=self.workdir
            )
            paths = campaign.checkpoints_written
            checkpoint_bytes = sum(os.path.getsize(p) for p in paths)
            mid = paths[len(paths) // 2]
            snapshot = tracer.call("read_checkpoint", "state.read", read_checkpoint, mid)
            resumed = tracer.call("Campaign.restore", "state.restore", Campaign.restore, snapshot)
            resumed_results = resumed.continue_run()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return {
            "results": results,
            "resumed": resumed,
            "resumed_results": resumed_results,
            "cut_s": snapshot.sim_time,
            "cut_events": snapshot.components["engine"]["events_fired"],
            "checkpoints": len(paths),
            "checkpoint_bytes": checkpoint_bytes,
        }

    def check(self, seed, campaign, out):
        failures: List[str] = []
        resumed = out["resumed"]
        whole = record_from_results(seed, out["results"]).canonical_json()
        again = record_from_results(seed, out["resumed_results"]).canonical_json()
        if whole != again:
            failures.append("resumed record differs from the uninterrupted record")
        if resumed.plant.census != campaign.plant.census:
            failures.append("resumed plant census differs from the uninterrupted one")
        if resumed.sim.events_fired != campaign.sim.events_fired:
            failures.append("resumed run fired a different number of events")
        census = campaign.plant.census
        for field in ("faults_injected", "trips", "hosts_shed"):
            if census[field] < 1:
                failures.append(f"plant census {field} = {census[field]}: plant not exercised")
        counters = campaign_counters(campaign)
        continued = resumed.sim.events_fired - out["cut_events"]
        counters.update({
            "sim.events_fired": campaign.sim.events_fired + continued,
            "resume.events_fired": continued,
            "plant.faults_injected": int(census["faults_injected"]),
            "plant.trips": int(census["trips"]),
            "plant.hosts_shed": int(census["hosts_shed"]),
            "plant.hosts_lost": int(census["hosts_lost"]),
            "control.ticks_total": campaign.control.ticks,
            "control.actions": campaign.control.actuators.actions_applied,
            "state.checkpoints_written": out["checkpoints"],
            "state.checkpoint_bytes": out["checkpoint_bytes"],
        })
        season_s = campaign.sim.now
        return {
            "counters": counters,
            "sim_days": (season_s + season_s - out["cut_s"]) / DAY_S,
            "failures": failures,
        }


WORKLOADS = {w.name: w for w in (PaperSeason, Fleet100k, ChaosResume)}
