"""One fault plan through both simulators: the same plant events.

The paper campaign runs its plant as a 1-pod cohort of the same
:class:`~repro.plant.fleet.FleetPlant` that ``FleetScaleCampaign`` runs,
so a plan parsed once must strike and repair the same faults, in the
same order and with the same payloads, in the 19-host paper campaign and
in a one-pod fleet-scale cohort.  Thermal outcomes differ (the two
simulators model the tent differently); the fault sequence may not.
"""

import datetime as dt

from repro.core.builder import CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.core.fleetscale import FleetScaleCampaign
from repro.plant.faults import PlantFaultPlan
from repro.sim import events as ev
from repro.sim.events import EventRecorder

PLAN = (
    "fan:failure@day1,repair=8h; "
    "intake:blockage@day2,pod=0,repair=6h; "
    "heater:loss@day3,repair=12h; "
    "crac:outage@day4,repair=6h; "
    "feed:drop@day5,feed=0,repair=4h; "
    "storm:intake:0.3,seed=5"
)
DAYS = 8.0
#: DAYS past the paper campaign's test_start (2010-02-19 12:00).
UNTIL = dt.datetime(2010, 2, 27, 12, 0)


def _paper_recorder(plan, until=UNTIL):
    campaign = (
        CampaignBuilder(ExperimentConfig(seed=7))
        .with_plant_faults(PlantFaultPlan.parse(plan))
        .build()
    )
    recorder = EventRecorder()
    recorder.attach(campaign.bus)
    campaign.run(until=until)
    return campaign, recorder


def _fleet_recorder(plan, days=DAYS):
    campaign = FleetScaleCampaign(
        19, ExperimentConfig(seed=7), plant_faults=PlantFaultPlan.parse(plan)
    )
    assert campaign.n_pods == 1
    campaign.run(days)
    return campaign, campaign.plant_events


def _injected(recorder):
    return [
        (e.kind, e.domain, e.repair_s)
        for e in recorder.of_type(ev.PlantFaultInjected)
    ]


def _repaired(recorder):
    return [(e.kind, e.domain) for e in recorder.of_type(ev.PlantFaultRepaired)]


class TestOnePlanBothSimulators:
    def test_same_injections_and_repairs(self):
        _, paper = _paper_recorder(PLAN)
        _, fleet = _fleet_recorder(PLAN)
        injected = _injected(paper)
        assert injected == _injected(fleet)
        assert _repaired(paper) == _repaired(fleet)
        # The plan really exercised every channel, storms included.
        assert injected[0] == ("fan", -1, 8 * 3600.0)
        assert {kind for kind, _, _ in injected} == {
            "fan", "intake", "heater", "crac", "feed",
        }
        assert len(injected) > 5

    def test_fault_on_a_missing_pod_injects_nothing(self):
        plan = "fan:failure@day1,pod=4"
        campaign, paper = _paper_recorder(plan, until=dt.datetime(2010, 2, 21, 12, 0))
        assert _injected(paper) == []
        assert campaign.plant.census["faults_injected"] == 0
        assert campaign.fleet.tent.plant_ua_factor == 1.0
        _, fleet = _fleet_recorder(plan, days=2.0)
        assert _injected(fleet) == []
