"""The chaos plane through the paper campaign: census, kill-and-resume.

The tentpole's hardest promise lives here: a campaign killed in the
*middle of an active outage* -- shed hosts, CRAC down, trip latched --
and resumed cold from disk must finish byte-identical to the straight
run, also when the checkpoint is one written while the fleet still had a
``fleet_backend`` option.  And a campaign built with an *empty* plan
must not merely be close to the plain seed-7 run: it must reproduce the
pinned record digest exactly, because no plant is constructed at all.

The fault plan below keeps a five-day compound outage (full intake
blockage plus CRAC loss from day 1) in force across every checkpoint
cut, and the deliberately hair-trigger trip policy guarantees the cut
we resume from has latched trips and shed hosts in flight.
"""

import datetime as dt
import hashlib
import os

import pytest

from repro.analysis.survival import SurvivalCensus
from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.plant.faults import PlantFaultPlan
from repro.plant.trip import ThermalTripPolicy
from repro.runner.records import record_from_results
from repro.sim import events as ev
from repro.sim.events import EventRecorder
from repro.state.protocol import StateError

PLAN = "intake:blockage@day1,repair=5d,severity=1.0; crac:outage@day1,repair=5d"
POLICY = "trip=10,clear=4,shed=0.5+1.0,hold=30m,cooldown=12h"
#: Eight days past test_start (2010-02-19 12:00) -- the outage spans
#: days 1..6 of the test window, so every interior cut is mid-incident.
UNTIL = dt.datetime(2010, 2, 27, 12, 0)
EVERY = 2 * 86_400.0
#: The cut verified to land mid-outage: shed hosts and an active CRAC
#: fault both in force at restore time (asserted below, not assumed).
MID_OUTAGE_CUT = 3


def _chaos_builder():
    return (
        CampaignBuilder(ExperimentConfig(seed=7))
        .with_plant_faults(PlantFaultPlan.parse(PLAN))
        .with_trip_policy(ThermalTripPolicy.parse(POLICY))
    )


def _record_json(results):
    return record_from_results(7, results, until=UNTIL).canonical_json()


@pytest.fixture(scope="module")
def straight():
    campaign = _chaos_builder().build()
    recorder = EventRecorder()
    recorder.attach(campaign.bus)
    results = campaign.run(until=UNTIL)
    return campaign, recorder, results


class TestChaosCampaign:
    def test_census_counts_the_incident(self, straight):
        campaign, _, _ = straight
        census = SurvivalCensus.from_campaign(campaign)
        assert census.faults_injected == 2
        assert census.faults_repaired == 2
        assert census.trips > 0
        assert census.hosts_shed > 0
        assert census.host_hours_shed > 0.0
        assert census.excursion_minutes > 0.0

    def test_events_match_the_census(self, straight):
        campaign, recorder, _ = straight
        census = SurvivalCensus.from_campaign(campaign)
        assert len(recorder.of_type(ev.PlantFaultInjected)) == 2
        assert len(recorder.of_type(ev.PlantFaultRepaired)) == 2
        assert len(recorder.of_type(ev.ThermalTrip)) == census.trips
        shed = recorder.of_type(ev.LoadShed)
        assert sum(e.hosts for e in shed) == census.hosts_shed

    def test_chaos_changes_the_record(self, straight):
        _, _, results = straight
        plain = CampaignBuilder(ExperimentConfig(seed=7)).build().run(until=UNTIL)
        assert _record_json(results) != _record_json(plain)


class TestKillAndResumeMidOutage:
    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_resume_is_byte_identical(self, backend, straight, tmp_path):
        """Resume the mid-outage cut as an older checkpoint that still
        names a fleet backend; either legacy value must load and finish
        byte-identical to the straight run."""
        straight_campaign, _, straight_results = straight

        campaign = _chaos_builder().build()
        campaign.run(
            until=UNTIL, checkpoint_every=EVERY, checkpoint_dir=str(tmp_path)
        )
        assert len(campaign.checkpoints_written) > MID_OUTAGE_CUT

        from repro.state.checkpoint import read_checkpoint, write_checkpoint

        snapshot = read_checkpoint(campaign.checkpoints_written[MID_OUTAGE_CUT])
        snapshot.meta["fleet_backend"] = backend
        legacy = str(tmp_path / "legacy.ckpt")
        assert write_checkpoint(legacy, snapshot)
        mid = Campaign.restore(read_checkpoint(legacy))
        # The cut really was mid-incident: hosts shed, CRAC still down.
        assert mid.plant is not None
        assert mid.plant.shed_host_count() > 0
        assert mid.plant.cohort.crac_until > mid.sim.now
        # The plan and policy rode inside the checkpoint.
        assert mid._plant_faults == PlantFaultPlan.parse(PLAN)
        assert mid._trip_policy == ThermalTripPolicy.parse(POLICY)

        results = mid.continue_run(until=UNTIL)
        assert _record_json(results) == _record_json(straight_results)
        assert mid.plant.census == straight_campaign.plant.census


class TestUnscopedFeedDrop:
    """A feed drop with no ``feed=`` takes down every feed group."""

    def test_drops_and_restores_every_group(self):
        until = dt.datetime(2010, 3, 17, 12, 0)  # day 26 of the test window
        campaign = (
            CampaignBuilder(ExperimentConfig(seed=7))
            .with_plant_faults(PlantFaultPlan.parse("feed:drop@day25,repair=6h"))
            .build()
        )
        recorder = EventRecorder()
        recorder.attach(campaign.bus)
        campaign.run(until=until)

        injected = recorder.of_type(ev.PlantFaultInjected)
        assert [(e.kind, e.domain) for e in injected] == [("feed", -1)]
        shed = [e for e in recorder.of_type(ev.LoadShed) if e.reason == "feed"]
        restored = [
            e for e in recorder.of_type(ev.LoadRestored) if e.reason == "feed"
        ]
        assert sorted(e.pod for e in shed) == [0, 1]
        assert sorted(e.pod for e in restored) == [0, 1]
        assert all(e.hosts > 0 for e in shed)
        assert {e.pod: e.hosts for e in restored} == {e.pod: e.hosts for e in shed}
        repaired = recorder.of_type(ev.PlantFaultRepaired)
        assert sorted(e.domain for e in repaired) == [0, 1]
        assert campaign.plant.shed_host_count() == 0


class TestOldPlantStateRefused:
    """A checkpoint holding the old two-copy plant state is refused whole."""

    #: The shape of a version-1 ``PlantController`` state, which carried
    #: its own scalar copy of the fault and trip state machine.
    LEGACY_STATE = {
        "version": 1,
        "start_s": 0.0,
        "last_now": None,
        "tick_task_id": None,
        "fan": [float("-inf"), 0.0],
        "block": [float("-inf"), 0.0],
        "crac_until": float("-inf"),
        "heater": [float("-inf"), 0.0],
        "feed_until": [float("-inf"), float("-inf")],
        "trip": {
            "tripped": False,
            "stage": 0,
            "stage_deadline": float("inf"),
            "restore_at": float("inf"),
            "flap_open": False,
        },
        "shed_trip": [],
        "shed_feed": [[], []],
        "next_fault": 0,
        "storm_day": 0,
        "pending": [],
        "census": {"faults_injected": 0},
    }

    def test_restore_raises_state_error(self):
        campaign = _chaos_builder().build()
        campaign.run(until=dt.datetime(2010, 2, 21, 12, 0))
        snapshot = campaign.checkpoint()
        assert Campaign.restore(snapshot).plant is not None
        snapshot.components["plant"] = dict(self.LEGACY_STATE)
        with pytest.raises(StateError, match="PlantController"):
            Campaign.restore(snapshot)


class TestEmptyPlanDigest:
    def test_disarmed_plane_keeps_the_pinned_seed7_digest(self):
        until = dt.datetime(2010, 3, 6, 12, 0)
        campaign = (
            CampaignBuilder(ExperimentConfig(seed=7))
            .with_plant_faults(PlantFaultPlan.parse(""))
            .build()
        )
        assert campaign.plant is None
        results = campaign.run(until=until)
        record = record_from_results(7, results, until=until).canonical_json()
        pin_path = os.path.join(
            os.path.dirname(__file__), "..", "data", "seed7_record.sha256"
        )
        with open(pin_path) as fh:
            pinned = fh.read().split()[0]
        actual = hashlib.sha256(record.encode("utf-8")).hexdigest()
        assert actual == pinned, (
            "an empty plant plan perturbed the seed-7 paper record"
        )
