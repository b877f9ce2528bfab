"""ActuatorBus: clamping, idempotence, shed staging, state roundtrip.

Every knob the control plane exposes goes through the bus, so the bus
contract is load-bearing: commands clamp to physical ranges, repeating a
command is a no-op (no action tally, no airflow churn), shedding stages
lowest-id-first and restores LIFO, and the whole bus state survives a
snapshot roundtrip.
"""

import datetime as dt
import math

import pytest

from repro.control.actuators import (
    CRAC_SETPOINT_RANGE,
    DVFS_RANGE,
    ActuatorBus,
    clamp,
    clamp_fraction,
)
from repro.core.builder import CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.hardware.host import HostState

#: Far enough past the first installs that the tent group is populated
#: and running, close enough that the fixture stays cheap.
UNTIL = dt.datetime(2010, 2, 22, 12, 0)


@pytest.fixture(scope="module")
def campaign():
    campaign = CampaignBuilder(ExperimentConfig(seed=7)).build()
    campaign.run(until=UNTIL)
    return campaign


@pytest.fixture
def bus(campaign):
    return ActuatorBus(campaign.fleet)


class TestClamping:
    def test_clamp_bounds(self):
        assert clamp(5.0, 0.0, 1.0) == 1.0
        assert clamp(-5.0, 0.0, 1.0) == 0.0
        assert clamp(0.3, 0.0, 1.0) == 0.3

    def test_nan_collapses_to_floor(self):
        assert clamp(float("nan"), 2.0, 3.0) == 2.0
        assert clamp_fraction(float("nan")) == 0.0

    def test_fan_duty_clamps_to_unit_interval(self, bus):
        bus.set_fan_duty(7.5)
        assert bus.fan_duty == 1.0
        bus.set_fan_duty(-2.0)
        assert bus.fan_duty == 0.0

    def test_crac_setpoint_clamps_to_range(self, bus, campaign):
        original = campaign.fleet.basement.setpoint_c
        try:
            bus.set_crac_setpoint(-40.0)
            assert bus.crac_setpoint_c == CRAC_SETPOINT_RANGE[0]
            bus.set_crac_setpoint(99.0)
            assert bus.crac_setpoint_c == CRAC_SETPOINT_RANGE[1]
            assert campaign.fleet.basement.setpoint_c == CRAC_SETPOINT_RANGE[1]
        finally:
            campaign.fleet.basement.setpoint_c = original

    def test_dvfs_clamps_to_range(self, bus, campaign):
        try:
            bus.set_dvfs(0.0)
            assert bus.dvfs_scale == DVFS_RANGE[0]
            assert campaign.fleet.tent.it_load_scale == DVFS_RANGE[0]
            bus.set_dvfs(1.7)
            assert bus.dvfs_scale == DVFS_RANGE[1]
        finally:
            campaign.fleet.tent.it_load_scale = 1.0


class TestIdempotence:
    def test_repeated_commands_do_not_tally(self, bus):
        assert bus.set_flap(True) is True
        assert bus.set_flap(True) is False
        assert bus.set_fan_duty(0.5) is True
        assert bus.set_fan_duty(0.5) is False
        assert bus.actions_applied == 2
        bus.set_flap(False)
        bus.set_fan_duty(0.0)

    def test_degradation_is_not_an_operator_action(self, bus):
        bus.set_plant_degradation(0.4, 0.2)
        assert bus.actions_applied == 0
        assert bus.fan_severity == 0.4
        assert bus.blockage == 0.2
        bus.set_plant_degradation(0.0, 0.0)

    def test_ice_and_blockage_compose_multiplicatively(self, bus):
        tent = bus.fleet.tent
        bus.set_plant_degradation(0.0, 0.5)
        blocked = tent.plant_ua_factor
        bus.set_plant_degradation(0.0, 0.5, ice=0.5)
        assert bus.ice == 0.5
        assert tent.plant_ua_factor == pytest.approx(blocked * blocked)
        bus.set_plant_degradation(0.0, 0.0)
        assert tent.plant_ua_factor == 1.0

    def test_untouched_bus_reports_defaults(self, bus):
        assert bus.flap_open is False
        assert bus.fan_duty == 0.0
        assert bus.crac_setpoint_c is None
        assert bus.dvfs_scale == 1.0
        assert bus.shed_count() == 0
        assert bus.actions_applied == 0


class TestLoadShed:
    def test_shed_targets_ceil_of_fraction(self, bus, campaign):
        tent = sorted(
            campaign.fleet.hosts_in_group("tent"), key=lambda h: h.host_id
        )
        running_before = [h.host_id for h in tent if h.state is HostState.RUNNING]
        try:
            changed = bus.set_load_shed(0.5, campaign.sim.now)
            target = int(math.ceil(0.5 * len(tent)))
            assert bus.shed_count() == min(target, len(running_before))
            assert changed == bus.shed_count()
            # Lowest ids first, and every shed host really is SHED.
            assert bus._shed == sorted(bus._shed)
            for host_id in bus._shed:
                assert campaign.fleet.host(host_id).state is HostState.SHED
        finally:
            bus.set_load_shed(0.0, campaign.sim.now)

    def test_restore_is_lifo_and_complete(self, bus, campaign):
        now = campaign.sim.now
        bus.set_load_shed(0.6, now)
        shed_order = list(bus._shed)
        # Partial restore drops the most recently shed hosts first.
        bus.set_load_shed(0.2, now)
        assert bus._shed == shed_order[: len(bus._shed)]
        bus.set_load_shed(0.0, now)
        assert bus.shed_count() == 0
        for host_id in shed_order:
            assert campaign.fleet.host(host_id).state is HostState.RUNNING

    def test_fraction_clamps(self, bus, campaign):
        now = campaign.sim.now
        tent = list(campaign.fleet.hosts_in_group("tent"))
        try:
            bus.set_load_shed(9.0, now)
            assert bus.shed_count() <= len(tent)
            assert bus.shed_count() > 0
        finally:
            bus.set_load_shed(-3.0, now)
            assert bus.shed_count() == 0


class TestSnapshot:
    def test_state_roundtrip(self, bus, campaign):
        now = campaign.sim.now
        try:
            bus.set_flap(True, now)
            bus.set_fan_duty(0.35, now)
            bus.set_crac_setpoint(22.0, now)
            bus.set_dvfs(0.8, now)
            bus.set_load_shed(0.1, now)
            state = bus.state_dict()

            clone = ActuatorBus(campaign.fleet)
            clone.load_state_dict(state)
            assert clone.state_dict() == state
            assert clone.flap_open is True
            assert clone.fan_duty == 0.35
            assert clone.crac_setpoint_c == 22.0
            assert clone.dvfs_scale == 0.8
            assert clone._shed == bus._shed
            assert clone.actions_applied == bus.actions_applied
            # Reapplied setpoints land back on the fleet objects.
            assert campaign.fleet.basement.setpoint_c == 22.0
            assert campaign.fleet.tent.it_load_scale == 0.8
        finally:
            bus.set_load_shed(0.0, now)
            bus.set_flap(False, now)
            bus.set_fan_duty(0.0, now)
            campaign.fleet.tent.it_load_scale = 1.0
