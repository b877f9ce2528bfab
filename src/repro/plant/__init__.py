"""The plant chaos plane: cooling/power faults with thermal consequences.

``repro.plant`` owns everything that can go wrong *around* the servers:
fan and blower failures, CRAC outages, snow-blocked intakes, heater loss
(and the ice it grows), and per-pod power-feed drops -- plus the
protective layer that reacts to them (intake-overtemp trips, staged load
shedding, the emergency flap).

- :mod:`repro.plant.faults` -- the fault grammar (:class:`PlantFaultPlan`)
  and the physics constants of degraded airflow,
- :mod:`repro.plant.trip` -- :class:`ThermalTripPolicy`,
- :mod:`repro.plant.fleet` -- :class:`FleetPlant`, the one fault and
  trip state machine, vectorized over a cohort's pods; it runs
  ``FleetScaleCampaign`` cohorts and the paper site alike,
- :mod:`repro.plant.controller` -- :class:`PlantController`, which runs
  the 19-host paper campaign's plant as a 1-pod ``FleetPlant`` and maps
  its transitions onto the campaign's hosts.
"""

from repro.plant.controller import PlantController
from repro.plant.faults import (
    PlantFault,
    PlantFaultKind,
    PlantFaultPlan,
    PlantStorm,
    airflow_factors,
)
from repro.plant.fleet import FleetPlant
from repro.plant.trip import ThermalTripPolicy

__all__ = [
    "PlantController",
    "PlantFault",
    "PlantFaultKind",
    "PlantFaultPlan",
    "PlantStorm",
    "ThermalTripPolicy",
    "FleetPlant",
    "airflow_factors",
]
