"""The paper campaign's standing invariants on its one host model.

Every change to the host tick is held to these: the seed-7 run still
hashes to the pinned record digest, a degraded-mode link storm replays
byte for byte, a campaign killed mid-flight and resumed cold from disk
finishes byte-identical to the straight run, and checkpoints written
while the fleet still had a ``fleet_backend`` option keep loading.
"""

import datetime as dt
import hashlib
import os

import pytest

from repro.core.builder import Campaign, CampaignBuilder
from repro.core.config import ExperimentConfig
from repro.monitoring.health import HealthPolicy
from repro.monitoring.transport import LinkFaultPlan, LinkStorm
from repro.runner.policy import RetryPolicy
from repro.runner.records import record_from_results
from repro.state.checkpoint import read_checkpoint, write_checkpoint

UNTIL = dt.datetime(2010, 3, 6, 12, 0)
EVERY = 5 * 86_400.0
PIN_PATH = os.path.join(os.path.dirname(__file__), "..", "data", "seed7_record.sha256")


def _record_json(results):
    return record_from_results(7, results, until=UNTIL).canonical_json()


def _run(*, storm=False, **run_kwargs):
    builder = CampaignBuilder(ExperimentConfig(seed=7))
    if storm:
        builder.with_link_faults(
            LinkFaultPlan(storm=LinkStorm(probability=0.25, seed=3))
        ).with_health_policy(HealthPolicy(retry=RetryPolicy(max_attempts=3)))
    campaign = builder.build()
    results = campaign.run(until=UNTIL, **run_kwargs)
    return campaign, results


@pytest.fixture(scope="module")
def straight_record():
    _, results = _run()
    return _record_json(results)


@pytest.fixture(scope="module")
def first_cut(tmp_path_factory):
    """Path of the first checkpoint of a checkpointed seed-7 run."""
    campaign, _ = _run(
        checkpoint_every=EVERY,
        checkpoint_dir=str(tmp_path_factory.mktemp("cuts")),
    )
    assert campaign.checkpoints_written
    return campaign.checkpoints_written[0]


class TestPinnedDigest:
    """The seed-7 record digest CI pins (tests/data/seed7_record.sha256)."""

    def test_matches_pinned_sha(self, straight_record):
        with open(PIN_PATH) as fh:
            pinned = fh.read().split()[0]
        actual = hashlib.sha256(straight_record.encode("utf-8")).hexdigest()
        assert actual == pinned, (
            "the seed-7 paper record changed; if intentional, regenerate "
            "tests/data/seed7_record.sha256"
        )


class TestLinkStorm:
    def test_link_storm_run_is_stable(self):
        _, first = _run(storm=True)
        _, second = _run(storm=True)
        assert first.monitoring.ssh_timeouts_total > 0
        assert _record_json(first) == _record_json(second)


class TestKillAndResume:
    def test_cold_resume_matches_straight_run(self, straight_record, first_cut):
        # "Kill" after the first cut: resume it cold from disk.
        _, results = Campaign.resume(first_cut, until=UNTIL)
        assert _record_json(results) == straight_record


class TestCheckpointCompatibility:
    def test_fresh_checkpoint_carries_no_backend_key(self, first_cut):
        assert "fleet_backend" not in read_checkpoint(first_cut).meta

    @pytest.mark.parametrize("backend", ["object", "columnar"])
    def test_legacy_backend_meta_still_resumes(
        self, backend, straight_record, first_cut, tmp_path
    ):
        snapshot = read_checkpoint(first_cut)
        snapshot.meta["fleet_backend"] = backend
        legacy = str(tmp_path / "legacy.ckpt")
        assert write_checkpoint(legacy, snapshot)
        _, results = Campaign.resume(legacy, until=UNTIL)
        assert _record_json(results) == straight_record
