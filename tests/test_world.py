"""Tests for the World composition and the campaign runner."""

import dataclasses

import numpy as np
import pytest

from repro.core.records import L7Status
from repro.net.blocklist import Blocklist
from repro.scanner.zmap import ZMapConfig, ZMapScanner
from repro.sim.campaign import Campaign, run_campaign
from repro.sim.scenario import small_scenario


@pytest.fixture(scope="module")
def world_setup():
    return small_scenario(seed=21)


@pytest.fixture(scope="module")
def observation(world_setup):
    world, origins, config = world_setup
    scanner = ZMapScanner(config)
    names = tuple(o.name for o in origins)
    au = next(o for o in origins if o.name == "AU")
    return world.observe("http", 0, au, scanner, names)


class TestObserve:
    def test_status_mask_consistency(self, observation):
        """NO_L4 implies no probe responses and vice versa (except the
        regional block-page case, which drops after TCP)."""
        no_l4 = observation.l7 == int(L7Status.NO_L4)
        silent = observation.probe_mask == 0
        # NO_L4 hosts never answered a probe.
        assert (observation.probe_mask[no_l4] == 0).all()
        # Hosts that answered no probe are NO_L4.
        assert (observation.l7[silent] == int(L7Status.NO_L4)).all()

    def test_status_codes_valid(self, observation):
        assert set(np.unique(observation.l7)) \
            <= {int(s) for s in L7Status}

    def test_success_exists(self, observation):
        success = observation.l7 == int(L7Status.SUCCESS)
        assert success.mean() > 0.8

    def test_times_within_scan(self, world_setup, observation):
        _, _, config = world_setup
        assert observation.time.min() >= 0
        # AU drift stretches the schedule slightly beyond nominal.
        assert observation.time.max() <= config.scan_duration_s * 1.1

    def test_deterministic(self, world_setup):
        world, origins, config = world_setup
        scanner = ZMapScanner(config)
        names = tuple(o.name for o in origins)
        jp = next(o for o in origins if o.name == "JP")
        a = world.observe("https", 1, jp, scanner, names)
        b = world.observe("https", 1, jp, scanner, names)
        assert np.array_equal(a.l7, b.l7)
        assert np.array_equal(a.probe_mask, b.probe_mask)

    def test_origins_share_service_set(self, world_setup):
        world, origins, config = world_setup
        scanner = ZMapScanner(config)
        names = tuple(o.name for o in origins)
        obs = [world.observe("ssh", 0, o, scanner, names)
               for o in origins[:3]]
        assert np.array_equal(obs[0].ip, obs[1].ip)
        assert np.array_equal(obs[0].ip, obs[2].ip)

    def test_blocklist_removes_services(self, world_setup):
        world, origins, config = world_setup
        scanner = ZMapScanner(config)
        names = tuple(o.name for o in origins)
        au = origins[0]
        baseline = world.observe("http", 0, au, scanner, names)
        target = int(baseline.ip[0]) & 0xFFFFFF00
        blocked_config = dataclasses.replace(
            config, blocklist=Blocklist.from_cidrs(
                [f"{target >> 24 & 255}.{target >> 16 & 255}."
                 f"{target >> 8 & 255}.0/24"]))
        filtered = world.observe("http", 0, au,
                                 ZMapScanner(blocked_config), names)
        assert len(filtered) < len(baseline)
        assert not ((filtered.ip & 0xFFFFFF00) == target).any()

    def test_rst_after_handshake_only_on_ssh(self, world_setup):
        world, origins, config = world_setup
        scanner = ZMapScanner(config)
        names = tuple(o.name for o in origins)
        au = origins[0]
        http = world.observe("http", 0, au, scanner, names)
        ssh = world.observe("ssh", 0, au, scanner, names)
        # Alibaba's network-wide temporal RST signature appears for SSH.
        alibaba = world.topology.ases.by_name("Alibaba CN").index
        ssh_alibaba = ssh.l7[ssh.as_index == alibaba]
        http_alibaba = http.l7[http.as_index == alibaba]
        assert (ssh_alibaba == int(L7Status.L4_CLOSE_RST)).sum() > 0
        assert (http_alibaba == int(L7Status.L4_CLOSE_RST)).sum() == 0

    def test_censys_blocked_by_dxtl(self, world_setup):
        world, origins, config = world_setup
        scanner = ZMapScanner(config)
        names = tuple(o.name for o in origins)
        cen = next(o for o in origins if o.name == "CEN")
        jp = next(o for o in origins if o.name == "JP")
        dxtl = world.topology.ases.by_name(
            "DXTL Tseung Kwan O Service").index
        obs_cen = world.observe("http", 0, cen, scanner, names)
        obs_jp = world.observe("http", 0, jp, scanner, names)
        cen_sees = (obs_cen.l7[obs_cen.as_index == dxtl]
                    == int(L7Status.SUCCESS)).mean()
        jp_sees = (obs_jp.l7[obs_jp.as_index == dxtl]
                   == int(L7Status.SUCCESS)).mean()
        assert cen_sees == 0.0
        assert jp_sees > 0.5

    def test_regional_allowlist(self, world_setup):
        world, origins, config = world_setup
        scanner = ZMapScanner(config)
        names = tuple(o.name for o in origins)
        au = next(o for o in origins if o.name == "AU")
        de = next(o for o in origins if o.name == "DE")
        cf = world.topology.ases.by_name("Cloudflare Anycast AU-US").index
        obs_au = world.observe("http", 0, au, scanner, names)
        obs_de = world.observe("http", 0, de, scanner, names)
        au_l7 = obs_au.l7[obs_au.as_index == cf]
        de_l7 = obs_de.l7[obs_de.as_index == cf]
        assert (au_l7 == int(L7Status.SUCCESS)).mean() > 0.5
        assert (de_l7 == int(L7Status.SUCCESS)).sum() == 0

    def test_ssh_retry_success_monotone(self, world_setup):
        world, origins, config = world_setup
        us1 = next(o for o in origins if o.name == "US1")
        psychz = world.topology.ases.by_name("Psychz Networks")
        view = world.hosts.for_protocol("ssh")
        ips = view.ip[view.as_index == psychz.index]
        fractions = [world.ssh_retry_success(ips, us1, 0, k).mean()
                     for k in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] > fractions[0]

    def test_ssh_retry_rejects_unrouted(self, world_setup):
        world, origins, _ = world_setup
        with pytest.raises(ValueError):
            world.ssh_retry_success(np.array([1], dtype=np.uint32),
                                    origins[0], 0, 2)


class TestCampaign:
    def test_structure_and_metadata(self, world_setup):
        world, origins, config = world_setup
        ds = run_campaign(world, origins, config, protocols=("http",),
                          n_trials=2)
        assert ds.protocols == ["http"]
        assert ds.trials_for("http") == [0, 1]
        assert ds.metadata["n_probes"] == config.n_probes
        assert ds.metadata["n_trials"] == 2

    def test_carinet_only_in_first_trial(self, world_setup):
        world, origins, config = world_setup
        ds = run_campaign(world, origins, config, protocols=("http",),
                          n_trials=2)
        assert "CARINET" in ds.trial_data("http", 0).origins
        assert "CARINET" not in ds.trial_data("http", 1).origins
        assert "CARINET" not in ds.origins_for("http")
        assert "CARINET" in ds.all_origins("http")

    def test_campaign_dataclass_runs(self, world_setup):
        world, origins, config = world_setup
        campaign = Campaign(world=world, origins=tuple(origins),
                            zmap=config, protocols=("ssh",), n_trials=1)
        ds = campaign.run()
        assert ds.protocols == ["ssh"]

    def test_campaign_validation(self, world_setup):
        world, origins, config = world_setup
        with pytest.raises(ValueError):
            Campaign(world=world, origins=tuple(origins), zmap=config,
                     n_trials=0)
        with pytest.raises(ValueError):
            Campaign(world=world, origins=(origins[0], origins[0]),
                     zmap=config)

    def test_trials_use_different_permutations(self, world_setup):
        world, origins, config = world_setup
        ds = run_campaign(world, origins, config, protocols=("http",),
                          n_trials=2)
        t0 = ds.trial_data("http", 0)
        t1 = ds.trial_data("http", 1)
        shared = np.intersect1d(t0.ip, t1.ip)
        row0 = t0.time[0][np.searchsorted(t0.ip, shared)]
        row1 = t1.time[0][np.searchsorted(t1.ip, shared)]
        assert not np.allclose(row0, row1)


class TestWorldMemos:
    def test_outage_model_follows_the_scan_schedule(self):
        """Regression: the burst-outage memo must be keyed by the origin
        universe *and* the scan duration.  A world first observed at the
        scenario's rate used to keep that schedule's outage windows for a
        slower campaign, so ``probe_mask`` differed from a fresh world's
        (40 cells at this seed and scale)."""
        from repro.sim.scenario import paper_scenario

        world, origins, config = paper_scenario(seed=4, scale=0.05)
        slow = dataclasses.replace(config, pps=config.pps / 4)
        run_campaign(world, origins, config, protocols=("http",),
                     n_trials=1)
        reused = run_campaign(world, origins, slow, protocols=("http",),
                              n_trials=1)
        fresh_world, _, _ = paper_scenario(seed=4, scale=0.05)
        fresh = run_campaign(fresh_world, origins, slow,
                             protocols=("http",), n_trials=1)
        a = reused.trial_data("http", 0)
        b = fresh.trial_data("http", 0)
        np.testing.assert_array_equal(a.ip, b.ip)
        np.testing.assert_array_equal(a.probe_mask, b.probe_mask)
        np.testing.assert_array_equal(a.l7, b.l7)
