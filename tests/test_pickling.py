"""Pickle round-trips for everything the process executor ships.

The process backend serializes the :class:`World` once per worker and a
:class:`TrialBatchJob` (origin + trial-reseeded configs) per job.  These
tests guard that contract directly: round-tripped objects must not just
survive, they must *observe identically* — which exercises the lazy
per-AS caches (loss params, burst-outage windows in
``repro/conditions/outages.py``, flaky/maxstartups tables) that either
ship in the pickle or rebuild deterministically in the worker.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.origins import Origin, paper_origins
from repro.scanner.zmap import ZMapConfig, ZMapScanner
from repro.sim.campaign import build_trial_batches
from repro.sim.scenario import paper_scenario


@pytest.fixture(scope="module")
def setup():
    return paper_scenario(seed=13, scale=0.02)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def observe_fields(observation):
    return {name: getattr(observation, name)
            for name in ("ip", "as_index", "country_index", "geo_index",
                         "probe_mask", "l7", "time")}


def assert_observations_equal(a, b):
    fa, fb = observe_fields(a), observe_fields(b)
    for name in fa:
        assert fa[name].dtype == fb[name].dtype, name
        assert np.array_equal(fa[name], fb[name]), name


class TestOriginPickle:
    def test_all_paper_origins_roundtrip(self):
        for origin in paper_origins():
            clone = roundtrip(origin)
            assert clone == origin
            assert clone.state_group == origin.state_group
            assert clone.participates(0) == origin.participates(0)


class TestScannerPickle:
    def test_scanner_roundtrip_preserves_schedule(self):
        config = ZMapConfig(seed=23, pps=5000.0, domain_size=2**16,
                            shard=1, n_shards=4)
        scanner = ZMapScanner(config)
        clone = roundtrip(scanner)
        ips = np.arange(2**12, dtype=np.uint32)
        assert clone.config == scanner.config
        assert np.array_equal(clone.shard_mask(ips),
                              scanner.shard_mask(ips))
        assert np.array_equal(clone.first_probe_times(ips),
                              scanner.first_probe_times(ips))

    def test_job_payload_roundtrip(self):
        """The exact per-job payload the process pool serializes."""
        _, origins, config = paper_scenario(seed=2, scale=0.02)
        jobs = build_trial_batches(origins, config, ("http",), 3)
        for job in jobs:
            clone = roundtrip(job)
            assert clone == job


class TestWorldPickle:
    def test_cold_world_roundtrip_observes_identically(self, setup):
        world, origins, config = setup
        clone = roundtrip(world)
        names = tuple(o.name for o in origins)
        origin = origins[0]
        a = world.observe("http", 0, origin, ZMapScanner(config), names)
        b = clone.observe("http", 0, origin, ZMapScanner(config), names)
        assert_observations_equal(a, b)

    def test_warm_world_roundtrip_observes_identically(self, setup):
        """A world with populated lazy caches (loss params, burst-outage
        windows, flaky/maxstartups tables) must round-trip too — this is
        what a fork-started worker effectively receives."""
        world, origins, config = setup
        names = tuple(o.name for o in origins)
        # Warm every lazy cache: an SSH and an HTTP observation touch the
        # maxstartups tables, outage windows, and per-origin loss params.
        for protocol in ("http", "ssh"):
            for origin in origins[:3]:
                world.observe(protocol, 0, origin, ZMapScanner(config),
                              names)
        clone = roundtrip(world)
        trial1 = dataclasses.replace(config, seed=config.seed + 1)
        for protocol in ("http", "ssh"):
            for origin in (origins[0], origins[-1]):
                a = world.observe(protocol, 1, origin,
                                  ZMapScanner(trial1), names)
                b = clone.observe(protocol, 1, origin,
                                  ZMapScanner(trial1), names)
                assert_observations_equal(a, b)

    def test_roundtripped_world_rebuilds_outage_windows(self, setup):
        """Burst-outage windows drawn pre- and post-pickle agree: the
        ``_cache`` dicts in repro/conditions/outages.py memoize pure
        draws, so a worker's rebuilt cache is bit-compatible."""
        world, origins, config = setup
        names = tuple(o.name for o in origins)
        model = world._outages(names, config.scan_duration_s)
        specs = world.outage_specs()
        before = {as_index: model.windows(as_index, spec, 0)
                  for as_index, spec in list(specs.items())[:50]}
        clone = roundtrip(world)
        clone_model = clone._outages(names, config.scan_duration_s)
        clone_specs = clone.outage_specs()
        for as_index, windows in before.items():
            assert clone_model.windows(as_index, clone_specs[as_index],
                                       0) == windows

    def test_ssh_retry_matches_after_roundtrip(self, setup):
        """The §6 targeted-retry path uses the same cached parameter
        tables; it must agree across the pickle boundary as well."""
        world, origins, config = setup
        names = tuple(o.name for o in origins)
        origin = origins[0]
        obs = world.observe("ssh", 0, origin, ZMapScanner(config), names)
        targets = obs.ip[:200]
        clone = roundtrip(world)
        a = world.ssh_retry_success(targets, origin, 0, max_attempts=3)
        b = clone.ssh_retry_success(targets, origin, 0, max_attempts=3)
        assert np.array_equal(a, b)
