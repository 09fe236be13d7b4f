"""Differential suite for the fused trial-batch kernel.

:mod:`repro.sim.batch` re-derives every per-cell draw as a lattice over
the trial axis, so its one non-negotiable contract is *byte identity*
with a direct per-cell evaluation — the reference path in
``tests/observe_oracle.py``: same ``Observation`` columns, same campaign
signatures across backends, same streamed planes.  This suite pins that
contract three ways:

* hypothesis property tests on the array-of-trials RNG helpers (the
  identity everything else rests on);
* cell-by-cell kernel differentials against the oracle — including
  targets subsets, ZMap shard configs, and plane-only mode;
* end-to-end campaign/sharded differentials plus the job-count surface.
"""

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.rng import (CounterRNG, keyed_bits_lattice, keyed_uniform_array,
                       keyed_uniform_lattice, stream_keys)
from repro.scanner.zmap import ZMapScanner
from repro.sim.batch import PlaneSlice, observe_trial_batch
from repro.sim.campaign import build_trial_batches, run_campaign
from repro.sim.scenario import paper_scenario, paper_sharded_scenario
from repro.sim.shard import run_sharded_campaign
from tests import observe_oracle

SCALE = 0.02


def observation_bytes(obs):
    return (obs.protocol, obs.trial, obs.origin,
            obs.ip.tobytes(), obs.as_index.tobytes(),
            obs.country_index.tobytes(), obs.geo_index.tobytes(),
            obs.probe_mask.tobytes(), obs.l7.tobytes(), obs.time.tobytes())


def dataset_signature(dataset):
    return [
        (t.protocol, t.trial, tuple(t.origins),
         t.ip.tobytes(), t.as_index.tobytes(), t.country_index.tobytes(),
         t.geo_index.tobytes(), t.probe_mask.tobytes(), t.l7.tobytes(),
         t.time.tobytes())
        for t in sorted(dataset, key=lambda t: (t.protocol, t.trial))
    ]


def streaming_signature(result):
    """Planes + per-AS tallies of every streamed (protocol, trial)."""
    rows = []
    for (protocol, trial), streaming in sorted(result.trials.items()):
        packed = streaming.finish()
        rows.append((protocol, trial, tuple(packed.origins),
                     packed.packed.tobytes(),
                     streaming.truth_plane.tobytes(),
                     packed.total, packed.n_hosts,
                     streaming.truth_by_as.tobytes(),
                     streaming.seen_by_as.tobytes()))
    return rows


# ----------------------------------------------------------------------
# The RNG identity the whole kernel rests on
# ----------------------------------------------------------------------

suffix_lists = st.lists(
    st.tuples(st.text(min_size=0, max_size=6),
              st.integers(min_value=0, max_value=2 ** 31)),
    min_size=1, max_size=5)

counter_arrays = st.lists(
    st.integers(min_value=0, max_value=2 ** 40),
    min_size=0, max_size=40).map(lambda v: np.array(v, dtype=np.uint64))


class TestLatticeHelpers:
    @given(st.integers(min_value=0, max_value=2 ** 32), suffix_lists,
           counter_arrays)
    @settings(max_examples=100, deadline=None)
    def test_uniform_lattice_rows_match_derived_streams(
            self, seed, suffixes, counters):
        """Row *i* of the lattice is exactly the derived stream's array:
        ``rng.derive(*extra).uniform_array(counters)``, the per-cell
        spelling."""
        rng = CounterRNG(seed)
        keys = stream_keys(rng, suffixes)
        lattice = keyed_uniform_lattice(keys, counters)
        assert lattice.shape == (len(suffixes), len(counters))
        for i, extra in enumerate(suffixes):
            expected = rng.derive(*extra).uniform_array(counters)
            np.testing.assert_array_equal(lattice[i], expected)

    @given(st.integers(min_value=0, max_value=2 ** 32), suffix_lists,
           counter_arrays)
    @settings(max_examples=100, deadline=None)
    def test_bits_lattice_rows_match_derived_streams(
            self, seed, suffixes, counters):
        rng = CounterRNG(seed)
        keys = stream_keys(rng, suffixes)
        lattice = keyed_bits_lattice(keys, counters)
        for i, extra in enumerate(suffixes):
            expected = rng.derive(*extra).bits_array(counters)
            np.testing.assert_array_equal(lattice[i], expected)

    @given(st.integers(min_value=0, max_value=2 ** 32), counter_arrays)
    @settings(max_examples=50, deadline=None)
    def test_single_key_lattice_matches_keyed_array(self, seed, counters):
        rng = CounterRNG(seed)
        keys = stream_keys(rng, [("x", 7)])
        full = np.full(len(counters), keys[0], dtype=np.uint64)
        np.testing.assert_array_equal(
            keyed_uniform_lattice(keys, counters)[0],
            keyed_uniform_array(full, counters))


# ----------------------------------------------------------------------
# Batching is the only granularity
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_world():
    return paper_scenario(seed=3, scale=SCALE)


def http_campaign(scenario):
    world, origins, config = scenario
    return run_campaign(world, origins, config, protocols=("http",),
                        n_trials=2)


class TestBatchEnabled:
    """Trial batching is always on.  The switches that once selected a
    per-cell path (``REPRO_BATCH``, ``batch=``, ``planned=``) are gone:
    leftovers in the environment change nothing, and the keywords are
    rejected."""

    def test_default_is_on(self, tiny_world, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        _, origins, _ = tiny_world
        dataset = http_campaign(tiny_world)
        assert dataset.metadata["execution"]["n_jobs"] == len(origins)
        assert "batch" not in dataset.metadata

    def test_unplanned_is_never_batched(self, tiny_world):
        """No production entry point reaches the per-cell reference
        path: it lives in ``tests/observe_oracle.py`` only."""
        world, origins, config = tiny_world
        with pytest.raises(TypeError):
            run_campaign(world, origins, config, planned=False)
        with pytest.raises(TypeError):
            world.observe("http", 0, origins[0], ZMapScanner(config),
                          tuple(o.name for o in origins), plan=False)

    @pytest.mark.parametrize("value", ["0", "false", "no", "off",
                                       " OFF ", "False"])
    def test_env_opt_out(self, tiny_world, monkeypatch, value):
        reference = dataset_signature(http_campaign(tiny_world))
        monkeypatch.setenv("REPRO_BATCH", value)
        dataset = http_campaign(tiny_world)
        assert dataset.metadata["execution"]["n_jobs"] == len(tiny_world[1])
        assert dataset_signature(dataset) == reference

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", ""])
    def test_env_other_values_stay_on(self, tiny_world, monkeypatch,
                                      value):
        monkeypatch.setenv("REPRO_BATCH", value)
        dataset = http_campaign(tiny_world)
        assert dataset.metadata["execution"]["n_jobs"] == len(tiny_world[1])

    def test_explicit_argument_beats_env(self, tiny_world, monkeypatch):
        """No ``batch=`` argument is left to weigh against the
        environment."""
        world, origins, config = tiny_world
        monkeypatch.setenv("REPRO_BATCH", "0")
        with pytest.raises(TypeError):
            run_campaign(world, origins, config, batch=True)
        with pytest.raises(TypeError):
            run_sharded_campaign(world, origins, config, batch=True)


# ----------------------------------------------------------------------
# Kernel-level byte identity against the oracle
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=(3, 17), ids=lambda s: f"seed{s}")
def small_world(request):
    return paper_scenario(seed=request.param, scale=SCALE)


def batch_jobs_for(origins, config, protocols, n_trials):
    return build_trial_batches(origins, config, protocols, n_trials)


class TestKernelEquivalence:
    def test_every_cell_byte_identical(self, small_world):
        """The headline guarantee: output element *i* of a batch equals
        the oracle's observation of ``trials[i]``, byte for byte, for
        every (protocol, origin) of the paper grid."""
        world, origins, config = small_world
        names = tuple(o.name for o in origins)
        n_trials = 3
        for job in build_trial_batches(origins, config,
                                       ("http", "https", "ssh"), n_trials):
            scanners = [ZMapScanner(c) for c in job.configs]
            batched = observe_trial_batch(
                world, job.protocol, job.origin, job.trials, scanners,
                names, first_trial=job.first_trial)
            for trial, scanner, obs in zip(job.trials, scanners, batched):
                reference = observe_oracle.observe(
                    world, job.protocol, trial, job.origin, scanner, names,
                    first_trial=job.first_trial)
                assert observation_bytes(obs) == observation_bytes(reference)

    def test_targets_subset_matches_per_cell(self, small_world):
        world, origins, config = small_world
        names = tuple(o.name for o in origins)
        view = world.hosts.for_protocol("http")
        targets = view.ip[::3].copy()
        origin = origins[0]
        trials = (0, 1, 2)
        scanners = [ZMapScanner(dataclasses.replace(config,
                                                    seed=config.seed + t))
                    for t in trials]
        batched = observe_trial_batch(world, "http", origin, trials,
                                      scanners, names, targets=targets)
        for trial, scanner, obs in zip(trials, scanners, batched):
            reference = observe_oracle.observe(world, "http", trial, origin,
                                               scanner, names,
                                               targets=targets)
            assert observation_bytes(obs) == observation_bytes(reference)

    def test_zmap_shard_config_matches_per_cell(self, small_world):
        """ZMap-style sharded configs (n_shards/shard) flow through the
        shared eligibility mask unchanged."""
        world, origins, config = small_world
        names = tuple(o.name for o in origins)
        sharded = dataclasses.replace(config, n_shards=4, shard=1)
        origin = origins[1]
        trials = (0, 1)
        scanners = [ZMapScanner(dataclasses.replace(sharded,
                                                    seed=sharded.seed + t))
                    for t in trials]
        batched = observe_trial_batch(world, "https", origin, trials,
                                      scanners, names)
        for trial, scanner, obs in zip(trials, scanners, batched):
            reference = observe_oracle.observe(world, "https", trial,
                                               origin, scanner, names)
            assert observation_bytes(obs) == observation_bytes(reference)

    def test_plane_only_matches_observation_success(self, small_world):
        world, origins, config = small_world
        names = tuple(o.name for o in origins)
        from repro.core.records import L7Status
        origin = origins[0]
        trials = (0, 1, 2)
        scanners = [ZMapScanner(dataclasses.replace(config,
                                                    seed=config.seed + t))
                    for t in trials]
        planes = observe_trial_batch(world, "ssh", origin, trials,
                                     scanners, names, plane_only=True)
        full = observe_trial_batch(world, "ssh", origin, trials,
                                   scanners, names)
        for plane, obs in zip(planes, full):
            assert isinstance(plane, PlaneSlice)
            np.testing.assert_array_equal(plane.ip, obs.ip)
            np.testing.assert_array_equal(plane.as_index, obs.as_index)
            np.testing.assert_array_equal(
                plane.accessible, obs.l7 == L7Status.SUCCESS.value)

    def test_mismatched_configs_rejected(self, small_world):
        world, origins, config = small_world
        names = tuple(o.name for o in origins)
        scanners = [ZMapScanner(config),
                    ZMapScanner(dataclasses.replace(config, n_probes=1))]
        with pytest.raises(ValueError, match="differ only in their seed"):
            observe_trial_batch(world, "http", origins[0], (0, 1),
                                scanners, names)

    def test_scanner_count_mismatch_rejected(self, small_world):
        world, origins, config = small_world
        with pytest.raises(ValueError, match="one scanner per trial"):
            observe_trial_batch(world, "http", origins[0], (0, 1),
                                [ZMapScanner(config)],
                                tuple(o.name for o in origins))


# ----------------------------------------------------------------------
# Campaign-level equivalence and the job-count surface
# ----------------------------------------------------------------------

class TestCampaignEquivalence:
    def test_batched_matches_per_cell_across_backends(self, small_world):
        world, origins, config = small_world
        reference = observe_oracle.run_campaign(world, origins, config)
        for backend, workers in (("serial", None), ("thread", 4),
                                 ("process", 2)):
            batched = run_campaign(world, origins, config,
                                   executor=backend, workers=workers)
            assert dataset_signature(batched) == dataset_signature(reference)

    def test_batch_job_granularity(self, small_world):
        """One job per (protocol, origin), covering every grid cell."""
        world, origins, config = small_world
        protocols = ("http", "https", "ssh")
        batches = build_trial_batches(origins, config, protocols, 3)
        cells = [(p, t, o.name) for p in protocols for t in range(3)
                 for o in origins if o.participates(t)]
        assert len(batches) == len(protocols) * len(origins)
        assert len(batches) < len(cells)
        assert sorted((job.protocol, t, job.origin.name)
                      for job in batches for t in job.trials) \
            == sorted(cells)
        batched = run_campaign(world, origins, config)
        assert batched.metadata["execution"]["n_jobs"] == len(batches)


    def test_env_opt_out_flows_through_run_campaign(self, small_world,
                                                    monkeypatch):
        """A leftover ``REPRO_BATCH=0`` reaches no switch: the campaign
        still dispatches one job per (protocol, origin) and matches the
        oracle."""
        world, origins, config = small_world
        monkeypatch.setenv("REPRO_BATCH", "0")
        dataset = run_campaign(world, origins, config,
                               protocols=("http",), n_trials=2)
        assert dataset.metadata["execution"]["n_jobs"] == len(origins)
        reference = observe_oracle.run_campaign(
            world, origins, config, protocols=("http",), n_trials=2)
        assert dataset_signature(dataset) == dataset_signature(reference)


class TestShardedBatchEquivalence:
    @pytest.fixture(scope="class")
    def sharded_scenario(self):
        return paper_sharded_scenario(seed=5, scale=SCALE, n_shards=3)

    def test_streamed_planes_identical(self, sharded_scenario):
        """Plane-only streaming reduces to the same packed planes and
        per-AS tallies as reducing the materialized observations."""
        sharded, origins, config = sharded_scenario
        planes = run_sharded_campaign(sharded, origins, config,
                                      n_trials=2, plane_cache=False)
        materialized, _ = run_sharded_campaign(sharded, origins, config,
                                               n_trials=2, collect=True)
        assert streaming_signature(planes) \
            == streaming_signature(materialized)

    def test_collected_dataset_matches_monolithic(self, sharded_scenario):
        sharded, origins, config = sharded_scenario
        _, collected = run_sharded_campaign(sharded, origins, config,
                                            n_trials=2, collect=True)
        world, morigins, mconfig = paper_scenario(seed=5, scale=SCALE)
        mono = observe_oracle.run_campaign(world, morigins, mconfig,
                                           n_trials=2)
        assert dataset_signature(collected) == dataset_signature(mono)
