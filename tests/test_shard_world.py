"""Differential tests for sharded, out-of-core worlds (repro.sim.shard).

The tentpole guarantee is byte-identity: shard K of a world is buildable
in isolation, the concatenation of all shards equals the monolithic
build, a sharded campaign's collected dataset equals ``run_campaign`` on
the monolithic world across every executor backend, and every streamed
paper-grid analysis (coverage, multi-origin, bootstrap, per-AS rates)
equals its dataset-level counterpart to the last float.  These tests pin
each link of that chain at seed scale.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import bootstrap, coverage, multi_origin
from repro.core.streaming import BitPlaneWriter, StreamingTrial
from repro.io import worldcache
from repro.scanner.zmap import ZMapConfig
from repro.sim.campaign import campaign_fingerprint, run_campaign
from repro.sim.executor import BACKENDS
from repro.sim.shard import (DEFAULT_MEMORY_BUDGET, ENV_MEMORY_BUDGET,
                             MemoryBudgetError, ShardManifest,
                             build_sharded_world, memory_budget,
                             plan_shards, run_sharded_campaign)
from repro.sim.scenario import (paper_defaults, paper_origins, paper_specs,
                                build_world_from_specs)
from repro.topology.asn import PROTOCOLS
from repro.topology.generator import build_topology
from repro.topology.geo import default_countries

SEED = 3
SCALE = 0.04
N_SHARDS = 5
N_TRIALS = 2

TABLE_COLUMNS = ("ip", "as_index", "country_index", "geo_index",
                 "probe_mask", "l7", "time")


@pytest.fixture(scope="module")
def specs():
    return paper_specs(seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def mono_world(specs):
    return build_world_from_specs(specs, SEED, paper_defaults(),
                                  cache=False)


@pytest.fixture(scope="module")
def sharded(specs):
    return build_sharded_world(specs, SEED, paper_defaults(),
                               n_shards=N_SHARDS, cache=False)


@pytest.fixture(scope="module")
def zmap():
    return ZMapConfig(seed=SEED, pps=100_000.0, n_probes=2)


@pytest.fixture(scope="module")
def mono_ds(mono_world, zmap):
    return run_campaign(mono_world, paper_origins(), zmap,
                        n_trials=N_TRIALS)


@pytest.fixture(scope="module")
def streamed(sharded, zmap):
    """(StreamingCampaignResult, CampaignDataset) of one sharded grid on
    the serial path: the plane-only stream, reduced shard by shard, and
    the collected tables the streamed analyses must match."""
    result = run_sharded_campaign(sharded, paper_origins(), zmap,
                                  n_trials=N_TRIALS, executor="serial",
                                  plane_cache=False)
    dataset = run_campaign(sharded, paper_origins(), zmap,
                           n_trials=N_TRIALS, executor="serial")
    return result, dataset


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------

class TestPlanShards:
    def test_deterministic_and_contiguous(self, specs):
        topology = build_topology(list(specs), default_countries())
        a = plan_shards(topology, n_shards=N_SHARDS)
        b = plan_shards(topology, n_shards=N_SHARDS)
        assert a == b
        assert a[0] == 0
        assert a[-1] == len(list(topology.ases))
        assert list(a) == sorted(a)
        assert len(set(a)) == len(a), "no empty shards"

    def test_n_shards_respected(self, specs):
        topology = build_topology(list(specs), default_countries())
        for n in (1, 2, 5, 8):
            boundaries = plan_shards(topology, n_shards=n)
            assert len(boundaries) - 1 <= n
            assert len(boundaries) - 1 >= 1

    def test_max_hosts_bounds_all_but_single_as_overshoot(self, specs):
        topology = build_topology(list(specs), default_countries())
        from repro.sim.shard import _per_as_rows
        rows = _per_as_rows(topology)
        target = 800
        boundaries = plan_shards(topology, max_hosts=target)
        for start, stop in zip(boundaries, boundaries[1:]):
            size = int(rows[start:stop].sum())
            # greedy first-fit: a shard closes as soon as it reaches the
            # target, so the overshoot is at most one AS's rows.
            assert size < target + int(rows[start:stop].max())

    def test_argument_validation(self, specs):
        topology = build_topology(list(specs), default_countries())
        with pytest.raises(ValueError, match="not both"):
            plan_shards(topology, n_shards=2, max_hosts=100)
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards(topology, n_shards=0)
        with pytest.raises(ValueError, match="max_hosts"):
            plan_shards(topology, max_hosts=0)

    def test_manifest_row_counts_exact(self, sharded, mono_world):
        manifest = sharded.manifest
        assert manifest.n_shards == N_SHARDS
        assert sum(manifest.n_hosts) == len(mono_world.hosts.ip)
        for i in range(manifest.n_shards):
            lo, hi = manifest.as_range(i)
            in_range = ((mono_world.hosts.as_index >= lo)
                        & (mono_world.hosts.as_index < hi))
            assert manifest.n_hosts[i] == int(in_range.sum())

    def test_digest_identifies_partition(self, sharded, specs):
        other = build_sharded_world(specs, SEED, paper_defaults(),
                                    n_shards=3, cache=False)
        assert sharded.manifest.digest() != other.manifest.digest()
        again = build_sharded_world(specs, SEED, paper_defaults(),
                                    n_shards=N_SHARDS, cache=False)
        assert sharded.manifest.digest() == again.manifest.digest()
        meta = sharded.manifest.to_meta()
        assert meta["n_shards"] == N_SHARDS
        assert meta["digest"] == sharded.manifest.digest()


# ----------------------------------------------------------------------
# World-level byte-identity
# ----------------------------------------------------------------------

class TestShardedWorldEquality:
    def test_materialized_equals_monolithic(self, sharded, mono_world):
        world = sharded.materialize()
        for column in ("ip", "protocol", "as_index", "country_index"):
            np.testing.assert_array_equal(
                getattr(world.hosts, column),
                getattr(mono_world.hosts, column))

    def test_isolated_shard_equals_monolithic_slice(self, sharded,
                                                    mono_world):
        """Shard K built alone — no other shard touched — equals the
        monolithic table restricted to its AS range."""
        index = N_SHARDS - 2
        lo, hi = sharded.manifest.as_range(index)
        table = sharded.shard_hosts(index)
        mask = ((mono_world.hosts.as_index >= lo)
                & (mono_world.hosts.as_index < hi))
        for column in ("ip", "protocol", "as_index", "country_index"):
            np.testing.assert_array_equal(
                getattr(table, column),
                getattr(mono_world.hosts, column)[mask])

    def test_counts_by_protocol_matches_monolithic(self, sharded,
                                                   mono_world):
        counts = sharded.counts_by_protocol()
        for protocol in PROTOCOLS:
            view = mono_world.hosts.for_protocol(protocol)
            assert counts.get(protocol, 0) == len(view)

    def test_shard_world_observation_is_monolithic_restriction(
            self, sharded, mono_world, zmap):
        """Observing one shard's world yields exactly the monolithic
        observation rows whose hosts fall in the shard."""
        from repro.scanner.zmap import ZMapScanner
        origin = paper_origins()[0]
        names = tuple(o.name for o in paper_origins())
        scanner = ZMapScanner(zmap)
        index = 1
        lo, hi = sharded.manifest.as_range(index)
        whole = mono_world.observe("http", 0, origin, scanner, names)
        part = sharded.shard_world(index).observe("http", 0, origin,
                                                  scanner, names)
        mask = (whole.as_index >= lo) & (whole.as_index < hi)
        np.testing.assert_array_equal(part.ip, whole.ip[mask])
        np.testing.assert_array_equal(part.probe_mask,
                                      whole.probe_mask[mask])
        np.testing.assert_array_equal(part.l7, whole.l7[mask])
        np.testing.assert_array_equal(part.time, whole.time[mask])


class TestSharedModels:
    """Shard worlds share their world's per-topology models, never its
    host state."""

    def test_shard_worlds_share_models_not_host_state(self, specs, zmap):
        from repro.scanner.zmap import ZMapScanner
        sharded = build_sharded_world(specs, SEED, paper_defaults(),
                                      n_shards=N_SHARDS, cache=False)
        names = tuple(o.name for o in paper_origins())
        duration = zmap.scan_duration_s
        worlds = [sharded.shard_world(i) for i in range(N_SHARDS)]
        first = worlds[0]
        first.observe("http", 0, paper_origins()[0], ZMapScanner(zmap),
                      names)
        assert first._plans and first._host_caches
        for world in worlds[1:]:
            assert world._outages(names, duration) \
                is first._outages(names, duration)
            assert world.outage_specs() is first.outage_specs()
            assert world.hosts is not first.hosts
            assert world._plans == {} and world._plans is not first._plans
            assert world._host_caches == {} \
                and world._host_caches is not first._host_caches

    def test_outage_windows_drawn_once_per_world(self, specs, zmap,
                                                 monkeypatch):
        """Streaming k shards draws each (AS, trial) window set once."""
        from repro.conditions.outages import BurstOutageModel
        drawn = []
        fill = BurstOutageModel._fill

        def counting_fill(model, trial, as_indices, specs):
            drawn.extend((int(a), trial) for a in as_indices)
            return fill(model, trial, as_indices, specs)

        monkeypatch.setattr(BurstOutageModel, "_fill", counting_fill)
        sharded = build_sharded_world(specs, SEED, paper_defaults(),
                                      n_shards=N_SHARDS, cache=False)
        run_sharded_campaign(sharded, paper_origins(), zmap,
                             n_trials=N_TRIALS, executor="serial",
                             plane_cache=False)
        n_ases = len(sharded.shard_world(0).outage_specs())
        assert n_ases == len(sharded.topology.ases)
        assert len(drawn) == n_ases * N_TRIALS
        assert len(set(drawn)) == len(drawn)

    def test_concurrent_streams_of_one_world_match_serial(self, specs,
                                                          zmap):
        """Two grids streamed at once over one sharded world (as two
        serve requests may) fill its shared memos concurrently, and
        look up its shared topology's GeoIP tries before either has
        compiled them.  A stream's exception is raised here."""
        import sys
        import threading

        def grid(sharded, **run):
            result = run_sharded_campaign(sharded, paper_origins(), zmap,
                                          n_trials=N_TRIALS,
                                          plane_cache=False, **run)
            return json.dumps(result.report(replicates=20),
                              sort_keys=True, default=str)

        def fresh():
            return build_sharded_world(specs, SEED, paper_defaults(),
                                       n_shards=N_SHARDS, cache=False)

        reference = grid(fresh(), executor="serial")
        shared = fresh()
        grids = [None, None]
        errors = []

        def stream(slot):
            try:
                grids[slot] = grid(shared, executor="thread", workers=4)
            except BaseException as exc:  # re-raised below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=stream, args=(slot,))
                       for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        assert grids == [reference, reference]


# ----------------------------------------------------------------------
# Fingerprints and cache keys
# ----------------------------------------------------------------------

class TestFingerprints:
    def test_payload_matches_monolithic_fields(self, sharded, mono_world):
        from repro.telemetry.manifest import world_fingerprint
        payload = sharded.fingerprint_payload()
        mono = world_fingerprint(mono_world)
        assert payload["seed"] == mono["seed"]
        assert payload["n_ases"] == mono["n_ases"]
        assert payload["services"] == mono["services"]
        assert payload["shards"] == {
            "n": N_SHARDS, "digest": sharded.manifest.digest()}

    def test_campaign_fingerprint_distinguishes_sharding(
            self, sharded, mono_world, specs, zmap):
        origins = paper_origins()
        mono_fp = campaign_fingerprint(mono_world, zmap, origins,
                                       n_trials=N_TRIALS)
        shard_fp = campaign_fingerprint(sharded, zmap, origins,
                                        n_trials=N_TRIALS)
        assert mono_fp != shard_fp
        other = build_sharded_world(specs, SEED, paper_defaults(),
                                    n_shards=3, cache=False)
        assert campaign_fingerprint(other, zmap, origins,
                                    n_trials=N_TRIALS) != shard_fp
        again = build_sharded_world(specs, SEED, paper_defaults(),
                                    n_shards=N_SHARDS, cache=False)
        assert campaign_fingerprint(again, zmap, origins,
                                    n_trials=N_TRIALS) == shard_fp


# ----------------------------------------------------------------------
# Per-shard world cache
# ----------------------------------------------------------------------

class TestShardCache:
    def test_round_trip_list_and_clear(self, specs, tmp_path):
        directory = str(tmp_path / "shards")
        first = build_sharded_world(specs, SEED, paper_defaults(),
                                    n_shards=N_SHARDS, cache=directory)
        cold = [first.shard_hosts(i) for i in range(first.n_shards)]
        entries = worldcache.list_shard_entries(directory=directory)
        assert len(entries) == N_SHARDS
        assert all(e.valid for e in entries)
        by_services = sorted(e.n_services for e in entries)
        assert by_services == sorted(first.manifest.n_hosts)

        warm = build_sharded_world(specs, SEED, paper_defaults(),
                                   n_shards=N_SHARDS, cache=directory)
        for i in range(warm.n_shards):
            loaded = warm.shard_hosts(i)
            for column in ("ip", "protocol", "as_index", "country_index"):
                np.testing.assert_array_equal(getattr(loaded, column),
                                              getattr(cold[i], column))

        removed = worldcache.clear_shards(directory=directory)
        assert removed == N_SHARDS
        assert worldcache.list_shard_entries(directory=directory) == []

    def test_shard_key_depends_on_partition(self):
        a = worldcache.shard_key("base", 0, (0, 10, 20))
        assert a != worldcache.shard_key("base", 1, (0, 10, 20))
        assert a != worldcache.shard_key("base", 0, (0, 5, 20))
        assert a != worldcache.shard_key("other", 0, (0, 10, 20))
        assert a == worldcache.shard_key("base", 0, (0, 10, 20))


# ----------------------------------------------------------------------
# Streaming campaign: dataset byte-identity across backends
# ----------------------------------------------------------------------

class TestStreamingCampaign:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_collected_dataset_equals_monolithic(self, sharded, mono_ds,
                                                 zmap, backend):
        _, ds = run_sharded_campaign(sharded, paper_origins(), zmap,
                                     n_trials=N_TRIALS, executor=backend,
                                     collect=True)
        mono_keys = {(t.protocol, t.trial) for t in mono_ds}
        shard_keys = {(t.protocol, t.trial) for t in ds}
        assert mono_keys == shard_keys
        for table in ds:
            reference = mono_ds.trial_data(table.protocol, table.trial)
            assert table.origins == reference.origins
            assert table.n_probes == reference.n_probes
            for column in TABLE_COLUMNS:
                np.testing.assert_array_equal(
                    getattr(table, column), getattr(reference, column),
                    err_msg=f"{table.protocol}/{table.trial}/{column} "
                            f"via {backend}")

    def test_metadata_records_sharding_and_execution(self, streamed,
                                                     sharded):
        result, ds = streamed
        for metadata in (result.metadata, ds.metadata):
            assert metadata["sharded"] == sharded.manifest.to_meta()
            assert metadata["origins"] == [o.name for o in paper_origins()]
            assert metadata["n_trials"] == N_TRIALS
            execution = metadata["execution"]
            assert execution["backend"] == "serial"
            assert execution["n_shards"] == N_SHARDS
            assert execution["n_jobs"] > 0
        assert result.metadata["execution"].get("peak_rss_bytes", 0) > 0

    def test_shard_telemetry(self, sharded, zmap):
        from repro.telemetry import Telemetry
        with Telemetry() as tel:
            run_sharded_campaign(sharded, paper_origins()[:2], zmap,
                                 protocols=("http",), n_trials=1)
        assert tel.counters.total("shard.shards_processed") == N_SHARDS
        names = [r["name"] for r in tel.records if r.get("t") == "span"]
        assert "shard.run_campaign" in names

    def test_telemetry_journal_path_writes_manifest(self, sharded, zmap,
                                                    tmp_path):
        """A journal path passed as ``telemetry=`` gets a journal with the
        run manifest, exactly as ``run_campaign`` writes one."""
        from repro.telemetry import read_journal
        path = tmp_path / "sharded.ndjson"
        result = run_sharded_campaign(sharded, paper_origins()[:2], zmap,
                                      protocols=("http",), n_trials=1,
                                      plane_cache=False, telemetry=path)
        journal = read_journal(path)
        assert journal.manifest is not None
        assert journal.manifest["world"] == sharded.fingerprint_payload()
        assert journal.manifest["n_jobs"] == journal.span_name_counts()[
            "executor.job"]
        assert journal.span_name_counts()["shard.stream"] == N_SHARDS
        assert result.metadata["telemetry"]["journal"] == str(path)


# ----------------------------------------------------------------------
# Streaming analyses vs dataset analyses — exact float equality
# ----------------------------------------------------------------------

class TestStreamingAnalyses:
    def test_origins_for(self, streamed):
        result, ds = streamed
        for protocol in ds.protocols:
            assert result.origins_for(protocol) == \
                ds.origins_for(protocol)
            assert result.trials_for(protocol) == ds.trials_for(protocol)

    def test_coverage_table(self, streamed):
        result, ds = streamed
        for protocol in ds.protocols:
            streamed_table = result.coverage_table(protocol)
            reference = coverage.coverage_table(ds, protocol)
            assert streamed_table.origins == reference.origins
            assert streamed_table.trials == reference.trials
            assert streamed_table.coverage == reference.coverage
            assert streamed_table.intersection == reference.intersection
            assert streamed_table.union_size == reference.union_size

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_origin_summary(self, streamed, k):
        result, ds = streamed
        mine = result.k_origin_summary("http", k)
        reference = multi_origin.k_origin_summary(ds, "http", k,
                                                  engine="packed")
        for stat in ("median", "q1", "q3", "minimum", "maximum", "std"):
            assert getattr(mine, stat) == getattr(reference, stat)
        assert [(s.combo, s.trial, s.coverage) for s in mine.samples] == \
            [(s.combo, s.trial, s.coverage) for s in reference.samples]

    def test_best_combination(self, streamed):
        result, ds = streamed
        for protocol in ds.protocols:
            assert result.best_combination(protocol, 2) == \
                multi_origin.best_combination(ds, protocol, 2,
                                              engine="packed")

    @pytest.mark.parametrize("origin", ["AU", "DE", "CEN"])
    def test_bootstrap_interval(self, streamed, origin):
        result, ds = streamed
        trial_data = ds.trial_data("https", 1)
        reference = bootstrap.coverage_interval(trial_data, origin,
                                                replicates=120, seed=9)
        mine = result.coverage_interval("https", 1, origin,
                                        replicates=120, seed=9)
        assert mine == reference

    def test_per_as_coverage(self, streamed, sharded):
        result, ds = streamed
        n_ases = len(list(sharded.topology.ases))
        for origin in ("US1", "CARINET"):
            truth_vec, seen_vec = result.per_as_coverage("http", origin)
            expect_truth = np.zeros(n_ases, dtype=np.int64)
            expect_seen = np.zeros(n_ases, dtype=np.int64)
            for trial in ds.trials_for("http"):
                table = ds.trial_data("http", trial)
                truth = table.ground_truth()
                expect_truth += np.bincount(table.as_index[truth],
                                            minlength=n_ases)
                # CARINET only scanned trial 1 — truth still accumulates
                # over every trial, matching the streaming accumulator.
                if table.has_origin(origin):
                    seen = table.accessible(origin) & truth
                    expect_seen += np.bincount(table.as_index[seen],
                                               minlength=n_ases)
            np.testing.assert_array_equal(truth_vec, expect_truth)
            np.testing.assert_array_equal(seen_vec, expect_seen)

    def test_report_is_jsonable_and_complete(self, streamed):
        result, ds = streamed
        report = result.report(max_k=2, replicates=60)
        encoded = json.loads(json.dumps(report))
        assert set(encoded) == set(ds.protocols)
        for protocol, section in encoded.items():
            assert section["origins"] == ds.origins_for(protocol)
            assert set(section["multi_origin"]) == {"1", "2"}
            assert 2 in [int(k) for k in section["best_combination"]]


# ----------------------------------------------------------------------
# Memory budget
# ----------------------------------------------------------------------

class TestMemoryBudget:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv(ENV_MEMORY_BUDGET, raising=False)
        assert memory_budget() == DEFAULT_MEMORY_BUDGET
        monkeypatch.setenv(ENV_MEMORY_BUDGET, "1048576")
        assert memory_budget() == 1048576
        assert memory_budget(42) == 42

    def test_undersized_budget_rejected_before_running(self, sharded,
                                                       zmap):
        with pytest.raises(MemoryBudgetError) as excinfo:
            run_sharded_campaign(sharded, paper_origins(), zmap,
                                 n_trials=N_TRIALS, budget=1)
        message = str(excinfo.value)
        assert ENV_MEMORY_BUDGET in message
        assert "shard" in message

    def test_footprint_scales_with_grid(self, sharded):
        small = sharded.shard_footprint(0, n_origins=1, n_trials=1)
        big = sharded.shard_footprint(0, n_origins=8, n_trials=3)
        assert big > small
        assert small > sharded.manifest.n_hosts[0]


# ----------------------------------------------------------------------
# Streaming primitives
# ----------------------------------------------------------------------

class TestBitPlaneWriter:
    def test_matches_monolithic_packbits(self):
        rng = np.random.default_rng(7)
        chunks = [rng.random(n) < 0.4
                  for n in (0, 3, 8, 13, 1, 0, 257, 6)]
        writer = BitPlaneWriter()
        for chunk in chunks:
            writer.append(chunk)
        whole = np.concatenate(chunks)
        np.testing.assert_array_equal(writer.finish(),
                                      np.packbits(whole))
        assert writer.n_bits == len(whole)

    def test_empty(self):
        writer = BitPlaneWriter()
        assert writer.n_bits == 0
        assert len(writer.finish()) == 0


class TestStreamingTrial:
    def _table(self, origins, ips, statuses):
        from tests.conftest import make_trial
        return make_trial("http", 0, origins, ips,
                          {o: statuses for o in origins})

    def test_origin_mismatch_rejected(self):
        trial = StreamingTrial(protocol="http", trial=0, n_ases=4)
        trial.add_shard(self._table(["A", "B"], [1, 2], ["ok", "fin"]))
        with pytest.raises(ValueError, match="share a grid"):
            trial.add_shard(self._table(["A", "C"], [3], ["ok"]))

    def test_add_after_finish_rejected(self):
        trial = StreamingTrial(protocol="http", trial=0, n_ases=4)
        trial.add_shard(self._table(["A"], [1, 2], ["ok", "drop"]))
        trial.finish()
        with pytest.raises(RuntimeError, match="finished"):
            trial.add_shard(self._table(["A"], [3], ["ok"]))

    def test_finish_without_shards_rejected(self):
        trial = StreamingTrial(protocol="http", trial=0, n_ases=4)
        with pytest.raises(RuntimeError, match="no shards"):
            trial.finish()
