"""The content-addressed world cache: keys, hits, equivalence, repair.

The cache must be invisible except for speed: a world loaded from a
cache entry produces byte-identical campaigns to a freshly built one,
every input change (specs, seed, defaults) changes the key, corrupt
entries are rebuilt rather than trusted, and ``REPRO_WORLD_CACHE=0``
turns the whole layer off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.io import worldcache
from repro.sim.campaign import run_campaign
from repro.sim.scenario import (build_world_from_specs, paper_defaults,
                                paper_scenario, paper_specs)
from repro.telemetry.context import Telemetry, use
from repro.topology.geo import default_countries

SCALE = 0.02


def build(seed, cache, specs=None, defaults=None):
    return build_world_from_specs(
        specs if specs is not None else paper_specs(seed, SCALE),
        seed, defaults if defaults is not None else paper_defaults(),
        cache=cache)


def test_miss_then_hit(tmp_path):
    tel = Telemetry()
    with use(tel):
        first = build(21, cache=str(tmp_path))
        second = build(21, cache=str(tmp_path))
    assert tel.counters.total("cache.world_miss") == 1
    assert tel.counters.total("cache.world_hit") == 1
    assert len(worldcache.list_entries(tmp_path)) == 1
    assert len(second.hosts) == len(first.hosts)
    assert second.hosts.ip.tobytes() == first.hosts.ip.tobytes()


def test_cached_world_campaigns_byte_identical(tmp_path):
    _, origins, config = paper_scenario(seed=23, scale=SCALE)
    fresh = build(23, cache=False)
    build(23, cache=str(tmp_path))       # populate the cache
    cached = build(23, cache=str(tmp_path))  # loaded from disk
    reference = run_campaign(fresh, origins, config,
                             protocols=("http",), n_trials=2)
    from_cache = run_campaign(cached, origins, config,
                              protocols=("http",), n_trials=2)
    for table in reference:
        other = from_cache.trial_data(table.protocol, table.trial)
        for name in ("ip", "as_index", "country_index", "geo_index",
                     "probe_mask", "l7", "time"):
            assert getattr(other, name).tobytes() \
                == getattr(table, name).tobytes(), name


def test_key_is_stable_and_input_sensitive():
    specs = paper_specs(7, SCALE)
    defaults = paper_defaults()
    countries = default_countries()
    key = worldcache.world_key(specs, 7, defaults, countries)
    assert key == worldcache.world_key(paper_specs(7, SCALE), 7,
                                       defaults, countries)
    assert len(key) == 64
    # Every input dimension moves the key: seed, specs (scale folds into
    # them), and defaults.
    assert key != worldcache.world_key(specs, 8, defaults, countries)
    assert key != worldcache.world_key(paper_specs(7, SCALE * 2), 7,
                                       defaults, countries)
    import dataclasses
    tweaked = dataclasses.replace(defaults, churner_wobble=0.5)
    assert key != worldcache.world_key(specs, 7, tweaked, countries)


#: Builds the paper world and a variant (both hold firewall/regional
#: sets) into ``REPRO_CACHE_DIR`` and reports the world-cache hits.
_CROSS_PROCESS_BUILDS = """
import json
from repro.io import worldcache
from repro.sim.scenario import paper_scenario, paper_sharded_scenario
from repro.sim.variants import uniform_loss_world
from repro.telemetry.context import Telemetry, use
tel = Telemetry()
with use(tel):
    paper_scenario(seed=5, scale=0.02)
    uniform_loss_world(seed=5, scale=0.02)
sharded = paper_sharded_scenario(seed=5, scale=0.02, n_shards=2)[0]
print(json.dumps({
    "keys": sorted(entry.key for entry in worldcache.list_entries()),
    "hits": tel.counters.total("cache.world_hit"),
    "shard_base": sharded.manifest.base_key}))
"""


def test_key_is_the_same_in_every_process(tmp_path):
    """Set iteration order follows ``PYTHONHASHSEED``; the key must not."""
    import json
    import os
    import subprocess
    import sys

    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   REPRO_CACHE_DIR=str(tmp_path))
        done = subprocess.run([sys.executable, "-c", _CROSS_PROCESS_BUILDS],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    first, second = runs
    assert len(first["keys"]) == 2
    assert second["keys"] == first["keys"]
    assert second["shard_base"] == first["shard_base"]
    assert (first["hits"], second["hits"]) == (0, 2)


def test_env_opt_out(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORLD_CACHE", "0")
    build(31, cache=None)
    assert worldcache.list_entries() == []
    monkeypatch.delenv("REPRO_WORLD_CACHE")
    build(31, cache=None)
    assert len(worldcache.list_entries()) == 1


def test_cache_false_bypasses(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    build(33, cache=False)
    assert worldcache.list_entries() == []


def test_corrupt_entry_is_rebuilt(tmp_path):
    tel = Telemetry()
    with use(tel):
        build(27, cache=str(tmp_path))
        [entry] = worldcache.list_entries(tmp_path)
        blob = bytearray(entry.path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.path.write_bytes(bytes(blob))
        rebuilt = build(27, cache=str(tmp_path))
    # Corruption reads as a miss, and the entry is repaired in place.
    assert tel.counters.total("cache.world_miss") == 2
    assert tel.counters.total("cache.world_hit") == 0
    fresh = build(27, cache=False)
    assert rebuilt.hosts.ip.tobytes() == fresh.hosts.ip.tobytes()
    tel2 = Telemetry()
    with use(tel2):
        build(27, cache=str(tmp_path))
    assert tel2.counters.total("cache.world_hit") == 1


def test_list_entries_reports_meta_and_corruption(tmp_path):
    build(29, cache=str(tmp_path))
    [entry] = worldcache.list_entries(tmp_path)
    assert entry.valid
    assert entry.seed == 29
    assert entry.n_services is not None and entry.n_services > 0
    assert entry.n_ases is not None and entry.n_ases > 0
    assert entry.nbytes == entry.path.stat().st_size
    # A trashed header shows up as invalid instead of raising.
    entry.path.write_bytes(b"garbage")
    [broken] = worldcache.list_entries(tmp_path)
    assert not broken.valid


def test_clear_removes_all_entries(tmp_path):
    build(41, cache=str(tmp_path))
    build(43, cache=str(tmp_path))
    assert len(worldcache.list_entries(tmp_path)) == 2
    assert worldcache.clear(tmp_path) == 2
    assert worldcache.list_entries(tmp_path) == []
    assert worldcache.clear(tmp_path) == 0


def test_scenarios_share_the_session_cache():
    """paper_scenario uses the ambient cache dir (pinned by conftest)."""
    tel = Telemetry()
    with use(tel):
        first, _, _ = paper_scenario(seed=47, scale=SCALE)
        second, _, _ = paper_scenario(seed=47, scale=SCALE)
    assert tel.counters.total("cache.world_miss") == 1
    assert tel.counters.total("cache.world_hit") == 1
    assert second.hosts.ip.tobytes() == first.hosts.ip.tobytes()
    assert np.array_equal(second.hosts.as_index, first.hosts.as_index)


def test_concurrent_cold_builders_elect_single_writer(tmp_path):
    """Regression: racing cold builds must never interleave one entry.

    Before the O_EXCL write claim, two builders missing on the same key
    could write the same temp path and rename a half-interleaved file
    into place.  Four synchronized builders now elect one writer; the
    losers still return their built worlds, and the published entry is
    CRC-valid and equivalent to every racer's result.
    """
    import threading

    n = 4
    barrier = threading.Barrier(n)
    worlds: list = [None] * n
    tels = [Telemetry() for _ in range(n)]

    def race(i: int) -> None:
        with use(tels[i]):
            barrier.wait()
            worlds[i] = build(31, cache=str(tmp_path))

    threads = [threading.Thread(target=race, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()

    [entry] = worldcache.list_entries(tmp_path)
    assert entry.valid
    # no claim or temp litter survives the race
    assert [p.name for p in tmp_path.iterdir()
            if not p.name.endswith(".world")] == []
    # every racer built (all missed) and at most one wrote concurrently
    assert sum(t.counters.total("cache.world_miss") for t in tels) == n
    skipped = sum(t.counters.total("cache.world_write_skipped")
                  for t in tels)
    assert 0 <= skipped <= n - 1
    # the published entry serves bytes equivalent to every racer's world
    tel = Telemetry()
    with use(tel):
        loaded = build(31, cache=str(tmp_path))
    assert tel.counters.total("cache.world_hit") == 1
    for world in worlds:
        assert world.hosts.ip.tobytes() == loaded.hosts.ip.tobytes()
        assert world.hosts.protocol.tobytes() \
            == loaded.hosts.protocol.tobytes()
