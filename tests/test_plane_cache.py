"""Plane-granular result cache: incremental recomputation stays exact.

The contract under test is the tentpole guarantee: a campaign served
through the plane cache — cold, warm, partially warm, sharded, on any
executor backend — produces *the same bytes* as the non-incremental
reference path (``plane_cache=False``), while dispatching exactly the
units the cache does not already hold.  Corruption surfaces as a
recompute-and-overwrite, never as wrong bytes; ``REPRO_PLANE_CACHE=0``
bypasses the cache entirely; and the eviction pass
(:mod:`repro.io.prune`) removes oldest-first without breaking readers.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.io import prune
from repro.serve import planecache
from repro.serve.client import ServeClient
from repro.serve.handlers import (BadRequest, CampaignRequest, ServeState,
                                  parse_request)
from repro.serve.server import ServeConfig, ThreadedServer
from repro.sim.scenario import paper_scenario, paper_sharded_scenario
from repro.sim.shard import run_sharded_campaign

SEED = 11
SCALE = 0.02
PROTS = ("http", "https")
N_TRIALS = 2


@pytest.fixture()
def plane_dir(tmp_path, monkeypatch):
    """A per-test plane-cache root (the session default is shared)."""
    root = tmp_path / "planes"
    monkeypatch.setenv(planecache.ENV_PLANE_CACHE_DIR, str(root))
    return root


@pytest.fixture(scope="module")
def scenario():
    return paper_scenario(seed=SEED, scale=SCALE)


def grid_bytes(result) -> str:
    return json.dumps(result.report(), sort_keys=True, default=str)


def run(scenario, origins=None, plane_cache=None, **kwargs):
    world, all_origins, config = scenario
    kwargs.setdefault("protocols", PROTS)
    kwargs.setdefault("n_trials", N_TRIALS)
    return run_sharded_campaign(world, origins or all_origins, config,
                                plane_cache=plane_cache, **kwargs)


# ----------------------------------------------------------------------
# Byte-identity against the non-incremental reference
# ----------------------------------------------------------------------

def test_cold_warm_and_disabled_are_byte_identical(scenario, plane_dir):
    reference = run(scenario, plane_cache=False)
    assert "plane_cache" not in reference.metadata

    cold = run(scenario)
    stats = cold.metadata["plane_cache"]
    assert stats["hits"] == 0 and stats["stores"] == stats["misses"] > 0
    assert grid_bytes(cold) == grid_bytes(reference)

    warm = run(scenario)
    stats = warm.metadata["plane_cache"]
    assert stats["misses"] == 0 and stats["hits"] > 0
    # A fully warm run dispatches nothing at all.
    assert warm.metadata["execution"] == {}
    assert grid_bytes(warm) == grid_bytes(reference)


#: The ``.planes`` unit keys of the run below, as recorded from a
#: release that drove plain-world plane runs through a separate
#: driver.  Unit keys are content addresses shared across processes and
#: releases, so caches primed by that release must keep hitting.
PINNED_UNIT_KEYS = (
    "0015d6f3e00d867d7153a21cff8411e7af87a7eb274ec934ba52c530abffe454",
    "03c9bc6698f89cdc8ab2f95aeeb8371a6bd48eac8ffe3887127fea230f7a7eac",
    "055fa82049381b4ad17856a6193c89dc9fd9113f304a0b9182651cf83e422a72",
    "15d438507b5f8570ac09653f00ccf0d91e82f729eede644f6ab17ffef1eb44c6",
    "1777267a4d44da5bc4e541b156d3f0ec7411c7fefc5c5ffcfc34dcc207487519",
    "1f640f35648b569da435014594d7075b4944d185aee5baaf0a9eb6377a9d49f6",
    "3ee3d4ed4cad24a35a40c04ae52d9ab4cc94426b362f46f831306bdf7500d511",
    "5ca3a2fd3203fbafb2e55fc7d5f7a565f1046d9f5900c44dd75a53894b4707aa",
)


def test_unit_keys_are_pinned_across_the_driver_merge(scenario, plane_dir):
    """A plain world streams as its own single shard under the same unit
    keys (``"shard": [0, 1]``) that earlier releases wrote."""
    world, origins, config = scenario
    universe = [o.name for o in origins]
    result = run(scenario, origins=origins[:2], protocols=("http", "ssh"),
                 origin_universe=universe, plane_extra={"engine": ""})
    assert result.metadata["plane_cache"]["stores"] == len(PINNED_UNIT_KEYS)
    keys = sorted(entry.key for entry in planecache.list_entries(plane_dir))
    assert tuple(keys) == PINNED_UNIT_KEYS


# ----------------------------------------------------------------------
# Partial-hit reassembly: the cache pays only for the delta
# ----------------------------------------------------------------------

def test_add_origin_dispatches_only_the_new_batches(scenario, plane_dir):
    world, origins, config = scenario
    universe = [o.name for o in origins]
    added = "CEN"
    subset = tuple(o for o in origins if o.name != added)

    run(scenario, origins=subset, origin_universe=universe)
    full = run(scenario)
    stats = full.metadata["plane_cache"]
    # Exactly the new origin's units miss: one batch job per protocol,
    # n_trials units each.
    assert stats["misses"] == len(PROTS) * N_TRIALS
    assert full.metadata["execution"]["n_jobs"] == len(PROTS)
    assert grid_bytes(full) == grid_bytes(run(scenario, plane_cache=False))


def test_extend_trials_computes_only_the_new_trials(scenario, plane_dir):
    cold = run(scenario, n_trials=2)
    extended = run(scenario, n_trials=3)
    stats = extended.metadata["plane_cache"]
    assert stats["hits"] == cold.metadata["plane_cache"]["stores"]
    # Only trial-2 units were computed.
    assert 0 < stats["misses"] < stats["hits"]
    reference = run(scenario, n_trials=3, plane_cache=False)
    assert grid_bytes(extended) == grid_bytes(reference)


def test_add_protocol_computes_only_the_new_protocol(scenario, plane_dir):
    run(scenario, protocols=("http",))
    both = run(scenario, protocols=("http", "https"))
    stats = both.metadata["plane_cache"]
    assert stats["hits"] > 0
    hit_share = stats["hits"] / (stats["hits"] + stats["misses"])
    assert hit_share == 0.5  # http is warm, https is cold
    reference = run(scenario, protocols=("http", "https"),
                    plane_cache=False)
    assert grid_bytes(both) == grid_bytes(reference)


def test_origin_subset_reuses_full_universe_planes(scenario, plane_dir):
    world, origins, config = scenario
    universe = [o.name for o in origins]
    run(scenario)
    subset = origins[:3]
    warm = run(scenario, origins=subset, origin_universe=universe)
    assert warm.metadata["plane_cache"]["misses"] == 0
    reference = run(scenario, origins=subset, origin_universe=universe,
                    plane_cache=False)
    assert grid_bytes(warm) == grid_bytes(reference)


def test_universe_must_contain_every_origin(scenario, plane_dir):
    world, origins, config = scenario
    with pytest.raises(ValueError):
        run_sharded_campaign(world, origins, config, protocols=PROTS,
                             n_trials=1, origin_universe=["AU"])


# ----------------------------------------------------------------------
# Sharded worlds, across executor backends
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_sharded_incremental_matches_reference(tmp_path, monkeypatch,
                                               backend):
    monkeypatch.setenv(planecache.ENV_PLANE_CACHE_DIR,
                       str(tmp_path / "planes"))
    sharded, origins, config = paper_sharded_scenario(
        seed=SEED, scale=SCALE, n_shards=3)
    workers = 2 if backend != "serial" else None
    reference = run_sharded_campaign(sharded, origins, config,
                                     protocols=PROTS, n_trials=N_TRIALS,
                                     executor=backend, workers=workers,
                                     plane_cache=False)
    cold = run_sharded_campaign(sharded, origins, config,
                                protocols=PROTS, n_trials=N_TRIALS,
                                executor=backend, workers=workers)
    stats = cold.metadata["plane_cache"]
    assert stats["hits"] == 0 and stats["stores"] == stats["misses"] > 0
    assert grid_bytes(cold) == grid_bytes(reference)

    warm = run_sharded_campaign(sharded, origins, config,
                                protocols=PROTS, n_trials=N_TRIALS,
                                executor=backend, workers=workers)
    stats = warm.metadata["plane_cache"]
    assert stats["misses"] == 0 and stats["hits"] > 0
    assert warm.metadata["execution"] == {}
    assert grid_bytes(warm) == grid_bytes(reference)


# ----------------------------------------------------------------------
# Durability: corruption repairs, opt-out bypasses
# ----------------------------------------------------------------------

def test_corrupt_entry_recomputes_and_overwrites(scenario, plane_dir):
    reference = run(scenario, plane_cache=False)
    run(scenario)
    victim = sorted(plane_dir.glob("*.planes"))[0]
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(bytes(blob))

    repaired = run(scenario)
    stats = repaired.metadata["plane_cache"]
    assert stats["repairs"] == 1 and stats["stores"] == 1
    assert grid_bytes(repaired) == grid_bytes(reference)

    # The overwrite healed the entry: the next run is fully warm.
    healed = run(scenario)
    assert healed.metadata["plane_cache"]["repairs"] == 0
    assert healed.metadata["plane_cache"]["misses"] == 0


def test_env_opt_out_writes_nothing(scenario, plane_dir, monkeypatch):
    monkeypatch.setenv(planecache.ENV_PLANE_CACHE, "0")
    result = run(scenario)
    assert "plane_cache" not in result.metadata
    assert not plane_dir.exists() or not list(plane_dir.glob("*.planes"))


def test_listing_and_world_grouping(scenario, plane_dir):
    run(scenario)
    entries = planecache.list_entries(plane_dir)
    assert entries and all(e.valid for e in entries)
    groups = planecache.by_world(entries)
    assert len(groups) == 1
    (digest, row), = groups.items()
    assert row["count"] == len(entries)
    assert row["nbytes"] == sum(e.nbytes for e in entries)
    assert planecache.clear(plane_dir) == len(entries)
    assert planecache.list_entries(plane_dir) == []


# ----------------------------------------------------------------------
# Eviction (REPRO_CACHE_MAX_BYTES / repro cache prune)
# ----------------------------------------------------------------------

def _fake_entries(root, count, size=100, suffix=".planes"):
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(count):
        path = root / f"entry{index}{suffix}"
        path.write_bytes(b"x" * size)
        os.utime(path, (1_000_000 + index, 1_000_000 + index))
        paths.append(path)
    return paths


def test_prune_evicts_oldest_first(tmp_path):
    paths = _fake_entries(tmp_path, 5, size=100)
    (tmp_path / "claim.lock").write_bytes(b"")  # never a candidate
    report = prune.prune(max_bytes=250, roots=[tmp_path])
    assert report.scanned == 5
    assert report.removed == 3 and report.kept == 2
    assert report.freed_bytes == 300 and report.kept_bytes == 200
    survivors = sorted(p.name for p in tmp_path.glob("*.planes"))
    assert survivors == ["entry3.planes", "entry4.planes"]
    assert (tmp_path / "claim.lock").exists()


def test_prune_spans_every_cache_suffix(tmp_path):
    for suffix in prune.CACHE_SUFFIXES:
        _fake_entries(tmp_path, 1, size=100, suffix=suffix)
    report = prune.prune(max_bytes=0, roots=[tmp_path])
    assert report.removed == len(prune.CACHE_SUFFIXES)
    assert not any(tmp_path.glob("entry*"))


def test_prune_requires_a_budget(tmp_path, monkeypatch):
    monkeypatch.delenv(prune.ENV_CACHE_MAX_BYTES, raising=False)
    with pytest.raises(ValueError):
        prune.prune(roots=[tmp_path])
    assert prune.maybe_prune() is None


def test_maybe_prune_honors_env(tmp_path, monkeypatch):
    _fake_entries(tmp_path, 4, size=100)
    monkeypatch.setenv(prune.ENV_CACHE_MAX_BYTES, "200")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv(planecache.ENV_PLANE_CACHE_DIR, str(tmp_path))
    report = prune.maybe_prune()
    assert report is not None and report.removed == 2


def test_cache_prune_cli(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    _fake_entries(tmp_path, 3, size=100)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv(planecache.ENV_PLANE_CACHE_DIR, str(tmp_path))
    assert main(["cache", "prune", "--max-bytes", "150"]) == 0
    out = capsys.readouterr().out
    assert "pruned 2 of 3" in out
    assert len(list(tmp_path.glob("*.planes"))) == 1

    monkeypatch.delenv(prune.ENV_CACHE_MAX_BYTES, raising=False)
    assert main(["cache", "prune"]) == 2


# ----------------------------------------------------------------------
# Serving: the grid surface is incremental end-to-end
# ----------------------------------------------------------------------

SPEC = {"seed": SEED, "scale": SCALE, "protocols": list(PROTS),
        "n_trials": N_TRIALS}


def test_request_accepts_origins_and_report_surface():
    request = parse_request({"origins": ["BR", "AU"], "report": "grid",
                             **SPEC})
    assert request.origins == ("AU", "BR")  # normalized to scenario order
    assert request.report == "grid"
    # Selecting every origin is the same request as selecting none.
    full = parse_request({"origins": ["AU", "BR", "DE", "JP", "US1",
                                      "US64", "CEN", "CARINET"], **SPEC})
    assert full == parse_request(dict(SPEC))
    with pytest.raises(BadRequest):
        parse_request({"origins": ["XX"], **SPEC})
    with pytest.raises(BadRequest):
        parse_request({"origins": [], **SPEC})
    with pytest.raises(BadRequest):
        parse_request({"report": "pdf", **SPEC})


def test_serve_state_lru_key_is_canonical(tmp_path):
    state = ServeState(cache_dir=str(tmp_path))
    request = CampaignRequest(seed=SEED, scale=SCALE)
    state.world_for(request)
    state.world_for(request)
    (key,) = state._worlds.keys()
    assert key == json.dumps(
        {"scenario": "paper", "seed": SEED, "scale": SCALE, "shards": 1},
        sort_keys=True)
    assert json.loads(key) == dict(sorted(json.loads(key).items()))


def test_served_grid_is_incremental_and_byte_identical(tmp_path,
                                                       monkeypatch):
    monkeypatch.setenv(planecache.ENV_PLANE_CACHE_DIR,
                       str(tmp_path / "results"))
    config = ServeConfig(port=0, cache_dir=str(tmp_path / "results"),
                         queue_depth=16, request_timeout=120.0)
    with ThreadedServer(config=config) as ts:
        client = ServeClient(port=ts.port)
        first = client.report(report="grid", **SPEC)
        again = client.report(report="grid", **SPEC)
        assert first.source == "miss" and again.source == "hit"
        assert again.text == first.text

        planes = client.cache_planes()
        assert planes["count"] > 0
        assert planes["nbytes"] > 0 and len(planes["worlds"]) == 1

        # A subset request is a result-cache miss but a full plane hit:
        # zero new units are computed.
        before = client.metrics()["counters"]
        subset = client.report(report="grid", origins=["AU", "BR", "DE"],
                               **SPEC)
        after = client.metrics()["counters"]
        assert subset.source == "miss"
        assert subset.key != first.key
        assert after.get("serve.plane_miss", 0) == \
            before.get("serve.plane_miss", 0)
        assert after.get("serve.plane_hit", 0) > \
            before.get("serve.plane_hit", 0)

        # The full surface is a distinct cache identity.
        full = client.report(**SPEC)
        assert full.key != first.key
        assert full.text != first.text
    assert after["serve.cache_hit"] >= 1
    assert after["serve.cache_miss"] >= 2


def test_served_grid_matches_offline_plane_run(tmp_path, monkeypatch,
                                               scenario):
    monkeypatch.setenv(planecache.ENV_PLANE_CACHE_DIR,
                       str(tmp_path / "results"))
    config = ServeConfig(port=0, cache_dir=str(tmp_path / "results"),
                         queue_depth=16, request_timeout=120.0)
    with ThreadedServer(config=config) as ts:
        client = ServeClient(port=ts.port)
        served = client.report(report="grid", **SPEC)
    offline = run(scenario, plane_cache=False)
    expected = json.dumps(offline.report(), sort_keys=True, indent=2,
                          default=str) + "\n"
    assert served.text == expected
