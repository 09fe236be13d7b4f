"""The shared-memory world handoff of the process executor.

The world's arrays must cross the process boundary exactly once — as a
shared mapping, not as pickle bytes — while producing campaigns
byte-identical to serial execution.  Job payloads stay a few hundred
bytes no matter how large the world is, which is what keeps grid
scheduling cheap.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.io.columnar import arrays_from_buffer, decompose_world
from repro.sim.campaign import build_trial_batches, run_campaign
from repro.sim.executor import (ProcessExecutor, SharedWorld,
                                make_executor)
from repro.sim.scenario import paper_scenario

PROTOCOLS = ("http", "ssh")
TRIAL_ARRAYS = ("ip", "as_index", "country_index", "geo_index",
                "probe_mask", "l7", "time")


def assert_campaigns_identical(a, b):
    for table in a:
        other = b.trial_data(table.protocol, table.trial)
        assert other.origins == table.origins
        for name in TRIAL_ARRAYS:
            assert getattr(other, name).tobytes() \
                == getattr(table, name).tobytes(), (name, table.protocol)


@pytest.fixture(scope="module")
def shm_world():
    return paper_scenario(seed=19, scale=0.02)


@pytest.mark.slow
def test_shm_campaign_byte_identical_to_serial(shm_world):
    world, origins, config = shm_world
    serial = run_campaign(world, origins, config, protocols=PROTOCOLS,
                          n_trials=2, executor="serial")
    shm = run_campaign(world, origins, config, protocols=PROTOCOLS,
                       n_trials=2,
                       executor=ProcessExecutor(workers=2,
                                                transport="shm"))
    assert_campaigns_identical(serial, shm)
    assert shm.metadata["execution"]["transport"] == "shm"
    assert "transport" not in serial.metadata["execution"]


@pytest.mark.slow
def test_pickle_transport_still_byte_identical(shm_world):
    world, origins, config = shm_world
    serial = run_campaign(world, origins, config, protocols=("http",),
                          n_trials=1)
    pickled = run_campaign(world, origins, config, protocols=("http",),
                           n_trials=1,
                           executor=ProcessExecutor(workers=2,
                                                    transport="pickle"))
    assert_campaigns_identical(serial, pickled)
    assert pickled.metadata["execution"]["transport"] == "pickle"


def test_transport_env_and_validation(monkeypatch):
    assert ProcessExecutor(workers=1).transport == "shm"
    monkeypatch.setenv("REPRO_WORLD_TRANSPORT", "pickle")
    assert ProcessExecutor(workers=1).transport == "pickle"
    executor = make_executor("process", workers=1)
    assert isinstance(executor, ProcessExecutor)
    assert executor.transport == "pickle"
    monkeypatch.delenv("REPRO_WORLD_TRANSPORT")
    with pytest.raises(ValueError, match="unknown world transport"):
        ProcessExecutor(workers=1, transport="carrier-pigeon")


def test_shared_world_views_are_zero_copy_and_read_only(shm_world):
    """In-process attach: what a worker does, without the fork."""
    from repro.io.columnar import recompose_world

    world, origins, config = shm_world
    shared = SharedWorld(world)
    try:
        views = arrays_from_buffer(shared._shm.buf, shared.layout)
        rebuilt = recompose_world(shared.skeleton, views)
        # Zero-copy: the rebuilt columns alias the shared mapping, and
        # writes through them are refused.
        base = np.frombuffer(shared._shm.buf, dtype=np.uint8)
        assert np.shares_memory(rebuilt.hosts.ip, base)
        assert not rebuilt.hosts.ip.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            rebuilt.hosts.ip[0] = 1
        from repro.scanner.zmap import ZMapScanner
        names = tuple(o.name for o in origins)
        ours = world.observe("http", 0, origins[0],
                             ZMapScanner(config), names)
        theirs = rebuilt.observe("http", 0, origins[0],
                                 ZMapScanner(config), names)
        assert ours.probe_mask.tobytes() == theirs.probe_mask.tobytes()
        assert ours.time.tobytes() == theirs.time.tobytes()
        del rebuilt, views, base
    finally:
        shared.close()


def test_initargs_carry_no_arrays(shm_world):
    """The shm handoff pickles only the skeleton: arrays stay shared."""
    world, _, _ = shm_world
    skeleton, arrays = decompose_world(world)
    # The decomposed arrays alias the world's live columns (no copies).
    assert np.shares_memory(arrays["hosts.ip"], world.hosts.ip)
    shared = SharedWorld(world)
    try:
        initargs_bytes = len(pickle.dumps(shared.initargs(False),
                                          protocol=pickle.HIGHEST_PROTOCOL))
        world_bytes = len(pickle.dumps(world,
                                       protocol=pickle.HIGHEST_PROTOCOL))
        array_bytes = sum(np.asarray(a).nbytes for a in arrays.values())
        # Worker setup cost excludes the array plane entirely.
        assert initargs_bytes < world_bytes - array_bytes * 0.5
    finally:
        shared.close()


def test_job_payloads_stay_small_and_scale_free():
    small_world, origins, config = paper_scenario(seed=19, scale=0.02)
    big_world, _, big_config = paper_scenario(seed=19, scale=0.06)
    assert len(big_world.hosts) > 2 * len(small_world.hosts)

    def payload_sizes(cfg):
        jobs = build_trial_batches(origins, cfg, PROTOCOLS, 2)
        return [len(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL))
                for job in jobs]

    small_sizes = payload_sizes(config)
    big_sizes = payload_sizes(big_config)
    # A few hundred bytes each, and independent of world scale: jobs
    # carry indices and configs, never host arrays.
    assert max(small_sizes + big_sizes) < 2048
    assert small_sizes == big_sizes
