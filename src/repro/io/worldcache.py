"""Content-addressed cache of compiled worlds.

Building a paper-scale world costs ~100 ms of topology allocation and
population draws, repeated by every CLI invocation, every test session,
and every sweep over seeds.  The output, though, is a pure function of
its inputs: the AS spec list, the seed, the world defaults, and the
country registry that seeds the GeoIP database.  This module hashes
those inputs into a cache key and stores the finished world as a
columnar snapshot (:mod:`repro.io.columnar`), so a warm
``build_world_from_specs`` is an mmap load instead of a rebuild.

The key is a SHA-256 over a *canonical pickle* of the inputs: a
C-speed pickle at a pinned protocol whose one source of nondeterminism
— set/frozenset iteration order, which varies with ``PYTHONHASHSEED``
— is removed by re-reducing every object that holds a set so that the
set is rebuilt from a sorted tuple.  The key is therefore the same in
every process.  Pickle bytes decode to exactly one value, so two
different inputs can never share a key (no false hits); at worst an
equal value constructed with different internal sharing re-pickles
differently and misses spuriously, which only costs a rebuild.  Any
input change (a spec field, the seed, the scale folded into the specs,
a GeoIP country entry, the snapshot format itself) changes the key;
stale entries are simply never addressed again.

Environment:

* ``REPRO_CACHE_DIR`` — cache root (default ``$XDG_CACHE_HOME/repro``
  or ``~/.cache/repro``).
* ``REPRO_WORLD_CACHE=0`` — disable the cache entirely.

Corrupt or truncated entries (a killed writer, a flipped bit — CRCs are
verified per segment) are treated as misses and rebuilt; writes are
atomic (temp file + rename), and concurrent cold builders elect a single
writer through an ``O_EXCL`` claim lockfile so racing builds — threads
or processes — can never interleave writes to one entry (stale claims
from killed writers are broken after :data:`STALE_CLAIM_S`).  Hits load with a *lazy*
topology: the pickled registries and tries stay frozen until first
touched, so a warm ``build_world_from_specs`` pays only the key hash,
the manifest read, and the host-column adoption.  (An entry whose CRCs
pass but whose pickled classes have drifted surfaces at first topology
access rather than at load — bump :data:`BUILDER_VERSION` when class
layouts change.)  Hits and misses are
counted as ``cache.world_hit`` / ``cache.world_miss`` — a ``cache.``
namespace excluded from telemetry's cross-backend determinism contract,
since warmth is process-local state.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.io.columnar import (FORMAT_VERSION, SnapshotError, load_hosts,
                               load_world, read_snapshot_manifest,
                               save_hosts, save_world)
from repro.telemetry.context import current as _telemetry

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_WORLD_CACHE = "REPRO_WORLD_CACHE"

#: Bump when world *construction* changes meaning for identical inputs
#: (topology allocation, population draws, ...): old entries must not
#: satisfy new builds.
BUILDER_VERSION = 1

_SUFFIX = ".world"
_SHARD_SUFFIX = ".shard"

PathLike = Union[str, os.PathLike]


def cache_enabled() -> bool:
    """Whether the world cache is on (``REPRO_WORLD_CACHE`` != ``0``)."""
    return os.environ.get(ENV_WORLD_CACHE, "1") != "0"


def cache_dir(directory: Optional[PathLike] = None) -> Path:
    """Resolve the cache root: argument > env > XDG default."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


# ----------------------------------------------------------------------
# Canonical fingerprinting
# ----------------------------------------------------------------------

#: Pinned pickle protocol for cache keys: a protocol bump in a future
#: Python must not silently re-key (and orphan) every cached world.
_KEY_PROTOCOL = 5

_SETS = (set, frozenset)
_CONTAINERS = frozenset((set, frozenset, tuple, list, dict))


class _SortedSet:
    """Pickles as ``kind(items)``: a set rebuilt from a sorted tuple."""

    __slots__ = ("kind", "items")

    def __init__(self, kind: type, items: tuple) -> None:
        self.kind = kind
        self.items = items

    def __reduce__(self):
        return self.kind, (self.items,)


def _holds_set(values) -> bool:
    """Whether a set is among ``values`` or in their tuples, lists, dicts."""
    kinds = set(map(type, values))
    if kinds.isdisjoint(_CONTAINERS):
        return False
    if not kinds.isdisjoint(_SETS):
        return True
    return any(_holds_set(v.values() if type(v) is dict else v)
               for v in values if type(v) in _CONTAINERS)


def _sorted_sets(value):
    """``value`` with every set in it replaced by a :class:`_SortedSet`."""
    kind = type(value)
    if kind in _SETS:
        return _SortedSet(kind, tuple(sorted(map(_sorted_sets, value),
                                             key=repr)))
    if kind is tuple or kind is list:
        return kind(map(_sorted_sets, value))
    if kind is dict:
        return {k: _sorted_sets(v) for k, v in value.items()}
    return value


class _KeyPickler(pickle.Pickler):
    """A pickler whose output does not depend on set iteration order.

    The C pickler writes sets in iteration order, which follows string
    hashes and so ``PYTHONHASHSEED``, and it never consults a dispatch
    table or :meth:`reducer_override` for a set.  It does consult
    :meth:`reducer_override` for every other object, so an object whose
    ``__dict__`` holds a set (a firewall's origins, a regional policy's
    countries) is reduced here from a copy of that state with each set
    sorted.
    """

    def reducer_override(self, obj):
        state = getattr(obj, "__dict__", None)
        # Most objects hold no container at all: settle them in C.
        if type(state) is not dict \
                or _CONTAINERS.isdisjoint(map(type, state.values())) \
                or not _holds_set(state.values()):
            return NotImplemented
        return copyreg.__newobj__, (type(obj),), _sorted_sets(state)


def _canonical_bytes(value) -> bytes:
    """Deterministic pickle of ``value``: the same bytes in every process.

    Dicts pickle in insertion order and dataclasses/enums by structure,
    both deterministic; set iteration order — the one place
    ``PYTHONHASHSEED`` leaks into pickle output — is canonicalized by
    :class:`_KeyPickler` for sets held by objects (``world_key`` builds
    its payload's own containers from lists).
    """
    buffer = io.BytesIO()
    _KeyPickler(buffer, protocol=_KEY_PROTOCOL).dump(value)
    return buffer.getvalue()


def world_key(specs: Sequence, seed: int, defaults,
              countries: Sequence) -> str:
    """The content address of a world build (64 hex chars)."""
    payload = {
        "builder": BUILDER_VERSION,
        "snapshot_format": FORMAT_VERSION,
        "seed": int(seed),
        "specs": list(specs),
        "defaults": defaults,
        "countries": list(countries),
    }
    return hashlib.sha256(_canonical_bytes(payload)).hexdigest()


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------

def entry_path(key: str, directory: Optional[PathLike] = None) -> Path:
    return cache_dir(directory) / f"{key}{_SUFFIX}"


#: A writer claim older than this is presumed dead (a killed builder)
#: and broken, so one crash can never wedge a cache key forever.
STALE_CLAIM_S = 300.0


def _claim_write(path: Path) -> Optional[Path]:
    """Atomically claim the right to write ``path``; None if already held.

    The claim is an ``O_CREAT | O_EXCL`` lockfile next to the entry —
    exactly one concurrent builder (thread *or* process) wins it, so
    racing cold builds produce a single writer instead of interleaved
    partial writes.  Losers simply skip the write: their built world is
    still returned, and the winner's entry serves every later call.
    """
    lock = path.with_name(path.name + ".lock")
    for attempt in range(2):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if attempt:
                return None
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                continue  # holder just released; retry the claim
            if age < STALE_CLAIM_S:
                return None
            try:  # break a dead builder's claim and retry once
                lock.unlink()
            except OSError:
                return None
        else:
            os.close(fd)
            return lock
    return None


def _release_claim(lock: Path) -> None:
    try:
        lock.unlink()
    except OSError:
        pass


def cached_build_world(specs: Sequence, seed: int, defaults,
                       countries: Sequence, builder: Callable[[], object],
                       directory: Optional[PathLike] = None):
    """Return the world for these inputs, building at most once per key.

    A readable entry is mmap-loaded (``cache.world_hit``); a missing or
    corrupt one falls back to ``builder()`` and the result is written
    back atomically (``cache.world_miss``).  Failures to *write* never
    fail the build — the cache is an accelerator, not a dependency.
    """
    tel = _telemetry()
    key = world_key(specs, seed, defaults, countries)
    path = entry_path(key, directory)
    if path.exists():
        try:
            with tel.span("cache.world_load", key=key[:12]):
                world = load_world(path, lazy_topology=True)
            tel.count("cache.world_hit", 1)
            return world
        except (SnapshotError, pickle.UnpicklingError, OSError,
                ValueError, KeyError, AttributeError, ImportError):
            # Unreadable entry (truncated write, stale class layout):
            # treat as a miss and overwrite below.
            pass
    tel.count("cache.world_miss", 1)
    world = builder()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        claim = _claim_write(path)
        if claim is None:
            # Another builder holds the write claim for this key; its
            # atomic rename will publish an equivalent entry.
            tel.count("cache.world_write_skipped", 1)
            return world
        try:
            with tel.span("cache.world_save", key=key[:12]):
                save_world(world, path, extra_meta={"cache_key": key})
        finally:
            _release_claim(claim)
        from repro.io import prune
        prune.maybe_prune()
    except OSError:
        pass
    return world


# ----------------------------------------------------------------------
# Per-shard entries (sharded worlds: repro.sim.shard)
# ----------------------------------------------------------------------

def shard_key(base_key: str, index: int,
              boundaries: Sequence[int]) -> str:
    """The content address of one shard of a sharded world.

    ``base_key`` is the :func:`world_key` of the monolithic build these
    shards concatenate to; the key folds in the shard index *and* the
    full boundary vector, so re-planning the partition (different shard
    count, different AS grouping) re-keys every shard — a shard segment
    is only ever reused for the exact (world, partition, index) that
    produced it.
    """
    payload = f"{base_key}:shard:{index}:{','.join(str(b) for b in boundaries)}"
    return hashlib.sha256(payload.encode()).hexdigest()


def shard_entry_path(key: str,
                     directory: Optional[PathLike] = None) -> Path:
    return cache_dir(directory) / f"{key}{_SHARD_SUFFIX}"


def cached_build_shard(base_key: str, index: int,
                       boundaries: Sequence[int],
                       builder: Callable[[], object],
                       directory: Optional[PathLike] = None):
    """Return one shard's host table, building at most once per key.

    The shard analog of :func:`cached_build_world`: a readable entry is
    mmap-loaded zero-copy (``cache.shard_hit``), a missing or corrupt
    one is rebuilt by ``builder()`` and written back under the same
    single-writer claim protocol (``cache.shard_miss``).  Write
    failures never fail the build.
    """
    tel = _telemetry()
    key = shard_key(base_key, index, boundaries)
    path = shard_entry_path(key, directory)
    if path.exists():
        try:
            hosts = load_hosts(path, mmap=True)
            tel.count("cache.shard_hit", 1)
            return hosts
        except (SnapshotError, OSError, ValueError, KeyError):
            pass
    tel.count("cache.shard_miss", 1)
    hosts = builder()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        claim = _claim_write(path)
        if claim is None:
            tel.count("cache.shard_write_skipped", 1)
            return hosts
        try:
            save_hosts(hosts, path)
        finally:
            _release_claim(claim)
        from repro.io import prune
        prune.maybe_prune()
    except OSError:
        pass
    return hosts


def list_shard_entries(directory: Optional[PathLike] = None
                       ) -> List["CacheEntry"]:
    """Enumerate per-shard cache entries (manifest-only reads)."""
    root = cache_dir(directory)
    entries: List[CacheEntry] = []
    if not root.is_dir():
        return entries
    for path in sorted(root.glob(f"*{_SHARD_SUFFIX}")):
        nbytes = path.stat().st_size
        try:
            meta = read_snapshot_manifest(path)["meta"]
            entries.append(CacheEntry(
                key=path.stem, path=path, nbytes=nbytes,
                n_services=meta.get("n_services")))
        except SnapshotError:
            entries.append(CacheEntry(key=path.stem, path=path,
                                      nbytes=nbytes, valid=False))
    return entries


def clear_shards(directory: Optional[PathLike] = None) -> int:
    """Delete every per-shard entry; returns how many were removed."""
    removed = 0
    for entry in list_shard_entries(directory):
        try:
            entry.path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


@dataclass(frozen=True)
class CacheEntry:
    """One cached world, as listed by :func:`list_entries`."""

    key: str
    path: Path
    nbytes: int
    seed: Optional[int] = None
    n_services: Optional[int] = None
    n_ases: Optional[int] = None
    valid: bool = True


def list_entries(directory: Optional[PathLike] = None) -> List[CacheEntry]:
    """Enumerate cache entries (manifest-only reads; no array I/O)."""
    root = cache_dir(directory)
    entries: List[CacheEntry] = []
    if not root.is_dir():
        return entries
    for path in sorted(root.glob(f"*{_SUFFIX}")):
        nbytes = path.stat().st_size
        try:
            meta = read_snapshot_manifest(path)["meta"]
            entries.append(CacheEntry(
                key=path.stem, path=path, nbytes=nbytes,
                seed=meta.get("seed"), n_services=meta.get("n_services"),
                n_ases=meta.get("n_ases")))
        except SnapshotError:
            entries.append(CacheEntry(key=path.stem, path=path,
                                      nbytes=nbytes, valid=False))
    return entries


def clear(directory: Optional[PathLike] = None) -> int:
    """Delete every cache entry; returns how many were removed."""
    removed = 0
    for entry in list_entries(directory):
        try:
            entry.path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
