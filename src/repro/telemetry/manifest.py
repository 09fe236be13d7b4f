"""Run manifests: the reproducibility header of a telemetry journal.

A manifest pins everything needed to re-run (or refuse to compare) a
campaign: the seed, a stable hash of the scanner configuration, a world
fingerprint, the execution backend and worker count, the code version
(``git describe`` when available), and a compact per-trial span tree so a
journal is self-describing even after the dataset moved elsewhere.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import subprocess
from typing import Dict, List, Optional, Tuple

#: Manifest schema tag.
MANIFEST_SCHEMA = "repro-manifest-v1"


def config_hash(config) -> str:
    """Stable short hash of a scanner configuration.

    Hashes the sorted ``(field, repr(value))`` pairs of the dataclass, so
    two configs hash equal exactly when their fields compare equal via
    repr — value objects like :class:`~repro.net.blocklist.Blocklist`
    included.
    """
    pairs = tuple(sorted(
        (f.name, repr(getattr(config, f.name)))
        for f in dataclasses.fields(config)))
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


def world_fingerprint(world) -> Dict[str, object]:
    """A small structural identity for a simulated world.

    Worlds that know their own identity (``ShardedWorld`` folds its
    shard-manifest digest in) provide ``fingerprint_payload``; plain
    worlds are fingerprinted structurally.
    """
    payload = getattr(world, "fingerprint_payload", None)
    if payload is not None:
        return payload()
    return {
        "seed": world.seed,
        "n_ases": len(world.topology.ases),
        "services": dict(world.hosts.counts_by_protocol()),
    }


@functools.lru_cache(maxsize=None)
def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the checkout holding this
    package, if any.

    Runs in the package's own directory, whatever the caller's current
    directory, and once per process: every manifest of a run (every
    served report) would otherwise pay a subprocess for the same answer.
    """
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def per_trial_span_tree(records: List[dict]) -> List[dict]:
    """Aggregate span records by the (protocol, trial) of their job.

    Walks each span's parent chain up to the nearest span carrying
    ``protocol`` and ``trials`` (an executor job or ``batch.stream``
    span, which covers several grid cells at once) and folds wall time
    and counts per span name under each covered trial.  A span counts
    once under every trial it covers; its wall time is split evenly so
    the per-trial totals still sum to the measured wall.
    """
    by_id = {r["id"]: r for r in records
             if r.get("t") == "span" and r.get("id")}

    def trials_of(record: dict) -> List[Tuple[str, int]]:
        seen = 0
        while record is not None and seen < 64:
            attrs = record.get("attrs") or {}
            if "protocol" in attrs and "trials" in attrs:
                return [(str(attrs["protocol"]), int(t))
                        for t in attrs["trials"]]
            record = by_id.get(record.get("parent"))
            seen += 1
        return []

    trials: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    for record in by_id.values():
        keys = trials_of(record)
        if not keys:
            continue
        share = record.get("wall_s", 0.0) / len(keys)
        for key in keys:
            spans = trials.setdefault(key, {})
            entry = spans.setdefault(record["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += share

    return [
        {"protocol": protocol, "trial": trial,
         "spans": {name: {"count": count, "wall_s": round(wall, 6)}
                   for name, (count, wall) in sorted(spans.items())}}
        for (protocol, trial), spans in sorted(trials.items())
    ]


def build_manifest(world, zmap, origins, protocols, n_trials,
                   report, telemetry) -> Dict[str, object]:
    """The run manifest for one campaign execution.

    ``report`` is the :class:`~repro.sim.executor.ExecutionReport`;
    ``telemetry`` the collector whose records describe the run (its
    adopted per-job spans feed the per-trial tree).
    """
    return {
        "schema": MANIFEST_SCHEMA,
        "seed": zmap.seed,
        "config_hash": config_hash(zmap),
        "world": world_fingerprint(world),
        "origins": [o.name for o in origins],
        "protocols": list(protocols),
        "n_trials": n_trials,
        "backend": report.backend,
        "workers": report.workers,
        "n_jobs": report.n_jobs,
        "wall_s": round(report.wall_s, 6),
        "git": git_describe(),
        "trials": per_trial_span_tree(telemetry.records),
    }
