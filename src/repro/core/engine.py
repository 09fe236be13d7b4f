"""The bit-packed analysis engine: shared context, packed bitsets, engines.

The paper's headline analyses — Table 1 exclusivity, the k-origin
coverage curve, bootstrap error bars — are all set algebra over
(trial × origin × host) presence cubes.  This module gives that layer
the same treatment :mod:`repro.sim.plan` gave the simulator:

* An :class:`AnalysisContext` is built once per (dataset, protocol) and
  memoized on the dataset fingerprint (:func:`dataset_fingerprint`,
  which folds in the run manifest emitted by
  :mod:`repro.telemetry.manifest` when the dataset carries one).  It
  holds the aligned :class:`~repro.core.ground_truth.PresenceMatrix`
  and, per trial, bit-packed (:func:`numpy.packbits`) per-origin
  accessibility bitsets (:class:`PackedTrial`) sharing the popcount
  table in :mod:`repro.core.bits`.
* Every analysis that gained an ``engine=`` parameter runs in one of
  two modes: ``"packed"`` (the bit-packed/vectorized rewrite) or
  ``"reference"`` (the original set-algebra code).  The two are
  byte-identical — ``tests/test_engine_equivalence.py`` proves it —
  and the env default is ``REPRO_ANALYSIS_ENGINE``.

Telemetry mirrors the plan cache: ``cache.context_hit`` /
``cache.context_miss`` counters around :func:`get_context`, a
``cache.context_build`` span around construction, and
``cache.presence_hit`` / ``cache.presence_miss`` around the context's
presence memo.  Actual alignment passes show up as
``analysis.presence_build`` (counted inside
:func:`~repro.core.ground_truth.build_presence`), which is how the
one-build-per-report guarantee is asserted.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bits import pack_bits, popcount_packed
from repro.core.dataset import CampaignDataset, TrialData
from repro.core.ground_truth import PresenceMatrix, build_presence
from repro.telemetry.context import current as _telemetry

#: The two analysis engines.  ``packed`` is the default production path;
#: ``reference`` keeps the original per-set Python implementations alive
#: as the differential baseline.
ENGINES = ("packed", "reference")

#: Environment variable overriding the default engine.
ENV_ENGINE = "REPRO_ANALYSIS_ENGINE"

#: Maximum number of memoized contexts (FIFO eviction beyond this).
CONTEXT_CACHE_SIZE = 8


def resolve_engine(engine: Optional[str] = None) -> str:
    """Normalize an ``engine=`` argument against the environment default.

    ``None`` defers to ``REPRO_ANALYSIS_ENGINE``, then to ``"packed"``.
    """
    if engine is None:
        engine = os.environ.get(ENV_ENGINE) or "packed"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown analysis engine {engine!r}; choose from {ENGINES}")
    return engine


def dataset_fingerprint(dataset: CampaignDataset) -> str:
    """A stable content identity for a campaign dataset.

    Folds the run manifest (seed, config hash, world fingerprint — the
    reproducibility header :mod:`repro.telemetry.manifest` stamps into
    ``metadata["telemetry"]``) together with a structural digest of every
    trial's analysis-relevant columns, so datasets with equal bytes share
    cached contexts while any divergence — different seed, mutated
    matrix, extra trial — misses.
    """
    digest = hashlib.sha256()
    manifest = (dataset.metadata or {}).get("telemetry", {}).get("manifest")
    if manifest:
        pinned = {key: manifest.get(key)
                  for key in ("seed", "config_hash", "world", "origins",
                              "protocols", "n_trials")}
        digest.update(repr(sorted(pinned.items())).encode())
    for table in dataset:
        digest.update(f"{table.protocol}:{table.trial}:"
                      f"{','.join(table.origins)}:{table.n_probes}"
                      .encode())
        for column in (table.ip, table.as_index, table.country_index,
                       table.geo_index, table.probe_mask, table.l7):
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:16]


class PackedTrial:
    """Bit-packed per-origin accessibility bitsets for one trial.

    ``packed[o]`` is origin *o*'s ``accessible & ground_truth`` mask for
    the trial, packed 8 hosts per byte; ``total`` is the ground-truth
    popcount.  OR-ing rows and popcounting the result reproduces the
    union coverage of any origin subset without materializing boolean
    arrays — the packed multi-origin path.
    """

    __slots__ = ("protocol", "trial", "single_probe", "origins", "packed",
                 "total", "n_hosts", "_rows")

    def __init__(self, trial_data: TrialData,
                 single_probe: bool = False) -> None:
        self.protocol = trial_data.protocol
        self.trial = trial_data.trial
        self.single_probe = bool(single_probe)
        self.origins = list(trial_data.origins)
        truth = trial_data.ground_truth(single_probe=single_probe)
        masks = np.empty((len(self.origins), len(truth)), dtype=bool)
        for oi, origin in enumerate(self.origins):
            masks[oi] = trial_data.accessible(
                origin, single_probe=single_probe) & truth
        self.packed = pack_bits(masks)
        self.total = int(truth.sum())
        self.n_hosts = len(truth)
        self._rows = {origin: oi for oi, origin in enumerate(self.origins)}

    @classmethod
    def from_parts(cls, protocol: str, trial: int, origins: Sequence[str],
                   packed: np.ndarray, total: int, n_hosts: int,
                   single_probe: bool = False) -> "PackedTrial":
        """Adopt pre-packed planes without a backing :class:`TrialData`.

        The streaming reducer (:mod:`repro.core.streaming`) accumulates
        per-shard bit planes and assembles the final packed trial here;
        the result is indistinguishable from one built on the
        concatenated dataset because OR/popcount are associative across
        the shard boundary.
        """
        self = cls.__new__(cls)
        self.protocol = protocol
        self.trial = int(trial)
        self.single_probe = bool(single_probe)
        self.origins = list(origins)
        self.packed = packed
        self.total = int(total)
        self.n_hosts = int(n_hosts)
        self._rows = {origin: oi for oi, origin in enumerate(self.origins)}
        return self

    def rows_for(self, origins: Sequence[str]) -> np.ndarray:
        """Packed-row indices of ``origins`` (KeyError when absent)."""
        return np.array([self._rows[o] for o in origins], dtype=np.intp)

    def union_counts(self, subsets: np.ndarray) -> np.ndarray:
        """Popcount of the OR over each row subset.

        ``subsets`` is an (m, k) matrix of packed-row indices; the return
        is the (m,) int64 vector of union cardinalities — one fused
        gather/OR/popcount for all m subsets.
        """
        unions = np.bitwise_or.reduce(self.packed[subsets], axis=1)
        return np.asarray(popcount_packed(unions), dtype=np.int64)


class AnalysisContext:
    """Shared, memoized state for every analysis of one (dataset, protocol).

    Constructed (cheaply — members build lazily) once per dataset
    fingerprint via :func:`get_context` and threaded through
    classification, exclusivity, per-AS, transient, burst, SSH and
    report code so a full report performs exactly one alignment pass.
    """

    def __init__(self, dataset: CampaignDataset, protocol: str,
                 fingerprint: Optional[str] = None) -> None:
        self.dataset = dataset
        self.protocol = protocol
        self.fingerprint = fingerprint if fingerprint is not None \
            else dataset_fingerprint(dataset)
        self._presence: Dict[Tuple[Tuple[str, ...], bool],
                             PresenceMatrix] = {}
        self._packed: Dict[Tuple[int, bool], PackedTrial] = {}
        self._classifications: Dict[Tuple[Tuple[str, ...], bool],
                                    Dict[str, object]] = {}

    # ------------------------------------------------------------------
    # Presence
    # ------------------------------------------------------------------

    def _presence_key(self, origins: Optional[Sequence[str]],
                      single_probe: bool) -> Tuple[Tuple[str, ...], bool]:
        chosen = tuple(origins) if origins is not None \
            else tuple(self.dataset.origins_for(self.protocol))
        return (chosen, bool(single_probe))

    def presence(self, origins: Optional[Sequence[str]] = None,
                 single_probe: bool = False) -> PresenceMatrix:
        """The aligned presence cube, built at most once per variant.

        ``origins=None`` normalizes to the paper's aggregate origin set
        (``origins_for``), so explicit-default and defaulted requests
        share one matrix.
        """
        key = self._presence_key(origins, single_probe)
        cached = self._presence.get(key)
        tel = _telemetry()
        if cached is not None:
            if tel.enabled:
                tel.count("cache.presence_hit", 1, protocol=self.protocol)
            return cached
        if tel.enabled:
            tel.count("cache.presence_miss", 1, protocol=self.protocol)
        built = build_presence(self.dataset, self.protocol,
                               origins=list(key[0]),
                               single_probe=key[1])
        self._presence[key] = built
        return built

    # ------------------------------------------------------------------
    # Packed trials
    # ------------------------------------------------------------------

    def packed_trial(self, trial: int,
                     single_probe: bool = False) -> PackedTrial:
        """The packed accessibility bitsets of one trial (memoized)."""
        key = (int(trial), bool(single_probe))
        cached = self._packed.get(key)
        if cached is not None:
            return cached
        built = PackedTrial(
            self.dataset.trial_data(self.protocol, trial),
            single_probe=single_probe)
        self._packed[key] = built
        return built

    # ------------------------------------------------------------------
    # Classifications
    # ------------------------------------------------------------------

    def classifications(self, origins: Optional[Sequence[str]] = None,
                        single_probe: bool = False) -> Dict[str, object]:
        """Per-origin §3 classifications over the shared presence cube.

        Memoized like :meth:`presence`; the half-dozen report sections
        that each called ``breakdown_by_origin`` now classify each
        origin once.  Returns ``{origin: Classification}``.
        """
        from repro.core.classification import classify_misses

        key = self._presence_key(origins, single_probe)
        cached = self._classifications.get(key)
        if cached is not None:
            return dict(cached)
        presence = self.presence(origins=key[0], single_probe=key[1])
        built = {origin: classify_misses(self.dataset, self.protocol,
                                         origin, presence=presence)
                 for origin in presence.origins}
        self._classifications[key] = built
        return dict(built)


#: The process-wide context memo, keyed by (fingerprint, protocol).
_CONTEXTS: "OrderedDict[Tuple[str, str], AnalysisContext]" = OrderedDict()


def get_context(dataset: CampaignDataset,
                protocol: str) -> AnalysisContext:
    """The memoized :class:`AnalysisContext` for one (dataset, protocol).

    Keyed on :func:`dataset_fingerprint`, so re-running an analysis —
    in the same process, on a reloaded copy of the same campaign —
    reuses the aligned presence cube instead of rebuilding it.  Cache
    traffic is reported like the plan cache (``cache.context_hit`` /
    ``cache.context_miss``).
    """
    tel = _telemetry()
    key = (dataset_fingerprint(dataset), protocol)
    context = _CONTEXTS.get(key)
    if context is not None:
        if tel.enabled:
            tel.count("cache.context_hit", 1, protocol=protocol)
        _CONTEXTS.move_to_end(key)
        return context
    if tel.enabled:
        tel.count("cache.context_miss", 1, protocol=protocol)
    with tel.span("cache.context_build", protocol=protocol):
        context = AnalysisContext(dataset, protocol, fingerprint=key[0])
    _CONTEXTS[key] = context
    while len(_CONTEXTS) > CONTEXT_CACHE_SIZE:
        _CONTEXTS.popitem(last=False)
    return context


def clear_context_cache() -> None:
    """Drop every memoized context (tests and long-lived processes)."""
    _CONTEXTS.clear()


def presence_for(dataset: CampaignDataset, protocol: str,
                 origins: Optional[Sequence[str]] = None,
                 single_probe: bool = False,
                 presence: Optional[PresenceMatrix] = None,
                 context: Optional[AnalysisContext] = None
                 ) -> PresenceMatrix:
    """Resolve the presence cube an analysis should run over.

    Precedence: an explicit ``presence``, then the shared ``context``
    (memoized), then a direct build — the one code path every
    context-threading analysis shares, so none of them silently rebuilds.
    """
    if presence is not None:
        return presence
    if context is not None:
        return context.presence(origins=origins, single_probe=single_probe)
    return build_presence(dataset, protocol, origins=origins,
                          single_probe=single_probe)


def classifications_for(dataset: CampaignDataset, protocol: str,
                        origins: Optional[Sequence[str]] = None,
                        single_probe: bool = False,
                        presence: Optional[PresenceMatrix] = None,
                        context: Optional[AnalysisContext] = None
                        ) -> Dict[str, object]:
    """Resolve per-origin classifications, preferring the shared context."""
    from repro.core.classification import classify_misses

    if presence is None and context is not None:
        return context.classifications(origins=origins,
                                       single_probe=single_probe)
    resolved = presence_for(dataset, protocol, origins=origins,
                            single_probe=single_probe, presence=presence,
                            context=context)
    return {origin: classify_misses(dataset, protocol, origin,
                                    presence=resolved)
            for origin in resolved.origins}
