"""Miss classification: transient vs long-term vs unknown, host vs network.

Implements §3's taxonomy exactly:

* A host is **transiently** inaccessible from an origin in a trial when it
  was accessible from some other origin in the same trial (it is in ground
  truth) *and* accessible from this origin in another trial.
* A host inaccessible from the origin in *every* trial it appears in is
  **long-term** inaccessible (requires presence in ≥2 trials).
* A host present in only one trial cannot be told apart from churn →
  **unknown**.

Misses are further split into *network-level* and *host-level*: a /24 with
at least two ground-truth hosts whose present members all share the same
category in a trial counts as a single network-level unit; everything else
is host-level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import CampaignDataset
from repro.core.engine import (
    AnalysisContext,
    classifications_for,
    presence_for,
)
from repro.core.ground_truth import PresenceMatrix
from repro.net.ipv4 import slash24_array


class MissCategory(enum.IntEnum):
    """Per-(host, trial) classification relative to one origin."""

    NOT_PRESENT = 0   # host absent from this trial's ground truth
    ACCESSIBLE = 1
    TRANSIENT = 2
    LONG_TERM = 3
    UNKNOWN = 4


@dataclass
class Classification:
    """Full per-trial classification of one origin's view of one protocol."""

    protocol: str
    origin: str
    trials: List[int]
    ips: np.ndarray              # uint32 (n,)
    as_index: np.ndarray         # int64 (n,)
    country_index: np.ndarray    # int64 (n,) true location
    geo_index: np.ndarray        # int64 (n,) observed GeoIP location
    category: np.ndarray         # uint8 (t, n) of MissCategory values
    present: np.ndarray          # bool (t, n)

    # ------------------------------------------------------------------
    # Per-trial views
    # ------------------------------------------------------------------

    def mask(self, trial_pos: int, category: MissCategory) -> np.ndarray:
        return self.category[trial_pos] == int(category)

    def counts(self, trial_pos: int) -> Dict[MissCategory, int]:
        row = self.category[trial_pos]
        return {cat: int((row == int(cat)).sum()) for cat in MissCategory}

    def missing_mask(self, trial_pos: int) -> np.ndarray:
        """Hosts present but not accessible in this trial."""
        row = self.category[trial_pos]
        return ((row == int(MissCategory.TRANSIENT))
                | (row == int(MissCategory.LONG_TERM))
                | (row == int(MissCategory.UNKNOWN)))

    # ------------------------------------------------------------------
    # Cross-trial views
    # ------------------------------------------------------------------

    def ever_category(self, category: MissCategory) -> np.ndarray:
        """Hosts with the category in at least one trial."""
        return np.any(self.category == int(category), axis=0)

    def long_term_mask(self) -> np.ndarray:
        """Hosts long-term inaccessible from this origin."""
        return self.ever_category(MissCategory.LONG_TERM)

    def network_split(self, trial_pos: int,
                      category: MissCategory) -> Dict[str, int]:
        """Split one category's hosts into network- vs host-level misses.

        A /24 counts as a network unit when it has ≥2 present ground-truth
        hosts in the trial and every one of them carries the same category.
        Hosts inside such /24s are "network" misses; the rest are "host"
        misses.  Counts are hosts, matching the paper's Figure 2 axes.
        """
        present_idx = np.flatnonzero(self.present[trial_pos])
        in_target = self.category[trial_pos][present_idx] == int(category)
        n_target = int(np.count_nonzero(in_target))
        if n_target == 0:
            return {"host": 0, "network": 0}
        blocks = slash24_array(self.ips[present_idx])
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], sorted_blocks[1:] != sorted_blocks[:-1])))
        sizes = np.diff(np.append(starts, len(sorted_blocks)))
        targets = np.add.reduceat(in_target[order].astype(np.int64), starts)
        # With at least one target host, "every member shares a category"
        # means every member is a target host.
        network = int(targets[(sizes >= 2) & (targets == sizes)].sum())
        return {"host": n_target - network, "network": network}


def classify_misses(dataset: CampaignDataset, protocol: str, origin: str,
                    presence: Optional[PresenceMatrix] = None,
                    single_probe: bool = False,
                    context: Optional[AnalysisContext] = None
                    ) -> Classification:
    """Classify every (host, trial) for one origin per §3's rules.

    Pass ``presence`` (or a shared ``context``) when classifying several
    origins: with neither, every call rebuilds the aligned presence cube
    from scratch — the rebuild shows up in the
    ``analysis.presence_build`` telemetry counter.
    """
    presence = presence_for(dataset, protocol, single_probe=single_probe,
                            presence=presence, context=context)
    oi = presence.origin_row(origin)
    acc = presence.accessible[oi]          # (t, n)
    present = presence.present             # (t, n)
    participated = presence.participated[oi]

    # Only trials the origin actually scanned count toward its record.
    trial_rows = np.flatnonzero(participated)
    present_o = present[trial_rows]
    acc_o = acc[trial_rows]

    n_present = present_o.sum(axis=0)
    n_acc = acc_o.sum(axis=0)
    missed_everywhere = (n_acc == 0)

    t = len(trial_rows)
    n = presence.n_hosts()
    category = np.full((t, n), int(MissCategory.NOT_PRESENT),
                       dtype=np.uint8)
    for ti in range(t):
        row = category[ti]
        p = present_o[ti]
        a = acc_o[ti]
        row[p & a] = int(MissCategory.ACCESSIBLE)
        miss = p & ~a
        row[miss & (n_present == 1)] = int(MissCategory.UNKNOWN)
        multi = miss & (n_present >= 2)
        row[multi & missed_everywhere] = int(MissCategory.LONG_TERM)
        row[multi & ~missed_everywhere] = int(MissCategory.TRANSIENT)

    return Classification(
        protocol=protocol, origin=origin,
        trials=[presence.trials[i] for i in trial_rows],
        ips=presence.ips, as_index=presence.as_index,
        country_index=presence.country_index,
        geo_index=presence.geo_index,
        category=category, present=present_o)


def breakdown_by_origin(dataset: CampaignDataset, protocol: str,
                        origins: Optional[Sequence[str]] = None,
                        single_probe: bool = False,
                        presence: Optional[PresenceMatrix] = None,
                        context: Optional[AnalysisContext] = None
                        ) -> Dict[str, Classification]:
    """One classification per origin — the raw material of Figure 2.

    With a shared ``context``, the presence cube is built (and each
    origin classified) at most once per dataset, no matter how many
    analyses call this.
    """
    return classifications_for(dataset, protocol, origins=origins,
                               single_probe=single_probe,
                               presence=presence, context=context)


def longterm_l4_breakdown(dataset: CampaignDataset, protocol: str,
                          origins: Optional[Sequence[str]] = None,
                          presence: Optional[PresenceMatrix] = None,
                          context: Optional[AnalysisContext] = None
                          ) -> Dict[str, Dict[str, float]]:
    """How long-term misses look on the wire: silent vs L4-responsive.

    §4 reports that 92 % of long-term inaccessible HTTP(S) hosts are
    unresponsive at Layer 4 (firewalled/blocked) while only 34 % of SSH
    ones are (SSH blocking acts above TCP).  For each origin this returns
    the fractions of its long-term (host, trial) misses that were silent
    at L4 vs responded and failed at L7.
    """
    from repro.core.dataset import align_ips
    from repro.core.records import L7Status

    classifications = breakdown_by_origin(dataset, protocol,
                                          origins=origins,
                                          presence=presence,
                                          context=context)
    out: Dict[str, Dict[str, float]] = {}
    for origin, cls in classifications.items():
        silent = 0
        responsive = 0
        for ti, trial in enumerate(cls.trials):
            table = dataset.trial_data(protocol, trial)
            pos = align_ips(cls.ips, table.ip)
            mask = cls.mask(ti, MissCategory.LONG_TERM) & (pos >= 0)
            idx = pos[np.flatnonzero(mask)]
            row = table.origin_row(origin)
            l7 = table.l7[row][idx]
            silent += int((l7 == int(L7Status.NO_L4)).sum())
            responsive += int((l7 != int(L7Status.NO_L4)).sum())
        total = silent + responsive
        out[origin] = {
            "no_l4": silent / total if total else float("nan"),
            "l4_responsive": responsive / total if total else float("nan"),
        }
    return out


def figure2_rows(dataset: CampaignDataset, protocol: str,
                 origins: Optional[Sequence[str]] = None,
                 context: Optional[AnalysisContext] = None
                 ) -> List[Dict[str, object]]:
    """Figure 2's bars: per (origin, trial), miss counts by category×level."""
    rows: List[Dict[str, object]] = []
    for origin, cls in breakdown_by_origin(
            dataset, protocol, origins=origins, context=context).items():
        for trial_pos, trial in enumerate(cls.trials):
            transient = cls.network_split(trial_pos, MissCategory.TRANSIENT)
            long_term = cls.network_split(trial_pos, MissCategory.LONG_TERM)
            unknown = cls.counts(trial_pos)[MissCategory.UNKNOWN]
            rows.append({
                "origin": origin,
                "trial": trial,
                "transient_host": transient["host"],
                "transient_network": transient["network"],
                "long_term_host": long_term["host"],
                "long_term_network": long_term["network"],
                "unknown": unknown,
            })
    return rows
