"""The paper's world: every named network and its observed behaviour.

This module is the reproduction's "testbed wiring": it instantiates the
synthetic Internet at ≈1/1000 of the paper's scale with the specific
networks §4–§6 name — DXTL/EGI/Enzu blocking Censys, Telecom Italia's dead
paths from Germany, Alibaba's SSH detection, the regional allowlists of
Bekkoame/WebCentral/WA K-20, the rate IDSes of Ruhr-Universität Bochum and
SK Broadband, the Eastern-European hosters that block Japan and Brazil, and
the long tail of background networks that make the aggregate statistics
realistic.

Numbers are calibrated to reproduce the paper's *shape* (who misses whom,
by roughly what factor), not its absolute counts; EXPERIMENTS.md records
the comparison per table/figure.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blocking.firewall import ReputationFirewallSpec, StaticBlockSpec
from repro.blocking.flaky import L7FlakySpec
from repro.blocking.ids import RateIDSSpec
from repro.blocking.maxstartups import MaxStartupsSpec
from repro.blocking.regional import RegionalPolicySpec
from repro.blocking.temporal import TemporalRSTSpec
from repro.conditions.loss import LossDraw, PathLossSpec
from repro.conditions.outages import BurstOutageSpec
from repro.hosts.churn import ChurnSpec
from repro.hosts.population import populate
from repro.origins import Origin, followup_origins, paper_origins
from repro.rng import CounterRNG, fold_bits, fold_uniform, weighted_pick
from repro.scanner.zmap import ZMapConfig
from repro.sim.world import World, WorldDefaults
from repro.topology.asn import ASKind, ASSpec
from repro.topology.generator import build_topology
from repro.topology.geo import default_countries

#: Paper-scale ground-truth targets divided by 1000.
PROTOCOL_TOTALS = {"http": 58_000, "https": 41_000, "ssh": 19_600}

#: Share of global HTTP hosts per country (normalized at build time);
#: HTTPS/SSH populations follow with per-protocol global ratios.
COUNTRY_SHARES = {
    "US": 33.0, "CN": 12.0, "DE": 5.0, "JP": 4.0, "GB": 4.0, "FR": 3.0,
    "NL": 3.0, "RU": 3.0, "HK": 2.5, "IT": 2.0, "BR": 2.0, "KR": 2.0,
    "AU": 1.5, "CA": 1.5, "IN": 1.2, "ES": 1.0, "PL": 1.0, "TW": 1.0,
    "SG": 1.0, "VN": 1.0, "TR": 1.0, "ID": 0.8, "UA": 0.7, "RO": 0.7,
    "AR": 0.6, "SE": 0.5, "MX": 0.5, "ZA": 0.5, "AT": 0.5, "CO": 0.4,
    "GR": 0.35, "PT": 0.35, "KZ": 0.3, "VE": 0.3, "PE": 0.3, "EC": 0.25,
    "BD": 0.2, "EE": 0.15, "AM": 0.1, "BO": 0.1, "AL": 0.08, "TN": 0.07,
    "SD": 0.04, "LY": 0.03, "MN": 0.03, "ZW": 0.03, "SN": 0.03,
    "MW": 0.02, "BF": 0.02, "GU": 0.02,
}

#: Default per-origin path-loss profile for background networks.  AU's
#: elevated rates reflect the paper's finding that it has the worst global
#: packet loss and the most consistent-worst destinations.
DEFAULT_LOSS = PathLossSpec(
    default=LossDraw(epoch_rate=0.005, random_rate=0.0034,
                     persistent_fraction=0.002, variability=1.2),
    per_origin={
        "AU": LossDraw(0.010, 0.0062, persistent_fraction=0.0022,
                       variability=1.4),
        "BR": LossDraw(0.007, 0.0045, persistent_fraction=0.003,
                       variability=1.3),
        "DE": LossDraw(0.0055, 0.0037, persistent_fraction=0.002,
                       variability=1.2),
        "JP": LossDraw(0.0055, 0.0035, persistent_fraction=0.0028,
                       variability=1.2),
        "us-stanford": LossDraw(0.005, 0.0033,
                                persistent_fraction=0.0015,
                                variability=1.2),
        "CEN": LossDraw(0.0055, 0.0037, persistent_fraction=0.002,
                        variability=1.3),
        "CARINET": LossDraw(0.007, 0.003, persistent_fraction=0.002,
                            variability=1.2),
        "chicago-equinix": LossDraw(0.0055, 0.0023,
                                    persistent_fraction=0.0015,
                                    variability=1.2),
        "HE": LossDraw(0.0044, 0.0017, persistent_fraction=0.0010,
                       variability=1.2),
        "NTT": LossDraw(0.0054, 0.0026, persistent_fraction=0.0016,
                        variability=1.2),
        "TELIA": LossDraw(0.0060, 0.0025, persistent_fraction=0.0016,
                          variability=1.2),
    })

#: Loss towards Chinese networks: high and unstable from everywhere
#: (Zhu et al., "the Great Bottleneck of China"), with a stable rank
#: ordering of origins that does *not* follow random-drop estimates.
CHINA_LOSS = PathLossSpec(
    default=LossDraw(0.045, 0.035, persistent_fraction=0.004,
                     variability=1.5),
    per_origin={
        "AU": LossDraw(0.075, 0.055, variability=1.5),
        "BR": LossDraw(0.024, 0.018, variability=1.5),
        "DE": LossDraw(0.048, 0.032, variability=1.5),
        "JP": LossDraw(0.065, 0.042, variability=1.5),
        "us-stanford": LossDraw(0.038, 0.026, variability=1.5),
        "CEN": LossDraw(0.055, 0.038, variability=1.5),
    })


def _h(count: float, scale: float) -> int:
    """Scale a host count, keeping small named populations non-empty."""
    if count <= 0:
        return 0
    return max(1, round(count * scale))


def _hosts(scale: float, http: float = 0, https: float = 0,
           ssh: float = 0) -> Dict[str, int]:
    out = {}
    if http:
        out["http"] = _h(http, scale)
    if https:
        out["https"] = _h(https, scale)
    if ssh:
        out["ssh"] = _h(ssh, scale)
    return out


def _named_specs(scale: float) -> List[ASSpec]:
    """Every network the paper names, with its observed behaviour."""
    specs: List[ASSpec] = []

    # --- §4.1: the providers that dwarf Censys' coverage ---------------
    censys_wall = ReputationFirewallSpec(min_reputation=100.0)
    specs.append(ASSpec(
        "DXTL Tseung Kwan O Service", "HK", ASKind.HOSTING,
        hosts=_hosts(scale, http=900, https=260, ssh=110),
        reputation_firewall=censys_wall))
    specs.append(ASSpec(
        "DXTL Bangladesh", "BD", ASKind.HOSTING,
        hosts=_hosts(scale, http=55, https=20, ssh=12),
        reputation_firewall=censys_wall))
    specs.append(ASSpec(
        "DXTL South Africa", "ZA", ASKind.HOSTING,
        hosts=_hosts(scale, http=85, https=30, ssh=15),
        reputation_firewall=censys_wall))
    specs.append(ASSpec(
        "EGI Hosting", "US", ASKind.HOSTING,
        hosts=_hosts(scale, http=620, https=250, ssh=160),
        reputation_firewall=ReputationFirewallSpec(
            min_reputation=100.0, coverage=0.9, full_coverage_from_trial=2),
        maxstartups=MaxStartupsSpec(fraction=0.75, refuse_prob_mean=0.6,
                                    refuse_prob_spread=0.25)))
    specs.append(ASSpec(
        "Enzu", "US", ASKind.HOSTING,
        hosts=_hosts(scale, http=450, https=190, ssh=90),
        reputation_firewall=censys_wall))

    # --- §4.2 / §5.2: Telecom Italia — dead paths from Germany ---------
    specs.append(ASSpec(
        "Telecom Italia", "IT", ASKind.ISP, asn=3269,
        hosts=_hosts(scale, http=700, https=350, ssh=300),
        path_loss=PathLossSpec(
            default=LossDraw(0.16, 0.006, variability=1.4),
            per_origin={
                "DE": LossDraw(0.42, 0.02, persistent_fraction=0.30,
                               variability=1.2),
                "BR": LossDraw(0.003, 0.003, variability=1.0),
            })))
    specs.append(ASSpec(
        "Telecom Italia Sparkle", "IT", ASKind.ISP,
        hosts=_hosts(scale, http=130, https=80, ssh=70),
        path_loss=PathLossSpec(
            default=LossDraw(0.22, 0.006, variability=1.6),
            per_origin={
                "DE": LossDraw(0.55, 0.02, persistent_fraction=0.40,
                               variability=1.2),
                "BR": LossDraw(0.004, 0.003, variability=1.0),
            })))

    # --- Akamai: huge CDN, slight German inaccessibility, big absolute
    #     transient swings ------------------------------------------------
    specs.append(ASSpec(
        "Akamai", "US", ASKind.CDN,
        hosts=_hosts(scale, http=1500, https=1400, ssh=40),
        hosts_per_slash24=24.0,
        path_loss=PathLossSpec(
            default=LossDraw(0.008, 0.003, variability=2.0),
            per_origin={
                "DE": LossDraw(0.015, 0.004, persistent_fraction=0.008,
                               variability=2.0),
            })))

    # --- ABCDE Group (AS 133201): blocks US/BR/Censys on HTTP, wildly
    #     unstable paths for everyone else --------------------------------
    specs.append(ASSpec(
        "ABCDE Group", "HK", ASKind.CLOUD, asn=133201,
        hosts=_hosts(scale, http=230, https=60, ssh=40),
        static_block=StaticBlockSpec(
            origins=frozenset({"US1", "US64", "BR", "CEN"}), coverage=0.55),
        path_loss=PathLossSpec(
            default=LossDraw(0.10, 0.004, variability=3.0))))

    # --- §6: Alibaba's SSH scan detection --------------------------------
    alibaba_rst = TemporalRSTSpec(
        protocols=("ssh",), detection_prob=0.85,
        multi_ip_detection_prob=0.06, detect_fraction_mean=0.55,
        detect_fraction_jitter=0.35)
    specs.append(ASSpec(
        "Alibaba CN", "CN", ASKind.CLOUD, asn=37963,
        hosts=_hosts(scale, http=1200, https=600, ssh=750),
        temporal_rst=alibaba_rst, path_loss=CHINA_LOSS))
    specs.append(ASSpec(
        "HZ Alibaba Advanced", "CN", ASKind.CLOUD, asn=45102,
        hosts=_hosts(scale, http=600, https=300, ssh=380),
        temporal_rst=alibaba_rst, path_loss=CHINA_LOSS))

    # --- Other large Chinese networks (Table 3) --------------------------
    specs.append(ASSpec(
        "Tencent", "CN", ASKind.CLOUD,
        hosts=_hosts(scale, http=600, https=300, ssh=250),
        path_loss=CHINA_LOSS))
    specs.append(ASSpec(
        "China Telecom", "CN", ASKind.ISP,
        hosts=_hosts(scale, http=2500, https=1000, ssh=700),
        path_loss=CHINA_LOSS))

    # --- Psychz Networks: MaxStartups-heavy hosting (Fig 13) -------------
    specs.append(ASSpec(
        "Psychz Networks", "US", ASKind.HOSTING,
        hosts=_hosts(scale, http=460, https=180, ssh=210),
        maxstartups=MaxStartupsSpec(fraction=0.8, refuse_prob_mean=0.62,
                                    refuse_prob_spread=0.25),
        path_loss=PathLossSpec(
            default=LossDraw(0.02, 0.004, variability=2.2))))

    # --- §4.3: rate-IDS networks only US64 can see -----------------------
    specs.append(ASSpec(
        "Ruhr-Universitaet Bochum", "DE", ASKind.ACADEMIC, asn=29484,
        hosts=_hosts(scale, http=120, https=100, ssh=80),
        rate_ids=RateIDSSpec(per_ip_rate_threshold=0.012,
                             detection_delay_mean_s=7200.0)))
    specs.append(ASSpec(
        "SK Broadband", "KR", ASKind.ISP, asn=9318,
        hosts=_hosts(scale, http=400, https=150, ssh=320),
        rate_ids=RateIDSSpec(per_ip_rate_threshold=0.012,
                             detection_delay_mean_s=10800.0,
                             protocols=("ssh",))))

    for name, country, http, https, ssh in (
            ("Hanyang University", "KR", 90, 70, 50),
            ("TU Delft", "NL", 110, 90, 60),
            ("UNAM", "MX", 80, 50, 40)):
        specs.append(ASSpec(
            name, country, ASKind.ACADEMIC,
            hosts=_hosts(scale, http=http, https=https, ssh=ssh),
            rate_ids=RateIDSSpec(per_ip_rate_threshold=0.012,
                                 detection_delay_mean_s=9000.0)))

    # --- §4.4: regional allow/blocklists ----------------------------------
    specs.append(ASSpec(
        "Bekkoame Internet", "JP", ASKind.HOSTING,
        hosts=_hosts(scale, http=520, https=180, ssh=60),
        regional_policy=RegionalPolicySpec(
            allow_countries=frozenset({"JP"}), coverage=0.08)))
    specs.append(ASSpec(
        "NTT Communications", "JP", ASKind.ISP,
        hosts=_hosts(scale, http=260, https=140, ssh=70),
        regional_policy=RegionalPolicySpec(
            allow_countries=frozenset({"JP"}), coverage=0.11)))
    specs.append(ASSpec(
        "Gateway Inc", "US", ASKind.HOSTING, asn=132827,
        hosts=_hosts(scale, http=60, https=20, ssh=10),
        regional_policy=RegionalPolicySpec(
            allow_countries=frozenset({"JP"}), coverage=0.5)))
    specs.append(ASSpec(
        "WebCentral", "AU", ASKind.HOSTING, asn=7496,
        hosts=_hosts(scale, http=110, https=50, ssh=15),
        regional_policy=RegionalPolicySpec(
            allow_countries=frozenset({"AU"}), coverage=0.35)))
    specs.append(ASSpec(
        "Cloudflare Anycast AU-US", "AU", ASKind.CDN,
        hosts=_hosts(scale, http=45, https=40),
        geolocates_to="US",
        regional_policy=RegionalPolicySpec(
            allow_countries=frozenset({"AU"}), coverage=1.0)))
    specs.append(ASSpec(
        "Cloudflare Anycast AU-DE", "AU", ASKind.CDN,
        hosts=_hosts(scale, http=25, https=20),
        geolocates_to="DE",
        regional_policy=RegionalPolicySpec(
            allow_countries=frozenset({"AU"}), coverage=1.0)))
    specs.append(ASSpec(
        "WA K-20 Telecommunications", "US", ASKind.ACADEMIC,
        hosts=_hosts(scale, http=120, https=30, ssh=10),
        regional_policy=RegionalPolicySpec(
            allow_countries=frozenset({"BR"}), coverage=0.6,
            responds_with_block_page=True)))
    for i in range(3):
        specs.append(ASSpec(
            f"Tegna Station {i + 1}", "US", ASKind.MEDIA,
            hosts=_hosts(scale, http=30, https=12),
            regional_policy=RegionalPolicySpec(
                allow_countries=frozenset({"US"}), coverage=1.0)))

    # --- Eastern-European hosters blocking Brazil and Japan ---------------
    specs.append(ASSpec(
        "SantaPlus", "EE", ASKind.HOSTING,
        hosts=_hosts(scale, http=40, https=15, ssh=8),
        regional_policy=RegionalPolicySpec(
            block_countries=frozenset({"BR", "JP"}), coverage=0.6)))
    for name, country, http in (
            ("VolgaHost", "RU", 60), ("UralNet Hosting", "RU", 40),
            ("KyivColo", "UA", 35), ("BucharestServers", "RO", 30),
            ("TiranaHost", "AL", 12)):
        specs.append(ASSpec(
            name, country, ASKind.HOSTING,
            hosts=_hosts(scale, http=http, https=http * 0.4,
                         ssh=http * 0.2),
            regional_policy=RegionalPolicySpec(
                block_countries=frozenset({"BR", "JP"}), coverage=0.4)))
    specs.append(ASSpec(
        "A1 Telekom Austria", "AT", ASKind.ISP,
        hosts=_hosts(scale, http=200, https=90, ssh=40),
        regional_policy=RegionalPolicySpec(
            block_countries=frozenset({"BR", "JP"}), coverage=0.11)))

    # --- US health / finance networks blocking Brazil (§4.2, Fig 5) ------
    for i in range(23):
        kind = ASKind.FINANCIAL if i % 2 == 0 else ASKind.HEALTHCARE
        specs.append(ASSpec(
            f"US {kind.value.title()} Co {i + 1:02d}", "US", kind,
            hosts=_hosts(scale, http=10 + 3 * (i % 5), https=6),
            regional_policy=RegionalPolicySpec(
                block_countries=frozenset({"BR"}), coverage=1.0)))
    for i in range(4):
        specs.append(ASSpec(
            f"US Utility Co {i + 1}", "US", ASKind.UTILITY,
            hosts=_hosts(scale, http=8, https=5),
            regional_policy=RegionalPolicySpec(
                block_countries=frozenset({"BR"}), coverage=1.0)))

    # --- Networks blocking Censys outright (Jack-in-the-Box, government) -
    specs.append(ASSpec(
        "Jack in the Box", "US", ASKind.ENTERPRISE, asn=46603,
        hosts=_hosts(scale, http=20, https=15),
        static_block=StaticBlockSpec(origins=frozenset({"CEN"}))))
    for i in range(8):
        specs.append(ASSpec(
            f"US Government Agency {i + 1}", "US", ASKind.GOVERNMENT,
            hosts=_hosts(scale, http=12, https=10),
            static_block=StaticBlockSpec(origins=frozenset({"CEN"}))))
    for i in range(5):
        specs.append(ASSpec(
            f"US Consumer Business {i + 1}", "US", ASKind.ENTERPRISE,
            hosts=_hosts(scale, http=10, https=6),
            static_block=StaticBlockSpec(origins=frozenset({"CEN"}))))

    # --- Hyperscalers whose best origin flips between trials (§5.1) ------
    unstable = PathLossSpec(default=LossDraw(0.006, 0.003, variability=2.5))
    specs.append(ASSpec(
        "Amazon", "US", ASKind.CLOUD, hosts_per_slash24=20.0,
        hosts=_hosts(scale, http=3500, https=3000, ssh=800),
        path_loss=unstable))
    specs.append(ASSpec(
        "Google", "US", ASKind.CLOUD, hosts_per_slash24=20.0,
        hosts=_hosts(scale, http=2000, https=1800, ssh=300),
        path_loss=unstable))
    specs.append(ASSpec(
        "DigitalOcean", "US", ASKind.CLOUD, hosts_per_slash24=20.0,
        hosts=_hosts(scale, http=1200, https=900, ssh=900),
        path_loss=unstable))

    # --- Destinations where Australia is the consistent worst origin -----
    au_bad = PathLossSpec(
        default=LossDraw(0.004, 0.004, variability=0.8),
        per_origin={"AU": LossDraw(0.041, 0.03, variability=0.6)})
    for name, country, http in (
            ("Rostelecom", "RU", 500), ("MTS Russia", "RU", 250),
            ("VimpelCom", "RU", 120)):
        specs.append(ASSpec(
            name, country, ASKind.ISP,
            hosts=_hosts(scale, http=http, https=http * 0.45,
                         ssh=http * 0.25),
            path_loss=au_bad))
    specs.append(ASSpec(
        "Kazakhtelecom", "KZ", ASKind.ISP,
        hosts=_hosts(scale, http=160, https=70, ssh=35),
        path_loss=PathLossSpec(
            default=LossDraw(0.0039, 0.004, variability=0.8),
            per_origin={"AU": LossDraw(0.046, 0.03, variability=0.6)})))

    # --- Table 2 long tail: countries dominated by one filtered AS -------
    specs.append(ASSpec(
        "Telecom Argentina", "AR", ASKind.ISP,
        hosts=_hosts(scale, http=200, https=90, ssh=40),
        path_loss=PathLossSpec(
            default=LossDraw(0.005, 0.005),
            per_origin={"DE": LossDraw(0.05, 0.01,
                                       persistent_fraction=0.09)})))
    specs.append(ASSpec(
        "CANTV Venezuela", "VE", ASKind.ISP,
        hosts=_hosts(scale, http=110, https=45, ssh=20),
        path_loss=PathLossSpec(
            default=LossDraw(0.005, 0.005),
            per_origin={"DE": LossDraw(0.04, 0.01,
                                       persistent_fraction=0.07)})))
    specs.append(ASSpec(
        "Ecuanet", "EC", ASKind.ISP,
        hosts=_hosts(scale, http=90, https=35, ssh=18),
        reputation_firewall=ReputationFirewallSpec(
            min_reputation=100.0, coverage=0.17),
        path_loss=PathLossSpec(
            default=LossDraw(0.005, 0.005),
            per_origin={
                "DE": LossDraw(0.04, 0.01, persistent_fraction=0.09),
                "us-stanford": LossDraw(0.02, 0.008,
                                        persistent_fraction=0.06),
            })))
    specs.append(ASSpec(
        "ArmenTel", "AM", ASKind.ISP,
        hosts=_hosts(scale, http=40, https=15, ssh=8),
        path_loss=PathLossSpec(
            default=LossDraw(0.005, 0.005),
            per_origin={"DE": LossDraw(0.05, 0.01,
                                       persistent_fraction=0.12)})))
    specs.append(ASSpec(
        "Libya Telecom", "LY", ASKind.ISP,
        hosts=_hosts(scale, http=14, https=6, ssh=3),
        reputation_firewall=ReputationFirewallSpec(
            min_reputation=100.0, coverage=0.16),
        path_loss=PathLossSpec(
            default=LossDraw(0.005, 0.005),
            per_origin={"DE": LossDraw(0.08, 0.02,
                                       persistent_fraction=0.3)})))
    specs.append(ASSpec(
        "Sudatel", "SD", ASKind.ISP,
        hosts=_hosts(scale, http=18, https=8, ssh=4),
        reputation_firewall=ReputationFirewallSpec(
            min_reputation=100.0, coverage=0.13),
        path_loss=PathLossSpec(
            default=LossDraw(0.005, 0.005),
            per_origin={"DE": LossDraw(0.07, 0.02,
                                       persistent_fraction=0.25)})))
    specs.append(ASSpec(
        "Burkina Telecom", "BF", ASKind.ISP,
        hosts=_hosts(scale, http=10, https=4, ssh=2),
        static_block=StaticBlockSpec(
            origins=frozenset({"JP", "US1", "CEN"}), coverage=0.38)))
    specs.append(ASSpec(
        "Malawi Telecom", "MW", ASKind.ISP,
        hosts=_hosts(scale, http=9, https=4, ssh=2),
        static_block=StaticBlockSpec(
            origins=frozenset({"JP", "US1", "CEN"}), coverage=0.29)))
    specs.append(ASSpec(
        "MobiNet Mongolia", "MN", ASKind.ISP,
        hosts=_hosts(scale, http=14, https=6, ssh=3),
        reputation_firewall=ReputationFirewallSpec(
            min_reputation=100.0, coverage=0.3)))

    return specs


def _background_specs(scale: float, named: Sequence[ASSpec],
                      rng: CounterRNG) -> List[ASSpec]:
    """The long tail of unremarkable networks filling each country.

    Sizes follow a Zipf-like split so per-country AS distributions are
    top-heavy, as on the real Internet.  A small slice of these networks
    carries generic anti-scanner behaviour (reputation firewalls, arbitrary
    origin blocks) that produces the paper's diffuse exclusive-
    inaccessibility tail.
    """
    taken: Dict[str, Dict[str, float]] = {}
    for spec in named:
        by_proto = taken.setdefault(spec.country, {})
        for proto, count in spec.hosts.items():
            by_proto[proto] = by_proto.get(proto, 0) + count

    share_total = sum(COUNTRY_SHARES.values())
    protocol_ratio = {
        proto: total / PROTOCOL_TOTALS["http"]
        for proto, total in PROTOCOL_TOTALS.items()
    }

    countries = []
    for country, share in COUNTRY_SHARES.items():
        country_http = PROTOCOL_TOTALS["http"] * scale * share / share_total
        remaining = {}
        for proto, ratio in protocol_ratio.items():
            want = country_http * ratio
            have = taken.get(country, {}).get(proto, 0)
            remaining[proto] = max(0.0, want - have)
        if sum(remaining.values()) < 4:
            continue
        n_as = max(1, min(40, round(remaining["http"] / 55) + 1))
        countries.append((country, remaining, n_as))

    # AS i of a country draws rng.derive("bg", country).uniform(name, i)
    # from each stream (.bits for the grudges); every country's draws of
    # one stream are one array, in country order.
    sizes = [n_as for _, _, n_as in countries]
    keys = np.repeat(np.array([rng.derive("bg", country).key
                               for country, _, _ in countries],
                              dtype=np.uint64), sizes)
    index = np.arange(len(keys)) - np.repeat(np.cumsum(sizes) - sizes,
                                             sizes)
    u = {name: fold_uniform(keys, name, index).tolist()
         for name in ("kind", "behaviour", "cov", "grudge-two",
                      "loss-mult", "rand-noise", "au-bad")}
    grudge1 = fold_bits(keys, "grudge1", index).tolist()
    grudge2 = fold_bits(keys, "grudge2", index).tolist()

    specs: List[ASSpec] = []
    origin_pool = ("AU", "BR", "DE", "JP", "US1", "US64", "CEN")
    first = 0
    for country, remaining, n_as in countries:
        weights = [1.0 / (i + 1) for i in range(n_as)]
        weight_total = sum(weights)
        for i in range(n_as):
            j = first + i
            frac = weights[i] / weight_total
            hosts = {proto: max(0, round(remaining[proto] * frac))
                     for proto in remaining}
            hosts = {p: c for p, c in hosts.items() if c > 0}
            if not hosts:
                continue
            kind = weighted_pick(
                (ASKind.ISP, ASKind.HOSTING, ASKind.ENTERPRISE,
                 ASKind.ACADEMIC, ASKind.GOVERNMENT),
                (0.4, 0.35, 0.15, 0.05, 0.05), u["kind"][j])
            spec_kwargs = {"path_loss": _jittered_loss(
                u["loss-mult"][j], u["rand-noise"][j],
                u["au-bad"][j] < 0.12)}
            roll = u["behaviour"][j]
            if roll < 0.025:
                # Generic Censys-blocking network.
                spec_kwargs["reputation_firewall"] = ReputationFirewallSpec(
                    min_reputation=100.0,
                    coverage=0.4 + 0.6 * u["cov"][j])
            elif roll < 0.029:
                # Blocks every origin range with *any* scanning history.
                spec_kwargs["reputation_firewall"] = ReputationFirewallSpec(
                    min_reputation=1.0,
                    coverage=0.5 + 0.5 * u["cov"][j])
            elif roll < 0.040:
                # Arbitrary grudge against one or two specific origins.
                blocked = {origin_pool[grudge1[j] % len(origin_pool)]}
                if u["grudge-two"][j] < 0.4:
                    blocked.add(origin_pool[grudge2[j] % len(origin_pool)])
                spec_kwargs["static_block"] = StaticBlockSpec(
                    origins=frozenset(blocked))
            elif roll < 0.050 and kind is ASKind.HOSTING:
                # Flakier-than-average hosting.
                spec_kwargs["l7_flaky"] = L7FlakySpec(
                    flaky_fraction=0.06, fail_prob=0.3, drop_share=0.7,
                    dead_fraction=0.004)
            specs.append(ASSpec(
                f"{country} Network {i + 1:02d}", country, kind,
                hosts=hosts, **spec_kwargs))
        first += n_as
    return specs


def _jittered_loss(mult_u: float, noise_u: float,
                   au_bad: bool) -> PathLossSpec:
    """A per-AS variation of :data:`DEFAULT_LOSS`.

    Real networks differ: some paths are chronically lossier in *both* the
    correlated and the independent component.  The epoch multiplier is
    lognormal-ish and the random multiplier follows it sub-linearly plus
    noise, which is what gives the §5.2 moderate (ρ ≈ 0.4–0.5) rank
    correlation between estimated drop and transient loss across ASes.  A
    small slice of networks (``au_bad``) is additionally much worse from
    Australia, feeding Figure 11's consistent-worst population.
    ``mult_u`` and ``noise_u`` are the AS's uniforms in [0, 1).
    """
    epoch_mult = 0.28 * math.exp(2.7 * mult_u)     # roughly 0.28x - 4.2x
    noise = 0.75 + 0.5 * noise_u
    random_mult = (epoch_mult ** 0.9) * noise
    au_penalty = 6.0 if au_bad else 1.0

    def scaled(draw: LossDraw, origin_key: str) -> LossDraw:
        au = au_penalty if origin_key == "AU" else 1.0
        return LossDraw(
            epoch_rate=min(0.5, draw.epoch_rate * epoch_mult * au),
            random_rate=min(0.2, draw.random_rate * random_mult
                            * (au if au > 1 else 1.0)),
            persistent_fraction=min(
                0.1, draw.persistent_fraction * epoch_mult ** 0.5),
            variability=draw.variability)

    per_origin = {key: scaled(draw, key)
                  for key, draw in DEFAULT_LOSS.per_origin.items()}
    return PathLossSpec(default=scaled(DEFAULT_LOSS.default, ""),
                        per_origin=per_origin)


def paper_specs(seed: int = 0, scale: float = 1.0) -> List[ASSpec]:
    """The complete AS spec list of the paper world (named + background).

    Exposed so world *variants* (e.g. the blocking-off ablation in
    :mod:`repro.sim.variants`) can transform the specs and rebuild an
    otherwise-identical world.
    """
    rng = CounterRNG(seed, "scenario")
    named = _named_specs(scale)
    background = _background_specs(scale, named, rng)
    return named + background


def build_world_from_specs(specs: List[ASSpec], seed: int,
                           defaults: WorldDefaults,
                           cache: Union[bool, str, None] = None) -> World:
    """Assemble a world from an explicit spec list (variant support).

    Construction is a pure function of ``(specs, seed, defaults)`` plus
    the default country registry, so finished worlds are cached
    content-addressed on disk (:mod:`repro.io.worldcache`): a warm call
    mmap-loads the compiled world instead of re-running topology
    allocation and population.  ``cache`` controls the behaviour:
    ``None`` honors ``REPRO_WORLD_CACHE`` (default on), ``False``
    bypasses the cache, ``True`` forces it, and a path string selects an
    explicit cache directory.
    """
    def assemble() -> World:
        rng = CounterRNG(seed, "scenario")
        topology = build_topology(specs, default_countries())
        hosts = populate(topology, rng.derive("population"))
        return World(topology, hosts, seed, defaults=defaults)

    from repro.io import worldcache
    directory = None
    if isinstance(cache, (str, os.PathLike)):
        directory, cache = cache, True
    use_cache = worldcache.cache_enabled() if cache is None else bool(cache)
    if not use_cache:
        return assemble()
    return worldcache.cached_build_world(
        specs, seed, defaults, default_countries(), assemble,
        directory=directory)


def paper_defaults() -> WorldDefaults:
    """The world defaults used by the paper scenario (public alias)."""
    return _paper_defaults()


def _build_world(seed: int, scale: float,
                 defaults: WorldDefaults) -> World:
    return build_world_from_specs(paper_specs(seed, scale), seed,
                                  defaults)


def _paper_defaults() -> WorldDefaults:
    return WorldDefaults(
        path_loss=DEFAULT_LOSS,
        l7_flaky=L7FlakySpec(flaky_fraction=0.012, fail_prob=0.18,
                             drop_share=0.7, dead_fraction=0.002),
        burst_outages=BurstOutageSpec(
            events_per_origin_trial=0.08, shared_events_per_trial=0.02,
            duration_mean_s=2700.0,
            origin_multipliers={"AU": 2.5}),
        churn=ChurnSpec(stable_fraction=0.91, churner_presence_prob=0.55),
        maxstartups=MaxStartupsSpec(
            fraction=0.09, refuse_prob_mean=0.5, refuse_prob_spread=0.35),
        churner_wobble=0.08)


def paper_scenario(seed: int = 0, scale: float = 1.0
                   ) -> Tuple[World, Tuple[Origin, ...], ZMapConfig]:
    """The main experiment's world, origins, and scan configuration (§2).

    ``scale`` multiplies every host population; 1.0 targets ≈1/1000 of the
    paper's ground truth (≈58 k HTTP, 41 k HTTPS, 19.6 k SSH services).
    """
    world = _build_world(seed, scale, _paper_defaults())
    config = ZMapConfig(seed=seed, pps=100_000.0, n_probes=2)
    return world, paper_origins(), config


def paper_sharded_scenario(seed: int = 0, scale: float = 1.0,
                           n_shards: Optional[int] = None,
                           max_hosts: Optional[int] = None,
                           cache: Union[bool, str, None] = None):
    """The paper scenario as a sharded, out-of-core world.

    Same specs, seed, defaults, origins, and scan configuration as
    :func:`paper_scenario`, but the host population stays virtual —
    partitioned into contiguous AS-index shards that are generated (or
    mmap-loaded) one at a time by :mod:`repro.sim.shard`.  This is the
    entry point for running the paper grid at scales whose monolithic
    world would not fit in memory (see docs/SCALING.md).
    """
    from repro.sim.shard import build_sharded_world

    sharded = build_sharded_world(
        paper_specs(seed, scale), seed, _paper_defaults(),
        n_shards=n_shards, max_hosts=max_hosts, cache=cache)
    config = ZMapConfig(seed=seed, pps=100_000.0, n_probes=2)
    return sharded, paper_origins(), config


def followup_scenario(seed: int = 0, scale: float = 1.0
                      ) -> Tuple[World, Tuple[Origin, ...], ZMapConfig]:
    """The September-2020 follow-up: colocated Tier-1 origins (§7).

    Same world construction (a fresh seed models the eleven months of
    ecosystem drift), scanned by five original origins plus the three
    Chicago Tier-1 hosts; Censys appears with a fresh, unblocked IP range.
    """
    world = _build_world(seed + 1_000_003, scale, _paper_defaults())
    config = ZMapConfig(seed=seed + 7, pps=100_000.0, n_probes=2)
    return world, followup_origins(), config


def small_scenario(seed: int = 0
                   ) -> Tuple[World, Tuple[Origin, ...], ZMapConfig]:
    """A fast, small world for tests and examples (~3 k services)."""
    return paper_scenario(seed=seed, scale=0.04)
