"""Tests for the /24-agreement, diurnal, asynchrony, and L4-breakdown
analyses."""

import numpy as np
import pytest

from repro.core.classification import longterm_l4_breakdown
from repro.core.slash24 import (
    mean_agreement,
    pairwise_agreement,
    slash24_rates,
)
from repro.core.timing import (
    asynchrony_report,
    diurnal_profile,
)
from tests.conftest import make_campaign, make_trial


def slash24_campaign():
    """Two /24s: block A fully agreed on, block B disagreed on.

    Block 0.0.1.0/24 holds 4 hosts everyone sees; block 0.0.2.0/24 holds
    4 hosts of which origin B misses half.
    """
    ips = [256, 257, 258, 259, 512, 513, 514, 515]
    tables = [make_trial("http", 0, ["A", "B"], ips, l7={
        "A": ["ok"] * 8,
        "B": ["ok"] * 4 + ["ok", "ok", "drop", "drop"]})]
    return make_campaign(tables)


class TestSlash24:
    def test_rates(self):
        ds = slash24_campaign()
        rates = slash24_rates(ds.trial_data("http", 0))
        assert list(rates.blocks) == [256, 512]
        assert list(rates.totals) == [4, 4]
        a = rates.origins.index("A")
        b = rates.origins.index("B")
        assert rates.rates[a].tolist() == [1.0, 1.0]
        assert rates.rates[b].tolist() == [1.0, 0.5]

    def test_min_hosts_filter(self):
        ips = [256, 512, 513]
        tables = [make_trial("http", 0, ["A"], ips,
                             l7={"A": ["ok"] * 3})]
        ds = make_campaign(tables)
        rates = slash24_rates(ds.trial_data("http", 0), min_hosts=2)
        assert list(rates.blocks) == [512]

    def test_pairwise_agreement(self):
        ds = slash24_campaign()
        rates = slash24_rates(ds.trial_data("http", 0))
        agreement = pairwise_agreement(rates, tolerance=0.05)
        # Blocks agree on 1 of 2 (the second differs by 0.5).
        assert agreement[("A", "B")] == pytest.approx(0.5)
        # A huge tolerance makes everything agree.
        assert pairwise_agreement(rates, tolerance=0.6)[("A", "B")] \
            == pytest.approx(1.0)

    def test_mean_agreement(self):
        ds = slash24_campaign()
        assert mean_agreement(ds, "http") == pytest.approx(0.5)

    def test_simulated_agreement_below_one(self, http_campaign):
        value = mean_agreement(http_campaign, "http")
        assert 0.5 < value < 1.0


class TestDiurnal:
    def test_flat_world_is_flat(self):
        """Uniform misses over time → small peak-to-trough."""
        n = 240
        ips = list(range(1000, 1000 + n))
        statuses = ["ok" if i % 10 else "drop" for i in range(n)]
        times = {"A": [i * 86400.0 / n for i in range(n)]}
        tables = [make_trial("http", 0, ["A"], ips,
                             l7={"A": statuses}, time=times)]
        ds = make_campaign(tables)
        profile = diurnal_profile(ds, "http",
                                  utc_offsets={"A": 0.0})
        assert profile.peak_to_trough("A") < 0.25

    def test_night_outage_is_visible(self):
        """All misses between local hours 2-4 → big peak-to-trough.

        A second origin keeps the missed hosts inside ground truth."""
        n = 240
        ips = list(range(1000, 1000 + n))
        times = {o: [i * 86400.0 / n for i in range(n)]
                 for o in ("A", "B")}
        statuses = []
        for i in range(n):
            hour = (times["A"][i] / 3600.0) % 24
            statuses.append("drop" if 2 <= hour < 4 else "ok")
        tables = [make_trial("http", 0, ["A", "B"], ips,
                             l7={"A": statuses, "B": ["ok"] * n},
                             time=times)]
        ds = make_campaign(tables)
        profile = diurnal_profile(ds, "http",
                                  utc_offsets={"A": 0.0, "B": 0.0})
        assert profile.peak_to_trough("A") > 0.9
        assert profile.peak_to_trough("B") == pytest.approx(0.0)

    def test_offset_shifts_hours(self):
        n = 48
        ips = list(range(1000, 1000 + n))
        times = {o: [i * 86400.0 / n for i in range(n)]
                 for o in ("A", "B")}
        statuses = ["drop" if i < n // 24 else "ok" for i in range(n)]
        tables = [make_trial("http", 0, ["A", "B"], ips,
                             l7={"A": statuses, "B": ["ok"] * n},
                             time=times)]
        ds = make_campaign(tables)
        utc0 = diurnal_profile(
            ds, "http", utc_offsets={"A": 0.0, "B": 0.0},
            origins=["A", "B"])
        utc5 = diurnal_profile(
            ds, "http", utc_offsets={"A": 5.0, "B": 5.0},
            origins=["A", "B"])
        a0 = utc0.miss_rate[0]
        a5 = utc5.miss_rate[0]
        assert np.nanargmax(a0) == 0
        assert np.nanargmax(a5) == 5

    def test_tiny_negative_local_time_bins_into_hour_23(self):
        """Regression: in float32, a local time a hair below midnight
        (probe time + negative UTC offset ≈ -5e-7 h) made ``% 24``
        round up to 24.0 — a 25th bin that crashed the bincount sums."""
        times = {"A": [5 * 3600.0 - 0.001, 7200.0]}
        stamps = np.array(times["A"], dtype=np.float32) / 3600.0
        assert stamps[0] - 5.0 < 0 and (stamps[0] - 5.0) % 24 == 24.0
        tables = [make_trial("http", 0, ["A"], [1000, 1001],
                             l7={"A": ["ok", "ok"]}, time=times)]
        profile = diurnal_profile(make_campaign(tables), "http",
                                  utc_offsets={"A": -5.0})
        assert profile.samples.shape == (1, 24)
        assert profile.samples[0, 23] == 1
        assert profile.samples[0, 21] == 1  # 02:00 UTC at UTC-5
        assert profile.samples.sum() == 2

    def test_simulated_world_has_no_diurnal_pattern(self, http_campaign):
        profile = diurnal_profile(http_campaign, "http")
        for origin in profile.origins:
            span = profile.peak_to_trough(origin)
            assert span < 0.15, (origin, span)


class TestAsynchrony:
    def test_lags_relative_to_fastest(self):
        ips = [10, 20]
        times = {"A": [100.0, 200.0], "B": [130.0, 260.0]}
        tables = [make_trial("http", 0, ["A", "B"], ips,
                             l7={"A": ["ok", "ok"], "B": ["ok", "ok"]},
                             time=times)]
        ds = make_campaign(tables)
        report = asynchrony_report(ds.trial_data("http", 0))
        assert report.max_lag_s["A"] == pytest.approx(0.0)
        assert report.max_lag_s["B"] == pytest.approx(60.0)
        assert report.overall_max() == pytest.approx(60.0)
        assert report.laggards(threshold_s=30.0) == ["B"]

    def test_simulated_laggards_are_the_drifting_origins(
            self, http_campaign):
        report = asynchrony_report(http_campaign.trial_data("http", 0))
        # AU (4% drift) and BR (3%) fall furthest behind, as in §2.
        ranked = sorted(report.max_lag_s,
                        key=report.max_lag_s.get, reverse=True)
        assert set(ranked[:2]) == {"AU", "BR"}
        assert report.overall_max() > 600.0


class TestLongtermL4Breakdown:
    def test_hand_built(self):
        # ip 10: long-term missed by A, silent.  ip 20: long-term missed
        # by A, L4-responsive (drop).  ip 30: accessible.
        tables = [
            make_trial("http", t, ["A", "B"], [10, 20, 30], l7={
                "A": ["none", "drop", "ok"],
                "B": ["ok", "ok", "ok"]})
            for t in range(2)
        ]
        ds = make_campaign(tables)
        breakdown = longterm_l4_breakdown(ds, "http")
        assert breakdown["A"]["no_l4"] == pytest.approx(0.5)
        assert breakdown["A"]["l4_responsive"] == pytest.approx(0.5)
        assert np.isnan(breakdown["B"]["no_l4"])

    def test_simulated_http_mostly_silent(self, small_campaign):
        """§4: 92% of long-term inaccessible HTTP(S) hosts are silent at
        L4; SSH blocking acts above TCP so its share is far lower."""
        http = longterm_l4_breakdown(small_campaign, "http")
        ssh = longterm_l4_breakdown(small_campaign, "ssh")
        for origin in ("CEN", "BR"):
            assert http[origin]["no_l4"] > 0.6
        mean_http = np.mean([v["no_l4"] for v in http.values()])
        mean_ssh = np.mean([v["no_l4"] for v in ssh.values()])
        assert mean_http > mean_ssh
