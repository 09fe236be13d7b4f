"""Array code against the per-element loops it replaced, byte for byte.

Figure 2's /24 split, the burst-outage window draws, the §5.3 burst
detector and the paper world's background AS specs each run as array
code; ``tests/loop_oracle.py`` keeps the loop formulations.  Every
comparison here is exact: floats compare by their bytes, lists and
events in order, spec lists by value and by their world key.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.conditions.outages import (
    BurstOutageModel,
    BurstOutageSpec,
    _poisson_counts,
)
from repro.core.bursts import (
    SIGMA_THRESHOLD,
    SMOOTH_WINDOW_BINS,
    _hot_bins,
    burst_report,
    detect_burst_bins,
    rolling_mean,
)
from repro.core.classification import Classification, MissCategory
from repro.io.worldcache import world_key
from repro.rng import CounterRNG
from repro.sim.scenario import paper_defaults, paper_scenario, paper_specs
from repro.topology.geo import default_countries
from tests import loop_oracle
from tests.conftest import make_campaign, make_trial

ORIGINS = ["AU", "JP", "US1", "CEN"]


# ----------------------------------------------------------------------
# Figure 2: Classification.network_split
# ----------------------------------------------------------------------

def _classification(ips, present, category) -> Classification:
    present = np.asarray(present, dtype=bool).reshape(1, -1)
    n = present.shape[1]
    return Classification(
        protocol="http", origin="A", trials=[0],
        ips=np.asarray(ips, dtype=np.uint32),
        as_index=np.zeros(n, dtype=np.int64),
        country_index=np.zeros(n, dtype=np.int64),
        geo_index=np.zeros(n, dtype=np.int64),
        category=np.asarray(category, dtype=np.uint8).reshape(1, -1),
        present=present)


def _assert_split_matches(cls: Classification) -> None:
    for category in MissCategory:
        assert cls.network_split(0, category) \
            == loop_oracle.network_split(cls, 0, category)


#: Hosts packed into a handful of /24s, so blocks have several members.
host_ips = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 255)).map(
        lambda bh: (bh[0] << 8) | bh[1] | 0x0A000000),
    min_size=0, max_size=60, unique=True)


class TestNetworkSplit:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), ips=host_ips)
    def test_random_presence_and_categories(self, data, ips):
        n = len(ips)
        present = data.draw(st.lists(st.booleans(), min_size=n,
                                     max_size=n))
        category = data.draw(st.lists(st.integers(0, 4), min_size=n,
                                      max_size=n))
        _assert_split_matches(_classification(ips, present, category))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(),
           blocks=st.lists(st.integers(0, 1 << 16), min_size=1,
                           max_size=40, unique=True))
    def test_single_host_blocks(self, data, blocks):
        n = len(blocks)
        ips = [(b << 8) | 7 for b in blocks]
        category = data.draw(st.lists(st.integers(1, 4), min_size=n,
                                      max_size=n))
        cls = _classification(ips, [True] * n, category)
        _assert_split_matches(cls)
        for cat in MissCategory:
            assert cls.network_split(0, cat)["network"] == 0

    @settings(max_examples=50, deadline=None)
    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
           cats=st.lists(st.integers(1, 4), min_size=8, max_size=8))
    def test_uniform_category_blocks(self, sizes, cats):
        ips, category = [], []
        for block, size in enumerate(sizes):
            ips += [(block << 8) | host for host in range(size)]
            category += [cats[block]] * size
        cls = _classification(ips, [True] * len(ips), category)
        _assert_split_matches(cls)
        for cat in MissCategory:
            expected = sum(size for block, size in enumerate(sizes)
                           if size >= 2 and cats[block] == int(cat))
            assert cls.network_split(0, cat)["network"] == expected

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), ips=host_ips)
    def test_no_present_hosts(self, data, ips):
        n = len(ips)
        category = data.draw(st.lists(st.integers(0, 4), min_size=n,
                                      max_size=n))
        cls = _classification(ips, [False] * n, category)
        _assert_split_matches(cls)
        for cat in MissCategory:
            assert cls.network_split(0, cat) == {"host": 0, "network": 0}

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), ips=host_ips)
    def test_no_target_hosts(self, data, ips):
        n = len(ips)
        present = data.draw(st.lists(st.booleans(), min_size=n,
                                     max_size=n))
        category = data.draw(st.lists(st.sampled_from([1, 3]), min_size=n,
                                      max_size=n))
        cls = _classification(ips, present, category)
        for cat in (MissCategory.TRANSIENT, MissCategory.UNKNOWN):
            assert cls.network_split(0, cat) == {"host": 0, "network": 0}
            assert loop_oracle.network_split(cls, 0, cat) \
                == {"host": 0, "network": 0}

    def test_simulated_campaign(self, small_campaign):
        from repro.core.classification import breakdown_by_origin
        for protocol in small_campaign.protocols:
            for cls in breakdown_by_origin(small_campaign,
                                           protocol).values():
                for trial_pos in range(len(cls.trials)):
                    for cat in (MissCategory.TRANSIENT,
                                MissCategory.LONG_TERM):
                        assert cls.network_split(trial_pos, cat) \
                            == loop_oracle.network_split(cls, trial_pos,
                                                         cat)


# ----------------------------------------------------------------------
# Burst-outage windows
# ----------------------------------------------------------------------

def _window_bytes(windows):
    return [(int(w.as_index), w.origin_name, w.trial, w.start.hex(),
             w.end.hex()) for w in windows]


def _active_bytes(active):
    return [(as_index, [(s.hex(), e.hex()) for s, e in spans])
            for as_index, spans in active.items()]


rates = st.one_of(st.just(0.0), st.floats(0.001, 0.5),
                  st.floats(0.5, 30.0))
specs = st.builds(
    BurstOutageSpec,
    events_per_origin_trial=rates,
    shared_events_per_trial=rates,
    duration_mean_s=st.floats(1.0, 50000.0),
    origin_multipliers=st.dictionaries(
        st.sampled_from(ORIGINS),
        st.sampled_from([0.0, 0.5, 2.5, 10.0]), max_size=3))
spec_maps = st.dictionaries(st.integers(0, 10_000), specs,
                            min_size=1, max_size=12)


class TestOutageWindows:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), u=st.floats(0.0, 1.0,
                                                  exclude_max=True),
           lam=st.one_of(st.just(0.0), st.floats(1e-6, 60.0),
                         st.floats(-1.0, 0.0)))
    def test_poisson_counts_match_scalar_inversion(self, seed, u, lam):
        rng = CounterRNG(seed, "p")
        drawn = _poisson_counts(
            np.array([rng.uniform("poisson"), u]), np.array([lam, lam]))
        expected = loop_oracle.poisson(rng, lam)
        assert int(drawn[0]) == expected
        assert int(drawn[1]) == int(_poisson_counts(
            np.array([u]), np.array([lam]))[0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), trial=st.integers(0, 3),
           by_as=spec_maps,
           duration=st.floats(10.0, 200_000.0))
    def test_windows_match_scalar_draws(self, seed, trial, by_as,
                                        duration):
        model = BurstOutageModel(CounterRNG(seed, "w"), ORIGINS, duration)
        for as_index, spec in by_as.items():
            assert _window_bytes(model.windows(as_index, spec, trial)) \
                == _window_bytes(loop_oracle.windows(model, as_index, spec,
                                                     trial))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), trial=st.integers(0, 3),
           by_as=spec_maps, data=st.data())
    def test_windows_before_and_after_active_windows(self, seed, trial,
                                                     by_as, data):
        early = data.draw(st.lists(st.sampled_from(sorted(by_as)),
                                   max_size=4))
        model = BurstOutageModel(CounterRNG(seed, "w"), ORIGINS, 86400.0)
        before = {a: model.windows(a, by_as[a], trial) for a in early}
        for origin in ORIGINS:
            assert _active_bytes(model.active_windows(origin, trial, by_as)) \
                == _active_bytes(loop_oracle.active_windows(
                    model, origin, trial, by_as))
        for as_index, spec in by_as.items():
            after = model.windows(as_index, spec, trial)
            if as_index in before:
                assert after is before[as_index]
            assert _window_bytes(after) == _window_bytes(
                loop_oracle.windows(model, as_index, spec, trial))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), by_as=spec_maps)
    def test_active_windows_for_an_unknown_origin(self, seed, by_as):
        model = BurstOutageModel(CounterRNG(seed, "w"), ORIGINS, 86400.0)
        assert model.active_windows("XX", 0, by_as) == {}
        for origin in ORIGINS:
            assert _active_bytes(model.active_windows(origin, 0, by_as)) \
                == _active_bytes(loop_oracle.active_windows(
                    model, origin, 0, by_as))

    def test_many_ases_at_high_rates(self):
        """3,000 ASes x 3 trials, several events per (AS, origin)."""
        hot = BurstOutageSpec(events_per_origin_trial=1.5,
                              shared_events_per_trial=1.0,
                              duration_mean_s=3000.0,
                              origin_multipliers={"AU": 2.5, "CEN": 0.0})
        calm = BurstOutageSpec(events_per_origin_trial=0.08,
                               shared_events_per_trial=0.02)
        by_as = {a: hot if a % 3 else calm for a in range(3000)}
        model = BurstOutageModel(CounterRNG(17, "w"), ORIGINS, 86400.0)
        for trial in range(3):
            expected = {a: loop_oracle.windows(model, a, spec, trial)
                        for a, spec in by_as.items()}
            for origin in ORIGINS:
                active = model.active_windows(origin, trial, by_as)
                assert list(active) == [
                    a for a, ws in expected.items()
                    if any(w.origin_name == origin for w in ws)]
            for a, spec in by_as.items():
                assert _window_bytes(model.windows(a, spec, trial)) \
                    == _window_bytes(expected[a])

    @pytest.mark.parametrize("rates", ["paper", "high"])
    @pytest.mark.parametrize("scale", [0.2, 1.0])
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_paper_worlds(self, seed, scale, rates):
        """Every AS's windows over three trials of a paper world, filled
        by one ``active_windows`` call per trial; ``high`` gives every AS
        rates at which most (AS, origin) streams draw several events."""
        world, origins, config = paper_scenario(seed=seed, scale=scale)
        names = tuple(o.name for o in origins)
        specs_by_as = world.outage_specs()
        if rates == "high":
            hot = BurstOutageSpec(events_per_origin_trial=2.0,
                                  shared_events_per_trial=0.5,
                                  duration_mean_s=2700.0,
                                  origin_multipliers={"AU": 2.5})
            specs_by_as = {a: hot for a in specs_by_as}
        model = BurstOutageModel(CounterRNG(seed, "paper-windows"), names,
                                 config.scan_duration_s)
        streams_with_repeats = 0
        for trial in range(3):
            model.active_windows(names[0], trial, specs_by_as)
            for a, spec in specs_by_as.items():
                expected = loop_oracle.windows(model, a, spec, trial)
                assert _window_bytes(model.windows(a, spec, trial)) \
                    == _window_bytes(expected)
                per_origin = [w.origin_name for w in expected]
                streams_with_repeats += sum(
                    per_origin.count(o) >= 2 for o in names)
        if rates == "high":
            assert streams_with_repeats >= len(specs_by_as)

    def test_model_shared_by_with_hosts_copies(self, small_world,
                                               monkeypatch):
        """Copies that share one model fill it once, in any order."""
        world, origins, config = small_world
        names = tuple(o.name for o in origins)
        duration = config.scan_duration_s + 1.0  # a model of its own
        copies = [world.with_hosts(world.hosts) for _ in range(3)]
        model = copies[0]._outages(names, duration)
        fills = []
        fill = model._fill

        def counting_fill(trial, as_indices, specs):
            fills.extend((int(a), trial) for a in as_indices)
            return fill(trial, as_indices, specs)

        monkeypatch.setattr(model, "_fill", counting_fill)
        specs_by_as = world.outage_specs()
        for trial in range(2):
            for i, origin in enumerate(names):
                copy = copies[(i + trial) % len(copies)]
                assert copy._outages(names, duration) is model
                active = copy._outages(names, duration).active_windows(
                    origin, trial, copy.outage_specs())
                assert _active_bytes(active) == _active_bytes(
                    loop_oracle.active_windows(model, origin, trial,
                                               specs_by_as))
        assert sorted(fills) == sorted(
            (a, trial) for trial in range(2) for a in specs_by_as)


# ----------------------------------------------------------------------
# The paper world's background AS specs
# ----------------------------------------------------------------------

class TestPaperSpecs:
    @pytest.mark.parametrize("scale", [0.04, 0.2, 1.0, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_specs_and_world_key_match(self, seed, scale):
        specs = paper_specs(seed, scale)
        expected = loop_oracle.paper_specs(seed, scale)
        assert specs == expected
        defaults, countries = paper_defaults(), default_countries()
        assert world_key(specs, seed, defaults, countries) \
            == world_key(expected, seed, defaults, countries)

    def test_every_background_behaviour_is_drawn(self):
        """Scale 2.0 reaches every branch the comparisons above cover."""
        specs = paper_specs(0, 2.0)
        background = [s for s in specs if " Network " in s.name]
        assert len(background) > 800
        assert any(s.static_block is not None
                   and len(s.static_block.origins) == 2
                   for s in background)
        assert {s.reputation_firewall.min_reputation for s in background
                if s.reputation_firewall is not None} == {1.0, 100.0}
        assert any(s.l7_flaky is not None for s in background)


# ----------------------------------------------------------------------
# §5.3 burst detector
# ----------------------------------------------------------------------

float_series = st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                        min_size=0, max_size=40)
int_series = st.lists(st.integers(0, 50), min_size=0, max_size=40)


class TestRollingMean:
    @settings(max_examples=200, deadline=None)
    @given(series=st.one_of(float_series, int_series),
           window=st.integers(1, 7))
    @example(series=[-0.0], window=1)
    @example(series=[-0.0, -0.0, 2.5], window=4)
    def test_matches_slice_means(self, series, window):
        series = np.asarray(series, dtype=np.float64)
        assert rolling_mean(series, window).tobytes() \
            == loop_oracle.rolling_mean(series, window).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                                  min_size=6, max_size=6),
                         min_size=1, max_size=5),
           window=st.integers(1, 7))
    def test_rows_match_one_series_each(self, rows, window):
        matrix = np.asarray(rows, dtype=np.float64)
        smoothed = rolling_mean(matrix, window)
        for row, out in zip(matrix, smoothed):
            assert out.tobytes() \
                == loop_oracle.rolling_mean(row, window).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(series=st.one_of(float_series, int_series))
    def test_detector_matches(self, series):
        series = np.asarray(series, dtype=np.float64)
        assert detect_burst_bins(series).tobytes() \
            == loop_oracle.detect_burst_bins(series).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 59),
           bins=st.integers(2, 199), rate=st.floats(0.05, 8.0),
           sigma=st.sampled_from([0.5, 1.0, SIGMA_THRESHOLD]))
    def test_hot_bins_match_one_series_each(self, seed, rows, bins, rate,
                                            sigma):
        """The matrix detector's row-wise spread against one ``std()``
        per series, over Poisson count matrices like §5.3's."""
        matrix = np.random.default_rng(seed).poisson(
            rate, (rows, bins)).astype(np.float64)
        matrix = matrix[matrix.sum(axis=1) > 0]
        # The identity the row-wise spread rests on, to the last bit.
        noise = matrix - rolling_mean(matrix, SMOOTH_WINDOW_BINS)
        assert noise.std(axis=1).tobytes() \
            == np.array([row.std() for row in noise]).tobytes()
        hot = _hot_bins(matrix, SMOOTH_WINDOW_BINS, sigma)
        assert len(hot) == len(matrix)
        for row, got in zip(matrix, hot):
            assert got.tobytes() == loop_oracle.detect_burst_bins(
                row, SMOOTH_WINDOW_BINS, sigma).tobytes()


def _report_bytes(report):
    return (report.origins,
            [(e.origin, e.as_index, e.trial_pos, e.bin_index, e.lost_hosts)
             for e in report.events],
            report.transient_total.tobytes(),
            report.burst_coincident.tobytes(),
            report.ases_with_transient, report.ases_with_burst)


@st.composite
def burst_campaigns(draw):
    """Hand-built campaigns with clustered miss times across a few ASes."""
    origins = ["A", "B", "C"]
    n = draw(st.integers(4, 80))
    n_trials = draw(st.integers(2, 3))
    ips = sorted(draw(st.lists(st.integers(1, 1 << 20), min_size=n,
                               max_size=n, unique=True)))
    as_index = draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
    duration = draw(st.sampled_from([86400.0, 7200.0, 0.0]))
    hours = st.integers(0, 23).map(lambda h: h * 3600.0)
    tables = []
    for trial in range(n_trials):
        l7, time = {}, {}
        for origin in origins:
            l7[origin] = draw(st.lists(
                st.sampled_from(["ok", "ok", "ok", "none"]),
                min_size=n, max_size=n))
            time[origin] = [h + draw(st.floats(0.0, 3599.0))
                            for h in draw(st.lists(hours, min_size=n,
                                                   max_size=n))]
        tables.append(make_trial("http", trial, origins, ips, l7=l7,
                                 time=time, as_index=as_index))
    return make_campaign(tables, metadata={"scan_duration_s": duration})


class TestBurstReport:
    @settings(max_examples=50, deadline=None)
    @given(ds=burst_campaigns(), min_misses=st.integers(0, 6))
    def test_hand_built_campaigns(self, ds, min_misses):
        assert _report_bytes(burst_report(
            ds, "http", min_misses=min_misses)) == _report_bytes(
            loop_oracle.burst_report(ds, "http", min_misses=min_misses))

    @pytest.mark.parametrize("min_misses", [1, 5])
    def test_simulated_campaign(self, small_campaign, min_misses):
        for protocol in small_campaign.protocols:
            assert _report_bytes(burst_report(
                small_campaign, protocol, min_misses=min_misses)) \
                == _report_bytes(loop_oracle.burst_report(
                    small_campaign, protocol, min_misses=min_misses))

    @pytest.mark.parametrize("seed", [2, 7])
    def test_random_campaigns(self, seed):
        from repro.sim.campaign import run_campaign
        from repro.sim.scenario import paper_scenario
        world, origins, config = paper_scenario(seed=seed, scale=0.1)
        ds = run_campaign(world, origins, config, n_trials=3,
                          executor="serial")
        for protocol in ds.protocols:
            assert _report_bytes(burst_report(ds, protocol)) \
                == _report_bytes(loop_oracle.burst_report(ds, protocol))
