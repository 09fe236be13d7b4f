"""Tests for path conditions: correlated loss and burst outages."""

import numpy as np
import pytest

from repro.conditions.loss import (
    LossDraw,
    PathLossModel,
    PathLossSpec,
    _norm_ppf,
)
from repro.conditions.outages import (
    BurstOutageModel,
    BurstOutageSpec,
    Outage,
    _poisson_counts,
)
from repro.rng import CounterRNG


def _model(origin="AU", state_group=""):
    return PathLossModel(CounterRNG(5, "w"), origin,
                         state_group=state_group)


def _deliveries(model, n, trial=0, probe_no=0, epoch=0.0, random=0.0,
                persistent=0.0, times=None, host_offset=0):
    host_ids = np.arange(host_offset, host_offset + n, dtype=np.uint64)
    as_idx = np.zeros(n, dtype=np.int64)
    if times is None:
        times = np.linspace(0, 80000, n)
    return model.probe_delivered(
        host_ids, as_idx, times, trial, probe_no,
        np.full(n, epoch), np.full(n, random), np.full(n, persistent))


class TestLossDraw:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossDraw(epoch_rate=1.5)
        with pytest.raises(ValueError):
            LossDraw(random_rate=-0.1)
        with pytest.raises(ValueError):
            LossDraw(persistent_fraction=2.0)

    def test_for_origin_fallbacks(self):
        spec = PathLossSpec(
            default=LossDraw(0.1),
            per_origin={"AU": LossDraw(0.2),
                        "us-stanford": LossDraw(0.3)})
        assert spec.for_origin("AU").epoch_rate == 0.2
        assert spec.for_origin("US1", "us-stanford").epoch_rate == 0.3
        assert spec.for_origin("DE").epoch_rate == 0.1
        assert spec.for_origin("DE", "nowhere").epoch_rate == 0.1


class TestPathLossModel:
    def test_no_loss_all_delivered(self):
        delivered = _deliveries(_model(), 5000)
        assert delivered.all()

    def test_random_loss_rate(self):
        delivered = _deliveries(_model(), 50000, random=0.05)
        assert abs((~delivered).mean() - 0.05) < 0.005

    def test_epoch_loss_rate(self):
        delivered = _deliveries(_model(), 50000, epoch=0.1)
        lost = (~delivered).mean()
        # Epoch loss ~= rate * BAD_EPOCH_LOSS.
        assert abs(lost - 0.097) < 0.02

    def test_back_to_back_probes_share_fate(self):
        """The paper's core loss finding: consecutive probes die together."""
        model = _model()
        n = 50000
        times = np.linspace(0, 80000, n)
        first = _deliveries(model, n, probe_no=0, epoch=0.05, times=times)
        second = _deliveries(model, n, probe_no=1, epoch=0.05,
                             times=times + 2e-4)
        lost_any = ~(first & second)
        lost_both = ~(first | second)
        assert lost_any.sum() > 0
        assert lost_both.sum() / lost_any.sum() > 0.95

    def test_delayed_probes_nearly_independent(self):
        model = _model()
        n = 50000
        times = np.linspace(0, 80000, n)
        first = _deliveries(model, n, probe_no=0, epoch=0.05, times=times)
        second = _deliveries(model, n, probe_no=1, epoch=0.05,
                             times=times + 600.0)  # 10 minutes later
        lost_any = ~(first & second)
        lost_both = ~(first | second)
        both_fraction = lost_both.sum() / lost_any.sum()
        assert both_fraction < 0.3

    def test_persistent_loss_stable_across_trials(self):
        model = _model()
        n = 20000
        lost_by_trial = []
        for trial in range(3):
            delivered = _deliveries(model, n, trial=trial, persistent=0.1)
            lost_by_trial.append(~delivered)
        # Persistent-lost hosts are identical in every trial.
        assert np.array_equal(lost_by_trial[0], lost_by_trial[1])
        assert np.array_equal(lost_by_trial[0], lost_by_trial[2])
        assert abs(lost_by_trial[0].mean() - 0.1) < 0.01

    def test_scalar_matches_vector(self):
        model = _model()
        draw = LossDraw(epoch_rate=0.3, random_rate=0.1,
                        persistent_fraction=0.2)
        n = 300
        host_ids = np.arange(n, dtype=np.uint64)
        as_idx = np.full(n, 7, dtype=np.int64)
        times = np.linspace(0, 1000, n)
        vec = model.probe_delivered(
            host_ids, as_idx, times, 1, 0,
            np.full(n, draw.epoch_rate), np.full(n, draw.random_rate),
            np.full(n, draw.persistent_fraction))
        for i in range(n):
            assert model.probe_delivered_one(
                int(host_ids[i]), 7, float(times[i]), 1, 0, draw) == vec[i]

    def test_shared_state_group_correlates_origins(self):
        """Colocated origins see correlated epoch loss."""
        a = PathLossModel(CounterRNG(5, "w"), "HE",
                          state_group="chicago")
        b = PathLossModel(CounterRNG(5, "w"), "NTT",
                          state_group="chicago")
        c = PathLossModel(CounterRNG(5, "w"), "JP")
        n = 40000
        la = ~_deliveries(a, n, epoch=0.05)
        lb = ~_deliveries(b, n, epoch=0.05)
        lc = ~_deliveries(c, n, epoch=0.05)
        colocated_overlap = (la & lb).sum() / max(la.sum(), 1)
        remote_overlap = (la & lc).sum() / max(la.sum(), 1)
        assert colocated_overlap > remote_overlap + 0.2

    def test_trial_epoch_rates_vary_by_trial(self):
        model = _model()
        as_idx = np.arange(1000, dtype=np.int64)
        base = np.full(1000, 0.01)
        var = np.ones(1000)
        t0 = model.trial_epoch_rates(base, var, as_idx, 0)
        t1 = model.trial_epoch_rates(base, var, as_idx, 1)
        assert not np.allclose(t0, t1)
        # Multiplier is centred: medians stay near the base rate.
        assert 0.005 < np.median(t0) < 0.02

    def test_epoch_seconds_validation(self):
        with pytest.raises(ValueError):
            PathLossModel(CounterRNG(1), "AU", epoch_seconds=0)


class TestNormPpf:
    def test_known_quantiles(self):
        u = np.array([0.5, 0.841344746, 0.975, 0.025, 0.158655254])
        z = _norm_ppf(u)
        expected = [0.0, 1.0, 1.959964, -1.959964, -1.0]
        assert np.allclose(z, expected, atol=1e-4)

    def test_symmetry(self):
        u = np.linspace(0.01, 0.99, 99)
        z = _norm_ppf(u)
        assert np.allclose(z, -_norm_ppf(1 - u), atol=1e-6)


class TestBurstOutages:
    def _model(self, duration=86400.0):
        return BurstOutageModel(CounterRNG(2, "w"), ["AU", "JP", "US1"],
                                duration)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BurstOutageSpec(duration_mean_s=0)
        with pytest.raises(ValueError):
            BurstOutageSpec(events_per_origin_trial=-1)

    def test_windows_deterministic_and_cached(self):
        model = self._model()
        spec = BurstOutageSpec(events_per_origin_trial=2.0)
        first = model.windows(3, spec, 0)
        second = model.windows(3, spec, 0)
        assert first is second
        fresh = self._model().windows(3, spec, 0)
        assert [(w.origin_name, w.start) for w in first] \
            == [(w.origin_name, w.start) for w in fresh]

    def test_windows_within_scan(self):
        model = self._model(duration=1000.0)
        spec = BurstOutageSpec(events_per_origin_trial=3.0,
                               duration_mean_s=400.0)
        for window in model.windows(1, spec, 0):
            assert 0 <= window.start <= 1000.0
            assert window.start <= window.end <= 1000.0

    def test_zero_rate_no_windows(self):
        model = self._model()
        spec = BurstOutageSpec(events_per_origin_trial=0.0,
                               shared_events_per_trial=0.0)
        assert model.windows(1, spec, 0) == []

    def test_origin_multiplier_increases_events(self):
        base = BurstOutageSpec(events_per_origin_trial=0.5)
        boosted = BurstOutageSpec(events_per_origin_trial=0.5,
                                  origin_multipliers={"AU": 6.0})
        assert boosted.rate_for("AU") == 3.0
        assert boosted.rate_for("JP") == 0.5
        model_a = self._model()
        model_b = BurstOutageModel(CounterRNG(2, "w"),
                                   ["AU", "JP", "US1"], 86400.0)
        count_base = sum(
            sum(1 for w in model_a.windows(a, base, 0)
                if w.origin_name == "AU") for a in range(200))
        count_boost = sum(
            sum(1 for w in model_b.windows(a + 1000, boosted, 0)
                if w.origin_name == "AU") for a in range(200))
        assert count_boost > count_base * 2

    def test_lost_mask_matches_windows(self):
        model = self._model()
        spec = BurstOutageSpec(events_per_origin_trial=5.0,
                               duration_mean_s=5000.0)
        windows = [w for w in model.windows(7, spec, 0)
                   if w.origin_name == "AU"]
        assert windows, "expected at least one window at this rate"
        inside = windows[0].start + 1.0
        outside_times = np.array([inside, 86399.9])
        mask = model.lost_mask("AU", 0, np.array([7, 7]),
                               outside_times, {7: spec})
        assert mask[0]
        expected_late = any(w.covers(86399.9) for w in windows)
        assert mask[1] == expected_late

    def test_lost_one_matches_lost_mask(self):
        model = self._model()
        spec = BurstOutageSpec(events_per_origin_trial=5.0,
                               duration_mean_s=5000.0)
        times = np.linspace(0, 86000, 50)
        mask = model.lost_mask("JP", 1, np.full(50, 3), times, {3: spec})
        for i, t in enumerate(times):
            assert model.lost_one("JP", 1, 3, float(t), spec) == mask[i]

    def test_shared_events_hit_multiple_origins(self):
        model = BurstOutageModel(CounterRNG(9, "w"),
                                 ["A", "B", "C", "D"], 86400.0)
        spec = BurstOutageSpec(events_per_origin_trial=0.0,
                               shared_events_per_trial=4.0)
        windows = model.windows(1, spec, 0)
        by_start = {}
        for w in windows:
            by_start.setdefault(w.start, set()).add(w.origin_name)
        assert by_start
        for origins in by_start.values():
            assert len(origins) in (2, 3)

    def test_active_windows_never_answers_for_a_freed_specs_dict(self):
        # Two temporary specs dicts, one freed before the next is made,
        # can share an id(); the memo must still tell them apart.
        hot = BurstOutageSpec(events_per_origin_trial=5.0)
        model = self._model()
        assert 3 in model.active_windows("AU", 0, {3: hot})
        second = model.active_windows("AU", 0, {4: hot})
        assert second == self._model().active_windows("AU", 0, {4: hot})
        assert set(second) == {4}

    def test_active_windows_hits_for_the_same_specs_dict(self):
        specs = {3: BurstOutageSpec(events_per_origin_trial=5.0)}
        model = self._model()
        first = model.active_windows("AU", 0, specs)
        assert model.active_windows("AU", 0, specs) is first

    def test_outage_covers(self):
        w = Outage(1, "AU", 0, 10.0, 20.0)
        assert w.covers(10.0) and w.covers(19.99)
        assert not w.covers(20.0) and not w.covers(9.99)

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            BurstOutageModel(CounterRNG(1), ["A"], 0.0)


def _poisson(rng, lam):
    """One variate of the model's inversion, on the stream's own draw."""
    return int(_poisson_counts(np.array([rng.uniform("poisson")]),
                               np.array([lam]))[0])


class TestPoisson:
    def test_zero_lambda(self):
        assert _poisson(CounterRNG(1, "p"), 0.0) == 0

    def test_mean_approximates_lambda(self):
        values = [_poisson(CounterRNG(1, "p", i), 2.5) for i in range(4000)]
        assert abs(np.mean(values) - 2.5) < 0.1

    def test_deterministic(self):
        assert _poisson(CounterRNG(1, "p", 7), 3.0) \
            == _poisson(CounterRNG(1, "p", 7), 3.0)
