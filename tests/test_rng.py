"""Tests for the counter-based RNG — the simulator's determinism anchor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import (CounterRNG, _mix_array, _mix_scalar, fold_bits,
                       fold_keys, fold_uniform, scalar_matches_vector)


class TestDeterminism:
    def test_same_seed_same_bits(self):
        a = CounterRNG(42, "stream")
        b = CounterRNG(42, "stream")
        assert a.bits(1, 2, 3) == b.bits(1, 2, 3)

    def test_different_seed_different_bits(self):
        a = CounterRNG(42, "stream")
        b = CounterRNG(43, "stream")
        assert a.bits(7) != b.bits(7)

    def test_different_stream_different_bits(self):
        a = CounterRNG(42, "loss")
        b = CounterRNG(42, "outage")
        assert a.bits(7) != b.bits(7)

    def test_derive_matches_constructor(self):
        direct = CounterRNG(42, "a", "b", 3)
        derived = CounterRNG(42).derive("a").derive("b", 3)
        assert direct.key == derived.key

    def test_derive_does_not_mutate_parent(self):
        parent = CounterRNG(42, "p")
        key_before = parent.key
        parent.derive("child")
        assert parent.key == key_before

    def test_counter_order_matters(self):
        rng = CounterRNG(1)
        assert rng.bits(1, 2) != rng.bits(2, 1)

    def test_string_counters_accepted(self):
        rng = CounterRNG(1)
        assert rng.bits("x", 1) != rng.bits("y", 1)

    def test_int_key_part_masked_to_64_bits(self):
        rng = CounterRNG(1)
        assert rng.bits(1 << 64) == rng.bits(0)

    def test_rejects_bad_key_type(self):
        with pytest.raises(TypeError):
            CounterRNG(1, 3.5)


class TestFoldKeys:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           ids=st.lists(st.integers(0, 2**40), min_size=1, max_size=20),
           trial=st.integers(0, 2**64 + 5),
           name=st.text(max_size=6))
    def test_fold_keys_matches_derive(self, seed, ids, trial, name):
        rng = CounterRNG(seed, "root")
        keys = np.full(len(ids), rng.key, dtype=np.uint64)
        folded = fold_keys(keys, "single", np.array(ids), trial, name)
        assert folded.tolist() == [
            rng.derive("single", i, trial, name).key for i in ids]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           ids=st.lists(st.integers(0, 2**40), min_size=1, max_size=20),
           k=st.integers(0, 50))
    def test_fold_uniform_matches_uniform(self, seed, ids, k):
        rng = CounterRNG(seed, "root")
        keys = np.array([rng.derive(i).key for i in ids], dtype=np.uint64)
        drawn = fold_uniform(keys, "start", k)
        assert drawn.tobytes() == np.array(
            [rng.derive(i).uniform("start", k) for i in ids]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           ids=st.lists(st.integers(0, 2**40), min_size=0, max_size=20),
           name=st.text(max_size=6))
    def test_fold_bits_with_an_array_counter_matches_bits(self, seed, ids,
                                                          name):
        rng = CounterRNG(seed, "root")
        keys = np.full(len(ids), rng.key, dtype=np.uint64)
        drawn = fold_bits(keys, name, np.array(ids, dtype=np.int64))
        assert drawn.dtype == np.uint64
        assert drawn.tolist() == [rng.bits(name, i) for i in ids]


class TestMixArray:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(0, 2**64 - 1), min_size=0,
                           max_size=64))
    def test_matches_scalar_mix_and_leaves_input_alone(self, values):
        x = np.array(values, dtype=np.uint64)
        before = x.copy()
        mixed = _mix_array(x)
        assert mixed.dtype == np.uint64
        assert mixed.tolist() == [_mix_scalar(v) for v in values]
        assert x.tobytes() == before.tobytes()
        assert len(values) == 0 or not np.shares_memory(mixed, x)

    def test_two_dimensional_input(self):
        x = np.arange(12, dtype=np.uint64).reshape(3, 4) * np.uint64(
            0x9E3779B97F4A7C15)
        before = x.copy()
        mixed = _mix_array(x)
        assert mixed.shape == (3, 4)
        assert mixed.ravel().tolist() == [
            _mix_scalar(int(v)) for v in before.ravel()]
        assert np.array_equal(x, before)


class TestScalarVectorAgreement:
    def test_simple_agreement(self):
        rng = CounterRNG(7, "test")
        assert scalar_matches_vector(rng, 5)

    def test_agreement_with_extras(self):
        rng = CounterRNG(7, "test")
        assert scalar_matches_vector(rng, 5, 9, 11)

    @given(seed=st.integers(0, 2**32), counter=st.integers(0, 2**62))
    @settings(max_examples=60, deadline=None)
    def test_agreement_property(self, seed, counter):
        rng = CounterRNG(seed, "prop")
        assert scalar_matches_vector(rng, counter, 3)

    def test_uniform_agreement(self):
        rng = CounterRNG(3, "u")
        vec = rng.uniform_array(np.arange(10), 4)
        for i in range(10):
            assert rng.uniform(4, i) == vec[i]


class TestDistributions:
    def test_uniform_in_unit_interval(self):
        rng = CounterRNG(0, "dist")
        values = rng.uniform_array(np.arange(10_000))
        assert values.min() >= 0.0
        assert values.max() < 1.0

    def test_uniform_mean_near_half(self):
        rng = CounterRNG(0, "dist")
        values = rng.uniform_array(np.arange(50_000))
        assert abs(values.mean() - 0.5) < 0.01

    def test_uniform_variance_matches_theory(self):
        rng = CounterRNG(0, "dist")
        values = rng.uniform_array(np.arange(50_000))
        assert abs(values.var() - 1.0 / 12.0) < 0.005

    def test_bernoulli_rate(self):
        rng = CounterRNG(1, "bern")
        hits = rng.bernoulli_array(0.3, np.arange(50_000))
        assert abs(hits.mean() - 0.3) < 0.01

    def test_bernoulli_edge_cases(self):
        rng = CounterRNG(1, "bern")
        assert not rng.bernoulli(0.0, 1)
        assert rng.bernoulli(1.0, 1)

    def test_exponential_mean(self):
        rng = CounterRNG(2, "exp")
        values = rng.exponential_array(5.0, np.arange(50_000))
        assert abs(values.mean() - 5.0) < 0.15
        assert values.min() >= 0.0

    def test_randint_range_and_coverage(self):
        rng = CounterRNG(3, "ri")
        values = {rng.randint(2, 7, i) for i in range(500)}
        assert values == {2, 3, 4, 5, 6}

    def test_randint_empty_range_raises(self):
        rng = CounterRNG(3)
        with pytest.raises(ValueError):
            rng.randint(5, 5, 0)

    def test_choice_deterministic_and_valid(self):
        rng = CounterRNG(4, "ch")
        items = ["a", "b", "c"]
        assert rng.choice(items, 9) == rng.choice(items, 9)
        assert rng.choice(items, 9) in items

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            CounterRNG(1).choice([], 0)

    def test_weighted_choice_respects_weights(self):
        rng = CounterRNG(5, "wc")
        picks = [rng.weighted_choice(["x", "y"], [0.99, 0.01], i)
                 for i in range(500)]
        assert picks.count("x") > 450

    def test_weighted_choice_validation(self):
        rng = CounterRNG(5)
        with pytest.raises(ValueError):
            rng.weighted_choice(["a"], [1.0, 2.0], 0)
        with pytest.raises(ValueError):
            rng.weighted_choice(["a"], [0.0], 0)

    def test_shuffled_is_permutation(self):
        rng = CounterRNG(6, "sh")
        items = list(range(50))
        shuffled = rng.shuffled(items, 1)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_shuffled_deterministic(self):
        rng = CounterRNG(6, "sh")
        assert rng.shuffled(range(20), 1) == rng.shuffled(range(20), 1)
        assert rng.shuffled(range(20), 1) != rng.shuffled(range(20), 2)


class TestIndependence:
    def test_counter_addressing_is_order_free(self):
        """Drawing counters in any order yields identical values."""
        rng = CounterRNG(9, "of")
        forward = [rng.uniform(i) for i in range(100)]
        backward = [rng.uniform(i) for i in reversed(range(100))]
        assert forward == list(reversed(backward))

    def test_streams_look_independent(self):
        a = CounterRNG(9, "s1").uniform_array(np.arange(20_000))
        b = CounterRNG(9, "s2").uniform_array(np.arange(20_000))
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    @given(st.integers(0, 2**60), st.integers(0, 2**60))
    @settings(max_examples=50, deadline=None)
    def test_distinct_counters_distinct_bits(self, c1, c2):
        if c1 == c2:
            return
        rng = CounterRNG(13, "distinct")
        assert rng.bits(c1) != rng.bits(c2)


class TestKeyedDraws:
    """The pre-derived-key vector entry points used by the analysis engine."""

    def test_keyed_bits_array_matches_derived_streams(self):
        from repro.rng import keyed_bits_array

        rng = CounterRNG(7, "bootstrap")
        counters = np.arange(1000, dtype=np.uint64)
        keys = np.array([rng.derive(r).key for r in range(8)],
                        dtype=np.uint64)
        matrix = keyed_bits_array(keys[:, None], counters[None, :])
        for r in range(8):
            expected = rng.derive(r).bits_array(counters)
            assert np.array_equal(matrix[r], expected)

    def test_keyed_bits_into_matches_bits_array(self):
        """Row *r* of a block holds stream ``keys[r]``'s draws."""
        from repro.rng import keyed_bits_into

        rng = CounterRNG(11, "buffers")
        counters = np.arange(5000, dtype=np.uint64)
        for block in (1, 2, 7):
            keys = np.array([rng.derive(r).key for r in range(block)],
                            dtype=np.uint64)
            out = np.empty(block * 5000, dtype=np.uint64)
            scratch = np.empty(block * 5000, dtype=np.uint64)
            result = keyed_bits_into(keys, counters, out, scratch)
            assert result is out
            for r, row in enumerate(out.reshape(block, 5000)):
                assert np.array_equal(row,
                                      rng.derive(r).bits_array(counters))

    def test_keyed_bits_into_reusable_buffers(self):
        from repro.rng import keyed_bits_into

        rng = CounterRNG(3, "reuse")
        counters = np.arange(257, dtype=np.uint64)
        keys = np.array([rng.derive(r).key for r in range(3)],
                        dtype=np.uint64)
        out = np.empty(3 * 257, dtype=np.uint64)
        scratch = np.empty(3 * 257, dtype=np.uint64)
        first = keyed_bits_into(keys, counters, out, scratch).copy()
        keyed_bits_into(keys[1:2], counters, out[:257], scratch[:257])
        keyed_bits_into(keys[::-1].copy(), counters, out, scratch)
        keyed_bits_into(keys, counters, out, scratch)
        assert np.array_equal(out, first)
        # The counter vector itself must never be clobbered.
        assert np.array_equal(counters, np.arange(257, dtype=np.uint64))
