"""Tests for k-wise hashing and nested subsampling."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    MERSENNE_P,
    KWiseHash,
    NestedStreamSampler,
    NestedUniverseSampler,
    hash_to_unit,
)
from repro.hashing.prime_field import _reduce_many


class TestKWiseHash:
    def test_deterministic_for_equal_seeds(self):
        h1, h2 = KWiseHash(4, seed=7), KWiseHash(4, seed=7)
        assert [h1(x) for x in range(100)] == [h2(x) for x in range(100)]

    def test_different_seeds_differ(self):
        h1, h2 = KWiseHash(2, seed=1), KWiseHash(2, seed=2)
        assert [h1(x) for x in range(50)] != [h2(x) for x in range(50)]

    def test_output_range(self):
        h = KWiseHash(3, seed=0)
        for x in range(1000):
            assert 0 <= h(x) < MERSENNE_P

    def test_unit_in_interval(self):
        h = KWiseHash(2, seed=3)
        for x in range(1000):
            assert 0.0 <= h.unit(x) < 1.0

    def test_bucket_range(self):
        h = KWiseHash(2, seed=5)
        for x in range(500):
            assert 0 <= h.bucket(x, 17) < 17

    def test_bucket_roughly_uniform(self):
        h = KWiseHash(2, seed=11)
        counts = [0] * 8
        for x in range(8000):
            counts[h.bucket(x, 8)] += 1
        assert min(counts) > 700  # expectation 1000

    def test_sign_balanced(self):
        h = KWiseHash(4, seed=13)
        total = sum(h.sign(x) for x in range(10000))
        assert abs(total) < 500

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            KWiseHash(0)

    def test_invalid_bucket_raises(self):
        with pytest.raises(ValueError):
            KWiseHash(2, seed=0).bucket(5, 0)

    def test_description_words(self):
        assert KWiseHash(6, seed=0).description_words == 6

    @given(st.integers(min_value=0, max_value=MERSENNE_P - 1))
    @settings(max_examples=50)
    def test_hash_is_pure(self, x):
        h = KWiseHash(3, seed=42)
        assert h(x) == h(x)


def reference_hash(k: int, seed: int, x: int) -> int:
    """The polynomial evaluated term by term, from the same coefficient
    draw as :class:`KWiseHash` (``k - 1`` uniform, then a non-zero
    leading one)."""
    rng = random.Random(seed)
    coeffs = [rng.randrange(MERSENNE_P) for _ in range(k - 1)]
    coeffs.append(rng.randrange(1, MERSENNE_P))
    return sum(c * pow(x, i, MERSENNE_P) for i, c in enumerate(coeffs)) % (
        MERSENNE_P
    )


NARROW_EDGES = [0, 2**32 - 1]
WIDE_EDGES = [0, 2**32 - 1, 2**32, MERSENNE_P - 1]

# Chunks for each path of the vectorized kernel: narrow (every item
# below 2^32), wide (items anywhere in [0, P)), ones straddling 2^32
# (mostly just above it, where a narrow multiply would overflow), and
# the empty chunk.  Narrow and wide chunks always carry the domain
# edges that fit them.
kernel_chunks = st.one_of(
    st.lists(st.integers(0, 2**32 - 1), max_size=40).map(
        lambda xs: xs + NARROW_EDGES
    ),
    st.lists(st.integers(0, MERSENNE_P - 1), max_size=40).map(
        lambda xs: xs + WIDE_EDGES
    ),
    st.lists(
        st.integers(2**32 - 3, 2**32 + 2) | st.integers(0, 2**40),
        min_size=1,
        max_size=40,
    ),
    st.just([]),
)


class TestVectorizedKernel:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    @given(seed=st.integers(0, 2**32), items=kernel_chunks)
    @settings(max_examples=60, deadline=None)
    def test_many_matches_scalar(self, k, seed, items):
        h = KWiseHash(k, seed=seed)
        xs = np.array(items, dtype=np.int64)
        got = h.many(xs)
        assert got.dtype == np.uint64
        expected = [h(int(x)) for x in xs]
        assert got.tolist() == expected
        assert expected == [reference_hash(k, seed, x) for x in items]

    @pytest.mark.parametrize("k", [2, 4])
    @given(
        seed=st.integers(0, 2**32),
        items=kernel_chunks,
        num_buckets=st.integers(1, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_wrappers_match_scalar(self, k, seed, items, num_buckets):
        h = KWiseHash(k, seed=seed)
        xs = np.array(items, dtype=np.int64)
        buckets = h.bucket_many(xs, num_buckets)
        signs = h.sign_many(xs)
        assert buckets.dtype == signs.dtype == np.int64
        assert buckets.tolist() == [h.bucket(x, num_buckets) for x in items]
        assert signs.tolist() == [h.sign(x) for x in items]
        # uint64 -> float64 may round one ulp away from int / int.
        units = h.unit_many(xs)
        assert units.tolist() == (
            np.array([h(x) for x in items], dtype=np.uint64) / MERSENNE_P
        ).tolist()
        for unit, x in zip(units.tolist(), items):
            assert math.isclose(unit, h.unit(x), rel_tol=2**-52)

    def test_reduce_many_is_canonical_on_every_uint64(self):
        # Values a single fold leaves in [P, P + 7] need the final
        # subtraction; random hashes almost never reach them.
        edges = [0, 1, MERSENNE_P - 1, MERSENNE_P, MERSENNE_P + 7]
        edges += [2 * MERSENNE_P, 2**62, 2**63 + 5, 2**64 - 1]
        edges += [(MERSENNE_P + 1) * j - 1 for j in range(1, 8)]
        got = _reduce_many(np.array(edges, dtype=np.uint64))
        assert got.tolist() == [x % MERSENNE_P for x in edges]

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("bad", [-1, -3, MERSENNE_P, 2**63 - 1])
    def test_items_outside_field_rejected(self, k, bad):
        h = KWiseHash(k, seed=5)
        with pytest.raises(ValueError, match=str(bad)):
            h(bad)
        for items in ([bad], [7, bad, 2**40], [bad, 0, 1]):
            with pytest.raises(ValueError, match=str(bad)):
                h.many(np.array(items, dtype=np.int64))
        with pytest.raises(ValueError):
            h.bucket_many(np.array([1, bad], dtype=np.int64), 8)


class TestHashToUnit:
    def test_deterministic(self):
        assert hash_to_unit(1, 2, 3) == hash_to_unit(1, 2, 3)

    def test_varies_with_parts(self):
        values = {hash_to_unit(0, i) for i in range(100)}
        assert len(values) == 100

    def test_in_unit_interval(self):
        for i in range(200):
            assert 0.0 <= hash_to_unit(9, i) < 1.0


class TestNestedUniverseSampler:
    def test_level_one_contains_everything(self):
        sampler = NestedUniverseSampler(num_levels=10, seed=0)
        assert all(sampler.contains(j, 1) for j in range(500))

    def test_nesting(self):
        sampler = NestedUniverseSampler(num_levels=12, seed=1)
        for j in range(2000):
            deepest = sampler.level_of(j)
            for level in range(1, deepest + 1):
                assert sampler.contains(j, level)
            for level in range(deepest + 1, sampler.num_levels + 1):
                assert not sampler.contains(j, level)

    def test_survival_rate_halves_per_level(self):
        sampler = NestedUniverseSampler(num_levels=15, seed=2)
        n = 40000
        for level in (2, 3, 4):
            survivors = sum(sampler.contains(j, level) for j in range(n))
            expected = n * 2.0 ** (1 - level)
            assert abs(survivors - expected) < 5 * math.sqrt(expected)

    def test_consistency_across_calls(self):
        sampler = NestedUniverseSampler(num_levels=8, seed=3)
        assert [sampler.level_of(j) for j in range(100)] == [
            sampler.level_of(j) for j in range(100)
        ]

    def test_rate(self):
        sampler = NestedUniverseSampler(num_levels=5, seed=0)
        assert sampler.rate(1) == 1.0
        assert sampler.rate(3) == 0.25

    def test_invalid_level_raises(self):
        sampler = NestedUniverseSampler(num_levels=5, seed=0)
        with pytest.raises(ValueError):
            sampler.contains(1, 0)
        with pytest.raises(ValueError):
            sampler.contains(1, 6)

    def test_invalid_num_levels_raises(self):
        with pytest.raises(ValueError):
            NestedUniverseSampler(num_levels=0)


class TestNestedStreamSampler:
    def test_levels_in_range(self):
        sampler = NestedStreamSampler(num_levels=9, rng=random.Random(0))
        for _ in range(1000):
            assert 1 <= sampler.draw_level() <= 9

    def test_geometric_distribution(self):
        sampler = NestedStreamSampler(num_levels=20, rng=random.Random(1))
        draws = [sampler.draw_level() for _ in range(40000)]
        at_least_3 = sum(level >= 3 for level in draws)
        expected = 40000 * 0.25
        assert abs(at_least_3 - expected) < 5 * math.sqrt(expected)

    def test_invalid_num_levels_raises(self):
        with pytest.raises(ValueError):
            NestedStreamSampler(num_levels=0, rng=random.Random(0))
