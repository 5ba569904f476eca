"""Tests for the p-stable Morris-counter Fp estimator (Theorem 3.2)."""

import pytest

from repro.core.fp_pstable import PStableFpEstimator
from repro.streams import FrequencyVector, uniform_stream, zipf_stream


class TestConstruction:
    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            PStableFpEstimator(p=0.0)
        with pytest.raises(ValueError):
            PStableFpEstimator(p=2.0)

    def test_invalid_epsilon_raises(self):
        with pytest.raises(ValueError):
            PStableFpEstimator(p=0.5, epsilon=0)

    def test_default_rows_scale_with_epsilon(self):
        coarse = PStableFpEstimator(p=0.5, epsilon=0.5)
        fine = PStableFpEstimator(p=0.5, epsilon=0.15)
        assert fine.num_rows > coarse.num_rows

    def test_explicit_rows(self):
        algo = PStableFpEstimator(p=0.5, num_rows=33)
        assert algo.num_rows == 33


class TestAccuracy:
    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
    def test_zipf_accuracy(self, p):
        n, m = 500, 8000
        stream = zipf_stream(n, m, skew=1.2, seed=10 + int(4 * p))
        truth = FrequencyVector.from_stream(stream).fp_moment(p)
        algo = PStableFpEstimator(p=p, num_rows=120, seed=1)
        algo.process_stream(stream)
        assert algo.fp_estimate() == pytest.approx(truth, rel=0.35)

    def test_uniform_f_half(self):
        n, m = 400, 6000
        stream = uniform_stream(n, m, seed=2)
        truth = FrequencyVector.from_stream(stream).fp_moment(0.5)
        algo = PStableFpEstimator(p=0.5, num_rows=120, seed=2)
        algo.process_stream(stream)
        assert algo.fp_estimate() == pytest.approx(truth, rel=0.35)

    def test_log_cosine_estimator(self):
        n, m = 300, 5000
        stream = zipf_stream(n, m, skew=1.1, seed=3)
        truth = FrequencyVector.from_stream(stream).fp_moment(0.5)
        algo = PStableFpEstimator(p=0.5, num_rows=120, seed=3)
        algo.process_stream(stream)
        estimate = algo.fp_estimate(estimator="log-cosine")
        assert estimate == pytest.approx(truth, rel=0.4)

    def test_unknown_estimator_raises(self):
        algo = PStableFpEstimator(p=0.5, num_rows=20, seed=4)
        with pytest.raises(ValueError):
            algo.lp_norm_estimate(estimator="mean")

    def test_empty_stream_estimates_zero(self):
        algo = PStableFpEstimator(p=0.5, num_rows=20, seed=5)
        assert algo.fp_estimate() == 0.0


class TestStateChanges:
    def test_state_changes_grow_sublinearly_in_m(self):
        """Doubling m should much-less-than-double the state changes
        (each Morris counter adds only log-many writes)."""
        n = 200
        runs = {}
        for m in (4000, 16000):
            algo = PStableFpEstimator(p=0.5, num_rows=40, seed=6)
            algo.process_stream(uniform_stream(n, m, seed=6))
            runs[m] = algo.state_changes
        assert runs[16000] < 2.5 * runs[4000]

    def test_far_fewer_writes_than_exact_maintenance(self):
        """Total cell writes are far below num_rows * m (the cost of
        exactly maintaining every inner product)."""
        n, m = 200, 8000
        algo = PStableFpEstimator(p=0.5, num_rows=40, seed=7)
        algo.process_stream(uniform_stream(n, m, seed=7))
        assert algo.report().total_writes < 0.2 * (2 * 40 * m)


class TestCoordinates:
    def test_coordinates_length(self):
        algo = PStableFpEstimator(p=0.5, num_rows=17, seed=8)
        algo.process_stream([1, 2, 3])
        assert len(algo.coordinates()) == 17

    def test_variates_deterministic(self):
        algo = PStableFpEstimator(p=0.5, num_rows=9, seed=9)
        first = algo._variates(42).copy()
        algo._variate_cache.clear()
        second = algo._variates(42)
        assert first.tolist() == second.tolist()

    def test_full_variate_cache_keeps_its_entries(self, monkeypatch):
        from repro.core import fp_pstable

        calls = []
        transform = fp_pstable.cms_transform

        def counting(p, theta, r):
            calls.append(1)
            return transform(p, theta, r)

        monkeypatch.setattr(fp_pstable, "cms_transform", counting)
        stream = [item % 10 for item in range(200)]
        small = PStableFpEstimator(p=0.5, num_rows=9, seed=4)
        small._cache_capacity = 4
        small.process_many(stream)
        # Items 0-3 are cached on first sight and never regenerated;
        # every arrival of items 4-9 misses.
        assert len(calls) == 4 + 6 * 20
        assert sorted(small._variate_cache) == [0, 1, 2, 3]
        calls.clear()
        default = PStableFpEstimator(p=0.5, num_rows=9, seed=4)
        default.process_many(stream)
        assert len(calls) == 10
        assert small.coordinates() == default.coordinates()
        assert small.report() == default.report()
