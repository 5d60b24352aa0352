import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchdistill import numerics as nm
from branchdistill.errors import InvalidParameter, ShapeError

from _oracles import cross_entropy

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
logit_vectors = st.lists(finite_floats, min_size=2, max_size=8)


class TestSoftmaxTemperature:
    def test_uniform_logits(self):
        np.testing.assert_allclose(nm.softmax_temperature([0.0, 0.0, 0.0], 1.0), 1 / 3, atol=1e-12)

    def test_hand_evaluated_exponentials(self):
        # exp(0) = 1, exp(ln 3) = 3 -> [1/4, 3/4]
        np.testing.assert_allclose(
            nm.softmax_temperature([0.0, math.log(3.0)], 1.0), [0.25, 0.75], atol=1e-12
        )

    def test_temperature_is_logit_division(self):
        np.testing.assert_array_equal(
            nm.softmax_temperature([1.0, 2.0], 2.0), nm.softmax_temperature([0.5, 1.0], 1.0)
        )

    def test_extreme_logits_still_normalized(self):
        p = nm.softmax_temperature([1e4, -1e4, 0.0], 1.0)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p >= 0.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_non_positive_temperature_rejected(self, tau):
        with pytest.raises(InvalidParameter):
            nm.softmax_temperature([1.0, 2.0], tau)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(InvalidParameter):
            nm.softmax_temperature([np.inf, 0.0], 1.0)

    @given(logit_vectors, st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    @settings(deadline=None)
    def test_shift_invariance(self, z, c):
        z = np.array(z)
        np.testing.assert_allclose(
            nm.softmax_temperature(z + c, 1.0), nm.softmax_temperature(z, 1.0), atol=1e-12
        )

    @given(logit_vectors, st.floats(min_value=0.1, max_value=10.0))
    @settings(deadline=None)
    def test_sums_to_one(self, z, tau):
        assert abs(nm.softmax_temperature(np.array(z), tau).sum() - 1.0) <= 1e-9


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert nm.entropy([0.0, 1.0, 0.0]) == 0.0

    def test_uniform_is_log_length(self):
        for length in (2, 5, 17):
            assert abs(nm.entropy(np.full(length, 1.0 / length)) - math.log(length)) <= 1e-12

    def test_two_point_uniform(self):
        assert abs(nm.entropy([0.5, 0.5]) - math.log(2.0)) <= 1e-12

    @given(logit_vectors)
    @settings(deadline=None)
    def test_bounds(self, z):
        p = nm.softmax_temperature(np.array(z), 1.0)
        h = nm.entropy(p)
        assert -1e-12 <= h <= math.log(len(z)) + 1e-9


class TestCrossEntropy:
    def test_matching_one_hot_is_zero(self):
        one_hot = [0.0, 0.0, 1.0]
        assert cross_entropy(one_hot, one_hot) == 0.0

    def test_self_cross_entropy_is_entropy(self):
        p = nm.softmax_temperature([0.3, -1.2, 2.0, 0.0], 1.0)
        assert abs(cross_entropy(p, p) - nm.entropy(p)) <= 1e-12

    def test_one_hot_against_uniform(self):
        target = np.zeros(10)
        target[3] = 1.0
        assert abs(cross_entropy(target, np.full(10, 0.1)) - math.log(10.0)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy([0.5, 0.5], [0.25, 0.25, 0.5])

    @given(logit_vectors, logit_vectors)
    @settings(deadline=None)
    def test_gibbs_inequality(self, a, b):
        length = min(len(a), len(b))
        p = nm.softmax_temperature(np.array(a[:length]), 1.0)
        q = nm.softmax_temperature(np.array(b[:length]), 1.0)
        assert cross_entropy(p, q) >= nm.entropy(p) - 1e-9
