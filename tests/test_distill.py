import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchdistill import corpus as cp
from branchdistill import distill as ds
from branchdistill import numerics as nm
from branchdistill.errors import (
    IncompleteLogits,
    InvalidConfig,
    InvalidLabel,
    InvalidParameter,
)
from branchdistill.model import MASKED_LOGIT

from _gradcheck import check_gradients

finite_floats = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def one_hot(length, index):
    v = np.zeros(length)
    v[index] = 1.0
    return v


def record(z_s, z_e, sample_id="s", teacher_id="t"):
    return ds.LogitRecord(
        sample_id=sample_id, teacher_id=teacher_id,
        z_s=np.asarray(z_s, dtype=float), z_e=np.asarray(z_e, dtype=float),
    )


class TestNllLoss:
    def test_one_hot_at_gold_is_zero(self):
        assert ds.nll_loss(one_hot(5, 2), one_hot(5, 4), 2, 4) == 0.0

    def test_uniform_over_ten(self):
        uniform = np.full(10, 0.1)
        assert abs(ds.nll_loss(uniform, uniform, 3, 7) - 2 * math.log(10.0)) <= 1e-12

    def test_hand_evaluated_logs(self):
        p_s = np.array([0.5, 0.5])
        p_e = np.array([0.25, 0.75])
        expected = math.log(2.0) + math.log(4.0)
        assert abs(ds.nll_loss(p_s, p_e, 0, 0) - expected) <= 1e-12

    def test_out_of_range_gold(self):
        with pytest.raises(InvalidLabel):
            ds.nll_loss(one_hot(3, 0), one_hot(3, 0), 0, 3)

    def test_batch_gradient_is_softmax_minus_one_hot(self):
        # d/dz of -log softmax(z)[a], averaged over B rows, is (softmax(z) - one_hot(a)) / B
        rng = np.random.default_rng(0)
        z_s = rng.normal(size=(3, 7))
        z_e = rng.normal(size=(3, 7))
        gold_s = np.array([2, 0, 5])
        gold_e = np.array([6, 0, 5])

        value, dz_s, dz_e = ds.batch_nll(z_s, z_e, gold_s, gold_e)
        for z, gold, dz in ((z_s, gold_s, dz_s), (z_e, gold_e, dz_e)):
            expected = nm.softmax_temperature(z, 1.0)
            expected[np.arange(3), gold] -= 1.0
            np.testing.assert_allclose(dz, expected / 3.0, atol=1e-12)
        oracle = np.mean([
            ds.nll_loss(nm.softmax_temperature(z_s[i], 1.0), nm.softmax_temperature(z_e[i], 1.0),
                        gold_s[i], gold_e[i])
            for i in range(3)
        ])
        assert abs(value - oracle) <= 1e-12

        def loss():
            return ds.batch_nll(z_s, z_e, gold_s, gold_e)[0]

        check_gradients(loss, {"z_s": z_s, "z_e": z_e}, {"z_s": dz_s, "z_e": dz_e})

    def test_batch_gradient_vanishes_at_masked_logits(self):
        # the encoder writes MASKED_LOGIT outside the passage; those columns
        # carry no probability, so neither the value nor the gradient sees them
        rng = np.random.default_rng(1)
        z = rng.normal(size=(2, 6))
        z[:, 4:] = MASKED_LOGIT
        gold = np.array([1, 3])

        value, dz_s, dz_e = ds.batch_nll(z, z, gold, gold)
        assert np.all(dz_s[:, 4:] == 0.0) and np.all(dz_e[:, 4:] == 0.0)
        short_value, short_s, _ = ds.batch_nll(z[:, :4], z[:, :4], gold, gold)
        assert abs(value - short_value) <= 1e-12
        np.testing.assert_allclose(dz_s[:, :4], short_s, atol=1e-15)


class TestAggregateLogits:
    def test_single_teacher_identity(self):
        r = record([1.0, -2.0, 3.0], [0.0, 4.0, -1.0])
        z_s, z_e = ds.aggregate_logits([r], ds.fixed_weights(1))
        np.testing.assert_array_equal(z_s, r.z_s)
        np.testing.assert_array_equal(z_e, r.z_e)

    def test_symmetric_pair(self):
        a = record([1.0, 3.0], [1.0, 3.0])
        b = record([3.0, 1.0], [3.0, 1.0])
        z_s, _ = ds.aggregate_logits([a, b], ds.fixed_weights(2))
        np.testing.assert_allclose(z_s, [2.0, 2.0], atol=1e-12)

    def test_hand_computed_weighting(self):
        a = record([0.0, 3.0], [0.0, 0.0])
        b = record([3.0, 0.0], [0.0, 0.0])
        weights = ds.TeacherWeights(start=np.array([2 / 3, 1 / 3]), end=np.array([0.5, 0.5]))
        z_s, _ = ds.aggregate_logits([a, b], weights)
        np.testing.assert_allclose(z_s, [1.0, 2.0], atol=1e-12)

    def test_missing_teacher(self):
        with pytest.raises(IncompleteLogits):
            ds.aggregate_logits([record([1.0], [1.0])], ds.fixed_weights(2))

    def test_invalid_weights(self):
        bad = ds.TeacherWeights(start=np.array([0.7, 0.7]), end=np.array([0.5, 0.5]))
        with pytest.raises(InvalidParameter):
            ds.aggregate_logits([record([1.0], [1.0]), record([2.0], [2.0])], bad)

    @given(st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=2, max_size=4),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(deadline=None)
    def test_linearity(self, teacher_rows, alpha):
        records = [record(row, row) for row in teacher_rows]
        scaled = [record(alpha * np.array(row), alpha * np.array(row)) for row in teacher_rows]
        weights = ds.fixed_weights(len(records))
        z_s, _ = ds.aggregate_logits(records, weights)
        z_s_scaled, _ = ds.aggregate_logits(scaled, weights)
        np.testing.assert_allclose(z_s_scaled, alpha * z_s, atol=1e-9)


class TestKdLoss:
    def test_matching_logits_give_scaled_entropies(self):
        rng = np.random.default_rng(0)
        z_s = rng.normal(size=8)
        z_e = rng.normal(size=8)
        for tau in (1.0, 2.0, 4.0):
            expected = tau * tau * (
                nm.entropy(nm.softmax_temperature(z_s, tau))
                + nm.entropy(nm.softmax_temperature(z_e, tau))
            )
            assert abs(ds.kd_loss(z_s, z_e, z_s, z_e, tau) - expected) <= 1e-9

    def test_sharp_agreement_is_near_zero(self):
        z = np.array([50.0, 0.0, 0.0])
        assert ds.kd_loss(z, z, z, z, 1.0) <= 1e-6

    def test_temperature_squared_factor(self):
        # doubling logits and temperature keeps the distributions fixed,
        # so only the tau^2 factor changes
        rng = np.random.default_rng(1)
        z_t_s, z_t_e = rng.normal(size=6), rng.normal(size=6)
        z_s_s, z_s_e = rng.normal(size=6), rng.normal(size=6)
        at_tau_1 = ds.kd_loss(z_t_s, z_t_e, z_s_s, z_s_e, 1.0)
        at_tau_2 = ds.kd_loss(2 * z_t_s, 2 * z_t_e, 2 * z_s_s, 2 * z_s_e, 2.0)
        assert abs(at_tau_2 - 4.0 * at_tau_1) <= 1e-12

    def test_non_positive_temperature(self):
        z = np.zeros(4)
        with pytest.raises(InvalidParameter):
            ds.kd_loss(z, z, z, z, 0.0)

    @given(st.lists(finite_floats, min_size=2, max_size=6),
           st.lists(finite_floats, min_size=2, max_size=6),
           st.floats(min_value=0.5, max_value=4.0))
    @settings(deadline=None)
    def test_gibbs_lower_bound(self, a, b, tau):
        length = min(len(a), len(b))
        z_t = np.array(a[:length])
        z_s = np.array(b[:length])
        floor = tau * tau * 2 * nm.entropy(nm.softmax_temperature(z_t, tau))
        assert ds.kd_loss(z_t, z_t, z_s, z_s, tau) >= floor - 1e-9

    def test_gradient_matches_softened_difference(self):
        # d kd / d student_z = tau * (p_student - p_teacher) per position
        rng = np.random.default_rng(2)
        tau = 2.0
        teacher_p = nm.softmax_temperature(rng.normal(size=(2, 5)), tau)
        student_z = rng.normal(size=(2, 5))
        other_z = np.zeros((2, 5))
        other_p = np.full((2, 5), 0.2)

        value, dz_s, dz_e = ds.batch_kd(student_z, other_z, teacher_p, other_p, tau)
        expected = tau * (nm.softmax_temperature(student_z, tau) - teacher_p) / 2
        np.testing.assert_allclose(dz_s, expected, atol=1e-12)
        np.testing.assert_allclose(dz_e, 0.0, atol=1e-12)
        # teacher logits tau * ln(p) soften back to p at temperature tau
        oracle = np.mean([ds.kd_loss(tau * np.log(p_s), tau * np.log(p_e), z_s, z_e, tau)
                          for p_s, p_e, z_s, z_e in zip(teacher_p, other_p, student_z, other_z)])
        assert abs(value - oracle) <= 1e-12

        def loss():
            return ds.batch_kd(student_z, other_z, teacher_p, other_p, tau)[0]

        check_gradients(loss, {"z": student_z}, {"z": dz_s})

    def test_batch_teacher_equal_to_student_gives_zero_gradient(self):
        rng = np.random.default_rng(3)
        tau = 2.0
        z_s, z_e = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        p_s, p_e = nm.softmax_temperature(z_s, tau), nm.softmax_temperature(z_e, tau)

        value, dz_s, dz_e = ds.batch_kd(z_s, z_e, p_s, p_e, tau)
        np.testing.assert_allclose(dz_s, 0.0, atol=1e-15)
        np.testing.assert_allclose(dz_e, 0.0, atol=1e-15)
        expected = tau * tau * np.mean(nm.entropy(p_s) + nm.entropy(p_e))
        assert abs(value - expected) <= 1e-12

    def test_batch_non_positive_temperature(self):
        z = np.zeros((2, 4))
        p = np.full((2, 4), 0.25)
        for tau in (0.0, -1.0):
            with pytest.raises(InvalidParameter):
                ds.batch_kd(z, z, p, p, tau)


class TestFixedWeights:
    @pytest.mark.parametrize("k,expected", [(3, 1 / 3), (1, 1.0), (4, 0.25)])
    def test_uniform(self, k, expected):
        weights = ds.fixed_weights(k)
        np.testing.assert_allclose(weights.start, expected, atol=1e-15)
        np.testing.assert_allclose(weights.end, expected, atol=1e-15)

    def test_zero_teachers(self):
        with pytest.raises(InvalidConfig):
            ds.fixed_weights(0)

    def test_batch_rows_equal_one_instance_at_a_time(self):
        rng = np.random.default_rng(7)
        rows = [ds.LogitRows(teacher_id=t, z_s=rng.normal(size=(6, 9)),
                             z_e=rng.normal(size=(6, 9))) for t in "abc"]
        per_instance = rng.dirichlet(np.ones(3), size=6)
        for weights in (ds.fixed_weights(3),
                        ds.TeacherWeights(start=per_instance, end=per_instance[::-1].copy())):
            z_s, z_e = ds.aggregate_logits(rows, weights)
            for i in range(6):
                ws = np.broadcast_to(weights.start, (6, 3))[i]
                we = np.broadcast_to(weights.end, (6, 3))[i]
                ref_s, ref_e = np.zeros(9), np.zeros(9)
                for k, r in enumerate(rows):
                    ref_s += ws[k] * r.z_s[i]
                    ref_e += we[k] * r.z_e[i]
                np.testing.assert_array_equal(z_s[i], ref_s)
                np.testing.assert_array_equal(z_e[i], ref_e)


class TestImpurityWeights:
    def test_identical_teachers_are_exactly_uniform(self):
        z = np.array([0.4, -1.0, 2.2])
        for sign in (1, -1):
            w = ds.impurity_weights([z, z.copy(), z.copy()], sign)
            assert w[0] == w[1] == w[2]
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_worked_example_entropies(self):
        # teacher A: p = [1/2, 1/2, 0] -> impurity ln 2; teacher B: one-hot -> 0
        z_half = np.array([0.0, 0.0, -1e9])
        z_sharp = np.array([0.0, -1e9, -1e9])
        w_plus = ds.impurity_weights([z_half, z_sharp], sign=1)
        np.testing.assert_allclose(w_plus, [2 / 3, 1 / 3], atol=1e-9)
        w_minus = ds.impurity_weights([z_half, z_sharp], sign=-1)
        np.testing.assert_allclose(w_minus, [1 / 3, 2 / 3], atol=1e-9)

    def test_bad_sign(self):
        with pytest.raises(InvalidParameter):
            ds.impurity_weights([np.zeros(3)], sign=2)

    def test_empty_teacher_list(self):
        with pytest.raises(InvalidConfig):
            ds.impurity_weights([])

    @given(st.lists(st.lists(finite_floats, min_size=4, max_size=4), min_size=1, max_size=5),
           st.sampled_from([1, -1]))
    @settings(deadline=None)
    def test_simplex(self, rows, sign):
        w = ds.impurity_weights([np.array(r) for r in rows], sign)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("length", [5, 37, 150])
    def test_batch_rows_equal_one_teacher_at_a_time(self, length):
        # each row must match the per-teacher scalar-entropy formula bit for bit
        rng = np.random.default_rng(length)
        per_teacher = [rng.normal(scale=4.0, size=(20, length)) for _ in range(3)]
        for sign in (1, -1):
            w = ds.impurity_weights(per_teacher, sign)
            assert w.shape == (20, 3)
            for row in range(20):
                impurities = np.array([nm.entropy(nm.softmax_temperature(z[row], 1.0))
                                       for z in per_teacher])
                np.testing.assert_array_equal(
                    w[row], nm.softmax_temperature(sign * impurities, 1.0))

    def test_shift_of_impurities_leaves_weights_unchanged(self):
        rng = np.random.default_rng(3)
        impurities = np.array([nm.entropy(nm.softmax_temperature(rng.normal(size=6), 1.0))
                               for _ in range(4)])
        base = nm.softmax_temperature(impurities, 1.0)
        shifted = nm.softmax_temperature(impurities + 11.75, 1.0)
        np.testing.assert_allclose(shifted, base, atol=1e-12)


class TestLogitStore:
    def _records(self, n, max_len=6, seed=0):
        rng = np.random.default_rng(seed)
        return [
            record(rng.normal(size=max_len), rng.normal(size=max_len),
                   sample_id=f"s{i}", teacher_id="en")
            for i in range(n)
        ]

    def test_round_trip(self, tmp_path):
        records = self._records(5)
        path = tmp_path / "en.logits"
        ds.write_logit_store(path, "en", 6, records)
        store = ds.LogitStore(path)
        assert store.teacher_id == "en"
        assert store.count == 5
        for r in records:
            loaded = store.get(r.sample_id)
            np.testing.assert_array_equal(loaded.z_s, r.z_s)
            np.testing.assert_array_equal(loaded.z_e, r.z_e)

    def test_missing_sample(self, tmp_path):
        path = tmp_path / "en.logits"
        ds.write_logit_store(path, "en", 6, self._records(2))
        with pytest.raises(IncompleteLogits):
            ds.LogitStore(path).get("absent")

    def test_duplicate_sample_id_rejected(self, tmp_path):
        records = self._records(2)
        records[1] = record(records[1].z_s, records[1].z_e, sample_id=records[0].sample_id)
        with pytest.raises(InvalidConfig):
            ds.write_logit_store(tmp_path / "dup.logits", "en", 6, records)

    def _written(self, tmp_path, records=None):
        path = tmp_path / "en.logits"
        ds.write_logit_store(path, "en", 6, records or self._records(3))
        return path

    def test_digest_is_sha256_of_the_file(self, tmp_path):
        path = self._written(tmp_path)
        assert ds.LogitStore(path).sha256 == cp.sha256_file(path)

    def test_get_does_not_reopen_the_file(self, tmp_path):
        records = self._records(3)
        path = self._written(tmp_path, records)
        store = ds.LogitStore(path)
        path.unlink()
        np.testing.assert_array_equal(store.get("s2").z_e, records[2].z_e)

    def test_take_keeps_the_requested_order(self, tmp_path):
        records = self._records(4)
        rows = ds.LogitStore(self._written(tmp_path, records)).take(["s3", "s0", "s3"])
        np.testing.assert_array_equal(rows.z_s, [records[3].z_s, records[0].z_s, records[3].z_s])
        np.testing.assert_array_equal(rows.z_e, [records[3].z_e, records[0].z_e, records[3].z_e])

    def test_take_missing_sample(self, tmp_path):
        with pytest.raises(IncompleteLogits):
            ds.LogitStore(self._written(tmp_path)).take(["s0", "absent"])

    @pytest.mark.parametrize("keep", [0, 3, 11, 40, -9, -1])
    def test_truncated_file(self, tmp_path, keep):
        path = self._written(tmp_path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(InvalidConfig):
            ds.LogitStore(path)

    @pytest.mark.parametrize("values", [-1, 1], ids=["one_short", "one_too_many"])
    def test_block_size_must_match_the_ids(self, tmp_path, values):
        path = self._written(tmp_path)
        data = path.read_bytes()
        data = data[:-8] if values < 0 else data + np.array([0.5], dtype="<f8").tobytes()
        path.write_bytes(data)
        with pytest.raises(InvalidConfig, match="bytes of logits"):
            ds.LogitStore(path)

    def test_trailing_bytes(self, tmp_path):
        path = self._written(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(InvalidConfig):
            ds.LogitStore(path)

    def test_flipped_sample_id_byte(self, tmp_path):
        # "s1" -> "s2" in the header's id list: two rows now claim to be s2
        path = self._written(tmp_path)
        data = bytearray(path.read_bytes())
        at = data.index(b'"s1"', 4, 4 + int.from_bytes(data[:4], "little"))
        data[at + 2] = ord("2")
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidConfig, match="repeated sample ids"):
            ds.LogitStore(path)

    def test_non_finite_value(self, tmp_path):
        path = self._written(tmp_path)
        data = bytearray(path.read_bytes())
        at = 4 + int.from_bytes(data[:4], "little")  # the block's first value
        data[at : at + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidConfig, match="non-finite"):
            ds.LogitStore(path)

    def test_write_is_deterministic(self, tmp_path):
        records = self._records(4)
        ds.write_logit_store(tmp_path / "a.logits", "en", 6, records)
        ds.write_logit_store(tmp_path / "b.logits", "en", 6, records)
        assert (tmp_path / "a.logits").read_bytes() == (tmp_path / "b.logits").read_bytes()
