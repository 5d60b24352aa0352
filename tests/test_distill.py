import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchdistill import corpus as cp
from branchdistill import distill as ds
from branchdistill.errors import InvalidConfig
from branchdistill.model import MASKED_LOGIT

from _gradcheck import check_gradients
from _oracles import cross_entropy, kd_loss, nll_loss

finite_floats = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
logit_vectors = st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
                         min_size=2, max_size=8)


def one_hot(length, index):
    v = np.zeros(length)
    v[index] = 1.0
    return v


def nll(z_s, z_e, gold_start, gold_end):
    """``batch_nll`` of one instance."""
    return ds.batch_nll(np.stack([z_s, z_e])[None], np.array([[gold_start, gold_end]]))[0]


def kd(teacher_z_s, teacher_z_e, student_z_s, student_z_e, tau):
    """``batch_kd`` of one instance, its teacher logits softened at ``tau``."""
    teacher_p = ds.softmax_temperature(np.stack([teacher_z_s, teacher_z_e])[None], tau)
    return ds.batch_kd(np.stack([student_z_s, student_z_e])[None], teacher_p, tau)[0]


def record(z_s, z_e, sample_id="s", teacher_id="t"):
    return ds.LogitRecord(
        sample_id=sample_id, teacher_id=teacher_id,
        z_s=np.asarray(z_s, dtype=float), z_e=np.asarray(z_e, dtype=float),
    )


class TestSoftmaxTemperature:
    def test_uniform_logits(self):
        np.testing.assert_allclose(ds.softmax_temperature(np.zeros(3), 1.0), 1 / 3, atol=1e-12)

    def test_hand_evaluated_exponentials(self):
        # exp(0) = 1, exp(ln 3) = 3 -> [1/4, 3/4]
        np.testing.assert_allclose(
            ds.softmax_temperature(np.array([0.0, math.log(3.0)]), 1.0), [0.25, 0.75], atol=1e-12
        )

    def test_temperature_is_logit_division(self):
        np.testing.assert_array_equal(ds.softmax_temperature(np.array([1.0, 2.0]), 2.0),
                                      ds.softmax_temperature(np.array([0.5, 1.0]), 1.0))

    def test_extreme_logits_still_normalized(self):
        p = ds.softmax_temperature(np.array([1e4, -1e4, 0.0]), 1.0)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p >= 0.0)

    @given(logit_vectors, st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    @settings(deadline=None)
    def test_shift_invariance(self, z, c):
        z = np.array(z)
        np.testing.assert_allclose(
            ds.softmax_temperature(z + c, 1.0), ds.softmax_temperature(z, 1.0), atol=1e-12
        )

    @given(logit_vectors, st.floats(min_value=0.1, max_value=10.0))
    @settings(deadline=None)
    def test_sums_to_one(self, z, tau):
        assert abs(ds.softmax_temperature(np.array(z), tau).sum() - 1.0) <= 1e-9


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert ds.entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_is_log_length(self):
        for length in (2, 5, 17):
            assert abs(ds.entropy(np.full(length, 1.0 / length)) - math.log(length)) <= 1e-12

    def test_two_point_uniform(self):
        assert abs(ds.entropy(np.array([0.5, 0.5])) - math.log(2.0)) <= 1e-12

    @given(logit_vectors)
    @settings(deadline=None)
    def test_bounds(self, z):
        p = ds.softmax_temperature(np.array(z), 1.0)
        h = ds.entropy(p)
        assert -1e-12 <= h <= math.log(len(z)) + 1e-9


class TestCrossEntropy:
    def test_matching_one_hot_is_zero(self):
        one_hot = [0.0, 0.0, 1.0]
        assert cross_entropy(one_hot, one_hot) == 0.0

    def test_self_cross_entropy_is_entropy(self):
        p = ds.softmax_temperature(np.array([0.3, -1.2, 2.0, 0.0]), 1.0)
        assert abs(cross_entropy(p, p) - ds.entropy(p)) <= 1e-12

    def test_one_hot_against_uniform(self):
        target = np.zeros(10)
        target[3] = 1.0
        assert abs(cross_entropy(target, np.full(10, 0.1)) - math.log(10.0)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy([0.5, 0.5], [0.25, 0.25, 0.5])

    @given(logit_vectors, logit_vectors)
    @settings(deadline=None)
    def test_gibbs_inequality(self, a, b):
        length = min(len(a), len(b))
        p = ds.softmax_temperature(np.array(a[:length]), 1.0)
        q = ds.softmax_temperature(np.array(b[:length]), 1.0)
        assert cross_entropy(p, q) >= ds.entropy(p) - 1e-9


class TestNllLoss:
    def test_one_hot_at_gold_is_zero(self):
        # logits this far apart soften to an exact one-hot in float64
        assert nll(1000.0 * one_hot(5, 2), 1000.0 * one_hot(5, 4), 2, 4) == 0.0

    def test_uniform_over_ten(self):
        assert abs(nll(np.zeros(10), np.zeros(10), 3, 7) - 2 * math.log(10.0)) <= 1e-12

    def test_hand_evaluated_logs(self):
        z_s = np.log([0.5, 0.5])
        z_e = np.log([0.25, 0.75])
        expected = math.log(2.0) + math.log(4.0)
        assert abs(nll(z_s, z_e, 0, 0) - expected) <= 1e-12

    def test_batch_gradient_is_softmax_minus_one_hot(self):
        # d/dz of -log softmax(z)[a], averaged over B rows, is (softmax(z) - one_hot(a)) / B
        rng = np.random.default_rng(0)
        z = np.stack([rng.normal(size=(3, 7)), rng.normal(size=(3, 7))], axis=1)
        z_s, z_e = z[:, 0], z[:, 1]
        gold = np.array([[2, 6], [0, 0], [5, 5]])
        gold_s, gold_e = gold[:, 0], gold[:, 1]

        value, dz = ds.batch_nll(z, gold)
        for head in range(2):
            expected = ds.softmax_temperature(z[:, head], 1.0)
            expected[np.arange(3), gold[:, head]] -= 1.0
            np.testing.assert_allclose(dz[:, head], expected / 3.0, atol=1e-12)
        oracle = np.mean([
            nll_loss(ds.softmax_temperature(z_s[i], 1.0), ds.softmax_temperature(z_e[i], 1.0),
                     gold_s[i], gold_e[i])
            for i in range(3)
        ])
        assert abs(value - oracle) <= 1e-12

        def loss():
            return ds.batch_nll(z, gold)[0]

        check_gradients(loss, {"z": z}, {"z": dz})

    def test_batch_gradient_bits_match_one_hot_form(self):
        # the gradient is built as p * -c with the gold column apart; the
        # one-hot form 0 - p * c, taken one head at a time, rounds alike,
        # signed zeros included, for a strided and a contiguous block
        rng = np.random.default_rng(4)
        z = rng.normal(size=(2, 5, 9)) * 30.0
        z[:, :, 6:] = MASKED_LOGIT
        gold = rng.integers(0, 6, size=(2, 5))
        for block in (z.swapaxes(0, 1), np.ascontiguousarray(z.swapaxes(0, 1))):
            _, dz = ds.batch_nll(block, gold.T)
            for head in range(2):
                zz, g = z[head], gold[head]
                c = -1.0 / len(g)
                one_hot_c = np.zeros_like(zz)
                one_hot_c[np.arange(len(g)), g] = c
                expected = one_hot_c - ds._log_softmax(zz, 1.0)[1] * c
                assert np.ascontiguousarray(dz[:, head]).tobytes() == expected.tobytes()

    def test_batch_gradient_vanishes_at_masked_logits(self):
        # the encoder writes MASKED_LOGIT outside the passage; those columns
        # carry no probability, so neither the value nor the gradient sees them
        rng = np.random.default_rng(1)
        z = rng.normal(size=(2, 6))
        z[:, 4:] = MASKED_LOGIT
        gold = np.array([1, 3])

        value, dz = ds.batch_nll(np.stack([z, z], axis=1), np.stack([gold, gold], axis=1))
        assert np.all(dz[..., 4:] == 0.0)
        short_value, short = ds.batch_nll(np.stack([z[:, :4], z[:, :4]], axis=1),
                                          np.stack([gold, gold], axis=1))
        assert abs(value - short_value) <= 1e-12
        np.testing.assert_allclose(dz[..., :4], short, atol=1e-15)


class TestAggregateLogits:
    def test_single_teacher_identity(self):
        r = np.array([[1.0, -2.0, 3.0], [0.0, 4.0, -1.0]])
        np.testing.assert_array_equal(ds.aggregate_logits([r], ds.fixed_weights(1)), r)

    def test_symmetric_pair(self):
        a = np.array([[1.0, 3.0], [1.0, 3.0]])
        b = np.array([[3.0, 1.0], [3.0, 1.0]])
        z_s = ds.aggregate_logits([a, b], ds.fixed_weights(2))[0]
        np.testing.assert_allclose(z_s, [2.0, 2.0], atol=1e-12)

    def test_hand_computed_weighting(self):
        a = np.array([[0.0, 3.0], [0.0, 0.0]])
        b = np.array([[3.0, 0.0], [0.0, 0.0]])
        weights = np.array([[2 / 3, 1 / 3], [0.5, 0.5]])
        z_s = ds.aggregate_logits([a, b], weights)[0]
        np.testing.assert_allclose(z_s, [1.0, 2.0], atol=1e-12)

    @given(st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=2, max_size=4),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(deadline=None)
    def test_linearity(self, teacher_rows, alpha):
        records = [np.array([row, row]) for row in teacher_rows]
        scaled = [alpha * np.array([row, row]) for row in teacher_rows]
        weights = ds.fixed_weights(len(records))
        z_s = ds.aggregate_logits(records, weights)[0]
        z_s_scaled = ds.aggregate_logits(scaled, weights)[0]
        np.testing.assert_allclose(z_s_scaled, alpha * z_s, atol=1e-9)


class TestKdLoss:
    def test_matching_logits_give_scaled_entropies(self):
        rng = np.random.default_rng(0)
        z_s = rng.normal(size=8)
        z_e = rng.normal(size=8)
        for tau in (1.0, 2.0, 4.0):
            expected = tau * tau * (
                ds.entropy(ds.softmax_temperature(z_s, tau))
                + ds.entropy(ds.softmax_temperature(z_e, tau))
            )
            assert abs(kd(z_s, z_e, z_s, z_e, tau) - expected) <= 1e-9

    def test_sharp_agreement_is_near_zero(self):
        z = np.array([50.0, 0.0, 0.0])
        assert kd(z, z, z, z, 1.0) <= 1e-6

    def test_temperature_squared_factor(self):
        # doubling logits and temperature keeps the distributions fixed,
        # so only the tau^2 factor changes
        rng = np.random.default_rng(1)
        z_t_s, z_t_e = rng.normal(size=6), rng.normal(size=6)
        z_s_s, z_s_e = rng.normal(size=6), rng.normal(size=6)
        at_tau_1 = kd(z_t_s, z_t_e, z_s_s, z_s_e, 1.0)
        at_tau_2 = kd(2 * z_t_s, 2 * z_t_e, 2 * z_s_s, 2 * z_s_e, 2.0)
        assert abs(at_tau_2 - 4.0 * at_tau_1) <= 1e-12

    @given(st.lists(finite_floats, min_size=2, max_size=6),
           st.lists(finite_floats, min_size=2, max_size=6),
           st.floats(min_value=0.5, max_value=4.0))
    @settings(deadline=None)
    def test_gibbs_lower_bound(self, a, b, tau):
        length = min(len(a), len(b))
        z_t = np.array(a[:length])
        z_s = np.array(b[:length])
        floor = tau * tau * 2 * ds.entropy(ds.softmax_temperature(z_t, tau))
        assert kd(z_t, z_t, z_s, z_s, tau) >= floor - 1e-9

    def test_gradient_matches_softened_difference(self):
        # d kd / d student_z = tau * (p_student - p_teacher) per position
        rng = np.random.default_rng(2)
        tau = 2.0
        teacher_p = ds.softmax_temperature(rng.normal(size=(2, 5)), tau)
        student_z = rng.normal(size=(2, 5))
        other_z = np.zeros((2, 5))
        other_p = np.full((2, 5), 0.2)

        z = np.stack([student_z, other_z], axis=1)
        value, dz = ds.batch_kd(z, np.stack([teacher_p, other_p], axis=1), tau)
        expected = tau * (ds.softmax_temperature(student_z, tau) - teacher_p) / 2
        np.testing.assert_allclose(dz[:, 0], expected, atol=1e-12)
        np.testing.assert_allclose(dz[:, 1], 0.0, atol=1e-12)
        # teacher logits tau * ln(p) soften back to p at temperature tau
        oracle = np.mean([kd_loss(tau * np.log(p_s), tau * np.log(p_e), z_s, z_e, tau)
                          for p_s, p_e, z_s, z_e in zip(teacher_p, other_p, student_z, other_z)])
        assert abs(value - oracle) <= 1e-12

        def loss():
            return ds.batch_kd(z, np.stack([teacher_p, other_p], axis=1), tau)[0]

        check_gradients(loss, {"z": z}, {"z": dz})

    def test_batch_teacher_equal_to_student_gives_zero_gradient(self):
        rng = np.random.default_rng(3)
        tau = 2.0
        z_s, z_e = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        p_s, p_e = ds.softmax_temperature(z_s, tau), ds.softmax_temperature(z_e, tau)

        value, dz = ds.batch_kd(np.stack([z_s, z_e], axis=1), np.stack([p_s, p_e], axis=1), tau)
        np.testing.assert_allclose(dz, 0.0, atol=1e-15)
        expected = tau * tau * np.mean(ds.entropy(p_s) + ds.entropy(p_e))
        assert abs(value - expected) <= 1e-12

class TestFixedWeights:
    @pytest.mark.parametrize("k,expected", [(3, 1 / 3), (1, 1.0), (4, 0.25)])
    def test_uniform(self, k, expected):
        weights = ds.fixed_weights(k)
        assert weights.shape == (k,)
        np.testing.assert_allclose(weights, expected, atol=1e-15)

    def test_batch_rows_equal_one_instance_at_a_time(self):
        rng = np.random.default_rng(7)
        blocks = [np.stack([rng.normal(size=(6, 9)), rng.normal(size=(6, 9))], axis=1)
                  for _ in "abc"]
        per_instance = rng.dirichlet(np.ones(3), size=6)
        for weights in (ds.fixed_weights(3),
                        np.stack([per_instance, per_instance[::-1]], axis=1)):
            z = ds.aggregate_logits(blocks, weights)
            for i in range(6):
                for head in range(2):
                    w = np.broadcast_to(weights, (6, 2, 3))[i, head]
                    ref = np.zeros(9)
                    for k, block in enumerate(blocks):
                        ref += w[k] * block[i, head]
                    np.testing.assert_array_equal(z[i, head], ref)


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
                impurities = np.array([ds.entropy(ds.softmax_temperature(z[row], 1.0))
                                       for z in per_teacher])
                np.testing.assert_array_equal(
                    w[row], ds.softmax_temperature(sign * impurities, 1.0))

    def test_shift_of_impurities_leaves_weights_unchanged(self):
        rng = np.random.default_rng(3)
        impurities = np.array([ds.entropy(ds.softmax_temperature(rng.normal(size=6), 1.0))
                               for _ in range(4)])
        base = ds.softmax_temperature(impurities, 1.0)
        shifted = ds.softmax_temperature(impurities + 11.75, 1.0)
        np.testing.assert_allclose(shifted, base, atol=1e-12)


class TestLogitStore:
    def _records(self, n, max_len=6, seed=0):
        rng = np.random.default_rng(seed)
        return [
            record(rng.normal(size=max_len), rng.normal(size=max_len),
                   sample_id=f"s{i}", teacher_id="en")
            for i in range(n)
        ]

    @staticmethod
    def _write(path, records):
        ds.write_logit_store(path, "en", [r.sample_id for r in records],
                             np.array([(r.z_s, r.z_e) for r in records]))

    def test_round_trip(self, tmp_path):
        records = self._records(5)
        path = tmp_path / "en.logits"
        self._write(path, records)
        store = ds.LogitStore(path)
        assert store.teacher_id == "en"
        assert store.count == 5
        for r in records:
            loaded = store.get(r.sample_id)
            np.testing.assert_array_equal(loaded.z_s, r.z_s)
            np.testing.assert_array_equal(loaded.z_e, r.z_e)

    def test_missing_sample(self, tmp_path):
        path = tmp_path / "en.logits"
        self._write(path, self._records(2))
        with pytest.raises(InvalidConfig, match="teacher 'en' has no logits for sample 'absent'"):
            ds.LogitStore(path).get("absent")

    def test_duplicate_sample_id_rejected(self, tmp_path):
        records = self._records(2)
        records[1] = record(records[1].z_s, records[1].z_e, sample_id=records[0].sample_id)
        with pytest.raises(InvalidConfig):
            self._write(tmp_path / "dup.logits", records)

    def test_header_max_len_is_the_block_length(self, tmp_path):
        path = tmp_path / "en.logits"
        ds.write_logit_store(path, "en", ["s0", "s1"], np.zeros((2, 2, 9)))
        assert ds.LogitStore(path).max_len == 9

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_block_rejected(self, tmp_path, value):
        logits = np.zeros((2, 2, 6))
        logits[1, 1, 3] = value
        with pytest.raises(InvalidConfig, match="logits for 'en' contain non-finite values"):
            ds.write_logit_store(tmp_path / "en.logits", "en", ["s0", "s1"], logits)
        assert not (tmp_path / "en.logits").exists()

    def _written(self, tmp_path, records=None):
        path = tmp_path / "en.logits"
        self._write(path, records or self._records(3))
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
        np.testing.assert_array_equal(rows[:, 0], [records[3].z_s, records[0].z_s, records[3].z_s])
        np.testing.assert_array_equal(rows[:, 1], [records[3].z_e, records[0].z_e, records[3].z_e])

    def test_take_missing_sample(self, tmp_path):
        with pytest.raises(InvalidConfig, match=r"1 samples lack teacher logits \(first: 'absent' "
                                                r"from teacher 'en'\)"):
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
        with pytest.raises(InvalidConfig, match=r"is corrupt: a block of \d+ bytes, expected \d+"):
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
        self._write(tmp_path / "a.logits", records)
        self._write(tmp_path / "b.logits", records)
        assert (tmp_path / "a.logits").read_bytes() == (tmp_path / "b.logits").read_bytes()
