import math

import numpy as np
import pytest

from storyforge import tensor as T
from storyforge.losses import (LossReport, derangement, nll_loss, rank_loss,
                               recon_loss, total_loss)


def wrap_list(xs):
    return [T.wrap(float(x)) for x in xs]


class TestNllLoss:
    def test_perfect_model_is_zero(self):
        assert nll_loss(wrap_list([0.0, 0.0, 0.0])).item() == 0.0

    def test_uniform_closed_form(self):
        lp = math.log(1.0 / 32.0)
        out = nll_loss(wrap_list([lp] * 10))
        assert out.item() == pytest.approx(10 * math.log(32), rel=1e-12)

    def test_mask_zeroes_padding(self):
        logps = wrap_list([-1.0, -99.0, -2.0])
        masked = nll_loss(logps, mask=[1, 0, 1])
        assert masked.item() == pytest.approx(3.0, rel=1e-12)
        # altering the masked position must not change the loss
        logps[1] = T.wrap(-12345.0)
        assert nll_loss(logps, mask=[1, 0, 1]).item() == pytest.approx(3.0)

    def test_gradient_sign(self):
        x = T.NumArray(np.array(-2.0), requires_grad=True)
        nll_loss([x]).backward()
        assert x.grad == -1.0


class TestRankLoss:
    def test_margin_satisfied(self):
        out = rank_loss(wrap_list([-2.0]), wrap_list([-5.0]))
        assert out.item() == 0.0

    def test_margin_violated(self):
        out = rank_loss(wrap_list([-5.0]), wrap_list([-2.0]))
        assert out.item() == pytest.approx(4.0, rel=1e-12)

    def test_identical_scores_cost_one_each(self):
        out = rank_loss(wrap_list([-3.0, -1.0]), wrap_list([-3.0, -1.0]))
        assert out.item() == pytest.approx(2.0, rel=1e-12)

    def test_nonnegative_and_zero_beyond_margin(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pos = rng.uniform(-10, 0, size=4)
            neg = rng.uniform(-10, 0, size=4)
            val = rank_loss(wrap_list(pos), wrap_list(neg)).item()
            assert val >= 0.0
            if np.all(pos >= neg + 1.0):
                assert val == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_loss(wrap_list([-1.0]), wrap_list([-1.0, -2.0]))


class TestReconLoss:
    def test_identical_is_zero(self):
        z = [T.wrap(np.array([1.0, 2.0]))]
        assert recon_loss(z, z).item() == 0.0

    def test_unit_coordinate_difference(self):
        z = [T.wrap(np.array([1.0, 2.0]))]
        zt = [T.wrap(np.array([1.0, 3.0]))]
        assert recon_loss(z, zt).item() == pytest.approx(1.0, rel=1e-12)

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(1)
        zs = [rng.standard_normal(4) for _ in range(3)]
        zts = [rng.standard_normal(4) for _ in range(3)]
        want = sum(((a - b) ** 2).sum() for a, b in zip(zs, zts))
        got = recon_loss([T.wrap(a) for a in zs], [T.wrap(b) for b in zts])
        assert got.item() == pytest.approx(want, rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(T.DimensionError):
            recon_loss([T.zeros(3)], [T.zeros(4)])


class TestTotalLoss:
    def test_default_weights(self):
        out = total_loss(T.wrap(2.0), T.wrap(3.0), T.wrap(5.0))
        assert out.item() == pytest.approx(2.0 + 0.2 * 3.0 + 0.8 * 5.0, rel=1e-12)

    def test_zero_weights_reduce_to_nll(self):
        out = total_loss(T.wrap(2.0), T.wrap(99.0), T.wrap(99.0), lam=0.0, mu=0.0)
        assert out.item() == 2.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            total_loss(T.wrap(1.0), T.wrap(1.0), T.wrap(1.0), lam=-0.1)


class TestDerangement:
    def test_no_fixed_points(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 8):
            for _ in range(10):
                perm = derangement(n, rng)
                assert sorted(perm) == list(range(n))
                assert not np.any(perm == np.arange(n))

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            derangement(1, np.random.default_rng(0))

    def test_deterministic_given_rng_state(self):
        a = derangement(5, np.random.default_rng(7))
        b = derangement(5, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestLossReport:
    def test_per_word(self):
        rep = LossReport(nll=10.0, rank=0.0, recon=0.0, total=10.0, word_count=4)
        assert rep.per_word_nll() == 2.5
