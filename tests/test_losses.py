import math

import numpy as np
import pytest

from storyforge import tensor as T
from storyforge.data import ConfigError
from storyforge.losses import (derangement, nll_loss, rank_loss, recon_loss,
                               total_loss)


def vec(xs):
    return T.wrap(np.array(xs, dtype=np.float64))


def store_of(**arrays):
    ps = T.ParamStore()
    for name, value in arrays.items():
        ps.add(name, value, "inputs")
    return ps


class TestNllLoss:
    def test_perfect_model_is_zero(self):
        assert nll_loss(vec([0.0, 0.0, 0.0])).item() == 0.0

    def test_uniform_closed_form(self):
        lp = math.log(1.0 / 32.0)
        out = nll_loss(vec([lp] * 10))
        assert out.item() == pytest.approx(10 * math.log(32), rel=1e-12)

    def test_gradient_sign(self):
        x = T.NumArray(np.array([-2.0]), requires_grad=True)
        nll_loss(x).backward()
        assert x.grad.tolist() == [-1.0]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_totals_match_numpy(self, seed):
        rng = np.random.default_rng(seed)
        ps = store_of(s=rng.uniform(-30.0, 0.0, size=rng.integers(1, 9)))

        def fn(p):
            return nll_loss(p["s"])

        assert fn(ps).item() == pytest.approx(-ps["s"].data.sum(), rel=1e-12)
        assert T.grad_check(fn, ps) < 1e-6


class TestRankLoss:
    def test_margin_satisfied(self):
        out = rank_loss(vec([-2.0]), vec([-5.0]))
        assert out.item() == 0.0

    def test_margin_violated(self):
        out = rank_loss(vec([-5.0]), vec([-2.0]))
        assert out.item() == pytest.approx(4.0, rel=1e-12)

    def test_identical_scores_cost_one_each(self):
        out = rank_loss(vec([-3.0, -1.0]), vec([-3.0, -1.0]))
        assert out.item() == pytest.approx(2.0, rel=1e-12)

    def test_nonnegative_and_zero_beyond_margin(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pos = rng.uniform(-10, 0, size=4)
            neg = rng.uniform(-10, 0, size=4)
            val = rank_loss(vec(pos), vec(neg)).item()
            assert val >= 0.0
            if np.all(pos >= neg + 1.0):
                assert val == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_loss(vec([-1.0]), vec([-1.0, -2.0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_scores_match_numpy(self, seed):
        rng = np.random.default_rng(10 + seed)
        n = int(rng.integers(1, 9))
        ps = store_of(pos=rng.uniform(-6.0, 0.0, size=n),
                      neg=rng.uniform(-6.0, 0.0, size=n))

        def fn(p):
            return rank_loss(p["pos"], p["neg"])

        want = np.maximum(0.0, 1.0 - ps["pos"].data + ps["neg"].data).sum()
        assert fn(ps).item() == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert T.grad_check(fn, ps) < 1e-6


class TestReconLoss:
    def test_identical_is_zero(self):
        z = T.wrap(np.array([[1.0, 2.0]]))
        assert recon_loss(z, z).item() == 0.0

    def test_unit_coordinate_difference(self):
        z = T.wrap(np.array([[1.0, 2.0]]))
        zt = T.wrap(np.array([[1.0, 3.0]]))
        assert recon_loss(z, zt).item() == pytest.approx(1.0, rel=1e-12)

    def test_matches_sum_of_squares_oracle(self):
        rng = np.random.default_rng(1)
        zs = [rng.standard_normal(4) for _ in range(3)]
        zts = [rng.standard_normal(4) for _ in range(3)]
        want = sum(((a - b) ** 2).sum() for a, b in zip(zs, zts))
        got = recon_loss(T.wrap(np.stack(zs)), T.wrap(np.stack(zts)))
        assert got.item() == pytest.approx(want, rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(T.DimensionError):
            recon_loss(T.zeros((1, 3)), T.zeros((1, 4)))
        with pytest.raises(T.DimensionError):
            recon_loss(T.zeros((2, 3)), T.zeros((1, 3)))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs_match_numpy(self, seed):
        rng = np.random.default_rng(20 + seed)
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        ps = store_of(z=rng.standard_normal((n, d)), zt=rng.standard_normal((n, d)))

        def fn(p):
            return recon_loss(p["z"], p["zt"])

        want = ((ps["zt"].data - ps["z"].data) ** 2).sum()
        assert fn(ps).item() == pytest.approx(want, rel=1e-12)
        assert T.grad_check(fn, ps) < 1e-6


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

    @pytest.mark.parametrize("name", ["lam", "mu"])
    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, -math.inf, True, "0.2"],
                             ids=["negative", "nan", "inf", "minus-inf", "bool", "string"])
    def test_bad_weight_names_its_setting(self, name, bad):
        # a NaN or infinite weight would give a NaN or infinite loss, not an error
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            total_loss(T.wrap(1.0), T.wrap(1.0), T.wrap(1.0), **{name: bad})


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

    @pytest.mark.parametrize("n", range(2, 9))
    def test_draws_as_the_numpy_check_draws(self, n):
        # the fixed-point check moved from numpy to Python; the draws, and
        # so every training run's bits, are the numpy form's
        def numpy_check(n, rng):
            while True:
                perm = rng.permutation(n)
                if not np.any(perm == np.arange(n)):
                    return perm

        for seed in range(50):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(4):
                got, want = derangement(n, rng), numpy_check(n, oracle)
                assert (got.dtype, got.tolist()) == (want.dtype, want.tolist())
            assert rng.bit_generator.state == oracle.bit_generator.state
