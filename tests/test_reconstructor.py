import numpy as np
import pytest

from storyforge import tensor as T
from storyforge.reconstructor import reconstruct

from helpers import np_gru_step


def make_params(rng, vocab, d_v, zero=False):
    ps = T.ParamStore()
    draw = (lambda s: np.zeros(s)) if zero else (lambda s: 0.4 * rng.standard_normal(s))
    ps.add("recon.gru.w_x", draw((2 * vocab, 3 * d_v)), "reconstructor")
    ps.add("recon.gru.w_h", draw((d_v, 3 * d_v)), "reconstructor")
    ps.add("recon.gru.b", draw(3 * d_v), "reconstructor")
    return ps


def one_row(seq):
    """A single sentence's (vocab,) score rows as a (T, 1, vocab) batch."""
    return T.wrap(np.stack(seq)[:, None])


class TestReconstruct:
    def test_zero_everything_gives_zero(self):
        ps = make_params(None, 4, 3, zero=True)
        out = reconstruct(T.zeros((2, 1, 4)), [2], ps)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_single_step_mean_is_identity(self):
        rng = np.random.default_rng(0)
        ps = make_params(rng, 4, 3)
        d = rng.standard_normal(4)
        # with one step, d-bar must equal d exactly: the GRU input is [d, d]
        out = reconstruct(one_row([d]), [1], ps)
        want = np_gru_step(np.concatenate([d, d]), np.zeros(3),
                           ps["recon.gru.w_x"].data, ps["recon.gru.w_h"].data,
                           ps["recon.gru.b"].data)
        np.testing.assert_allclose(out.data[0], want, rtol=1e-12)

    def test_matches_recurrence_oracle(self):
        rng = np.random.default_rng(1)
        ps = make_params(rng, 5, 4)
        seq = [rng.standard_normal(5) for _ in range(3)]
        out = reconstruct(one_row(seq), [3], ps)
        d_bar = np.mean(seq, axis=0)
        h, states = np.zeros(4), []
        for d in seq:
            h = np_gru_step(np.concatenate([d, d_bar]), h,
                            ps["recon.gru.w_x"].data, ps["recon.gru.w_h"].data,
                            ps["recon.gru.b"].data)
            states.append(h)
        np.testing.assert_allclose(out.data[0], np.mean(states, axis=0), rtol=1e-12)

    def test_empty_sequence_rejected(self):
        ps = make_params(np.random.default_rng(2), 4, 3)
        with pytest.raises(ValueError):
            reconstruct(T.zeros((0, 1, 4)), [0], ps)
        with pytest.raises(ValueError):
            reconstruct(T.zeros((2, 2, 4)), [2, 0], ps)
        # one count for three rows, counts past the steps, counts not integers:
        # each would otherwise return a value
        for logits, lengths in ((T.zeros((2, 3, 4)), [2]), (T.zeros((2, 2, 4)), [3, 3]),
                                (T.zeros((2, 2, 4)), [2.0, 2.0])):
            with pytest.raises(ValueError, match="^step counts"):
                reconstruct(logits, lengths, ps)

    def test_permutation_keeps_mean_input(self):
        # permuting the steps changes the output in general, but the shared
        # mean-pooled input is order-invariant; verify both facts
        rng = np.random.default_rng(3)
        ps = make_params(rng, 4, 3)
        seq = [rng.standard_normal(4) for _ in range(4)]
        out_fwd = reconstruct(one_row(seq), [4], ps)
        out_rev = reconstruct(one_row(seq[::-1]), [4], ps)
        assert not np.allclose(out_fwd.data, out_rev.data)
        # with recurrent+input weights arranged to pass only d-bar through,
        # the output must be permutation invariant
        ps["recon.gru.w_x"].data[:4, :] = 0.0
        out_a = reconstruct(one_row(seq), [4], ps)
        out_b = reconstruct(one_row(seq[::-1]), [4], ps)
        np.testing.assert_allclose(out_a.data, out_b.data, rtol=1e-12)

    def test_gradients_through_params_and_logits(self):
        rng = np.random.default_rng(4)
        ps = make_params(rng, 4, 3)
        # two sentences of 3 and 2 steps; the padded step gets no gradient
        ps.add("d", rng.standard_normal((3, 2, 4)), "inputs")
        w = rng.standard_normal((2, 3))

        def fn(p):
            out = reconstruct(p["d"], [3, 2], p)
            return T.arr_sum(out * T.wrap(w))

        assert T.grad_check(fn, ps) < 1e-4
        np.testing.assert_array_equal(ps["d"].grad[2, 1], np.zeros(4))

    @pytest.mark.parametrize("seed", range(5, 9))
    def test_batch_equals_one_row_calls(self, seed):
        rng = np.random.default_rng(seed)
        ps = make_params(rng, 5, 4)
        lengths = [int(n) for n in rng.integers(1, 7, size=rng.integers(2, 5))]
        seqs = [[rng.standard_normal(5) for _ in range(n)] for n in lengths]
        # padded steps hold arbitrary scores; they must not reach any row
        batch = 100.0 * rng.standard_normal((max(lengths), len(seqs), 5))
        for b, seq in enumerate(seqs):
            batch[:len(seq), b] = seq
        out = reconstruct(T.wrap(batch), lengths, ps)
        assert out.shape == (len(seqs), 4)
        for b, seq in enumerate(seqs):
            want = reconstruct(one_row(seq), [len(seq)], ps)
            np.testing.assert_allclose(out.data[b], want.data[0], rtol=1e-12, atol=1e-15)
