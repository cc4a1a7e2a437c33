import base64
import json
import math
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyforge import tensor as T


def scalar_gru_oracle(x, h, wx, wh, b):
    """GRU step evaluated gate by gate in plain scalar arithmetic."""
    i_dim, hid = len(x), len(h)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def gate(col):
        return [sum(x[i] * wx[i][col * hid + j] for i in range(i_dim)) + b[col * hid + j]
                for j in range(hid)]

    def rec(col, state):
        return [sum(state[i] * wh[i][col * hid + j] for i in range(hid))
                for j in range(hid)]

    z = [sig(a + c) for a, c in zip(gate(0), rec(0, h))]
    r = [sig(a + c) for a, c in zip(gate(1), rec(1, h))]
    rh = [ri * hi for ri, hi in zip(r, h)]
    c = [math.tanh(a + d) for a, d in zip(gate(2), rec(2, rh))]
    return [(1 - zi) * hi + zi * ci for zi, hi, ci in zip(z, h, c)]


def random_gru(rng, i_dim, hid):
    store = T.ParamStore()
    store.add("g.w_x", rng.standard_normal((i_dim, 3 * hid)), "g")
    store.add("g.w_h", rng.standard_normal((hid, 3 * hid)), "g")
    store.add("g.b", rng.standard_normal(3 * hid), "g")
    return store


class TestGruCell:
    def test_zero_weights_halve_state(self):
        store = T.ParamStore()
        store.add("g.w_x", np.zeros((3, 6)), "g")
        store.add("g.w_h", np.zeros((2, 6)), "g")
        store.add("g.b", np.zeros(6), "g")
        h = T.gru_cell(T.wrap([0.3, -1.2, 7.0]), T.wrap([1.0, -1.0]), store.gru("g"))
        np.testing.assert_allclose(h.data, [0.5, -0.5])

    def test_all_zero_inputs(self):
        store = T.ParamStore()
        store.add("g.w_x", np.zeros((2, 6)), "g")
        store.add("g.w_h", np.zeros((2, 6)), "g")
        store.add("g.b", np.zeros(6), "g")
        h = T.gru_cell(T.zeros(2), T.zeros(2), store.gru("g"))
        np.testing.assert_array_equal(h.data, np.zeros(2))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        store = random_gru(rng, 3, 2)
        x = rng.standard_normal(3)
        h = rng.standard_normal(2)
        got = T.gru_cell(T.wrap(x), T.wrap(h), store.gru("g"))
        want = scalar_gru_oracle(
            x.tolist(), h.tolist(),
            store["g.w_x"].data.tolist(), store["g.w_h"].data.tolist(),
            store["g.b"].data.tolist())
        np.testing.assert_allclose(got.data, want, rtol=1e-12)

    def test_shape_mismatch_names_operand(self):
        rng = np.random.default_rng(0)
        store = random_gru(rng, 3, 2)
        with pytest.raises(T.DimensionError, match="x"):
            T.gru_cell(T.zeros(4), T.zeros(2), store.gru("g"))
        with pytest.raises(T.DimensionError, match="h_prev"):
            T.gru_cell(T.zeros(3), T.zeros(5), store.gru("g"))
        with pytest.raises(T.DimensionError, match=r"h_prev has shape \(3, 2\)"):
            T.gru_cell(T.zeros((2, 3)), T.zeros((3, 2)), store.gru("g"))

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        # seeds 1, 2 and 3 mod 4 step (B, I) rows, which must equal B
        # one-row calls
        batch = [(), (1,), (3,), (2, 2)][seed % 4]
        rng = np.random.default_rng(seed)
        i_dim, hid = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        store = random_gru(rng, i_dim, hid)
        x = store.add("x", rng.standard_normal(batch + (i_dim,)), "inputs")
        h = store.add("h", rng.standard_normal(batch + (hid,)), "inputs")
        w = rng.standard_normal(hid)

        out = T.gru_cell(x, h, store.gru("g"))
        assert out.shape == batch + (hid,)
        for b in np.ndindex(*batch):
            one = T.gru_cell(x.data[b], h.data[b], store.gru("g"))
            np.testing.assert_allclose(out.data[b], one.data, rtol=1e-12, atol=1e-12)

        def fn(ps):
            out = T.gru_cell(ps["x"], ps["h"], ps.gru("g"))
            return T.arr_sum(out * T.wrap(w))

        assert T.grad_check(fn, store) < 1e-4

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(), (1,), (4,), (5,), (80,), (2, 3), (3, 1)]),
           st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_equals_the_step_kernel_to_the_bit(self, batch, i_dim, hid, seed, into_buffer):
        # x with 1, 2 and 3 axes: the composed cell takes `_gru_step`'s
        # operations on the same views, not a flattening into rows
        rng = np.random.default_rng(seed)
        w = random_gru(rng, i_dim, hid).gru("g")
        x = rng.standard_normal(batch + (i_dim,))
        h = rng.standard_normal(batch + (hid,))
        gx = x @ w.w_x.data + w.b.data
        inputs = [a.copy() for a in (gx, h, w.w_h.data)]
        want, cache = T._gru_step(gx, h, w.w_h.data, hid)
        if into_buffer:   # h' written into the caller's array, as the scans do
            buf = np.full(batch + (hid,), np.nan)
            fresh, cache_fresh = want, cache
            want, cache = T._gru_step(gx, h, w.w_h.data, hid, out=buf)
            assert want is buf and fresh.tobytes() == buf.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(cache, cache_fresh))
        # the kernel updates its state in place, on arrays it made itself or
        # was given
        assert all(a.tobytes() == b.tobytes() for a, b in zip((gx, h, w.w_h.data), inputs))
        got = T.gru_cell(x, h, w).data
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


def pre_activations(x, w):
    """The input-side pre-activations x W_x + b that `gru_scan` consumes."""
    return x @ w.w_x + w.b


class TestGruScan:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.sampled_from([(), (1,), (2,), (3,), (4,)]),
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_equals_cell_loop_and_gradients(self, steps, batch, i_dim, hid, seed):
        rng = np.random.default_rng(seed)
        store = random_gru(rng, i_dim, hid)
        store.add("x", rng.standard_normal((steps,) + batch + (i_dim,)), "inputs")
        store.add("h0", rng.standard_normal(batch + (hid,)), "inputs")
        w = store.gru("g")
        out = T.gru_scan(pre_activations(store["x"], w), store["h0"], w.w_h)
        assert out.shape == (steps,) + batch + (hid,)
        for b in np.ndindex(*batch):
            h = T.wrap(store["h0"].data[b])
            for t in range(steps):
                h = T.gru_cell(store["x"].data[(t,) + b], h, w)
                np.testing.assert_allclose(out.data[(t,) + b], h.data,
                                           rtol=1e-12, atol=1e-12)
        weights = rng.standard_normal(out.shape)

        def fn(ps):
            w = ps.gru("g")
            out = T.gru_scan(pre_activations(ps["x"], w), ps["h0"], w.w_h)
            return T.arr_sum(out * T.wrap(weights))

        assert T.grad_check(fn, store) < 1e-4

    def test_shape_mismatch_names_operand(self):
        w_h = random_gru(np.random.default_rng(0), 3, 2).gru("g").w_h
        with pytest.raises(T.DimensionError, match=r"gx \(4, 2, 5\)"):
            T.gru_scan(T.zeros((4, 2, 5)), T.zeros((2, 2)), w_h)
        with pytest.raises(T.DimensionError, match=r"h0 \(3, 2\)"):
            T.gru_scan(T.zeros((4, 2, 6)), T.zeros((3, 2)), w_h)
        with pytest.raises(T.DimensionError):
            T.gru_scan(T.zeros(6), T.zeros(2), w_h)


class TestMaskedSoftmax:
    def test_equal_logits_uniform(self):
        out = T.masked_softmax(T.wrap([2.0, 2.0, 2.0, 2.0]), np.ones(4))
        np.testing.assert_allclose(out.data, np.full(4, 0.25))

    def test_single_valid_position(self):
        out = T.masked_softmax(T.wrap([5.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out.data, [0.0, 1.0, 0.0])
        # a masked logit beyond exp's range must not turn the output into nan
        out = T.masked_softmax(T.wrap([0.0, 1000.0]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0])

    def test_matches_exp_normalize_oracle(self):
        out = T.masked_softmax(T.wrap([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 0.0]))
        e1, e2 = math.exp(1.0), math.exp(2.0)
        np.testing.assert_allclose(out.data, [e1 / (e1 + e2), e2 / (e1 + e2), 0.0])

    def test_all_zero_mask_rejected(self):
        with pytest.raises(T.InvalidMaskError):
            T.masked_softmax(T.wrap([1.0, 2.0]), np.zeros(2))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8), st.data())
    def test_valid_distribution(self, logits, data):
        mask = data.draw(st.lists(st.integers(0, 1), min_size=len(logits),
                                  max_size=len(logits)).filter(lambda m: any(m)))
        out = T.masked_softmax(T.wrap(logits), np.array(mask, dtype=float))
        assert np.isfinite(out.data).all()
        assert out.data.sum() == pytest.approx(1.0)
        assert (out.data >= 0).all()
        assert all(out.data[i] == 0.0 for i, m in enumerate(mask) if m == 0)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        store = T.ParamStore()
        store.add("x", rng.standard_normal(5), "inputs")
        mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        w = rng.standard_normal(5)

        def fn(ps):
            return T.arr_sum(T.masked_softmax(ps["x"], mask) * T.wrap(w))

        assert T.grad_check(fn, store) < 1e-4

    def test_rows_match_vector_calls(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2, 6))
        mask = (rng.random((3, 2, 6)) < 0.5).astype(float)
        mask[..., 0] = 1.0
        out = T.masked_softmax(T.wrap(x), mask).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones((3, 2)), rtol=1e-12)
        for i, j in np.ndindex(3, 2):
            row = T.masked_softmax(T.wrap(x[i, j]), mask[i, j]).data
            assert out[i, j].tobytes() == row.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(1,), (3,), (2, 5), (4, 2, 9)]))
    def test_offset_kernel_equals_the_where_form_to_the_bit(self, seed, shape):
        # the offset kernel against the np.where form, which swaps masked
        # logits for the row's valid maximum and multiplies by the mask
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 30.0])
        logits[rng.random(shape) < 0.2] = -0.0
        mask = (rng.random(shape) < 0.5).astype(float)
        mask[..., rng.integers(shape[-1])] = 1.0
        mask[(0,) * (len(shape) - 1)] = 0.0   # the first row: one valid slot
        mask[(0,) * len(shape)] = 1.0
        valid = mask > 0
        top = np.where(valid, logits, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(np.where(valid, logits, top) - top) * mask
        want = e / e.sum(axis=-1, keepdims=True)
        got = T._softmax_offset(logits, T._mask_offset(mask, shape))
        assert got.tobytes() == want.tobytes()
        assert T.masked_softmax(T.wrap(logits), mask).data.tobytes() == want.tobytes()

    def test_row_without_valid_position_rejected(self):
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(T.InvalidMaskError):
            T.masked_softmax(T.wrap(np.zeros((2, 3))), mask)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (2, 2, 4)])
    def test_rows_gradient(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-1])
        store = T.ParamStore()
        store.add("x", rng.standard_normal(shape), "inputs")
        mask = (rng.random(shape) < 0.6).astype(float)
        mask[..., -1] = 1.0
        w = rng.standard_normal(shape)

        def fn(ps):
            return T.arr_sum(T.masked_softmax(ps["x"], mask) * T.wrap(w))

        assert T.grad_check(fn, store) < 1e-4


class TestElementwise:
    def test_relu_values(self):
        out = T.relu(T.wrap([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_sigmoid_zero(self):
        assert T.sigmoid(T.wrap(0.0)).item() == 0.5

    def test_tanh_gradient_finite_difference(self):
        x = T.NumArray(np.array(0.3), requires_grad=True)
        out = T.tanh(x)
        out.backward()
        d = 1e-6
        numeric = (math.tanh(0.3 + d) - math.tanh(0.3 - d)) / (2 * d)
        assert abs(x.grad - numeric) / abs(numeric) < 1e-6

    def test_sigmoid_saturation_no_overflow(self):
        out = T.sigmoid(T.wrap([-800.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_sigmoid_is_one_tanh_near_the_piecewise_form(self):
        # 1/2 + tanh(x/2)/2 to the bit, and within 2.3e-16 of the reference
        # 1/(1+e) at x >= 0, e/(1+e) below, with e = exp(-|x|)
        x = np.concatenate([np.random.default_rng(0).normal(scale=8.0, size=500),
                            [0.0, -0.0, 1e-300, -1e-300, 40.0, -745.0, np.inf, -np.inf]])
        got = T.sigmoid(T.wrap(x)).data
        assert got.tobytes() == (0.5 + 0.5 * np.tanh(0.5 * x)).tobytes()
        e = np.exp(-np.abs(x))
        piecewise = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.max(np.abs(got - piecewise)) <= 2.3e-16

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    def test_sigmoid_properties(self, xs):
        x = np.sort(np.concatenate([xs, [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf]]))
        before = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, s_neg = T._sigmoid(x), T._sigmoid(-x)
            assert np.isnan(T._sigmoid(np.array([np.nan, -np.nan]))).all()
        assert x.tobytes() == before.tobytes()
        assert np.all(np.diff(s) >= 0)
        assert np.all(np.abs(s + s_neg - 1.0) <= np.spacing(1.0))
        assert list(T._sigmoid(np.array([0.0, -0.0, np.inf, -np.inf]))) == [0.5, 0.5, 1.0, 0.0]


class TestOps:
    @pytest.mark.parametrize("seed", range(20))
    def test_composite_gradients(self, seed):
        rng = np.random.default_rng(100 + seed)
        store = T.ParamStore()
        store.add("a", rng.standard_normal((3, 4)), "p")
        store.add("b", rng.standard_normal(4), "p")
        store.add("c", rng.standard_normal((4, 2)), "p")

        def fn(ps):
            y = T.tanh(ps["a"] @ T.reshape(ps["b"], (-1, 1)))   # b as a column
            m = T.reshape(T.concat([y, T.relu(y), T.sigmoid(y)]), (3, -1))
            v = T.arr_sum(m, axis=0) * (1.0 / 3.0)
            bc = T.reshape(ps["b"], (1, -1)) @ ps["c"]   # b as a row
            w = T.concat([v, T.reshape(bc, (-1,))])
            return T.arr_sum(w * w)

        assert T.grad_check(fn, store) < 1e-4

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(5)
        store = T.ParamStore()
        store.add("x", rng.standard_normal(6), "p")

        def fn(ps):
            return pick_sum(ps["x"])

        def pick_sum(x):
            ls = T.log_softmax(x)
            return T.pick(ls, 2) + 0.5 * T.pick(ls, 4)

        assert T.grad_check(fn, store) < 1e-4

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8))
    def test_log_softmax_extreme_logits(self, logits):
        out = T.log_softmax(T.wrap(logits)).data
        assert np.isfinite(out).all() and (out <= 0.0).all()
        assert np.exp(out).sum() == pytest.approx(1.0)

    def test_take_row_gradient(self):
        store = T.ParamStore()
        store.add("e", np.arange(12.0).reshape(4, 3), "p")

        def fn(ps):
            return T.arr_sum(T.pick(ps["e"], 2) * T.wrap([1.0, 2.0, 3.0]))

        assert T.grad_check(fn, store) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_gather_concat_matmul_gradients(self, seed):
        rng = np.random.default_rng(200 + seed)
        store = T.ParamStore()
        store.add("table", rng.standard_normal((5, 3)), "p")
        store.add("u", rng.standard_normal((2, 4)), "p")
        store.add("w", rng.standard_normal((7, 6)), "p")
        ids = rng.integers(0, 5, size=(3, 2))  # repeats add up in backward
        weights = rng.standard_normal((3, 2, 6))

        def fn(ps):
            x = T.concat([T.pick(ps["table"], ids), ps["u"] + np.zeros((3, 1, 1))],
                         axis=-1)
            return T.arr_sum(T.log_softmax(x @ ps["w"]) * T.wrap(weights))

        assert T.grad_check(fn, store) < 1e-4

    def test_log_softmax_rows_match_vector_calls(self):
        x = np.random.default_rng(3).standard_normal((4, 2, 6))
        out = T.log_softmax(T.wrap(x)).data
        for i, j in np.ndindex(4, 2):
            assert out[i, j].tobytes() == T.log_softmax(T.wrap(x[i, j])).data.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 9), st.integers(1, 3),
           st.integers(0, 2), st.booleans())
    def test_scatter_add_equals_add_at(self, seed, n_ids, rows, trailing, as_tuple):
        # ids drawn from 4 values repeat; n_ids 0 is an empty index
        rng = np.random.default_rng(seed)
        rest = (3,) * trailing
        ids = rng.integers(0, 4, size=(n_ids, rows))
        if as_tuple:   # a step per batch row, as the photo and scene encoders pick
            shape, index = (4, rows) + rest, (ids, np.arange(rows))
        else:
            shape, index = (4,) + rest, ids
        g = rng.standard_normal(ids.shape + rest)
        want = np.zeros(shape)
        np.add.at(want, index, g)
        got = T._scatter_add(shape, index, g)
        assert got.shape == shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_pick_rejects_out_of_range_indices(self):
        with pytest.raises(T.DimensionError):
            T.pick(T.zeros((3, 2)), np.array([0, 3]))
        with pytest.raises(T.DimensionError):
            T.pick(T.zeros(3), -1)

    def test_matmul_shape_error(self):
        with pytest.raises(T.DimensionError):
            T.matmul(T.zeros((2, 3)), T.zeros((4, 2)))

    def test_matmul_stack_by_column_gradients(self):
        rng = np.random.default_rng(11)
        store = T.ParamStore()
        store.add("a", rng.standard_normal((2, 3, 4)), "p")
        store.add("w", rng.standard_normal((4, 1)), "p")
        weights = rng.standard_normal((2, 3, 1))

        def fn(ps):
            return T.arr_sum((ps["a"] @ ps["w"]) * T.wrap(weights))

        fn(store).backward()
        assert store["a"].grad.shape == (2, 3, 4)
        assert store["w"].grad.shape == (4, 1)
        np.testing.assert_allclose(store["a"].grad, weights * store["w"].data[:, 0],
                                   rtol=1e-12)
        assert T.grad_check(fn, store) < 1e-4

    def test_matmul_vector_operand_rejected(self):
        # a lone vector is a (1, n) row on the left or an (n, 1) column on
        # the right
        for shape in [(3,), (3, 3), (2, 3, 3)]:
            with pytest.raises(T.DimensionError, match=r"at least two axes"):
                T.matmul(T.zeros(3), T.zeros(shape))
            with pytest.raises(T.DimensionError, match=r"at least two axes"):
                T.matmul(T.zeros(shape), T.zeros(3))

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 1, 3), (2, 3, 4)),
                                                  ((1, 3), (2, 3, 4)),
                                                  ((2, 2, 3), (1, 3, 2))])
    def test_matmul_stacks_gradients(self, a_shape, b_shape):
        rng = np.random.default_rng(sum(a_shape) + sum(b_shape))
        store = T.ParamStore()
        store.add("a", rng.standard_normal(a_shape), "p")
        store.add("b", rng.standard_normal(b_shape), "p")
        weights = rng.standard_normal((np.zeros(a_shape) @ np.zeros(b_shape)).shape)

        def fn(ps):
            return T.arr_sum((ps["a"] @ ps["b"]) * T.wrap(weights))

        assert T.grad_check(fn, store) < 1e-4

    def test_reshape_and_tuple_pick_gradients(self):
        rng = np.random.default_rng(12)
        store = T.ParamStore()
        store.add("x", rng.standard_normal((4, 3, 2)), "p")
        steps = np.array([[3, 0, 1], [3, 2, 1]])  # a step per batch row; repeats add
        weights = rng.standard_normal((2, 3, 2))

        def fn(ps):
            picked = T.pick(ps["x"], (steps, np.arange(3)))
            return T.arr_sum(T.reshape(picked, (3, 4)) * T.wrap(weights.reshape(3, 4)))

        np.testing.assert_array_equal(
            T.pick(store["x"], (steps, np.arange(3))).data,
            store["x"].data[steps, np.arange(3)])
        assert T.grad_check(fn, store) < 1e-4
        with pytest.raises(T.DimensionError):
            T.pick(store["x"], (steps, np.array([0, 1, 3])))

    def test_backward_releases_interior_nodes_and_keeps_leaf_gradients(self):
        rng = np.random.default_rng(14)
        store = T.ParamStore()
        w = store.add("w", rng.standard_normal((3, 2)), "p")
        x = T.NumArray(rng.standard_normal((4, 3)), requires_grad=True)
        c = rng.standard_normal((4, 2))
        hidden = T.tanh(x @ w)
        loss = T.arr_sum(hidden * T.wrap(c))
        loss.backward()
        # hand-derived: d loss / d (x w) = c * (1 - tanh^2)
        d_pre = c * (1.0 - np.tanh(x.data @ w.data) ** 2)
        np.testing.assert_allclose(w.grad, x.data.T @ d_pre, rtol=1e-12)
        np.testing.assert_allclose(x.grad, d_pre @ w.data.T, rtol=1e-12)
        for node in (loss, hidden):
            assert node.grad is None and node._parents == () and node._backward is None

    def test_forward_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 1))
        r1 = (T.tanh(T.wrap(a) @ T.wrap(b))).data
        r2 = (T.tanh(T.wrap(a) @ T.wrap(b))).data
        assert (r1 == r2).all()

    def test_no_grad_builds_no_graph(self):
        x = T.NumArray(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = T.tanh(x)
        assert not y.requires_grad and y._parents == ()


class TestParamStore:
    def test_entry_belongs_to_one_group(self):
        store = T.ParamStore()
        store.add("a.w", np.ones(2), "ga")
        with pytest.raises(ValueError):
            store.add("a.w", np.ones(2), "gb")
        assert store.group_of("a.w") == "ga"

    def test_trainable_skips_frozen(self):
        store = T.ParamStore()
        store.add("a.w", np.ones(2), "ga")
        store.add("b.w", np.ones(2), "gb")
        store.freeze("ga")
        assert [n for n, p in store.entries.items() if p.requires_grad] == ["b.w"]
        assert store.frozen == {"ga"}

    def test_frozen_entries_get_no_gradient(self):
        store = T.ParamStore()
        a = store.add("a", np.array([1.0, 2.0]), "ga")
        b = store.add("b", np.array([3.0, 4.0]), "gb")
        store.freeze("ga")
        frozen_only = T.tanh(a)
        assert not frozen_only.requires_grad and frozen_only._parents == ()
        T.arr_sum(a * b).backward()
        assert a.grad is None
        np.testing.assert_array_equal(b.grad, [1.0, 2.0])
        opt = T.Adam(store)
        opt.step()
        assert list(opt.m) == ["b"]

        store.unfreeze_all()
        store.zero_grads()
        assert store.frozen == set()
        T.arr_sum(a * b).backward()
        np.testing.assert_array_equal(a.grad, b.data)

    def test_copy_is_deep(self):
        store = T.ParamStore()
        store.add("a.w", np.ones(2), "ga")
        dup = store.copy()
        dup["a.w"].data[0] = 99.0
        assert store["a.w"].data[0] == 1.0

    def test_copy_keeps_freeze(self):
        store = T.ParamStore()
        store.add("a.w", np.ones(2), "ga")
        store.add("b.w", np.ones(2), "gb")
        store.freeze("gb")
        dup = store.copy()
        assert dup.frozen == {"gb"}
        assert [dup[n].requires_grad for n in ("a.w", "b.w")] == [True, False]


class TestAdam:
    def test_default_lr(self):
        store = T.ParamStore()
        store.add("a", np.ones(1), "g")
        assert T.Adam(store).lr == 0.0004

    def test_zero_gradient_leaves_parameter_unchanged(self):
        store = T.ParamStore()
        p = store.add("a", np.array([1.5, -2.0]), "g")
        opt = T.Adam(store)
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_matches_hand_evaluation(self):
        # one step with scalar g=0.5: m_hat=g, v_hat=g^2, so the update is
        # -lr * g / (|g| + eps), essentially -lr * sign(g)
        store = T.ParamStore()
        p = store.add("a", np.array([2.0]), "g")
        opt = T.Adam(store, lr=0.0004)
        p.grad = np.array([0.5])
        opt.step()
        expected = 2.0 - 0.0004 * 0.5 / (math.sqrt(0.25) + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)

    def test_frozen_group_bit_identical(self):
        rng = np.random.default_rng(1)
        store = T.ParamStore()
        a = store.add("a", rng.standard_normal(4), "ga")
        b = store.add("b", rng.standard_normal(4), "gb")
        store.freeze("ga")
        opt = T.Adam(store)
        frozen_bytes = a.data.tobytes()
        for _ in range(3):
            a.grad = np.ones(4)
            b.grad = np.ones(4)
            opt.step()
        assert a.data.tobytes() == frozen_bytes
        assert not np.array_equal(b.data, rng.standard_normal(4))
        assert "a" not in opt.m  # no optimizer state accrues for frozen entries

    def test_nan_gradient_names_parameter(self):
        store = T.ParamStore()
        p = store.add("layer.w", np.ones(2), "g")
        p.grad = np.array([np.nan, 0.0])
        with pytest.raises(T.EvaluationError, match="layer.w"):
            T.Adam(store).step()

    def test_overflowed_moment_raises_before_the_weight_moves(self):
        # a finite grad whose square overflows would leave an inf second
        # moment and a zero update; the step stops instead
        store = T.ParamStore()
        p = store.add("layer.w", np.array([1.0, 2.0]), "g")
        opt = T.Adam(store)
        p.grad = np.array([1e200, 0.5])
        with np.errstate(over="ignore"):
            with pytest.raises(T.EvaluationError, match="^non-finite Adam update "
                               "for parameter 'layer.w'$"):
                opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert not (opt.m["layer.w"].any() or opt.v["layer.w"].any()) and opt.t == 0

    @pytest.mark.parametrize("grad", [1e200, np.nan])
    def test_a_non_finite_step_changes_nothing(self, grad):
        # the first entry is fine and the second is not: the step raises,
        # naming the second, before either weight, moment or t changes
        store = T.ParamStore()
        a = store.add("a", np.array([1.0]), "g")
        b = store.add("b", np.array([2.0]), "g")
        a.grad, b.grad = np.array([0.5]), np.array([grad])
        opt = T.Adam(store)
        what = "gradient" if np.isnan(grad) else "Adam update"
        with pytest.raises(T.EvaluationError, match=f"^non-finite {what} for parameter 'b'$"):
            opt.step()
        assert (a.data.tolist(), b.data.tolist()) == ([1.0], [2.0])
        assert not any(d[name].any() for d in (opt.m, opt.v) for name in "ab")
        assert opt.t == 0

    @pytest.mark.parametrize("change", ["freeze", "thaw"])
    def test_a_changed_freeze_raises_and_changes_nothing(self, change):
        # the layout is made once, from the entries that learn when the Adam
        # is made: a step after a group is frozen or thawed raises before any
        # weight, moment or t changes
        store = T.ParamStore()
        a = store.add("a", np.array([1.0, 2.0]), "ga")
        b = store.add("b", np.array([3.0]), "gb")
        store.freeze("gb")
        opt = T.Adam(store, lr=0.1)
        a.grad, b.grad = np.array([0.5, -0.5]), np.array([0.5])
        opt.step()

        def state():
            return [x.tobytes() for x in (a.data, b.data, opt.m["a"], opt.v["a"])] + [opt.t]

        before = state()
        if change == "freeze":
            store.freeze("ga")
        else:
            store.unfreeze_all()
        with pytest.raises(ValueError, match="^the learning entries changed since this "
                                             "Adam was made$"):
            opt.step()
        assert state() == before and list(opt.m) == list(opt.v) == ["a"]

    def test_steps_match_the_in_place_moment_updates(self):
        # the reference updates each entry's moments in place, entry by
        # entry: m *= b1; m += (1-b1) g. Stores as (name, shape, group):
        # one entry; and several, with a frozen group between learning ones
        # and a 0-d entry whose grad is always None
        for entries in ([("a", (6,), "g")],
                        [("a", (3, 2), "g"), ("f", (4,), "frozen"), ("none", (), "g"),
                         ("z", (5,), "g")]):
            rng = np.random.default_rng(4)
            store = T.ParamStore()
            for name, shape, group in entries:
                store.add(name, rng.standard_normal(shape), group)
            if "frozen" in store.groups:
                store.freeze("frozen")
            opt = T.Adam(store, lr=0.01)
            want = {name: p.data.copy() for name, p in store.entries.items()}
            m = {name: np.zeros(p.data.shape) for name, p in store.entries.items()}
            v = {name: np.zeros(p.data.shape) for name, p in store.entries.items()}
            for t in range(1, 5):
                for name, p in store.entries.items():
                    p.grad = None if name == "none" else \
                        rng.standard_normal(p.data.shape) * 10.0 ** rng.integers(-3, 4)
                opt.step()
                for name, p in store.entries.items():
                    if not p.requires_grad:
                        continue
                    g = np.zeros(p.data.shape) if p.grad is None else p.grad
                    m[name] *= T.ADAM_BETA1
                    m[name] += (1.0 - T.ADAM_BETA1) * g
                    v[name] *= T.ADAM_BETA2
                    v[name] += (1.0 - T.ADAM_BETA2) * g * g
                    want[name] -= 0.01 * (m[name] / (1.0 - T.ADAM_BETA1 ** t)) / (
                        np.sqrt(v[name] / (1.0 - T.ADAM_BETA2 ** t)) + T.ADAM_EPS)
                for name, p in store.entries.items():
                    assert p.data.tobytes() == want[name].tobytes(), (t, name)
                    if name in opt.m:
                        assert opt.m[name].tobytes() == m[name].tobytes(), (t, name)
                        assert opt.v[name].tobytes() == v[name].tobytes(), (t, name)
            assert set(opt.m) == {name for name, _, group in entries if group != "frozen"}

    def test_moment_state_carries_across_calls(self):
        store = T.ParamStore()
        p = store.add("a", np.array([0.0]), "g")
        opt = T.Adam(store, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        first = p.data.copy()
        p.grad = np.array([1.0])
        opt.step()
        assert opt.t == 2
        assert p.data[0] != first[0]


class TestGradCheck:
    def test_correct_gradients_pass(self):
        store = T.ParamStore()
        store.add("x", np.array([0.3, -0.7]), "p")

        def fn(ps):
            return T.arr_sum(T.tanh(ps["x"]) * T.wrap([1.0, 2.0]))

        assert T.grad_check(fn, store) < 1e-4

    def test_doubled_gradient_reports_half(self):
        store = T.ParamStore()
        store.add("x", np.array([0.4]), "p")

        def fn(ps):
            x = ps["x"]
            out = x.data * x.data

            def bw(g):
                T._acc(x, 4.0 * x.data * g)  # true derivative is 2x

            node = T.NumArray(out, True, (x,), bw)
            return T.arr_sum(node)

        err = T.grad_check(fn, store)
        assert err == pytest.approx(0.5, abs=1e-4)

    def test_constant_function_zero_error(self):
        store = T.ParamStore()
        store.add("x", np.array([1.0, 2.0]), "p")

        def fn(ps):
            return T.wrap(3.0) + 0.0 * T.arr_sum(ps["x"])

        assert T.grad_check(fn, store) == 0.0

    def test_non_finite_value_rejected(self):
        store = T.ParamStore()
        store.add("x", np.array([1.0]), "p")

        def fn(ps):
            return T.wrap(np.inf) + T.arr_sum(ps["x"])

        with pytest.raises(T.EvaluationError):
            T.grad_check(fn, store)

    def test_coordinate_sampling_bounds_work(self):
        rng = np.random.default_rng(2)
        store = T.ParamStore()
        store.add("w", rng.standard_normal((6, 6)), "p")

        def fn(ps):
            return T.arr_sum(T.sigmoid(ps["w"]))

        err = T.grad_check(fn, store, max_coords_per_param=5,
                           rng=np.random.default_rng(0))
        assert err < 1e-4


# -0.0, the least and the greatest subnormals, values near the float64
# limit, and a fraction whose shortest text has 16 digits
EDGE_VALUES = [-0.0, 5e-324, -2.225073858507201e-308, 1.7e308, -1.7e308, 1.0 / 3.0]


@st.composite
def store_and_meta(draw):
    """A store with a 0-d, an empty, a 1-d (holding EDGE_VALUES) and a 2-d
    parameter in drawn groups, some frozen, and a non-empty meta."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = {
        "a.scalar": np.array(draw(finite)),
        "b.empty": np.zeros(draw(st.sampled_from([(0,), (2, 0)]))),
        "c.vector": np.array(draw(st.permutations(
            EDGE_VALUES + draw(st.lists(finite, max_size=3))))),
        "d.matrix": np.array(draw(st.lists(finite, min_size=rows * cols,
                                           max_size=rows * cols))).reshape(rows, cols),
    }
    store = T.ParamStore()
    for name, value in values.items():
        store.add(name, value, draw(st.sampled_from(["g1", "g2", "g3"])))
    store.freeze(*draw(st.sets(st.sampled_from(sorted(store.groups)))))
    meta = draw(st.dictionaries(st.text(max_size=4), st.one_of(
        st.integers(), finite, st.text(max_size=4), st.lists(st.integers(), max_size=3)),
        min_size=1, max_size=3))
    return store, meta


def container_text(store, meta, version):
    """The one-shot sorted dump of a checkpoint container: version 1 holds
    float lists, version 2 base64 of each parameter's "<f8" bytes."""
    def values(a):
        flat = a.reshape(-1).tolist()
        if version == 1:
            return flat
        return base64.b64encode(struct.pack(f"<{len(flat)}d", *flat)).decode("ascii")

    obj = {
        "version": version,
        "params": {name: {"shape": list(store[name].shape),
                          "values": values(store[name].data)}
                   for name in store.names()},
        "groups": {g: sorted(m) for g, m in store.groups.items()},
        "frozen": sorted(store.frozen),
        "meta": meta,
    }
    return json.dumps(obj, sort_keys=True) + "\n"


def assert_same_store(loaded, store):
    """Same names, shapes, bits, groups and frozen groups; loaded weights
    can be updated in place."""
    assert sorted(loaded.names()) == sorted(store.names())
    assert loaded.groups == store.groups
    assert loaded.frozen == store.frozen
    for name in store.names():
        got, want = loaded[name], store[name]
        assert got.data.shape == want.data.shape
        assert got.data.tobytes() == want.data.tobytes()
        assert got.requires_grad == want.requires_grad
        assert got.data.flags.writeable


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        store = T.ParamStore()
        store.add("a.w", rng.standard_normal((3, 2)), "ga")
        store.add("b.v", rng.standard_normal(5), "gb")
        store.freeze("gb")
        path = tmp_path / "ckpt.json"
        T.save_checkpoint(path, store, {"note": "x"})
        loaded, meta = T.load_checkpoint(path)
        assert meta == {"note": "x"}
        assert loaded.frozen == {"gb"}
        for name in store.names():
            assert loaded[name].data.tobytes() == store[name].data.tobytes()
            assert loaded[name].requires_grad == store[name].requires_grad
            assert loaded.group_of(name) == store.group_of(name)

    def test_save_is_deterministic(self, tmp_path):
        store = T.ParamStore()
        store.add("a", np.array([1.0 / 3.0]), "g")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        T.save_checkpoint(p1, store)
        T.save_checkpoint(p2, store)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("filled", [True, False])
    def test_file_is_one_sorted_json_dump(self, tmp_path, filled):
        # written one parameter at a time, the file is still the one-shot
        # dump of the whole container
        rng = np.random.default_rng(12)
        store = T.ParamStore()
        meta = {}
        if filled:
            store.add("z.w", rng.standard_normal((2, 3)), "late")
            store.add("a.b", np.zeros(()), "early")
            store.add("m.v", np.array([1e300, -0.0, 1.0 / 3.0]), "late")
            store.add("b.u", rng.standard_normal(4), "mid")
            store.freeze("late", "early")
            meta = {"config": {"lr": 0.01, "sizes": [1, 2]}, "note": "caf\u00e9"}
        path = tmp_path / "ckpt.json"
        T.save_checkpoint(path, store, meta)
        assert path.read_text(encoding="utf-8") == container_text(store, meta, 2)

    @settings(max_examples=60, deadline=None)
    @given(store_and_meta())
    def test_round_trip_property(self, drawn):
        store, meta = drawn
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "a.json", Path(tmp) / "b.json"
            T.save_checkpoint(p1, store, meta)
            T.save_checkpoint(p2, store, meta)
            assert p1.read_bytes() == p2.read_bytes()
            assert p1.read_text(encoding="utf-8") == container_text(store, meta, 2)
            loaded, loaded_meta = T.load_checkpoint(p1)
        assert_same_store(loaded, store)
        assert loaded_meta == meta

    @settings(max_examples=30, deadline=None)
    @given(store_and_meta())
    def test_version_1_still_loads(self, drawn):
        # a container as written before version 2, its values float text
        store, meta = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "v1.json"
            path.write_text(container_text(store, meta, 1), encoding="utf-8")
            loaded, loaded_meta = T.load_checkpoint(path)
        assert_same_store(loaded, store)
        assert loaded_meta == meta

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "params": {}, "groups": {}, "frozen": [], "meta": {}}')
        with pytest.raises(ValueError, match="version"):
            T.load_checkpoint(path)
