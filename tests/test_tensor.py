import math

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

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        i_dim, hid = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        store = random_gru(rng, i_dim, hid)
        x = store.add("x", rng.standard_normal(i_dim), "inputs")
        h = store.add("h", rng.standard_normal(hid), "inputs")
        w = rng.standard_normal(hid)

        def fn(ps):
            out = T.gru_cell(ps["x"], ps["h"], ps.gru("g"))
            return T.arr_sum(out * T.wrap(w))

        assert T.grad_check(fn, store) < 1e-4


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


class TestHardThreshold:
    def test_forward_step(self):
        out = T.hard_threshold(T.wrap([0.2, 0.5, 0.9]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 1.0])

    def test_backward_is_identity(self):
        x = T.NumArray(np.array([0.2, 0.9]), requires_grad=True)
        out = T.arr_sum(T.hard_threshold(x) * T.wrap([3.0, 5.0]))
        out.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 5.0])


class TestOps:
    @pytest.mark.parametrize("seed", range(20))
    def test_composite_gradients(self, seed):
        rng = np.random.default_rng(100 + seed)
        store = T.ParamStore()
        store.add("a", rng.standard_normal((3, 4)), "p")
        store.add("b", rng.standard_normal(4), "p")
        store.add("c", rng.standard_normal((4, 2)), "p")

        def fn(ps):
            y = T.tanh(ps["a"] @ ps["b"])
            m = T.stack_rows([y, T.relu(y), T.sigmoid(y)])
            v = T.arr_mean(m, axis=0)
            w = T.concat([v, ps["b"] @ ps["c"]])
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

    def test_matmul_shape_error(self):
        with pytest.raises(T.DimensionError):
            T.matmul(T.zeros((2, 3)), T.zeros((4, 2)))

    def test_forward_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal(5)
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

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "params": {}, "groups": {}, "frozen": [], "meta": {}}')
        with pytest.raises(ValueError, match="version"):
            T.load_checkpoint(path)
