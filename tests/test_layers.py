"""Network building blocks against independent oracles.

Convolutions are checked against direct quadruple loops, the LSTM against
a step-at-a-time numpy reimplementation, and every layer's backward
against central finite differences.
"""

import warnings

import numpy as np
import pytest

import mcse.layers as L
from mcse.tensor import Tensor

from gradcheck import check_grads

rng = np.random.default_rng(7)


def r(*shape):
    return rng.standard_normal(shape)


# -- brute-force references ----------------------------------------------------------


def conv2d_loops(x, w, b):
    """The model's conv: kernel (1, 3), stride (1, 2), padding (0, 1)."""
    c_out, c_in, _, kf = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    t_out = x.shape[1]
    f_out = (x.shape[2] + 2 - kf) // 2 + 1
    out = np.zeros((c_out, t_out, f_out))
    for o in range(c_out):
        for t in range(t_out):
            for f in range(f_out):
                acc = 0.0
                for c in range(c_in):
                    for e in range(kf):
                        acc += w[o, c, 0, e] * xp[c, t, f * 2 + e]
                out[o, t, f] = acc + (b[o] if b is not None else 0.0)
    return out


def deconv2d_loops(x, w, b):
    """The model's transposed conv: kernel (1, 3), stride (1, 2), padding
    (0, 1), output padding (0, 1)."""
    c_in, c_out, _, kf = w.shape
    f_full = (x.shape[2] - 1) * 2 + kf + 1
    buf = np.zeros((c_out, x.shape[1], f_full))
    for c in range(c_in):
        for t in range(x.shape[1]):
            for f in range(x.shape[2]):
                for o in range(c_out):
                    for e in range(kf):
                        buf[o, t, f * 2 + e] += w[c, o, 0, e] * x[c, t, f]
    out = buf[:, :, 1 : 1 + 2 * x.shape[2]]
    if b is not None:
        out = out + b[:, None, None]
    return out


def lstm_steps(x, w_ih, w_hh, b):
    """Plain per-step LSTM, gate order i, f, g, o, zero initial state."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    bsz, t_len, _ = x.shape
    hsz = w_hh.shape[1]
    h = np.zeros((bsz, hsz))
    c = np.zeros((bsz, hsz))
    out = np.zeros((bsz, t_len, hsz))
    for t in range(t_len):
        z = x[:, t] @ w_ih.T + h @ w_hh.T + b
        i = sig(z[:, 0 * hsz : 1 * hsz])
        f = sig(z[:, 1 * hsz : 2 * hsz])
        g = np.tanh(z[:, 2 * hsz : 3 * hsz])
        o = sig(z[:, 3 * hsz : 4 * hsz])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t] = h
    return out


# -- convolution ---------------------------------------------------------------------


# (C, T, F) inputs of the model geometry: even F, odd F, F = 2, one frame
CONV_SHAPES = {"even_F": (2, 4, 8), "odd_F": (3, 5, 7), "F2": (2, 3, 2), "T1": (3, 1, 6)}


class TestConv2d:
    @pytest.mark.parametrize("shape", CONV_SHAPES.values(), ids=CONV_SHAPES.keys())
    def test_matches_direct_loops(self, shape):
        x, w, b = r(*shape), r(4, shape[0], 1, 3), r(4)
        got = L.conv2d(x, w, b).data
        want = conv2d_loops(x, w, b)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_float32_matches_loops(self):
        x, w, b = r(3, 5, 9), r(4, 3, 1, 3), r(4)
        got = L.conv2d(*(v.astype(np.float32) for v in (x, w, b))).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, conv2d_loops(x, w, b), rtol=1e-5, atol=1e-5)

    def test_default_geometry_halves_freq(self):
        # kernel (1,3), stride (1,2), pad (0,1): time preserved, F -> F/2
        out = L.conv2d(r(2, 10, 64), r(5, 2, 1, 3))
        assert out.shape == (5, 10, 32)

    def test_grad(self):
        check_grads(
            lambda x, w, b: (L.conv2d(x, w, b) ** 2).sum(),
            [r(2, 3, 8), r(4, 2, 1, 3), r(4)],
        )

    def test_grad_no_bias(self):
        check_grads(lambda x, w: (L.conv2d(x, w) ** 2).sum(), [r(2, 3, 8), r(3, 2, 1, 3)])

    def test_grad_odd_freq(self):
        check_grads(
            lambda x, w, b: (L.conv2d(x, w, b) ** 2).sum(),
            [r(2, 1, 7), r(3, 2, 1, 3), r(3)],
        )

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            L.conv2d(r(2, 4, 8), r(4, 3, 1, 3))

    def test_other_kernel_raises(self):
        with pytest.raises(ValueError, match=r"\(4, 2, 3, 3\)"):
            L.conv2d(r(2, 4, 8), r(4, 2, 3, 3))

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty"):
            L.conv2d(r(2, 4, 0), r(4, 2, 1, 3))


class TestDeconv2d:
    @pytest.mark.parametrize("shape", CONV_SHAPES.values(), ids=CONV_SHAPES.keys())
    def test_matches_direct_loops(self, shape):
        x, w, b = r(*shape), r(shape[0], 4, 1, 3), r(4)
        got = L.deconv2d(x, w, b).data
        want = deconv2d_loops(x, w, b)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_float32_matches_loops(self):
        x, w, b = r(3, 5, 9), r(3, 4, 1, 3), r(4)
        got = L.deconv2d(*(v.astype(np.float32) for v in (x, w, b))).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, deconv2d_loops(x, w, b), rtol=1e-5, atol=1e-5)

    def test_default_geometry_doubles_freq(self):
        out = L.deconv2d(r(4, 10, 32), r(4, 2, 1, 3))
        assert out.shape == (2, 10, 64)

    def test_inverts_conv_shape(self):
        x = r(2, 7, 64)
        down = L.conv2d(x, r(4, 2, 1, 3))
        up = L.deconv2d(down, r(4, 2, 1, 3))
        assert up.shape == x.shape

    def test_grad(self):
        check_grads(
            lambda x, w, b: (L.deconv2d(x, w, b) ** 2).sum(),
            [r(3, 3, 6), r(3, 2, 1, 3), r(2)],
        )

    def test_grad_odd_freq(self):
        check_grads(
            lambda x, w: (L.deconv2d(x, w) ** 2).sum(),
            [r(2, 1, 5), r(2, 3, 1, 3)],
        )

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            L.deconv2d(r(2, 4, 8), r(3, 2, 1, 3))

    def test_other_kernel_raises(self):
        with pytest.raises(ValueError, match=r"\(2, 2, 1, 4\)"):
            L.deconv2d(r(2, 4, 8), r(2, 2, 1, 4))

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty"):
            L.deconv2d(r(2, 0, 8), r(2, 2, 1, 3))


# -- normalization -------------------------------------------------------------------


class TestBatchNorm2d:
    def test_train_mode_normalizes_each_channel(self):
        x = 3.0 + 2.0 * r(4, 6, 10)
        g = np.ones(4)
        b = np.zeros(4)
        rm, rv = np.zeros(4), np.ones(4)
        out = L.batchnorm2d(x, g, b, rm, rv, training=True).data
        np.testing.assert_allclose(out.mean(axis=(1, 2)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(1, 2)), 1.0, rtol=1e-4)

    def test_running_buffers_track_statistics(self):
        x = r(3, 5, 7)
        rm, rv = np.zeros(3), np.ones(3)
        L.batchnorm2d(x, np.ones(3), np.zeros(3), rm, rv, training=True, momentum=0.1)
        n = 5 * 7
        want_m = 0.1 * x.mean(axis=(1, 2))
        want_v = 0.9 + 0.1 * x.var(axis=(1, 2)) * n / (n - 1)
        np.testing.assert_allclose(rm, want_m, rtol=1e-10)
        np.testing.assert_allclose(rv, want_v, rtol=1e-10)

    def test_eval_mode_uses_buffers_and_leaves_them_alone(self):
        x = r(2, 4, 4)
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        gamma, beta = np.array([2.0, 1.0]), np.array([0.5, 0.0])
        out = L.batchnorm2d(x, gamma, beta, rm, rv, training=False).data
        want = gamma[:, None, None] * (x - rm[:, None, None]) / np.sqrt(
            rv[:, None, None] + 1e-5
        ) + beta[:, None, None]
        np.testing.assert_allclose(out, want, rtol=1e-10)
        np.testing.assert_allclose(rm, [1.0, -1.0])
        np.testing.assert_allclose(rv, [4.0, 0.25])

    def test_grad_train_mode(self):
        rm, rv = np.zeros(2), np.ones(2)

        def loss(x, g, b):
            return (L.batchnorm2d(x, g, b, rm, rv, training=True) ** 2).sum()

        check_grads(loss, [r(2, 3, 4), 1.0 + 0.1 * r(2), r(2)], rtol=1e-3)

    def test_grad_eval_mode(self):
        rm = r(2)
        rv = np.abs(r(2)) + 0.5

        def loss(x, g, b):
            return (L.batchnorm2d(x, g, b, rm, rv, training=False) ** 2).sum()

        check_grads(loss, [r(2, 3, 4), 1.0 + 0.1 * r(2), r(2)])


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        x = 5.0 + r(6, 8)
        out = L.layernorm(x, np.ones(8), np.zeros(8)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, rtol=1e-4)

    def test_grad(self):
        def loss(x, g, b):
            return (L.layernorm(x, g, b) ** 2).sum()

        check_grads(loss, [r(3, 4, 5), 1.0 + 0.1 * r(5), r(5)], rtol=1e-3)


# -- activations and dense -----------------------------------------------------------


class TestPrelu:
    def test_piecewise_definition(self):
        x = np.array([[[-2.0, 3.0]], [[4.0, -5.0]]])  # (2,1,2)
        a = np.array([0.5, 0.1])
        out = L.prelu(x, a).data
        np.testing.assert_allclose(out, [[[-1.0, 3.0]], [[4.0, -0.5]]])

    def test_grad(self):
        x = r(3, 4, 5)
        x[np.abs(x) < 1e-3] += 0.1  # stay off the kink
        check_grads(lambda xx, a: (L.prelu(xx, a) ** 2).sum(), [x, 0.25 + 0.1 * r(3)])


class TestLinear:
    def test_matches_matmul(self):
        x, w, b = r(5, 3), r(4, 3), r(4)
        np.testing.assert_allclose(L.linear(x, w, b).data, x @ w.T + b, rtol=1e-12)

    def test_grad_batched_input(self):
        check_grads(
            lambda x, w, b: (L.linear(x, w, b) ** 2).sum(), [r(2, 3, 4), r(5, 4), r(5)]
        )


# -- LSTM ------------------------------------------------------------------------------


class TestLstm:
    def test_forward_matches_step_oracle(self):
        b_, t_, d_, h_ = 3, 6, 4, 5
        x, w_ih, w_hh, bias = r(b_, t_, d_), r(4 * h_, d_), r(4 * h_, h_), r(4 * h_)
        got = L.lstm_cell_seq(x, w_ih, w_hh, bias).data
        want = lstm_steps(x, w_ih, w_hh, bias)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_grad_all_inputs(self):
        b_, t_, d_, h_ = 2, 4, 3, 3
        check_grads(
            lambda x, wi, wh, bb: (L.lstm_cell_seq(x, wi, wh, bb) ** 2).sum(),
            [r(b_, t_, d_), r(4 * h_, d_), r(4 * h_, h_), r(4 * h_)],
            rtol=1e-3,
        )

    def test_bidirectional_is_concat_of_reversed_runs(self):
        params = L.init_lstm_params(rng, 4, 3, layers=1, dtype=np.float64)
        x = r(2, 5, 4)
        out = L.lstm_seq(x, params, hidden_size=3, layers=1).data

        fw = L.lstm_cell_seq(x, params["lstm.l0.fw.w_ih"], params["lstm.l0.fw.w_hh"],
                             params["lstm.l0.fw.b"]).data
        bw = L.lstm_cell_seq(x[:, ::-1], params["lstm.l0.bw.w_ih"], params["lstm.l0.bw.w_hh"],
                             params["lstm.l0.bw.b"]).data[:, ::-1]
        np.testing.assert_allclose(out, np.concatenate([fw, bw], axis=-1), rtol=1e-10)

    def test_stacked_shapes(self):
        params = L.init_lstm_params(rng, 6, 4, layers=2, dtype=np.float64)
        out = L.lstm_seq(r(3, 7, 6), params, hidden_size=4, layers=2)
        assert out.shape == (3, 7, 8)

    def test_unbatched_input_round_trips(self):
        params = L.init_lstm_params(rng, 5, 2, layers=1, dtype=np.float64)
        out = L.lstm_seq(r(9, 5), params, hidden_size=2, layers=1)
        assert out.shape == (9, 4)

    def test_grad_through_bidirectional_stack(self):
        params = L.init_lstm_params(rng, 3, 2, layers=2, dtype=np.float64)
        names = sorted(params)
        x = r(1, 3, 3)

        def loss(xx, *ps):
            pdict = dict(zip(names, ps))
            return (L.lstm_seq(xx, pdict, hidden_size=2, layers=2) ** 2).sum()

        check_grads(loss, [x] + [params[n].data for n in names], rtol=1e-3)


class TestGateActivation:
    EDGES = [-np.inf, -1e4, -100.0, -20.0, -3.0, -0.5, -1e-3, 0.0, 1e-3, 0.5, 3.0, 20.0, 100.0,
             1e4, np.inf]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_sigmoid_and_tanh_everywhere(self, dtype):
        vals = np.concatenate([self.EDGES, 8.0 * rng.standard_normal(49)])
        h = vals.size
        z = np.tile(vals, (2, 4)).astype(dtype)  # every value in every gate block
        scale, shift = L._gate_constants(h, dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = L._activate_gates(z.copy(), scale, shift)
        assert out.dtype == dtype and np.all(np.isfinite(out))
        z64 = z.astype(np.float64)
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-z64))
        eps = np.finfo(dtype).eps  # 2**-23 in float32
        for blk in (0, 1, 3):  # i, f, o
            got = out[:, blk * h : (blk + 1) * h]
            assert np.all((got >= 0.0) & (got <= 1.0))
            np.testing.assert_allclose(got, sig[:, blk * h : (blk + 1) * h], rtol=0, atol=eps)
        np.testing.assert_allclose(out[:, 2 * h : 3 * h], np.tanh(z64[:, 2 * h : 3 * h]),
                                   rtol=0, atol=eps)

    def test_float32_lstm_saturates_without_overflow(self):
        b_, t_, d_, h_ = 3, 6, 4, 5
        x = Tensor((1e3 * r(b_, t_, d_)).astype(np.float32), requires_grad=True)
        ps = [Tensor(r(*s).astype(np.float32), requires_grad=True)
              for s in ((4 * h_, d_), (4 * h_, h_), (4 * h_,))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = L.lstm_cell_seq(x, *ps)
            (out * out).sum().backward()
        assert np.all(np.isfinite(out.data)) and np.all(np.abs(out.data) <= 1.0)
        assert all(np.all(np.isfinite(t.grad)) for t in [x, *ps])


# -- parameter initialization ----------------------------------------------------------


class TestInit:
    def test_uniform_param_bounds(self):
        t = L.uniform_param(np.random.default_rng(0), (64, 100), fan_in=100)
        bound = (1.0 / 100.0) ** 0.5
        assert t.data.min() >= -bound and t.data.max() <= bound
        assert t.requires_grad
        assert t.data.dtype == np.float32

    def test_zeros_and_full(self):
        assert np.all(L.zeros_param((3,)).data == 0.0)
        assert np.all(L.full_param((3,), 0.25).data == 0.25)

    def test_lstm_param_shapes(self):
        p = L.init_lstm_params(np.random.default_rng(0), 10, 4, layers=2)
        assert p["lstm.l0.fw.w_ih"].shape == (16, 10)
        assert p["lstm.l1.fw.w_ih"].shape == (16, 8)  # layer 1 sees both directions
        assert p["lstm.l1.bw.w_hh"].shape == (16, 4)
        assert np.all(p["lstm.l0.fw.b"].data == 0.0)
