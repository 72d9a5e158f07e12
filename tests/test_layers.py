"""Network building blocks against independent oracles.

Convolutions are checked against direct quadruple loops, the LSTM against
a step-at-a-time numpy reimplementation, and every layer's backward
against central finite differences.
"""

import multiprocessing
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mcse.layers as L
from mcse.tensor import Tensor, no_grad

from gradcheck import check_grads, to_float64

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
                out[o, t, f] = acc + b[o]
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
    return buf[:, :, 1 : 1 + 2 * x.shape[2]] + b[:, None, None]


def conv2d_padded_gemm(x, w, b, g):
    """conv2d's forward and its input gradient for upstream g, as one GEMM
    over a zero-padded copy of x, scattered back in tap order 0, 1, 2."""
    c_out, c_in = w.shape[:2]
    _, t_len, f_in = x.shape
    f_out = (f_in + 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    cols = np.stack([xp[:, :, e : e + 2 * f_out - 1 : 2] for e in range(3)], axis=1)
    w2 = w.reshape(c_out, c_in * 3)
    out = (w2 @ cols.reshape(c_in * 3, t_len * f_out)).reshape(c_out, t_len, f_out)
    out += b[:, None, None]
    dcols = (w2.T @ g.reshape(c_out, t_len * f_out)).reshape(c_in, 3, t_len, f_out)
    dxp = np.zeros_like(xp)
    for e in range(3):
        dxp[:, :, e : e + 2 * f_out - 1 : 2] += dcols[:, e]
    return out, dxp[:, :, 1 : f_in + 1]


def deconv2d_strided(x, w, b):
    """deconv2d's forward as one GEMM, its three taps written into the
    output through stride-2 slices, then the bias added."""
    c_in, c_out = w.shape[:2]
    _, t_len, f_in = x.shape
    wm = w[:, :, 0, :].transpose(2, 1, 0).reshape(3 * c_out, c_in)
    taps = (wm @ x.reshape(c_in, t_len * f_in)).reshape(3, c_out, t_len, f_in)
    out = np.empty((c_out, t_len, 2 * f_in), dtype=taps.dtype)
    out[:, :, 0::2] = taps[1]
    out[:, :, 1::2] = taps[2]
    out[:, :, 1:-2:2] += taps[0, :, :, 1:]
    return out + b[:, None, None]


def with_zeros(rg, shape):
    """float32 normals with about a quarter of the entries +0.0 or -0.0."""
    v = rg.standard_normal(shape).astype(np.float32)
    v[rg.random(shape) < 0.25] = 0.0
    v[rg.random(shape) < 0.1] = -0.0
    return v


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
        out = L.conv2d(r(2, 10, 64), r(5, 2, 1, 3), np.zeros(5))
        assert out.shape == (5, 10, 32)

    def test_grad(self):
        check_grads(
            lambda x, w, b: (L.conv2d(x, w, b) ** 2).sum(),
            [r(2, 3, 8), r(4, 2, 1, 3), r(4)],
        )

    def test_grad_odd_freq(self):
        check_grads(
            lambda x, w, b: (L.conv2d(x, w, b) ** 2).sum(),
            [r(2, 1, 7), r(3, 2, 1, 3), r(3)],
        )

    @pytest.mark.parametrize("f_in", [8, 7, 1])
    def test_bytes_match_padded_copy(self, f_in):
        """Forward and input gradient bit for bit as over a padded copy, with
        a float64 upstream gradient on float32 input, as under stage 1."""
        rg = np.random.default_rng(21)
        x, w = with_zeros(rg, (3, 5, f_in)), with_zeros(rg, (4, 3, 1, 3))
        b = rg.standard_normal(4).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        out = L.conv2d(xt, w, b)
        g = rg.standard_normal(out.shape)
        (out * g).sum().backward()
        want, want_dx = conv2d_padded_gemm(x, w, b, g)
        assert out.data.tobytes() == want.tobytes()
        assert xt.grad.dtype == np.float32
        assert xt.grad.tobytes() == np.ascontiguousarray(want_dx).tobytes()

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            L.conv2d(r(2, 4, 8), r(4, 3, 1, 3), np.zeros(4))

    def test_other_kernel_raises(self):
        with pytest.raises(ValueError, match=r"\(4, 2, 3, 3\)"):
            L.conv2d(r(2, 4, 8), r(4, 2, 3, 3), np.zeros(4))

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty"):
            L.conv2d(r(2, 4, 0), r(4, 2, 1, 3), np.zeros(4))


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
        out = L.deconv2d(r(4, 10, 32), r(4, 2, 1, 3), np.zeros(2))
        assert out.shape == (2, 10, 64)

    def test_inverts_conv_shape(self):
        x = r(2, 7, 64)
        down = L.conv2d(x, r(4, 2, 1, 3), np.zeros(4))
        up = L.deconv2d(down, r(4, 2, 1, 3), np.zeros(2))
        assert up.shape == x.shape

    def test_grad(self):
        check_grads(
            lambda x, w, b: (L.deconv2d(x, w, b) ** 2).sum(),
            [r(3, 3, 6), r(3, 2, 1, 3), r(2)],
        )

    def test_grad_odd_freq(self):
        check_grads(
            lambda x, w, b: (L.deconv2d(x, w, b) ** 2).sum(),
            [r(2, 1, 5), r(2, 3, 1, 3), np.zeros(3)],
        )

    @pytest.mark.parametrize("f_in", [4, 5, 1])
    def test_bytes_match_strided_writes(self, f_in):
        rg = np.random.default_rng(22)
        x, w = with_zeros(rg, (3, 5, f_in)), with_zeros(rg, (3, 4, 1, 3))
        b = rg.standard_normal(4).astype(np.float32)
        want = deconv2d_strided(x, w, b)
        assert L.deconv2d(x, w, b).data.tobytes() == want.tobytes()

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            L.deconv2d(r(2, 4, 8), r(3, 2, 1, 3), np.zeros(2))

    def test_other_kernel_raises(self):
        with pytest.raises(ValueError, match=r"\(2, 2, 1, 4\)"):
            L.deconv2d(r(2, 4, 8), r(2, 2, 1, 4), np.zeros(2))

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="empty"):
            L.deconv2d(r(2, 0, 8), r(2, 2, 1, 3), np.zeros(2))


# -- normalization -------------------------------------------------------------------


class TestBatchNorm2d:
    def test_train_mode_normalizes_each_channel(self):
        x = 3.0 + 2.0 * r(4, 6, 10)
        g = np.ones(4)
        b = np.zeros(4)
        rm, rv = np.zeros(4), np.ones(4)
        out = L.batchnorm2d(x, g, b, rm, rv).data
        np.testing.assert_allclose(out.mean(axis=(1, 2)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=(1, 2)), 1.0, rtol=1e-4)

    def test_running_buffers_track_statistics(self):
        x = r(3, 5, 7)
        rm, rv = np.zeros(3), np.ones(3)
        L.batchnorm2d(x, np.ones(3), np.zeros(3), rm, rv)
        assert L.BN_MOMENTUM == 0.1
        n = 5 * 7
        want_m = 0.1 * x.mean(axis=(1, 2))
        want_v = 0.9 + 0.1 * x.var(axis=(1, 2)) * n / (n - 1)
        np.testing.assert_allclose(rm, want_m, rtol=1e-10)
        np.testing.assert_allclose(rv, want_v, rtol=1e-10)

    def test_grad_train_mode(self):
        rm, rv = np.zeros(2), np.ones(2)

        def loss(x, g, b):
            return (L.batchnorm2d(x, g, b, rm, rv) ** 2).sum()

        check_grads(loss, [r(2, 3, 4), 1.0 + 0.1 * r(2), r(2)], rtol=1e-3)


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), x_dtype=st.sampled_from([np.float32, np.float64]),
           a_dtype=st.sampled_from([np.float32, np.float64]))
    def test_forward_equals_where(self, data, x_dtype, a_dtype):
        """min(x, 0) * a + max(x, 0) against np.where(x < 0, a * x, x):
        equal under ==, with NaN in the same places. Only the sign of a zero
        may differ (x = -0, or a = 0 on negative x), which == does not see."""
        shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=3, max_side=5))
        x = data.draw(hnp.arrays(x_dtype, shape, elements=st.floats(
            width=np.finfo(x_dtype).bits, allow_subnormal=True)))
        a = data.draw(hnp.arrays(a_dtype, shape[0], elements=st.one_of(
            st.floats(-4.0, 4.0, width=np.finfo(a_dtype).bits),
            st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e-30, -1e30]))))
        a_b = a.reshape((-1,) + (1,) * (x.ndim - 1))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            out = L.prelu(x, a).data
            want = np.where(x < 0, a_b * x, x)
        assert out.dtype == want.dtype
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(out), nan)
        assert np.all(out[~nan] == want[~nan])

    def test_forward_special_values(self):
        x = np.array([[-np.inf, np.inf, np.nan, -0.0, 0.0, -5e-324, 5e-324, -1.0, 3.0]])
        for slope in (0.25, -2.0, 3.0, 0.0):
            a = np.array([slope])
            with np.errstate(invalid="ignore"):  # -inf * 0 is NaN on both sides
                want = np.where(x < 0, a * x, x)
                out = L.prelu(x, a).data
            np.testing.assert_array_equal(out, want)  # NaN == NaN here, -0 == 0

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


def lstm_triple(h_, d_, scale=1.0):
    """(w_ih, w_hh, b) of one direction, drawn from the module generator."""
    return scale * r(4 * h_, d_), scale * r(4 * h_, h_), scale * r(4 * h_)


class TestLstm:
    def test_forward_matches_step_oracle(self):
        b_, t_, d_, h_ = 3, 6, 4, 5
        x, fw, bw = r(b_, t_, d_), lstm_triple(h_, d_), lstm_triple(h_, d_)
        got = L.lstm_cell_seq(x, fw, bw).data
        assert got.shape == (b_, t_, 2 * h_)
        np.testing.assert_allclose(got[..., :h_], lstm_steps(x, *fw), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got[..., h_:], lstm_steps(x[:, ::-1], *bw)[:, ::-1],
                                   rtol=1e-10, atol=1e-12)

    def test_grad_all_inputs(self):
        b_, t_, d_, h_ = 2, 4, 3, 3
        check_grads(
            lambda x, *w: (L.lstm_cell_seq(x, w[:3], w[3:]) ** 2).sum(),
            [r(b_, t_, d_), *lstm_triple(h_, d_), *lstm_triple(h_, d_)],
            rtol=1e-3,
        )

    def test_bidirectional_is_concat_of_reversed_runs(self):
        params = to_float64(L.init_lstm_params(rng, 4, 3, layers=1))
        x = r(2, 5, 4)
        out = L.lstm_seq(x, params).data

        fw = lstm_steps(x, *(params[f"lstm.l0.fw.{n}"].data for n in ("w_ih", "w_hh", "b")))
        bw = lstm_steps(x[:, ::-1], *(params[f"lstm.l0.bw.{n}"].data
                                      for n in ("w_ih", "w_hh", "b")))[:, ::-1]
        np.testing.assert_allclose(out, np.concatenate([fw, bw], axis=-1), rtol=1e-10)

    def test_threaded_and_sequential_paths_are_byte_equal(self, two_and_one_thread):
        """Both directions on two threads give the bytes of both on one,
        forward and backward."""
        b_, t_, d_, h_ = 256, 37, 16, 64
        x = r(b_, t_, d_).astype(np.float32)
        ws = [w.astype(np.float32) for w in (*lstm_triple(h_, d_, 0.3), *lstm_triple(h_, d_, 0.3))]
        g = r(b_, t_, 2 * h_).astype(np.float32)

        def run():
            ts = [Tensor(a.copy(), requires_grad=True) for a in (x, *ws)]
            out = L.lstm_cell_seq(ts[0], ts[1:4], ts[4:])
            (out * Tensor(g)).sum().backward()
            return [out.data] + [t.grad for t in ts]

        two, one = two_and_one_thread(run)
        for a, b in zip(two, one):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("t_", [1, 8, 13])
    def test_unrecorded_forward_matches_recorded(self, t_):
        """Under no_grad the projection runs in blocks (8 steps at batch
        256) and cell state in rings; the output matches the recorded
        forward, which keeps every step."""
        assert L._CHUNK_ROWS // 256 == 8
        x = r(256, t_, 8).astype(np.float32)
        fw, bw = ([w.astype(np.float32) for w in lstm_triple(16, 8, 0.5)] for _ in range(2))
        recorded = L.lstm_cell_seq(Tensor(x, requires_grad=True), fw, bw)
        assert recorded.requires_grad
        with no_grad():
            plain = L.lstm_cell_seq(x, fw, bw)
        assert not plain.requires_grad
        np.testing.assert_allclose(plain.data, recorded.data, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("t_", [7, 9, 10])
    def test_grad_through_recomputed_gate_blocks(self, monkeypatch, t_):
        """With 3-step gate blocks, T 7 runs as blocks of 3, 3 and 1, T 9 as
        three whole ones and T 10 as 3, 3, 3 and 1. The backward recomputes
        every block's gates but the last from x, h and the weights, and
        rebuilds every block's cells from the one cell kept before it."""
        monkeypatch.setattr(L, "_CHUNK_ROWS", 6)
        b_, d_, h_ = 2, 3, 3
        check_grads(
            lambda x, *w: (L.lstm_cell_seq(x, w[:3], w[3:]) ** 2).sum(),
            [r(b_, t_, d_), *lstm_triple(h_, d_), *lstm_triple(h_, d_)],
            rtol=1e-3,
        )

    @pytest.mark.parametrize("t_", [1, 9, 10])
    def test_gate_blocks_match_one_block(self, monkeypatch, t_):
        """A backward that recomputes its gates block by block gives the
        output and input gradient of one whole-sequence block byte for
        byte; the weight gradients, summed block by block, agree to
        float32 rounding. T 1 is one partial block, T 9 three whole ones
        and T 10 three and a partial one."""
        b_, d_, h_ = 4, 5, 8
        x = r(b_, t_, d_).astype(np.float32)
        ws = [w.astype(np.float32) for w in (*lstm_triple(h_, d_, 0.5), *lstm_triple(h_, d_, 0.5))]
        g = r(b_, t_, 2 * h_).astype(np.float32)

        def run(rows):
            monkeypatch.setattr(L, "_CHUNK_ROWS", rows)
            ts = [Tensor(a.copy(), requires_grad=True) for a in (x, *ws)]
            out = L.lstm_cell_seq(ts[0], ts[1:4], ts[4:])
            (out * Tensor(g)).sum().backward()
            return out.data, [t.grad for t in ts]

        out_3, (dx_3, *dw_3) = run(3 * b_)
        out_1, (dx_1, *dw_1) = run(1024)
        assert out_3.tobytes() == out_1.tobytes()
        assert dx_3.tobytes() == dx_1.tobytes()
        # an entry whose terms cancel keeps their rounding, so the bound is
        # relative to each gradient's largest entry as well as to its own
        for a, b in zip(dw_3, dw_1):
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5 * np.abs(b).max())

    def test_recorded_forward_keeps_no_gate_history(self):
        """A recorded forward at B 256, T 64, H 64 keeps neither every
        step's (T, B, 4H) gates (16.8 MB of float32 per direction) nor
        every step's (T, B, H) cells (4.2 MB per direction): only one
        8-step block of gates and the one cell before each block."""
        b_, t_, d_, h_ = 256, 64, 16, 64
        x = Tensor(r(b_, t_, d_).astype(np.float32), requires_grad=True)
        fw, bw = ([w.astype(np.float32) for w in lstm_triple(h_, d_, 0.3)] for _ in range(2))
        gate_history = t_ * b_ * 4 * h_ * 4
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = L.lstm_cell_seq(x, fw, bw)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        # it holds the (B, T, 2H) output (8.4 MB), and per direction one
        # (8, B, 4H) gate block (2.1 MB) and eight (B, H) start cells
        # (0.5 MB): 13 MB in all. With each direction's cells as well it
        # would hold 21 MB.
        assert held < gate_history

    @pytest.mark.parametrize("recorded", [True, False])
    def test_empty_sequence_is_refused(self, recorded):
        """A sequence of no steps is refused by shape, recorded or not,
        instead of recording a node whose backward cannot run."""
        x = Tensor(np.zeros((2, 0, 3)), requires_grad=recorded)
        fw, bw = lstm_triple(4, 3), lstm_triple(4, 3)
        with pytest.raises(ValueError, match=r"\(2, 0, 3\)"):
            if recorded:
                L.lstm_cell_seq(x, fw, bw)
            else:
                with no_grad():
                    L.lstm_cell_seq(x, fw, bw)

    def test_caller_errstate_reaches_the_worker(self, threaded):
        """An invalid operation in the bw direction alone, which runs on the
        worker, raises under the caller's np.errstate."""
        x = np.full((2, 3, 4), -np.inf)
        w_ih = 1.0 + np.abs(r(8, 4))  # x @ w_ih.T is -inf everywhere
        fw = (w_ih, r(8, 2), r(8))
        with np.errstate(invalid="raise"):
            L.lstm_cell_seq(x, fw, fw)  # -inf projections alone are valid
            with pytest.raises(FloatingPointError):
                L.lstm_cell_seq(x, fw, (w_ih, r(8, 2), np.full(8, np.inf)))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_the_layer(self, threaded):
        """A child forked after the worker has run gets a worker of its own
        instead of waiting on the parent's, which does not exist there."""
        x = r(2, 5, 4).astype(np.float32)
        fw, bw = lstm_triple(3, 4), lstm_triple(3, 4)
        want = L.lstm_cell_seq(x, fw, bw).data
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=lambda: queue.put(L.lstm_cell_seq(x, fw, bw).data))
        child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0
        np.testing.assert_array_equal(queue.get(timeout=5), want)

    def test_stacked_shapes(self):
        params = to_float64(L.init_lstm_params(rng, 6, 4, layers=2))
        out = L.lstm_seq(r(3, 7, 6), params)
        assert out.shape == (3, 7, 8)

    def test_runs_every_stored_layer(self):
        """The depth is the number of layers the parameters hold: three
        stored layers run as three lstm_cell_seq calls, in order."""
        params = to_float64(L.init_lstm_params(rng, 6, 4, layers=3))
        x = r(2, 5, 6)
        want = x
        for k in range(3):
            fw, bw = (tuple(params[f"lstm.l{k}.{dr}.{n}"] for n in ("w_ih", "w_hh", "b"))
                      for dr in ("fw", "bw"))
            want = L.lstm_cell_seq(want, fw, bw)
        assert L.lstm_seq(x, params).data.tobytes() == want.data.tobytes()
        del params["lstm.l1.fw.w_ih"]
        with pytest.raises(KeyError, match="lstm.l1.fw.w_ih"):
            L.lstm_seq(x, params)

    def test_grad_through_bidirectional_stack(self):
        params = to_float64(L.init_lstm_params(rng, 3, 2, layers=2))
        names = sorted(params)
        x = r(1, 3, 3)

        def loss(xx, *ps):
            pdict = dict(zip(names, ps))
            return (L.lstm_seq(xx, pdict) ** 2).sum()

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
              for s in ((4 * h_, d_), (4 * h_, h_), (4 * h_,)) * 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = L.lstm_cell_seq(x, ps[:3], ps[3:])
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
