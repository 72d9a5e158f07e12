"""Neural network layers on top of the autodiff Tensor.

Each layer is a function of a Tensor input plus explicit parameter Tensors,
with a hand-written backward. Convolutions operate on single samples laid
out channel-first as (C, T, F) and have one fixed geometry, the CRN's:
kernel (1, 3), stride (1, 2), padding (0, 1), and output padding (0, 1)
on the transposed conv. Recurrent/dense layers take (T, D) or a
band-batched (B, T, D); the bidirectional LSTM runs its two directions
through runtime.pair. The init functions make float32 parameters.
"""

from __future__ import annotations

import numpy as np

from .runtime import pair
from .tensor import Tensor, _accum, as_tensor, make_node, records


def uniform_param(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Weight init: uniform in +-sqrt(1/fan_in)."""
    bound = float(np.sqrt(1.0 / fan_in))
    data = rng.uniform(-bound, bound, size=shape).astype(np.float32, copy=False)
    return Tensor(data, requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


def full_param(shape, value) -> Tensor:
    return Tensor(np.full(shape, value, dtype=np.float32), requires_grad=True)


# -- 2-D convolution over (C, T, F), each one GEMM over the 3 frequency taps -----


def _check_conv(name, x, w, c_axis):
    if x.ndim != 3 or w.ndim != 4:
        raise ValueError(f"{name} expects (C,T,F) input and 4-D kernel, got {x.shape}, {w.shape}")
    if w.shape[2:] != (1, 3):
        raise ValueError(f"{name} takes only (., ., 1, 3) kernels, got {w.shape}")
    if x.shape[0] != w.shape[c_axis]:
        raise ValueError(f"{name} channel mismatch: input {x.shape[0]}, kernel {w.shape[c_axis]}")
    if x.shape[1] == 0 or x.shape[2] == 0:
        raise ValueError(f"{name} output would be empty for input {x.shape}")


def _taps(x, f_out):
    """(C, T, F) input -> (C * 3, T * f_out) stride-2 tap matrix of the
    input zero-padded by one bin on each side; the padding is written into
    the matrix, never into a padded copy of the input."""
    c, t_len, f_in = x.shape
    cols = np.empty((c, 3, t_len, f_out), dtype=x.dtype)
    # tap e of output bin j reads input bin 2j + e - 1
    cols[:, 0, :, 0] = 0.0
    cols[:, 0, :, 1:] = x[:, :, 1 : 2 * f_out - 2 : 2]
    cols[:, 1] = x[:, :, 0::2]
    cols[:, 2, :, : f_in // 2] = x[:, :, 1::2]
    if f_in % 2:
        cols[:, 2, :, -1] = 0.0
    return cols.reshape(c * 3, t_len * f_out)


def conv2d(x, w, b) -> Tensor:
    """x: (C_in, T, F); w: (C_out, C_in, 1, 3); b: (C_out,).
    Returns (C_out, T, ceil(F / 2))."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_conv("conv2d", x, w, 1)
    c_out, c_in = w.shape[:2]
    _, t_len, f_in = x.shape
    f_out = (f_in + 1) // 2
    w2 = w.data.reshape(c_out, c_in * 3)
    out = (w2 @ _taps(x.data, f_out)).reshape(c_out, t_len, f_out)
    out += b.data[:, None, None]

    def backward(g):
        _accum(b, g.sum(axis=(1, 2)))
        g2 = g.reshape(c_out, t_len * f_out)
        _accum(w, (g2 @ _taps(x.data, f_out).T).reshape(w.shape))
        dcols = (w2.T @ g2).reshape(c_in, 3, t_len, f_out)
        # the adjoint of _taps, summed in the tap order 0, 1, 2 in x's dtype
        dx = np.zeros_like(x.data)
        dx[:, :, 1 : 2 * f_out - 2 : 2] += dcols[:, 0, :, 1:]
        dx[:, :, 0::2] += dcols[:, 1]
        dx[:, :, 1::2] += dcols[:, 2, :, : f_in // 2]
        _accum(x, dx)

    return make_node(out, (x, w, b), backward)


def deconv2d(x, w, b) -> Tensor:
    """Transposed conv2d. x: (C_in, T, F); w: (C_in, C_out, 1, 3); b:
    (C_out,). Returns (C_out, T, 2F)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_conv("deconv2d", x, w, 0)
    c_in, c_out = w.shape[:2]
    _, t_len, f_in = x.shape
    x2 = x.data.reshape(c_in, t_len * f_in)
    wm = w.data[:, :, 0, :].transpose(2, 1, 0).reshape(3 * c_out, c_in)
    taps = (wm @ x2).reshape(3, c_out, t_len, f_in)
    # tap e of input bin f lands on output bin 2f + e - 1: even bins are
    # tap 1 + b, odd ones (tap 2 + tap 0 of the next bin) + b. Tap 0 of bin
    # 0 lands outside; as -0.0 it adds nothing (x + -0.0 is x, bit for
    # bit), so tap 0 is added to tap 2 over the flat rows, in place
    taps[0, :, :, 0] = -0.0
    flat = taps.reshape(3, -1)
    flat[2, :-1] += flat[0, 1:]
    taps[1:] += b.data[:, None, None]
    out = np.empty((c_out * t_len * f_in, 2), dtype=taps.dtype)
    out[:, 0] = flat[1]
    out[:, 1] = flat[2]
    out = out.reshape(c_out, t_len, 2 * f_in)

    def backward(g):
        _accum(b, g.sum(axis=(1, 2)))
        gt = np.empty((3, c_out, t_len, f_in), dtype=g.dtype)
        gt[0, :, :, 0] = 0.0
        gt[0, :, :, 1:] = g[:, :, 1:-2:2]
        gt[1] = g[:, :, 0::2]
        gt[2] = g[:, :, 1::2]
        gt = gt.reshape(3 * c_out, t_len * f_in)
        dw = (gt @ x2.T).reshape(3, c_out, c_in).transpose(2, 1, 0)
        _accum(w, dw[:, :, None, :])
        _accum(x, (wm.T @ gt).reshape(x.shape))

    return make_node(out, (x, w, b), backward)


# -- normalization ---------------------------------------------------------------


BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of each sample's statistics in the running buffers
LN_EPS = 1e-5


def batchnorm2d(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray) -> Tensor:
    """Per-channel normalization of a (C, T, F) sample by its own (T, F)
    statistics, as in training. Updates the running buffers in place
    (biased variance for the normalization, unbiased for the running
    buffer). Eval mode has no op here: crn._block folds the running
    buffers into the conv before it.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 3:
        raise ValueError(f"batchnorm2d expects (C,T,F), got {x.shape}")
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError("batchnorm2d parameter shape mismatch")
    n = x.shape[1] * x.shape[2]

    mean = x.data.mean(axis=(1, 2))
    var = x.data.var(axis=(1, 2))
    unbiased = var * (n / (n - 1.0)) if n > 1 else var
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mean.astype(running_mean.dtype)
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * unbiased.astype(running_var.dtype)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean[:, None, None]) * inv_std[:, None, None]
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def backward(g):
        _accum(gamma, (g * xhat).sum(axis=(1, 2)))
        _accum(beta, g.sum(axis=(1, 2)))
        gx = g * gamma.data[:, None, None]
        s1 = gx.sum(axis=(1, 2), keepdims=True)
        s2 = (gx * xhat).sum(axis=(1, 2), keepdims=True)
        _accum(x, (inv_std[:, None, None] / n) * (n * gx - s1 - xhat * s2))

    return make_node(out, (x, gamma, beta), backward)


def layernorm(x, gamma, beta) -> Tensor:
    """Normalize over the last axis of x (..., D)."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError("layernorm parameter shape mismatch")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x.data - mean) * inv_std
    out = gamma.data * xhat + beta.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gamma, (g * xhat).sum(axis=lead))
        _accum(beta, g.sum(axis=lead))
        gx = g * gamma.data
        s1 = gx.sum(axis=-1, keepdims=True)
        s2 = (gx * xhat).sum(axis=-1, keepdims=True)
        _accum(x, (inv_std / d) * (d * gx - s1 - xhat * s2))

    return make_node(out, (x, gamma, beta), backward)


# -- activations -------------------------------------------------------------------


def prelu(x, a) -> Tensor:
    """Per-channel parametric ReLU on a channel-first tensor; a: (C,).

    The forward is min(x, 0) * a + max(x, 0): for finite slopes it equals
    np.where(x < 0, a * x, x) under ==, infinities and NaN included, and
    only the sign of a zero result may differ. The sign mask is built only
    when the node is recorded, by its backward.
    """
    x, a = as_tensor(x), as_tensor(a)
    if a.ndim != 1 or a.shape[0] != x.shape[0]:
        raise ValueError(f"prelu slope shape {a.shape} does not match channels {x.shape[0]}")
    a_b = a.data.reshape((x.shape[0],) + (1,) * (x.ndim - 1))
    out = np.minimum(x.data, 0).astype(np.result_type(x.data, a_b), copy=False)
    out *= a_b
    out += np.maximum(x.data, 0)

    def backward(g):
        neg = x.data < 0
        axes = tuple(range(1, x.ndim))
        _accum(a, np.where(neg, g * x.data, 0.0).sum(axis=axes))
        _accum(x, np.where(neg, g * a_b, g))

    return make_node(out, (x, a), backward)


# -- dense -------------------------------------------------------------------------


def linear(x, w, b) -> Tensor:
    """x: (..., D_in); w: (D_out, D_in); b: (D_out,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.shape[-1] != w.shape[1]:
        raise ValueError(f"linear shape mismatch: input {x.shape}, weight {w.shape}")
    out = np.matmul(x.data, w.data.T) + b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        x2 = x.data.reshape(-1, x.data.shape[-1])
        _accum(w, g2.T @ x2)
        _accum(b, g2.sum(axis=0))
        _accum(x, np.matmul(g, w.data))

    return make_node(out, (x, w, b), backward)


# -- LSTM --------------------------------------------------------------------------

# Input-projection rows (steps x batch) per block when a forward keeps no
# history: 32 steps of the spatial filter's 256 bands, and the whole
# sequence of a CRN bottleneck (batch 1), where smaller blocks would
# re-read its large w_ih.
_CHUNK_ROWS = 8192


def _gate_constants(h_size: int, dtype):
    """Per-column (scale, shift) for _activate_gates over a (..., 4H) row
    in gate order i, f, g, o: (1/2, 1/2, 1, 1/2) and (1/2, 1/2, 0, 1/2)."""
    scale = np.full(4 * h_size, 0.5, dtype=dtype)
    scale[2 * h_size : 3 * h_size] = 1.0
    shift = scale.copy()
    shift[2 * h_size : 3 * h_size] = 0.0
    return scale, shift


def _activate_gates(z, scale, shift):
    """Gate activations in place, with one tanh over the whole row:
    sigmoid(z) = 1/2 + tanh(z/2)/2 on the i, f and o blocks, tanh on g.
    Finite and in range for any input, infinities included."""
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += shift
    return z


def _lstm_hidden(x, w_ih, w_hh, b) -> int:
    """Hidden size of one direction's (w_ih, w_hh, b), checked against x."""
    four_h, d_in = w_ih.shape
    if four_h % 4 != 0:
        raise ValueError("w_ih first dim must be 4*hidden")
    h_size = four_h // 4
    if w_hh.shape != (four_h, h_size) or b.shape != (four_h,):
        raise ValueError("lstm parameter shape mismatch")
    if x.shape[-1] != d_in:
        raise ValueError(f"lstm input width {x.shape[-1]} does not match w_ih {w_ih.shape}")
    return h_size


def _lstm_forward(x, w_ih, w_hh, b, out, keep):
    """One direction over x (B, T, D), writing every step's h straight
    into out (B, T, H), which may be a strided view. Initial hidden and
    cell state are zero.

    Each step activates its (B, 4H) gate row in place with one tanh
    (_activate_gates). The gate and cell buffers are time-major, (T, B,
    .), so every step reads and writes contiguous slabs; tanh(cell) goes
    through one (B, H) scratch buffer. With keep, the input projection
    runs over the whole sequence at once, every step's gates and cell are
    kept and the cache for _lstm_backward is returned. Without it, the
    projection runs in blocks of _CHUNK_ROWS rows through one scratch
    buffer, cell is a 2-deep ring, and None is returned.
    """
    bsz, t_len, d_in = x.shape
    four_h = w_ih.shape[0]
    h_size = four_h // 4
    dtype = x.dtype
    sl_i, sl_f = slice(0, h_size), slice(h_size, 2 * h_size)
    sl_g, sl_o = slice(2 * h_size, 3 * h_size), slice(3 * h_size, four_h)
    chunk = max(t_len if keep else _CHUNK_ROWS // max(bsz, 1), 1)
    depth = t_len if keep else 2
    gates = np.empty((min(chunk, t_len), bsz, four_h), dtype=np.result_type(x, w_ih))
    cells = np.empty((depth, bsz, h_size), dtype=dtype)
    tc = np.empty((bsz, h_size), dtype=dtype)
    hs = out.transpose(1, 0, 2)
    w_hh_t = w_hh.T  # a view: BLAS reads it transposed, with no per-call copy
    scale, shift = _gate_constants(h_size, dtype)
    rec = np.empty((bsz, four_h), dtype=dtype)
    for t0 in range(0, t_len, chunk):
        n = min(chunk, t_len - t0)
        block = gates[:n]
        x_tm = x[:, t0 : t0 + n].transpose(1, 0, 2).reshape(n * bsz, d_in)
        np.matmul(x_tm, w_ih.T, out=block.reshape(n * bsz, four_h))
        block += b
        for t in range(t0, t0 + n):
            z, c = block[t - t0], cells[t % depth]
            if t > 0:
                np.matmul(hs[t - 1], w_hh_t, out=rec)
                z += rec
            _activate_gates(z, scale, shift)
            np.multiply(z[:, sl_i], z[:, sl_g], out=c)
            if t > 0:
                c += z[:, sl_f] * cells[(t - 1) % depth]
            np.tanh(c, out=tc)
            np.multiply(z[:, sl_o], tc, out=hs[t])
    return (x, w_ih, w_hh, gates, cells, hs) if keep else None


def _lstm_backward(cache, grad):
    """BPTT through one _lstm_forward(keep=True) direction for grad (B, T,
    H) of its h. Returns (dx, dw_ih, dw_hh, db).

    Spends the cache: each step's gate pre-activation derivatives dz are
    written over that step's activated gate row, which no later (earlier
    in time) step reads, so the gate cache becomes the (T, B, 4H) dz
    buffer and the cache cannot be used again. tanh(cell) is computed
    again, from the same contiguous cell slab through the same ufunc as
    the forward, so it is the same bytes."""
    x, w_ih, w_hh, gates, cells, hs = cache
    t_len, bsz, four_h = gates.shape
    h_size = four_h // 4
    sl_i, sl_f = slice(0, h_size), slice(h_size, 2 * h_size)
    sl_g, sl_o = slice(2 * h_size, 3 * h_size), slice(3 * h_size, four_h)
    g_tm = grad.transpose(1, 0, 2)
    dh_next = np.zeros((bsz, h_size), dtype=grad.dtype)
    dc_next = np.zeros_like(dh_next)
    for t in range(t_len - 1, -1, -1):
        z, tc = gates[t], np.tanh(cells[t])
        i, f, g_, o = z[:, sl_i], z[:, sl_f], z[:, sl_g], z[:, sl_o]
        dh = g_tm[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tc * tc)
        # every read of z's gates comes before the first write over them
        d_i = dc * g_ * i * (1.0 - i)
        d_f = dc * cells[t - 1] * f * (1.0 - f) if t > 0 else 0.0
        d_g = dc * i * (1.0 - g_ * g_)
        d_o = dh * tc * o * (1.0 - o)
        dc_next = dc * f
        z[:, sl_i], z[:, sl_f], z[:, sl_g], z[:, sl_o] = d_i, d_f, d_g, d_o
        dh_next = z @ w_hh
    dz_all = gates
    dz2 = dz_all.reshape(t_len * bsz, four_h)
    # h_prev is zero at t = 0, so step 0 adds nothing to dw_hh
    dw_hh = dz2[bsz:].T @ hs[:-1].reshape(-1, h_size)
    db = dz2.sum(axis=0)
    dw_ih = dz2.T @ x.transpose(1, 0, 2).reshape(t_len * bsz, x.shape[2])
    dx = np.matmul(dz_all, w_ih).transpose(1, 0, 2)
    return dx, dw_ih, dw_hh, db


def lstm_cell_seq(x, fw, bw) -> Tensor:
    """One bidirectional LSTM layer over a whole sequence, as one tape node.

    x: (B, T, D); fw and bw: (w_ih (4H, D), w_hh (4H, H), b (4H,)) of the
    forward and the backward direction. Gate order i, f, g, o; initial
    hidden and cell state are zero. The bw direction runs over x reversed
    in time. Returns (B, T, 2H): fw features first, then bw features in
    input time order.

    Forward and backward each run fw on the calling thread while a
    one-thread worker runs bw, with BLAS held to one thread until both are
    done (runtime.pair). Without numpy's OpenBLAS thread controls, or with fewer
    than 2 CPUs, both run here one after the other, through the same
    kernels and to the same bytes. Gradients are accumulated on the calling
    thread only. Under no_grad the forward keeps no per-step history;
    otherwise the node's backward spends the kept history (_lstm_backward
    writes its gate derivatives over it), so it runs once, as the tape
    runs every node.

    The name is the one the single-direction op had: perfbench/tracing.py
    wraps this function by name, so its spatial and CRN LSTM spans go on
    timing the LSTM layers, and all thread work happens inside one traced
    call.
    """
    x = as_tensor(x)
    fw, bw = tuple(map(as_tensor, fw)), tuple(map(as_tensor, bw))
    if x.ndim != 3:
        raise ValueError(f"lstm_cell_seq expects (B,T,D), got {x.shape}")
    h_fw, h_bw = _lstm_hidden(x, *fw), _lstm_hidden(x, *bw)
    parents = (x, *fw, *bw)
    keep = records(parents)
    bsz, t_len, _ = x.shape
    out = np.empty((bsz, t_len, h_fw + h_bw), dtype=x.dtype)
    w_fw, w_bw = [p.data for p in fw], [p.data for p in bw]
    cache_fw, cache_bw = pair(
        lambda: _lstm_forward(x.data, *w_fw, out[:, :, :h_fw], keep),
        lambda: _lstm_forward(x.data[:, ::-1], *w_bw, out[:, ::-1, h_fw:], keep),
    )

    def backward(grad):
        nonlocal cache_fw, cache_bw
        # both halves run in the output's dtype: a grad of another dtype is
        # cast once, as a whole, and one of that dtype is used as it comes
        grad = grad.astype(out.dtype, copy=False)
        (dx, *d_fw), (dx_bw, *d_bw) = pair(
            lambda: _lstm_backward(cache_fw, grad[:, :, :h_fw]),
            lambda: _lstm_backward(cache_bw, grad[:, ::-1, h_fw:]),
        )
        # the spent gate and cell histories go before the sums below allocate
        cache_fw = cache_bw = None
        for p, g in zip(parents[1:], d_fw + d_bw):
            _accum(p, g)
        dx += dx_bw[:, ::-1]
        _accum(x, dx)

    return make_node(out, parents, backward)


def init_lstm_params(rng: np.random.Generator, input_size: int, hidden_size: int,
                     layers: int) -> dict:
    """Named parameter dict for a stacked bidirectional LSTM."""
    params = {}
    for layer in range(layers):
        d_in = input_size if layer == 0 else 2 * hidden_size
        for dr in ("fw", "bw"):
            key = f"lstm.l{layer}.{dr}"
            params[f"{key}.w_ih"] = uniform_param(rng, (4 * hidden_size, d_in), d_in)
            params[f"{key}.w_hh"] = uniform_param(rng, (4 * hidden_size, hidden_size), hidden_size)
            params[f"{key}.b"] = zeros_param((4 * hidden_size,))
    return params


def lstm_seq(x, params: dict, hidden_size: int, layers: int) -> Tensor:
    """Run a stacked bidirectional LSTM over x: (T, D) or (B, T, D).

    Returns (T, 2H) or (B, T, 2H), forward features first. Parameters are
    looked up by the names produced by init_lstm_params.
    """
    x = as_tensor(x)
    squeeze = x.ndim == 2
    if squeeze:
        x = x.reshape((1,) + tuple(x.shape))
    if x.ndim != 3:
        raise ValueError(f"lstm_seq expects (T,D) or (B,T,D), got {x.shape}")
    out = x
    for layer in range(layers):
        fw, bw = (
            tuple(params[f"lstm.l{layer}.{dr}.{name}"] for name in ("w_ih", "w_hh", "b"))
            for dr in ("fw", "bw")
        )
        out = lstm_cell_seq(out, fw, bw)
    if squeeze:
        out = out.reshape(tuple(out.shape[1:]))
    return out
