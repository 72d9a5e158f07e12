"""Neural network layers on top of the autodiff Tensor.

Each layer is a function of a Tensor input plus explicit parameter Tensors,
with a hand-written backward. Convolutions operate on single samples laid
out channel-first as (C, T, F) and have one fixed geometry, the CRN's:
kernel (1, 3), stride (1, 2), padding (0, 1), and output padding (0, 1)
on the transposed conv. Recurrent/dense layers take (T, D) or a
band-batched (B, T, D).
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _accum, as_tensor, concat, make_node


def uniform_param(rng: np.random.Generator, shape, fan_in: int, dtype=np.float32) -> Tensor:
    """Weight init: uniform in +-sqrt(1/fan_in)."""
    bound = float(np.sqrt(1.0 / fan_in))
    data = rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)
    return Tensor(data, requires_grad=True)


def zeros_param(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def full_param(shape, value, dtype=np.float32) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=True)


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


def _taps(xp, f_out):
    """(C, T, F + 2) padded input -> (C * 3, T * f_out) stride-2 tap matrix."""
    c, t_len, _ = xp.shape
    cols = np.stack([xp[:, :, e : e + 2 * f_out - 1 : 2] for e in range(3)], axis=1)
    return cols.reshape(c * 3, t_len * f_out)


def conv2d(x, w, b=None) -> Tensor:
    """x: (C_in, T, F); w: (C_out, C_in, 1, 3); b: (C_out,) or None.
    Returns (C_out, T, ceil(F / 2))."""
    x, w = as_tensor(x), as_tensor(w)
    _check_conv("conv2d", x, w, 1)
    c_out, c_in = w.shape[:2]
    _, t_len, f_in = x.shape
    f_out = (f_in + 1) // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1)))
    w2 = w.data.reshape(c_out, c_in * 3)
    out = (w2 @ _taps(xp, f_out)).reshape(c_out, t_len, f_out)
    if b is not None:
        b = as_tensor(b)
        out += b.data[:, None, None]

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        if b is not None:
            _accum(b, g.sum(axis=(1, 2)))
        g2 = g.reshape(c_out, t_len * f_out)
        _accum(w, (g2 @ _taps(xp, f_out).T).reshape(w.shape))
        dcols = (w2.T @ g2).reshape(c_in, 3, t_len, f_out)
        dxp = np.zeros_like(xp)
        for e in range(3):
            dxp[:, :, e : e + 2 * f_out - 1 : 2] += dcols[:, e]
        _accum(x, dxp[:, :, 1 : f_in + 1])

    return make_node(out, parents, backward)


def deconv2d(x, w, b=None) -> Tensor:
    """Transposed conv2d. x: (C_in, T, F); w: (C_in, C_out, 1, 3); b:
    (C_out,) or None. Returns (C_out, T, 2F)."""
    x, w = as_tensor(x), as_tensor(w)
    _check_conv("deconv2d", x, w, 0)
    c_in, c_out = w.shape[:2]
    _, t_len, f_in = x.shape
    x2 = x.data.reshape(c_in, t_len * f_in)
    wm = w.data[:, :, 0, :].transpose(2, 1, 0).reshape(3 * c_out, c_in)
    taps = (wm @ x2).reshape(3, c_out, t_len, f_in)
    # tap e of input bin f lands on output bin 2f + e - 1
    out = np.empty((c_out, t_len, 2 * f_in), dtype=taps.dtype)
    out[:, :, 0::2] = taps[1]
    out[:, :, 1::2] = taps[2]
    out[:, :, 1:-2:2] += taps[0, :, :, 1:]
    if b is not None:
        b = as_tensor(b)
        out += b.data[:, None, None]

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        if b is not None:
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

    return make_node(out, parents, backward)


# -- normalization ---------------------------------------------------------------


def batchnorm2d(
    x,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel normalization of a (C, T, F) sample.

    Train mode normalizes with the sample's own (T, F) statistics and
    updates the running buffers in place (biased variance for the
    normalization, unbiased for the running buffer). Eval mode uses the
    running buffers as constants.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 3:
        raise ValueError(f"batchnorm2d expects (C,T,F), got {x.shape}")
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError("batchnorm2d parameter shape mismatch")
    n = x.shape[1] * x.shape[2]

    if training:
        mean = x.data.mean(axis=(1, 2))
        var = x.data.var(axis=(1, 2))
        if n > 1:
            unbiased = var * (n / (n - 1.0))
        else:
            unbiased = var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased.astype(running_var.dtype)
    else:
        mean = running_mean.astype(x.data.dtype)
        var = running_var.astype(x.data.dtype)

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[:, None, None]) * inv_std[:, None, None]
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def backward(g):
        _accum(gamma, (g * xhat).sum(axis=(1, 2)))
        _accum(beta, g.sum(axis=(1, 2)))
        gx = g * gamma.data[:, None, None]
        if training:
            s1 = gx.sum(axis=(1, 2), keepdims=True)
            s2 = (gx * xhat).sum(axis=(1, 2), keepdims=True)
            dx = (inv_std[:, None, None] / n) * (n * gx - s1 - xhat * s2)
        else:
            dx = gx * inv_std[:, None, None]
        _accum(x, dx)

    return make_node(out, (x, gamma, beta), backward)


def layernorm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis of x (..., D)."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError("layernorm parameter shape mismatch")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
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
    """Per-channel parametric ReLU on a channel-first tensor; a: (C,)."""
    x, a = as_tensor(x), as_tensor(a)
    if a.ndim != 1 or a.shape[0] != x.shape[0]:
        raise ValueError(f"prelu slope shape {a.shape} does not match channels {x.shape[0]}")
    a_b = a.data.reshape((x.shape[0],) + (1,) * (x.ndim - 1))
    neg = x.data < 0
    out = np.where(neg, a_b * x.data, x.data)

    def backward(g):
        axes = tuple(range(1, x.ndim))
        _accum(a, np.where(neg, g * x.data, 0.0).sum(axis=axes))
        _accum(x, np.where(neg, g * a_b, g))

    return make_node(out, (x, a), backward)


# -- dense -------------------------------------------------------------------------


def linear(x, w, b=None) -> Tensor:
    """x: (..., D_in); w: (D_out, D_in); b: (D_out,) or None."""
    x, w = as_tensor(x), as_tensor(w)
    if x.shape[-1] != w.shape[1]:
        raise ValueError(f"linear shape mismatch: input {x.shape}, weight {w.shape}")
    out = np.matmul(x.data, w.data.T)
    if b is not None:
        b = as_tensor(b)
        out = out + b.data

    parents = (x, w) if b is None else (x, w, b)

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        x2 = x.data.reshape(-1, x.data.shape[-1])
        _accum(w, g2.T @ x2)
        if b is not None:
            _accum(b, g2.sum(axis=0))
        _accum(x, np.matmul(g, w.data))

    return make_node(out, parents, backward)


# -- LSTM --------------------------------------------------------------------------


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


def lstm_cell_seq(x, w_ih, w_hh, b) -> Tensor:
    """One direction of one LSTM layer over a whole sequence.

    x: (B, T, D); w_ih: (4H, D); w_hh: (4H, H); b: (4H,). Gate order i, f,
    g, o. Initial hidden and cell state are zero. Returns (B, T, H).

    Each step activates its (B, 4H) gate row in place with one tanh, using
    sigmoid(z) = 1/2 + tanh(z/2)/2 for i, f and o (_activate_gates). The
    gate, cell, tanh(cell) and hidden buffers are time-major, (T, B, .), so
    every step reads and writes contiguous slabs. The full BPTT backward is
    written out by hand.
    """
    x, w_ih, w_hh, b = as_tensor(x), as_tensor(w_ih), as_tensor(w_hh), as_tensor(b)
    if x.ndim != 3:
        raise ValueError(f"lstm_cell_seq expects (B,T,D), got {x.shape}")
    four_h, d_in = w_ih.shape
    if four_h % 4 != 0:
        raise ValueError("w_ih first dim must be 4*hidden")
    h_size = four_h // 4
    if w_hh.shape != (four_h, h_size) or b.shape != (four_h,):
        raise ValueError("lstm parameter shape mismatch")
    if x.shape[-1] != d_in:
        raise ValueError(f"lstm input width {x.shape[-1]} does not match w_ih {w_ih.shape}")
    bsz, t_len, _ = x.shape
    dtype = x.data.dtype
    sl_i, sl_f = slice(0, h_size), slice(h_size, 2 * h_size)
    sl_g, sl_o = slice(2 * h_size, 3 * h_size), slice(3 * h_size, four_h)

    # input projection for every step at once, straight into the gate buffer
    x_tm = x.data.transpose(1, 0, 2).reshape(t_len * bsz, d_in)
    gates = np.matmul(x_tm, w_ih.data.T).reshape(t_len, bsz, four_h)
    gates += b.data
    del x_tm
    w_hh_t = np.ascontiguousarray(w_hh.data.T)
    scale, shift = _gate_constants(h_size, dtype)
    cells = np.empty((t_len, bsz, h_size), dtype=dtype)
    tanh_c = np.empty_like(cells)
    hs = np.empty_like(cells)
    rec = np.empty((bsz, four_h), dtype=dtype)
    for t in range(t_len):
        z = gates[t]
        if t > 0:
            np.matmul(hs[t - 1], w_hh_t, out=rec)
            z += rec
        _activate_gates(z, scale, shift)
        np.multiply(z[:, sl_i], z[:, sl_g], out=cells[t])
        if t > 0:
            cells[t] += z[:, sl_f] * cells[t - 1]
        np.tanh(cells[t], out=tanh_c[t])
        np.multiply(z[:, sl_o], tanh_c[t], out=hs[t])
    out = np.ascontiguousarray(hs.transpose(1, 0, 2))

    def backward(grad_out):
        g_tm = grad_out.transpose(1, 0, 2)
        dz_all = np.empty((t_len, bsz, four_h), dtype=grad_out.dtype)
        dh_next = np.zeros((bsz, h_size), dtype=grad_out.dtype)
        dc_next = np.zeros_like(dh_next)
        for t in range(t_len - 1, -1, -1):
            z, tc, dz = gates[t], tanh_c[t], dz_all[t]
            i, f, g_, o = z[:, sl_i], z[:, sl_f], z[:, sl_g], z[:, sl_o]
            dh = g_tm[t] + dh_next
            dc = dc_next + dh * o * (1.0 - tc * tc)
            dz[:, sl_i] = dc * g_ * i * (1.0 - i)
            dz[:, sl_f] = dc * cells[t - 1] * f * (1.0 - f) if t > 0 else 0.0
            dz[:, sl_g] = dc * i * (1.0 - g_ * g_)
            dz[:, sl_o] = dh * tc * o * (1.0 - o)
            dh_next = dz @ w_hh.data
            dc_next = dc * f
        dz2 = dz_all.reshape(t_len * bsz, four_h)
        # h_prev is zero at t = 0, so step 0 adds nothing to dw_hh
        _accum(w_hh, dz2[bsz:].T @ hs[:-1].reshape(-1, h_size))
        _accum(b, dz2.sum(axis=0))
        _accum(w_ih, dz2.T @ x.data.transpose(1, 0, 2).reshape(t_len * bsz, d_in))
        _accum(x, np.matmul(dz_all, w_ih.data).transpose(1, 0, 2))

    return make_node(out, (x, w_ih, w_hh, b), backward)


def init_lstm_params(
    rng: np.random.Generator,
    input_size: int,
    hidden_size: int,
    layers: int,
    dtype=np.float32,
) -> dict:
    """Named parameter dict for a stacked bidirectional LSTM."""
    params = {}
    for layer in range(layers):
        d_in = input_size if layer == 0 else 2 * hidden_size
        for dr in ("fw", "bw"):
            key = f"lstm.l{layer}.{dr}"
            params[f"{key}.w_ih"] = uniform_param(rng, (4 * hidden_size, d_in), d_in, dtype)
            params[f"{key}.w_hh"] = uniform_param(
                rng, (4 * hidden_size, hidden_size), hidden_size, dtype
            )
            params[f"{key}.b"] = zeros_param((4 * hidden_size,), dtype)
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
        key = f"lstm.l{layer}"
        fw = lstm_cell_seq(
            out, params[f"{key}.fw.w_ih"], params[f"{key}.fw.w_hh"], params[f"{key}.fw.b"]
        )
        rev = out[:, ::-1]
        bw = lstm_cell_seq(
            rev, params[f"{key}.bw.w_ih"], params[f"{key}.bw.w_hh"], params[f"{key}.bw.b"]
        )
        out = concat([fw, bw[:, ::-1]], axis=2)
    if squeeze:
        out = out.reshape(tuple(out.shape[1:]))
    return out
