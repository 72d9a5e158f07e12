"""Neural network layers on top of the autodiff Tensor.

Each layer is a function of a Tensor input plus explicit parameter Tensors,
with a hand-written backward. Convolutions operate on single samples laid
out channel-first as (C, T, F) and have one fixed geometry, the CRN's:
kernel (1, 3), stride (1, 2), padding (0, 1), and output padding (0, 1)
on the transposed conv. Recurrent/dense layers take (T, D) or a
band-batched (B, T, D).
"""

from __future__ import annotations

import contextvars
import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .tensor import Tensor, _accum, as_tensor, make_node, records


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
    # slope where x < 0 and 1 elsewhere, times x: the bytes of
    # np.where(neg, a_b * x, x) with one full-size temporary fewer
    out = np.where(neg, a_b, 1.0).astype(np.result_type(x.data, a_b), copy=False)
    np.multiply(out, x.data, out=out)

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

# Input-projection rows (steps x batch) per block when a forward keeps no
# history: 32 steps of the spatial filter's 256 bands, and the whole
# sequence of a CRN bottleneck (batch 1), where smaller blocks would
# re-read its large w_ih.
_CHUNK_ROWS = 8192


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    or None when this numpy has no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, ()
        put.restype, put.argtypes = None, (ctypes.c_int,)
        return get, put
    return None


def _bw_worker():
    """The one-thread pool that runs the bw direction of each bidirectional
    layer while the calling thread runs fw. None, and both directions run
    on the calling thread, when BLAS threads cannot be capped (they would
    compete with the pair) or when this process may use fewer than 2 CPUs."""
    if _BLAS_THREADS is None or len(os.sched_getaffinity(0)) < 2:
        return None
    return ThreadPoolExecutor(1, thread_name_prefix="lstm-bw")


def _renew_bw_worker():
    # a forked child inherits the pool but not its thread, and would wait
    # on its first job forever
    global _BW_WORKER
    _BW_WORKER = _bw_worker()


_BLAS_THREADS = _openblas_threads()
_BW_WORKER = _bw_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_bw_worker)


def _pair(fw, bw):
    """(fw(), bw()), with bw on the worker while fw runs here and BLAS on one
    thread until both are done; one after the other here without a worker.
    Returns or raises only once both are done."""
    if _BW_WORKER is None:
        return fw(), bw()
    get, put = _BLAS_THREADS
    threads = get()
    put(1)
    try:
        # the copied context carries the caller's np.errstate to the worker
        job = _BW_WORKER.submit(contextvars.copy_context().run, bw)
        try:
            first = fw()
        finally:
            wait((job,))
        return first, job.result()
    finally:
        put(threads)


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
    (_activate_gates). The gate, cell and tanh(cell) buffers are
    time-major, (T, B, .), so every step reads and writes contiguous slabs.
    With keep, the input projection runs over the whole sequence at once,
    every step's buffers are kept and the cache for _lstm_backward is
    returned. Without it, the projection runs in blocks of _CHUNK_ROWS
    rows through one scratch buffer, cell and tanh(cell) are 2-deep rings,
    and None is returned.
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
    tanh_c = np.empty_like(cells)
    hs = out.transpose(1, 0, 2)
    w_hh_t = np.ascontiguousarray(w_hh.T)
    scale, shift = _gate_constants(h_size, dtype)
    rec = np.empty((bsz, four_h), dtype=dtype)
    for t0 in range(0, t_len, chunk):
        n = min(chunk, t_len - t0)
        block = gates[:n]
        x_tm = x[:, t0 : t0 + n].transpose(1, 0, 2).reshape(n * bsz, d_in)
        np.matmul(x_tm, w_ih.T, out=block.reshape(n * bsz, four_h))
        block += b
        for t in range(t0, t0 + n):
            z, c, tc = block[t - t0], cells[t % depth], tanh_c[t % depth]
            if t > 0:
                np.matmul(hs[t - 1], w_hh_t, out=rec)
                z += rec
            _activate_gates(z, scale, shift)
            np.multiply(z[:, sl_i], z[:, sl_g], out=c)
            if t > 0:
                c += z[:, sl_f] * cells[(t - 1) % depth]
            np.tanh(c, out=tc)
            np.multiply(z[:, sl_o], tc, out=hs[t])
    return (x, w_ih, w_hh, gates, cells, tanh_c, hs) if keep else None


def _lstm_backward(cache, grad):
    """BPTT through one _lstm_forward(keep=True) direction for grad (B, T,
    H) of its h. Returns (dx, dw_ih, dw_hh, db)."""
    x, w_ih, w_hh, gates, cells, tanh_c, hs = cache
    t_len, bsz, four_h = gates.shape
    h_size = four_h // 4
    sl_i, sl_f = slice(0, h_size), slice(h_size, 2 * h_size)
    sl_g, sl_o = slice(2 * h_size, 3 * h_size), slice(3 * h_size, four_h)
    g_tm = grad.transpose(1, 0, 2)
    dz_all = np.empty((t_len, bsz, four_h), dtype=grad.dtype)
    dh_next = np.zeros((bsz, h_size), dtype=grad.dtype)
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
        dh_next = dz @ w_hh
        dc_next = dc * f
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
    done (_pair). Without numpy's OpenBLAS thread controls, or with fewer
    than 2 CPUs, both run here one after the other, through the same
    kernels and to the same bytes. Gradients are accumulated on the calling
    thread only. Under no_grad the forward keeps no per-step history.

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
    cache_fw, cache_bw = _pair(
        lambda: _lstm_forward(x.data, *w_fw, out[:, :, :h_fw], keep),
        lambda: _lstm_forward(x.data[:, ::-1], *w_bw, out[:, ::-1, h_fw:], keep),
    )

    def backward(grad):
        # bw takes its half in the output's dtype (a float32 copy under a
        # float64 loss) and fw takes its half as it comes, as when the two
        # directions were separate nodes and a reversing slice fed bw
        grad_bw = grad[:, ::-1, h_fw:].astype(out.dtype, copy=False)
        (dx, *d_fw), (dx_bw, *d_bw) = _pair(
            lambda: _lstm_backward(cache_fw, grad[:, :, :h_fw]),
            lambda: _lstm_backward(cache_bw, grad_bw),
        )
        for p, g in zip(parents[1:], d_fw + d_bw):
            _accum(p, g)
        dx += dx_bw[:, ::-1]
        _accum(x, dx)

    return make_node(out, parents, backward)


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
        fw, bw = (
            tuple(params[f"lstm.l{layer}.{dr}.{name}"] for name in ("w_ih", "w_hh", "b"))
            for dr in ("fw", "bw")
        )
        out = lstm_cell_seq(out, fw, bw)
    if squeeze:
        out = out.reshape(tuple(out.shape[1:]))
    return out
