"""Convolutional recurrent network for spectrogram-to-spectrogram mapping.

Encoder: six conv blocks (conv + batchnorm + PReLU), kernel (1, 3),
stride (1, 2), so only the frequency axis is downsampled: the front end's
FREQ_BINS (256) -> 128 -> 64 -> 32 -> 16 -> 8 -> 4. The bottleneck flattens
(C6, T, F_b) to a batch of one (T, C6*F_b) sequence for a 2-layer
bidirectional LSTM whose output width equals its input width, then
reshapes back. Two mirrored deconv decoders (one for the real plane, one
for the imaginary) consume skip connections from the encoder,
concatenated on the channel axis; the last block takes no skip and
restores the full frequency axis.

The output is a mask or an estimate only by use: apply_crn_mask applies it
to the input as a complex ratio mask (Stage I, filter-and-sum); Stage II
takes it as the estimate itself.

All channel counts scale by a rational width multiplier so the same
topology runs desk-sized. Batchnorm takes its mode from the tape: it uses
the sample's statistics when the tape records a block's parameters and
the running ones otherwise, so no function here takes a mode flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import layers as L
from .dsp import FFT_SIZE
from .tensor import as_tensor, concat, records

BASE_CHANNELS = (16, 32, 64, 128, 256, 256)
KERNEL = (1, 3)  # layers.conv2d/deconv2d take only this kernel shape
LSTM_LAYERS = 2
ENCODER_DEPTH = 6
DECODERS = ("dec_re", "dec_im")
FREQ_BINS = FFT_SIZE // 2  # the bins of every spectrogram the front end makes


@dataclass
class CrnConfig:
    c_in: int
    c_out: int
    width_scale: Fraction = Fraction(1)

    def __post_init__(self):
        self.width_scale = Fraction(self.width_scale)
        if self.c_in <= 0 or self.c_out <= 0:
            raise ValueError("channel counts must be positive")
        if self.c_out % 2 != 0:
            raise ValueError("c_out is the total over both decoder branches and must be even")
        for base in BASE_CHANNELS:
            scaled = base * self.width_scale
            if scaled.denominator != 1 or scaled <= 0:
                raise ValueError(
                    f"width_scale {self.width_scale} does not yield integer channels for base {base}"
                )
        if self.lstm_input % 2 != 0:
            raise ValueError("bottleneck width must be even to split across LSTM directions")

    @property
    def ladder(self) -> tuple:
        return tuple(int(b * self.width_scale) for b in BASE_CHANNELS)

    @property
    def f_bottleneck(self) -> int:
        return FREQ_BINS >> ENCODER_DEPTH

    @property
    def lstm_input(self) -> int:
        return self.ladder[-1] * self.f_bottleneck

    @property
    def lstm_hidden(self) -> int:
        # per direction; the bidirectional output then matches lstm_input
        # (512 per direction at width 1 with 256 bins)
        return self.lstm_input // 2

    def decoder_in_channels(self) -> tuple:
        """Per-block decoder input channels (skip concatenation included)."""
        ladder = self.ladder
        ins = [2 * ladder[5]]
        for i in range(4, 0, -1):
            ins.append(2 * ladder[i])
        ins.append(ladder[0])  # last block takes no skip
        return tuple(ins)

    def decoder_out_channels(self) -> tuple:
        ladder = self.ladder
        return tuple(list(ladder[4::-1]) + [self.c_out // 2])


@dataclass
class CrnParams:
    """Named parameter tensors plus non-trainable batchnorm buffers."""

    config: CrnConfig
    params: dict = field(default_factory=dict)
    buffers: dict = field(default_factory=dict)


def _init_block(params, buffers, rng, name, w_shape, fan_in, out_ch):
    params[f"{name}.w"] = L.uniform_param(rng, w_shape, fan_in)
    params[f"{name}.bn.gamma"] = L.full_param((out_ch,), 1.0)
    params[f"{name}.bn.beta"] = L.zeros_param((out_ch,))
    params[f"{name}.prelu.a"] = L.full_param((out_ch,), 0.25)
    buffers[f"{name}.bn.mean"] = np.zeros(out_ch, dtype=np.float32)
    buffers[f"{name}.bn.var"] = np.ones(out_ch, dtype=np.float32)


def init_crn_params(config: CrnConfig, rng: np.random.Generator) -> CrnParams:
    params: dict = {}
    buffers: dict = {}
    ladder = config.ladder
    kt, kf = KERNEL

    c_prev = config.c_in
    for i, c in enumerate(ladder):
        _init_block(params, buffers, rng, f"enc{i}", (c, c_prev, kt, kf), c_prev * kt * kf, c)
        c_prev = c

    params.update(L.init_lstm_params(rng, config.lstm_input, config.lstm_hidden, LSTM_LAYERS))

    ins = config.decoder_in_channels()
    outs = config.decoder_out_channels()
    for branch in DECODERS:
        for i, (ci, co) in enumerate(zip(ins, outs)):
            _init_block(params, buffers, rng, f"{branch}{i}", (ci, co, kt, kf), ci * kt * kf, co)
    return CrnParams(config, params, buffers)


def _block(layer, x, p: CrnParams, name: str):
    """layer, then batchnorm and PReLU. layer is conv2d (F -> F/2) or
    deconv2d (F -> 2F), both with the fixed (1, 3) kernel, frequency
    stride 2 and padding 1 that layers.py defines. The layer has no bias
    of its own: batchnorm subtracts any per-channel constant again.

    Batchnorm runs on the sample's own statistics, updating the running
    buffers, exactly when the tape records the block's parameters.
    Otherwise it is the fixed per-channel map (h - mean) * s + beta with
    s = gamma / sqrt(var + eps), folded into the layer: one conv with
    weight w * s and bias (-mean) * s + beta, and the buffers are only
    read.
    """
    w, gamma, beta = (as_tensor(p.params[f"{name}.{k}"]) for k in ("w", "bn.gamma", "bn.beta"))
    mean, var = p.buffers[f"{name}.bn.mean"], p.buffers[f"{name}.bn.var"]
    if records((w, gamma, beta)):
        h = L.batchnorm2d(layer(x, w, np.zeros_like(gamma.data)), gamma, beta, mean, var)
    else:
        dtype = gamma.dtype
        s = gamma.data * (1.0 / np.sqrt(var.astype(dtype) + L.BN_EPS))
        # output channels are axis 0 of a conv2d kernel, axis 1 of a deconv2d one
        s_w = s.reshape((1, -1, 1, 1) if layer is L.deconv2d else (-1, 1, 1, 1))
        h = layer(x, w.data * s_w, (-mean.astype(dtype)) * s + beta.data)
    return L.prelu(h, p.params[f"{name}.prelu.a"])


def crn_forward(x, p: CrnParams):
    """Run the CRN on x: Tensor or array (C_in, T, FREQ_BINS).

    Returns the (re, im) pair of (c_out / 2, T, FREQ_BINS) tensors from
    the two decoder branches.
    """
    cfg = p.config
    x = as_tensor(x)
    if x.ndim != 3 or x.shape[0] != cfg.c_in or x.shape[2] != FREQ_BINS:
        raise ValueError(
            f"crn_forward expects ({cfg.c_in}, T, {FREQ_BINS}) input, got {x.shape}"
        )
    t_len = x.shape[1]
    if t_len == 0:
        raise ValueError("empty time axis")

    skips = []
    h = x
    for i in range(ENCODER_DEPTH):
        h = _block(L.conv2d, h, p, f"enc{i}")
        skips.append(h)

    c6 = cfg.ladder[-1]
    fb = cfg.f_bottleneck
    seq = h.transpose(1, 0, 2).reshape(1, t_len, c6 * fb)
    seq = L.lstm_seq(seq, p.params)
    h = seq.reshape(t_len, c6, fb).transpose(1, 0, 2)

    outs = []
    for branch in DECODERS:
        d = h
        for i in range(ENCODER_DEPTH):
            if i < ENCODER_DEPTH - 1:
                d = concat([d, skips[ENCODER_DEPTH - 1 - i]], axis=0)
            d = _block(L.deconv2d, d, p, f"{branch}{i}")
        outs.append(d)
    return outs[0], outs[1]


def apply_crn_mask(y_re, y_im, p: CrnParams):
    """Run the CRN on the (P, T, F) planes y_re/y_im stacked on the
    channel axis, reals first, and apply its output to them as a complex
    ratio mask. Returns the masked (re, im) pair, each (P, T, F)."""
    y_re, y_im = as_tensor(y_re, np.float32), as_tensor(y_im, np.float32)
    m_re, m_im = crn_forward(concat([y_re, y_im], axis=0), p)
    return m_re * y_re - m_im * y_im, m_re * y_im + m_im * y_re
