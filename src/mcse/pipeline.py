"""Two-stage multichannel enhancement pipeline.

Stage I: a MIMO CRN sees the real and imaginary planes of all P mixture
channels (2P input channels, reals first) and emits a complex ratio mask
per channel; masked mixtures are the per-channel first-stage estimates.

Spatial filter: each frequency band is treated independently. The band's
P first-stage estimates form a (T, 2P) real/imag feature that is layer
normalized, run through a shared 2-layer bidirectional LSTM (hidden 64
per direction), and projected to the band's (T, 2) filtered real/imag
output. One parameter set serves every band; bands ride the batch axis.

Stage II: a MISO CRN takes the spatial filter output plus the reference
mixture channel (4 input channels) and directly maps to the clean
spectrogram estimate.

The learned filter-and-sum baseline is Stage I alone, its per-channel
estimates summed (filter_and_sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import layers as L
from . import runtime
from .crn import CrnConfig, CrnParams, apply_crn_mask, crn_forward, init_crn_params
from .dsp import (
    FFT_SIZE,
    FRAME_SIZE,
    HOP_SIZE,
    SAMPLE_RATE,
    Spectrogram,
    TimeSignal,
    check_signal,
    istft,
    stft,
)
from .tensor import as_tensor, concat, no_grad

SPATIAL_HIDDEN = 64
SPATIAL_LAYERS = 2


@dataclass(frozen=True)
class StftSettings:
    frame_size: int = FRAME_SIZE
    hop: int = HOP_SIZE
    fft_size: int = FFT_SIZE
    sample_rate: int = SAMPLE_RATE


@dataclass
class TwoStageModel:
    p_channels: int
    stage1: CrnParams
    spatial: dict
    stage2: CrnParams
    stft = StftSettings()  # the one front end every model shares

    def named_params(self) -> dict:
        out = {}
        for name, t in self.stage1.params.items():
            out[f"stage1.{name}"] = t
        for name, t in self.spatial.items():
            out[f"spatial.{name}"] = t
        for name, t in self.stage2.params.items():
            out[f"stage2.{name}"] = t
        return out

    def named_buffers(self) -> dict:
        out = {}
        for name, b in self.stage1.buffers.items():
            out[f"stage1.{name}"] = b
        for name, b in self.stage2.buffers.items():
            out[f"stage2.{name}"] = b
        return out

    def stage_params(self, stage: str) -> dict:
        if stage == "stage1":
            return {f"stage1.{k}": v for k, v in self.stage1.params.items()}
        if stage == "stage2":
            out = {f"spatial.{k}": v for k, v in self.spatial.items()}
            out.update({f"stage2.{k}": v for k, v in self.stage2.params.items()})
            return out
        if stage == "joint":
            return self.named_params()
        raise ValueError(f"unknown stage {stage!r}")


def init_spatial_params(p_channels: int, rng: np.random.Generator) -> dict:
    feat = 2 * p_channels
    params = {"ln.gamma": L.full_param((feat,), 1.0), "ln.beta": L.zeros_param((feat,))}
    params.update(L.init_lstm_params(rng, feat, SPATIAL_HIDDEN, SPATIAL_LAYERS))
    params["fc.w"] = L.uniform_param(rng, (2, 2 * SPATIAL_HIDDEN), 2 * SPATIAL_HIDDEN)
    params["fc.b"] = L.zeros_param((2,))
    return params


def init_two_stage_model(p_channels: int, width_scale=Fraction(1), freq_bins: int = 256,
                         seed: int = 0) -> TwoStageModel:
    if p_channels < 1:
        raise ValueError("p_channels must be at least 1")
    rng = np.random.default_rng(seed)
    stage1_cfg = CrnConfig(
        c_in=2 * p_channels, c_out=2 * p_channels, width_scale=width_scale, freq_bins=freq_bins,
    )
    stage2_cfg = CrnConfig(c_in=4, c_out=2, width_scale=width_scale, freq_bins=freq_bins)
    return TwoStageModel(
        p_channels=p_channels,
        stage1=init_crn_params(stage1_cfg, rng),
        spatial=init_spatial_params(p_channels, rng),
        stage2=init_crn_params(stage2_cfg, rng),
    )


# -- tensor-level forward passes (shared by training and inference) ---------------


def _check_spec(model: TwoStageModel, y: Spectrogram):
    if y.channels != model.p_channels:
        raise ValueError(f"model expects {model.p_channels} channels, got {y.channels}")
    if y.bins != model.stage1.config.freq_bins:
        raise ValueError(
            f"model expects {model.stage1.config.freq_bins} bins, got {y.bins}"
        )


def stage1_tensors(y_re, y_im, model: TwoStageModel, training: bool = False):
    """y_re/y_im: (P, T, F) arrays or Tensors. Returns masked-estimate
    tensors (s1_re, s1_im), each (P, T, F)."""
    return apply_crn_mask(y_re, y_im, model.stage1, training)


def spatial_tensors(s1_re, s1_im, model: TwoStageModel):
    """First-stage estimates (P, T, F), arrays or Tensors -> single-channel
    filtered (T, F) pair.

    Bands are stacked on the batch axis of the shared LSTM, so permuting
    input bands permutes output bands identically.
    """
    p = model.spatial
    # (P, T, F) -> (F, T, P), then features (F, T, 2P), reals first
    xr = as_tensor(s1_re, np.float32).transpose(2, 1, 0)
    xi = as_tensor(s1_im, np.float32).transpose(2, 1, 0)
    x = concat([xr, xi], axis=2)
    x = L.layernorm(x, p["ln.gamma"], p["ln.beta"])
    h = L.lstm_seq(x, p, SPATIAL_HIDDEN, SPATIAL_LAYERS)
    out = L.linear(h, p["fc.w"], p["fc.b"])  # (F, T, 2)
    f_re = out[:, :, 0].transpose(1, 0)
    f_im = out[:, :, 1].transpose(1, 0)
    return f_re, f_im


def stage2_tensors(f_re, f_im, y0_re, y0_im, model: TwoStageModel, training: bool = False):
    """Spatial-filter output (T, F) plus mixture reference channel (T, F),
    arrays or Tensors -> final estimate tensors (T, F) pair."""
    y0_re, y0_im = as_tensor(y0_re, np.float32), as_tensor(y0_im, np.float32)
    t_len, f_bins = f_re.shape
    stackable = [
        as_tensor(f_re, np.float32).reshape(1, t_len, f_bins),
        y0_re.reshape(1, t_len, f_bins),
        as_tensor(f_im, np.float32).reshape(1, t_len, f_bins),
        y0_im.reshape(1, t_len, f_bins),
    ]
    feat = concat(stackable, axis=0)  # reals first, then imaginaries
    e_re, e_im = crn_forward(feat, model.stage2, training=training)
    return e_re[0], e_im[0]


def two_stage_tensors(y_re, y_im, model: TwoStageModel, training: bool = False):
    y_re, y_im = as_tensor(y_re, np.float32), as_tensor(y_im, np.float32)
    s_re, s_im = stage1_tensors(y_re, y_im, model, training)
    f_re, f_im = spatial_tensors(s_re, s_im, model)
    return stage2_tensors(f_re, f_im, y_re.data[0], y_im.data[0], model, training)


# -- spectrogram-level public API ---------------------------------------------------


def _inference(like: Spectrogram, forward) -> Spectrogram:
    """forward() run under no_grad, its (re, im) tensors, (P, T, F) or one
    channel's (T, F), as a float64 Spectrogram with like's framing."""
    with no_grad():
        re, im = (t.data.reshape(-1, *t.shape[-2:]).astype(np.float64) for t in forward())
    return like.like(re, im)


def stage1_mimo(y: Spectrogram, model: TwoStageModel) -> Spectrogram:
    """Per-channel first-stage estimates of the clean reverberant image."""
    _check_spec(model, y)
    return _inference(y, lambda: stage1_tensors(y.re, y.im, model))


def filter_and_sum(y: Spectrogram, model: TwoStageModel) -> Spectrogram:
    """The learned filter-and-sum baseline: the first-stage estimates
    summed over channels (in float32, as the network computes)."""
    _check_spec(model, y)
    return _inference(y, lambda: [t.sum(axis=0) for t in stage1_tensors(y.re, y.im, model)])


def spatial_filter(s1: Spectrogram, model: TwoStageModel) -> Spectrogram:
    """Collapse P first-stage channels to one with the band-shared filter."""
    _check_spec(model, s1)
    return _inference(s1, lambda: spatial_tensors(s1.re, s1.im, model))


def stage2_miso(filtered: Spectrogram, y_ref: Spectrogram, model: TwoStageModel) -> Spectrogram:
    """Final single-channel estimate from the filtered signal and the
    reference mixture channel."""
    if filtered.channels != 1 or y_ref.channels != 1:
        raise ValueError("stage2_miso expects single-channel spectrograms")
    if filtered.re.shape != y_ref.re.shape:
        raise ValueError("filtered/reference shape mismatch")
    return _inference(filtered, lambda: stage2_tensors(
        filtered.re[0], filtered.im[0], y_ref.re[0], y_ref.im[0], model))


def enhance(x: TimeSignal, model: TwoStageModel) -> TimeSignal:
    """Full pipeline: multichannel waveform in, single-channel waveform out
    (same length, same sample rate). A signal at another rate or channel
    count than the model's, or with a non-finite sample, is refused
    (check_signal). Gives the heap pages it freed back to the system."""
    s = model.stft
    check_signal(x, "input", s.sample_rate, model.p_channels)
    y = stft(x, s.frame_size, s.hop, s.fft_size)
    est = _inference(y, lambda: two_stage_tensors(y.re, y.im, model))
    out = istft(est, length=x.length)
    del y, est
    runtime.malloc_trim(0)  # untrimmed, the same calls peaked 30-70 MB apart from run to run
    return out
