"""Objective evaluation: STOI, word error rate, and the combined score.

STOI follows the classic short-time objective intelligibility procedure:
both signals are resampled to 10 kHz, frames whose clean-signal energy
falls more than 40 dB below the loudest frame are discarded from both
signals, the remainder is analyzed with 256-sample half-overlapped Hann
frames (512-point FFT) grouped into 15 one-third-octave bands starting at
150 Hz, and the score is the average over bands and 384 ms (30-frame)
segments of the correlation between the clean band envelope and the
normalized, clipped degraded envelope. The clipping bounds the degraded
envelope at -15 dB signal-to-distortion per sample.

The combined challenge score is (STOI + (1 - WER)) / 2 on [0, 1] inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

STOI_FS = 10000
STOI_FRAME = 256
STOI_HOP = 128
STOI_FFT = 512
STOI_BANDS = 15
STOI_MIN_CF = 150.0
STOI_SEG = 30  # frames per segment, 384 ms at 10 kHz
STOI_DYN_RANGE = 40.0
STOI_BETA = -15.0
_EPS = 1e-12


@lru_cache(maxsize=8)  # one entry per input sample rate
def _polyphase_filter(up: int, down: int):
    """(half, phases) of the low-pass that scipy.signal.resample_poly
    designs by default: 2 half + 1 taps, half = 10 max(up, down), of a
    Kaiser-windowed (beta 5) sinc cut off at 1 / max(up, down) of Nyquist,
    summing to up. Row p of the (up, taps) phases holds taps p, p + up,
    p + 2 up, ... in reverse, zero-padded to a common length. Read-only,
    as every caller shares it."""
    half = 10 * max(up, down)
    cutoff = 1.0 / max(up, down)
    m = np.arange(2 * half + 1) - float(half)
    h = cutoff * np.sinc(cutoff * m) * np.kaiser(2 * half + 1, 5.0)
    h /= h.sum()
    h *= up
    taps = -(-h.size // up)
    phases = np.zeros(taps * up)
    phases[: h.size] = h
    phases = np.ascontiguousarray(phases.reshape(taps, up).T[:, ::-1])
    phases.setflags(write=False)
    return half, phases


def _resample(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """x (1-D) resampled by up / down (coprime) as scipy.signal.resample_poly
    does with its default filter and zero padding: ceil(len(x) up / down)
    output samples, each the up-sampled signal filtered at (k down + half),
    which only one phase of the filter touches."""
    half, phases = _polyphase_filter(up, down)
    taps = phases.shape[1]
    n_out = -(-x.shape[0] * up // down)
    # output k reads x[b - taps + 1 : b + 1] for b = (k down + half) // up;
    # x is padded so every such window exists
    last = ((n_out - 1) * down + half) // up
    xpad = np.zeros(taps - 1 + max(x.shape[0], last + 1))
    xpad[taps - 1 : taps - 1 + x.shape[0]] = x
    windows = sliding_window_view(xpad, taps)
    y = np.empty(n_out)
    # the outputs k = r, r + up, r + 2 up, ... share one phase, and their
    # windows start down samples apart
    for r in range(up):
        first, phase = divmod(r * down + half, up)
        out = y[r::up]
        out[:] = windows[first::down][: out.shape[0]] @ phases[phase]
    return y


def _third_octave_matrix(fs: int, fft_size: int, bands: int, min_cf: float) -> np.ndarray:
    """Boolean band-grouping matrix (bands, fft_size//2 + 1). Band edges are
    snapped to the nearest FFT bin so every band is a contiguous bin run."""
    f = np.linspace(0, fs / 2, fft_size // 2 + 1)
    cf = min_cf * 2.0 ** (np.arange(bands) / 3.0)
    lo = cf * 2.0 ** (-1.0 / 6.0)
    hi = cf * 2.0 ** (1.0 / 6.0)
    h = np.zeros((bands, f.shape[0]))
    for j in range(bands):
        a = int(np.argmin(np.abs(f - lo[j])))
        b = int(np.argmin(np.abs(f - hi[j])))
        h[j, a:b] = 1.0
    return h


def _frames(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    n = 1 + (x.shape[0] - frame) // hop
    idx = np.arange(frame)[None, :] + hop * np.arange(n)[:, None]
    return x[idx]


def _hanning(size: int) -> np.ndarray:
    # symmetric Hann with nonzero endpoints, the STOI reference convention
    return np.hanning(size + 2)[1:-1]


def _remove_silent_frames(ref: np.ndarray, deg: np.ndarray, dyn_range: float,
                          frame: int, hop: int):
    w = _hanning(frame)
    rf = _frames(ref, frame, hop) * w
    df = _frames(deg, frame, hop) * w
    energy = 20.0 * np.log10(np.linalg.norm(rf, axis=1) + _EPS)
    # the threshold is relative to the loudest frame, so an all-silent
    # reference would keep everything; catch it at the eps floor instead
    if energy.max() <= 20.0 * np.log10(_EPS) + 1.0:
        raise ValueError("reference signal is silent; STOI is undefined")
    keep = energy > energy.max() - dyn_range
    rf, df = rf[keep], df[keep]
    n_out = (rf.shape[0] - 1) * hop + frame
    r = np.zeros(n_out)
    d = np.zeros(n_out)
    for m in range(rf.shape[0]):
        lo = m * hop
        r[lo : lo + frame] += rf[m]
        d[lo : lo + frame] += df[m]
    return r, d


def _band_envelopes(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    w = _hanning(STOI_FRAME)
    fr = _frames(x, STOI_FRAME, STOI_HOP) * w
    spec = np.fft.rfft(fr, n=STOI_FFT, axis=1)
    return np.sqrt(np.maximum(h @ (np.abs(spec) ** 2).T, 0.0))  # (bands, frames)


def stoi(ref: np.ndarray, deg: np.ndarray, fs: int) -> float:
    """Short-time objective intelligibility of `deg` against clean `ref`.

    Signals must be 1-D, equal length, and long enough to hold at least one
    384 ms segment after silent-frame removal.
    """
    ref = np.asarray(ref, dtype=np.float64).squeeze()
    deg = np.asarray(deg, dtype=np.float64).squeeze()
    if ref.ndim != 1 or deg.ndim != 1:
        raise ValueError("stoi expects single-channel signals")
    if ref.shape != deg.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {deg.shape}")
    if fs <= 0:
        raise ValueError("sample rate must be positive")
    if fs != STOI_FS:
        g = int(np.gcd(int(fs), STOI_FS))
        ref = _resample(ref, STOI_FS // g, fs // g)
        deg = _resample(deg, STOI_FS // g, fs // g)
    if ref.shape[0] < STOI_FRAME:
        raise ValueError("signal shorter than one analysis frame")

    ref, deg = _remove_silent_frames(ref, deg, STOI_DYN_RANGE, STOI_FRAME, STOI_HOP)
    if ref.shape[0] < STOI_FRAME:
        raise ValueError("too little active signal for STOI")

    h = _third_octave_matrix(STOI_FS, STOI_FFT, STOI_BANDS, STOI_MIN_CF)
    x = _band_envelopes(ref, h)
    y = _band_envelopes(deg, h)
    n_frames = x.shape[1]
    if n_frames < STOI_SEG:
        raise ValueError(
            f"need at least {STOI_SEG} active frames for one STOI segment, got {n_frames}"
        )

    clip = 10.0 ** (-STOI_BETA / 20.0)
    total = 0.0
    count = 0
    for m in range(STOI_SEG, n_frames + 1):
        xs = x[:, m - STOI_SEG : m]
        ys = y[:, m - STOI_SEG : m]
        alpha = np.linalg.norm(xs, axis=1, keepdims=True) / (
            np.linalg.norm(ys, axis=1, keepdims=True) + _EPS
        )
        ysn = np.minimum(ys * alpha, xs * (1.0 + clip))
        xc = xs - xs.mean(axis=1, keepdims=True)
        yc = ysn - ysn.mean(axis=1, keepdims=True)
        num = (xc * yc).sum(axis=1)
        den = np.linalg.norm(xc, axis=1) * np.linalg.norm(yc, axis=1) + _EPS
        total += float((num / den).sum())
        count += STOI_BANDS
    return total / count


def wer(ref_tokens, est_tokens) -> float:
    """Word error rate: (substitutions + deletions + insertions) / len(ref),
    by minimum edit distance. May exceed 1 for insertion-heavy estimates."""
    ref = list(ref_tokens)
    est = list(est_tokens)
    if len(ref) == 0:
        raise ValueError("empty reference transcript")
    prev = list(range(len(est) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(est)
        for j, e in enumerate(est, start=1):
            sub = prev[j - 1] + (0 if r == e else 1)
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[-1] / len(ref)


def challenge_metric(stoi_score: float, wer_score: float) -> float:
    """Combined score (STOI + (1 - WER)) / 2; both inputs must lie in [0, 1]."""
    if not 0.0 <= stoi_score <= 1.0:
        raise ValueError(f"stoi must be in [0, 1], got {stoi_score}")
    if not 0.0 <= wer_score <= 1.0:
        raise ValueError(f"wer must be in [0, 1], got {wer_score}")
    return (stoi_score + (1.0 - wer_score)) / 2.0


@dataclass
class UtteranceScore:
    name: str
    stoi: float
    wer: float | None = None

    @property
    def combined(self) -> float | None:
        """Combined score with WER clamped into [0, 1]; None without a WER."""
        if self.wer is None:
            return None
        return challenge_metric(self.stoi, min(max(self.wer, 0.0), 1.0))


@dataclass
class MetricReport:
    utterances: list = field(default_factory=list)

    def add(self, name: str, stoi_score: float, wer_score: float | None = None):
        self.utterances.append(UtteranceScore(name, stoi_score, wer_score))

    @property
    def mean_stoi(self) -> float:
        self._require_nonempty()
        return float(np.mean([u.stoi for u in self.utterances]))

    @property
    def mean_wer(self) -> float | None:
        self._require_nonempty()
        vals = [u.wer for u in self.utterances if u.wer is not None]
        return float(np.mean(vals)) if vals else None

    @property
    def mean_combined(self) -> float | None:
        self._require_nonempty()
        vals = [u.combined for u in self.utterances if u.combined is not None]
        return float(np.mean(vals)) if vals else None

    def _require_nonempty(self):
        if not self.utterances:
            raise ValueError("empty report")

    def to_text(self) -> str:
        lines = []
        for u in self.utterances:
            wer_s = f"{u.wer:.4f}" if u.wer is not None else "-"
            comb_s = f"{u.combined:.4f}" if u.combined is not None else "-"
            lines.append(f"{u.name}  stoi={u.stoi:.4f}  wer={wer_s}  combined={comb_s}")
        mw = self.mean_wer
        mc = self.mean_combined
        lines.append(
            "aggregate  stoi={:.4f}  wer={}  combined={}".format(
                self.mean_stoi,
                f"{mw:.4f}" if mw is not None else "-",
                f"{mc:.4f}" if mc is not None else "-",
            )
        )
        return "\n".join(lines)

    def to_keyvalues(self) -> str:
        lines = []
        for u in self.utterances:
            lines.append(f"utterance.{u.name}.stoi = {u.stoi!r}")
            if u.wer is not None:
                lines.append(f"utterance.{u.name}.wer = {u.wer!r}")
                lines.append(f"utterance.{u.name}.combined = {u.combined!r}")
        lines.append(f"aggregate.stoi = {self.mean_stoi!r}")
        if self.mean_wer is not None:
            lines.append(f"aggregate.wer = {self.mean_wer!r}")
            lines.append(f"aggregate.combined = {self.mean_combined!r}")
        return "\n".join(lines)
