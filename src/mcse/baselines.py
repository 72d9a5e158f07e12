"""Classical multichannel baselines: delay-and-sum, WPE dereverberation
and mask-driven MVDR beamforming. (The learned filter-and-sum baseline is
Stage I of the two-stage model: pipeline.filter_and_sum.)

All three consume and produce Spectrograms. WPE and MVDR work per
frequency band on the (T, P) matrix of that band's frames. WPE and
frame-mode MVDR split their work in two through runtime.pair (one half on
its worker thread when there is one); the split does not change the
arithmetic, so their output bytes do not depend on it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dsp import Spectrogram, TimeSignal, istft, shift_fractional, stft
from .runtime import pair
from .simkit import SPEED_OF_SOUND

WPE_TAPS = 10
WPE_DELAY = 3
WPE_ITERATIONS = 3
WPE_VARIANCE_FLOOR = 1e-10
MVDR_LOADING = 1e-6
MVDR_FORGETTING = 0.98
MVDR_POWER_STEPS = 2  # power steps per frame that track the frame-mode steering
MVDR_BLOCK = 8  # frames per frame-mode block handed to the worker


# -- delay and sum ------------------------------------------------------------------


def delay_and_sum(y: Spectrogram, delays) -> Spectrogram:
    """Average the channels after removing per-channel delays (in samples,
    fractional allowed). Alignment runs in the time domain, where a
    fractional shift is exact for band-limited content; per-frame phase
    ramps would wrap inside the analysis window."""
    delays = np.asarray(delays, dtype=np.float64)
    if delays.shape != (y.channels,):
        raise ValueError(f"need one delay per channel, got {delays.shape} for {y.channels}")
    length = (y.frames - 1) * y.hop + y.frame_size
    time = istft(y, length=length)
    acc = np.zeros(length)
    for p in range(y.channels):
        acc += shift_fractional(time.samples[p], -delays[p])
    acc /= y.channels
    return stft(TimeSignal(acc[None, :], y.sample_rate), y.frame_size, y.hop, y.fft_size)


def geometry_delays(mic_positions: np.ndarray, source_position, sample_rate: int) -> np.ndarray:
    """Direct-path delays in samples, offset so the earliest channel is 0."""
    mics = np.asarray(mic_positions, dtype=np.float64)
    src = np.asarray(source_position, dtype=np.float64)
    dist = np.linalg.norm(mics - src[None, :], axis=1)
    delays = dist / SPEED_OF_SOUND * sample_rate
    return delays - delays.min()


# -- weighted prediction error dereverberation -----------------------------------------


def wpe(
    y: Spectrogram,
    taps: int = WPE_TAPS,
    delay: int = WPE_DELAY,
    iterations: int = WPE_ITERATIONS,
) -> Spectrogram:
    """Multichannel linear-prediction dereverberation, one predictor per
    frequency band. taps=0 returns the input unchanged.

    Each iteration re-estimates the time-varying source variance from the
    current estimate (floored), solves the variance-weighted normal
    equations for the prediction filters, and subtracts the prediction.
    Singular normal equations fall back to increased diagonal loading with
    a warning.

    The bands are split in two halves: the calling thread runs the lower
    half while the runtime.pair worker runs the upper half, each through
    the same per-band loop. An unsolvable band raises once both halves are
    done.
    """
    if taps < 0 or delay < 1 or iterations < 1:
        raise ValueError("need taps >= 0, delay >= 1, iterations >= 1")
    if taps == 0:
        return y.like(y.re.copy(), y.im.copy())
    z = y.to_complex()  # (P, T, F)
    p, t_len, f_bins = z.shape
    if t_len <= delay + taps:
        raise ValueError("utterance too short for the requested taps and delay")
    out = z.copy()
    kp = taps * p
    eye = np.eye(kp)

    def bands(lo, hi):
        for f in range(lo, hi):
            yf = z[:, :, f].T  # (T, P)
            # stacked delayed context for each frame: (T, taps*P)
            ctx = np.zeros((t_len, kp), dtype=np.complex128)
            for k in range(taps):
                shift = delay + k
                ctx[shift:, k * p : (k + 1) * p] = yf[: t_len - shift, :]
            xf = yf.copy()
            for _ in range(iterations):
                lam = np.maximum(np.mean(np.abs(xf) ** 2, axis=1), WPE_VARIANCE_FLOOR)
                cwh = (ctx / lam[:, None]).conj().T
                g = _solve_loaded(cwh @ ctx, cwh @ yf, f, eye)  # (KP, KP), (KP, P)
                xf = yf - ctx @ g
            out[:, :, f] = xf.T

    half = (f_bins + 1) // 2
    pair(partial(bands, 0, half), partial(bands, half, f_bins))
    return y.like(out.real.copy(), out.imag.copy())


def _solve_loaded(r: np.ndarray, rhs: np.ndarray, band: int, eye: np.ndarray) -> np.ndarray:
    base = max(np.trace(r).real / max(r.shape[0], 1), 1.0)
    load = 1e-10 * base
    for attempt in range(7):
        try:
            return np.linalg.solve(r + load * eye, rhs)
        except np.linalg.LinAlgError:
            if attempt == 0:
                warnings.warn(
                    f"WPE normal equations singular at band {band}; increasing diagonal loading"
                )
            load *= 1e3
    raise np.linalg.LinAlgError(f"WPE normal equations unsolvable at band {band}")


# -- mask-driven MVDR ----------------------------------------------------------------------


@dataclass
class CovarianceEstimate:
    """Running per-band speech/noise spatial covariances, (F, P, P) complex
    Hermitian: block() accumulates a whole utterance; empty() starts the
    frame-recursive estimate that update() advances with exponential
    forgetting."""

    speech: np.ndarray
    noise: np.ndarray
    forgetting: float = MVDR_FORGETTING

    @classmethod
    def empty(cls, f_bins: int, p: int, forgetting: float = MVDR_FORGETTING) -> "CovarianceEstimate":
        eye = np.tile(np.eye(p, dtype=np.complex128)[None], (f_bins, 1, 1))
        return cls(eye * 1e-8, eye * 1e-8, forgetting)

    def update(self, y_frame: np.ndarray, speech_mask: np.ndarray, noise_mask: np.ndarray):
        """Frame-recursive update. y_frame: (F, P); masks: (F,) in [0, 1]."""
        outer = y_frame[:, :, None] * y_frame[:, None, :].conj()
        lam = self.forgetting
        self.speech *= lam
        self.speech += (1.0 - lam) * speech_mask[:, None, None] * outer
        self.noise *= lam
        self.noise += (1.0 - lam) * noise_mask[:, None, None] * outer

    @classmethod
    def block(cls, z: np.ndarray, speech_mask: np.ndarray, noise_mask: np.ndarray) -> "CovarianceEstimate":
        """Utterance-level mask-weighted covariances. z: (P, T, F) complex;
        masks: (T, F)."""
        zf = np.transpose(z, (2, 1, 0))  # (F, T, P)
        ws = speech_mask.T[:, :, None]  # (F, T, 1)
        wn = noise_mask.T[:, :, None]
        denom_s = np.maximum(speech_mask.sum(axis=0), 1e-10)[:, None, None]
        denom_n = np.maximum(noise_mask.sum(axis=0), 1e-10)[:, None, None]
        cs = np.einsum("ftp,ftq->fpq", ws * zf, zf.conj()) / denom_s
        cn = np.einsum("ftp,ftq->fpq", wn * zf, zf.conj()) / denom_n
        return cls(cs, cn)


def steering_from_covariance(speech_cov: np.ndarray) -> np.ndarray:
    """Principal eigenvector per band, phase-normalized to channel 0."""
    vals, vecs = np.linalg.eigh(speech_cov)
    d = vecs[..., -1]  # eigenvector of the largest eigenvalue
    phase = np.exp(-1j * np.angle(d[..., [0]]))
    return d * phase


# below this the squared norm of a power step underflows and loses precision
_NORM_FLOOR = np.sqrt(np.finfo(np.float64).tiny)


def _track_steering(speech_cov: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Advance the steering d (F, P) toward the principal eigenvector of the
    updated speech covariance by MVDR_POWER_STEPS warm-started power steps,
    phase-normalized to channel 0 as steering_from_covariance is. A band
    whose product vanishes, e.g. a zero covariance, keeps its steering."""
    for _ in range(MVDR_POWER_STEPS):
        v = np.matmul(speech_cov, d[..., None])[..., 0]
        norm = np.linalg.norm(v, axis=-1, keepdims=True)
        live = norm > _NORM_FLOOR
        d = np.where(live, v / np.where(live, norm, 1.0), d)
    phase = np.exp(-1j * np.angle(d[..., [0]]))
    return d * phase


def _mvdr_weights(noise_cov: np.ndarray, d: np.ndarray, loading: float) -> np.ndarray:
    """w = Rn^-1 d / (d^H Rn^-1 d) per band, with relative diagonal loading."""
    p = noise_cov.shape[-1]
    tr = np.trace(noise_cov, axis1=-2, axis2=-1).real / p
    eye = np.eye(p)
    rn = noise_cov + loading * np.maximum(tr, 1e-30)[..., None, None] * eye
    num = np.linalg.solve(rn, d[..., None])[..., 0]
    den = np.einsum("...p,...p->...", d.conj(), num)
    return num / den[..., None]


def mask_mvdr(
    y: Spectrogram,
    speech_mask: np.ndarray,
    noise_mask: np.ndarray,
    mode: str = "block",
    forgetting: float = MVDR_FORGETTING,
) -> Spectrogram:
    """Minimum-variance distortionless-response beamforming with
    mask-weighted covariances. Masks are (T, F) values in [0, 1];
    steering is the principal eigenvector of the speech covariance,
    so the distortionless constraint w^H d = 1 holds by construction.
    Frame mode computes it in full at the first frame and then tracks it
    with warm-started power steps (_track_steering).

    Frame mode runs in blocks of MVDR_BLOCK frames, one runtime.pair call
    per block: the calling thread updates the covariances and tracks the
    steering of block k + 1 while the worker computes the weights and
    output of block k, each as one call batched over (frames, bands).
    """
    if not 0.0 < forgetting < 1.0:
        raise ValueError("forgetting factor must lie in (0, 1)")
    speech_mask = np.asarray(speech_mask, dtype=np.float64)
    noise_mask = np.asarray(noise_mask, dtype=np.float64)
    expected = (y.frames, y.bins)
    if speech_mask.shape != expected or noise_mask.shape != expected:
        raise ValueError(f"masks must be (T, F) = {expected}")
    for name, m in (("speech", speech_mask), ("noise", noise_mask)):
        if m.min() < 0.0 or m.max() > 1.0:
            raise ValueError(f"{name} mask must lie in [0, 1]")
        if m.sum() == 0.0:
            raise ValueError(f"{name} mask is all zero; covariance undefined")
    z = y.to_complex()  # (P, T, F)
    p, t_len, f_bins = z.shape

    if mode == "block":
        cov = CovarianceEstimate.block(z, speech_mask, noise_mask)
        d = steering_from_covariance(cov.speech)
        w = _mvdr_weights(cov.noise, d, MVDR_LOADING)  # (F, P)
        out = np.einsum("fp,ptf->tf", w.conj(), z)
    elif mode == "frame":
        cov = CovarianceEstimate.empty(f_bins, p, forgetting)
        out = np.empty((t_len, f_bins), dtype=np.complex128)
        frames = z.transpose(1, 2, 0)  # (T, F, P)
        d = None

        def track(t0):
            """Noise covariances and steering of the block from frame t0."""
            nonlocal d
            t1 = min(t0 + MVDR_BLOCK, t_len)
            noise = np.empty((t1 - t0, f_bins, p, p), dtype=np.complex128)
            steer = np.empty((t1 - t0, f_bins, p), dtype=np.complex128)
            for t in range(t0, t1):
                cov.update(frames[t], speech_mask[t], noise_mask[t])
                if d is None:
                    d = steering_from_covariance(cov.speech)
                else:
                    d = _track_steering(cov.speech, d)
                noise[t - t0] = cov.noise
                steer[t - t0] = d
            return noise, steer

        def beamform(t0, noise, steer):
            w = _mvdr_weights(noise, steer, MVDR_LOADING)
            out[t0 : t0 + len(w)] = np.einsum("tfp,tfp->tf", w.conj(), frames[t0 : t0 + len(w)])

        block = track(0)
        for t0 in range(0, t_len, MVDR_BLOCK):
            nxt = min(t0 + MVDR_BLOCK, t_len)  # the last block has no successor: 0 frames
            block, _ = pair(partial(track, nxt), partial(beamform, t0, *block))
    else:
        raise ValueError(f"mode must be 'block' or 'frame', got {mode!r}")
    return y.like(out.real[None].copy(), out.imag[None].copy())


def oracle_masks(clean: Spectrogram, interference: Spectrogram):
    """Magnitude-ratio masks from rendered components, averaged over
    channels: speech_mask = |S|^2 / (|S|^2 + |N|^2)."""
    es = (clean.magnitude() ** 2).mean(axis=0)
    en = (interference.magnitude() ** 2).mean(axis=0)
    total = es + en
    live = total > 0
    sm = np.zeros_like(es)
    sm[live] = es[live] / total[live]
    return sm, 1.0 - sm
