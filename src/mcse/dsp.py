"""STFT analysis/synthesis and spectrogram utilities.

Fixed operating point for the enhancement pipeline: 16 kHz audio, 512-sample
(32 ms) Hann frames with a 64-sample (4 ms) hop, 512-point FFT. The Nyquist
bin is dropped at analysis (spectrograms carry fft_size/2 bins) and a zero is
reinserted at synthesis, so content at exactly fs/2 is outside the transform's
passband. Synthesis is plain overlap-add normalized by the accumulated
window sum, which reconstructs interior samples exactly under the 1/8-hop
Hann overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000
FRAME_SIZE = 512
HOP_SIZE = 64
FFT_SIZE = 512

COMPRESS_EPS = 1e-8
STFT_BLOCK = 256  # frames that stft windows and transforms at a time


@dataclass
class TimeSignal:
    """Multichannel waveform, channels first: samples is (C, L)."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim == 1:
            self.samples = self.samples[None, :]
        if self.samples.ndim != 2:
            raise ValueError(f"TimeSignal expects (C, L) samples, got {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]


class SignalError(ValueError):
    """A signal an entry point refuses: wrong rate or channel count, or a
    non-finite sample."""


def check_signal(x: TimeSignal, name: str, sample_rate: int | None = None,
                 channels: int | None = None) -> TimeSignal:
    """x, if it is at sample_rate Hz with the given channel count (each
    checked only when given) and every sample is finite; else a
    SignalError whose message starts with name (a file path, or what the
    signal is) and, for a non-finite sample, gives the earliest one, in its
    lowest channel."""
    if sample_rate is not None and x.sample_rate != sample_rate:
        raise SignalError(f"{name}: sample rate {x.sample_rate} Hz, expected {sample_rate} Hz")
    if channels is not None and x.channels != channels:
        raise SignalError(f"{name}: channel count {x.channels}, expected {channels}")
    finite = np.isfinite(x.samples)
    if not finite.all():
        sample, channel = np.argwhere(~finite.T)[0]
        raise SignalError(f"{name}: non-finite sample ({x.samples[channel, sample]}) "
                          f"at channel {channel}, sample {sample}")
    return x


@dataclass
class Spectrogram:
    """Complex spectrogram stored as separate real/imag planes (C, T, F)."""

    re: np.ndarray
    im: np.ndarray
    frame_size: int = FRAME_SIZE
    hop: int = HOP_SIZE
    fft_size: int = FFT_SIZE
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.re = np.asarray(self.re)
        self.im = np.asarray(self.im)
        if self.re.shape != self.im.shape:
            raise ValueError("re/im shape mismatch")
        if self.re.ndim != 3:
            raise ValueError(f"Spectrogram planes must be (C, T, F), got {self.re.shape}")
        if self.re.shape[-1] != self.fft_size // 2:
            raise ValueError(
                f"Spectrogram carries fft_size/2={self.fft_size // 2} bins, got {self.re.shape[-1]}"
            )

    @property
    def channels(self) -> int:
        return self.re.shape[0]

    @property
    def frames(self) -> int:
        return self.re.shape[1]

    @property
    def bins(self) -> int:
        return self.re.shape[2]

    def to_complex(self) -> np.ndarray:
        return self.re + 1j * self.im

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.re, self.im)

    def like(self, re: np.ndarray, im: np.ndarray) -> "Spectrogram":
        """New spectrogram with this one's transform metadata."""
        return Spectrogram(re, im, self.frame_size, self.hop, self.fft_size, self.sample_rate)


def hann_window(size: int) -> np.ndarray:
    """Periodic Hann window (exact overlap-add constancy at size/2^k hops)."""
    n = np.arange(size)
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * n / size)).astype(np.float64)


def frame_count(length: int, frame_size: int, hop: int) -> int:
    if length < frame_size:
        raise ValueError(f"signal of {length} samples is shorter than one {frame_size}-sample frame")
    return 1 + int(np.ceil((length - frame_size) / hop))


def stft(x: TimeSignal, frame_size: int = FRAME_SIZE, hop: int = HOP_SIZE,
         fft_size: int = FFT_SIZE) -> Spectrogram:
    """Hann-windowed STFT of every channel. The tail is zero-padded to a
    whole number of frames; the Nyquist bin is dropped."""
    if fft_size != frame_size:
        raise ValueError("fft_size must equal frame_size for this transform")
    if hop <= 0 or frame_size % hop != 0:
        raise ValueError("hop must be positive and divide frame_size")
    n_frames = frame_count(x.length, frame_size, hop)
    padded_len = (n_frames - 1) * hop + frame_size
    data = np.zeros((x.channels, padded_len), dtype=np.float64)
    data[:, : x.length] = x.samples
    window = hann_window(frame_size)

    frames = np.lib.stride_tricks.sliding_window_view(data, frame_size, axis=-1)[:, ::hop]
    bins = fft_size // 2
    re = np.empty((x.channels, n_frames, bins))
    im = np.empty_like(re)
    # a block of frames at a time, so that no windowed or complex copy of
    # the whole signal's frames is ever held
    for t0 in range(0, n_frames, STFT_BLOCK):
        blk = slice(t0, t0 + STFT_BLOCK)
        spec = np.fft.rfft(frames[:, blk] * window, n=fft_size, axis=-1)
        re[:, blk] = spec.real[..., :bins]
        im[:, blk] = spec.imag[..., :bins]
    return Spectrogram(re, im, frame_size, hop, fft_size, x.sample_rate)


def istft(s: Spectrogram, length: int | None = None) -> TimeSignal:
    """Weighted overlap-add synthesis.

    Each frame is multiplied by the synthesis window (same Hann as the
    analysis side) and the sum is normalized by the squared-window
    overlap, which is the least-squares inverse. A consistent
    spectrogram round-trips exactly; a modified one (masked, filtered)
    has no guarantee of tapering at frame edges, so the normalizer is
    clamped from below at 1% of its peak. That keeps the first and last
    partially-covered samples bounded instead of dividing near-zero
    window values into them. A zero Nyquist bin is reinserted before
    the inverse FFT. `length` crops or zero-extends the result; default
    is the full padded extent.
    """
    n_frames = s.frames
    full = np.concatenate(
        [s.to_complex(), np.zeros((s.channels, n_frames, 1), dtype=np.complex128)], axis=-1
    )
    frames = np.fft.irfft(full, n=s.fft_size, axis=-1)[..., : s.frame_size]
    window = hann_window(s.frame_size)

    padded_len = (n_frames - 1) * s.hop + s.frame_size
    out = np.zeros((s.channels, padded_len), dtype=np.float64)
    wsum = np.zeros(padded_len, dtype=np.float64)
    for m in range(n_frames):
        lo = m * s.hop
        out[:, lo : lo + s.frame_size] += frames[:, m] * window
        wsum[lo : lo + s.frame_size] += window**2
    out /= np.maximum(wsum, 0.01 * wsum.max() + 1e-12)

    if length is not None:
        if length <= 0:
            raise ValueError("length must be positive")
        if length <= padded_len:
            out = out[:, :length]
        else:
            out = np.pad(out, ((0, 0), (0, length - padded_len)))
    return TimeSignal(out, s.sample_rate)


def shift_fractional(x: np.ndarray, delay: float) -> np.ndarray:
    """Shift a 1-D signal later by `delay` samples (may be fractional or
    negative) via an FFT phase ramp on a zero-padded copy.

    Exact for band-limited content that does not wrap past the padding.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    pad = int(np.ceil(abs(delay))) + 64
    buf = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    m = buf.shape[0]
    spec = np.fft.rfft(buf)
    nyq = spec[-1].real if m % 2 == 0 else None
    k = np.arange(spec.shape[0])
    spec *= np.exp(-2j * np.pi * k * delay / m)
    if nyq is not None:
        # the Nyquist component of a real signal can only be scaled, not
        # phase-shifted, without leaving the real subspace
        spec[-1] = nyq * np.cos(np.pi * delay)
    shifted = np.fft.irfft(spec, n=m)
    return shifted[pad : pad + n]
