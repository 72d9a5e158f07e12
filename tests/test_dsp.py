"""Transforms and signal containers.

The STFT is checked against a naive per-frame DFT written with explicit
complex exponentials. Round trips use band-limited signals: the analysis
drops the topmost bin, so content parked exactly at half the sample rate
is not recoverable by design. The WAV reader is checked on files written
in each sample format it accepts.
"""

import numpy as np
import pytest
from scipy.io import wavfile

from mcse.dsp import (
    STFT_BLOCK,
    Spectrogram,
    TimeSignal,
    frame_count,
    hann_window,
    istft,
    shift_fractional,
    stft,
)
from mcse.wavio import read_wav

rng = np.random.default_rng(11)


def band_limited(channels: int, length: int, keep: float = 0.7) -> TimeSignal:
    """White noise lowpassed by zeroing the top (1-keep) of its spectrum."""
    x = rng.standard_normal((channels, length))
    spec = np.fft.rfft(x, axis=-1)
    cut = int(keep * spec.shape[-1])
    spec[:, cut:] = 0.0
    return TimeSignal(np.fft.irfft(spec, n=length, axis=-1), 16000)


def dft_oracle(x: np.ndarray, frame_size: int, hop: int):
    """Direct windowed DFT, one frame at a time, no FFT anywhere."""
    n_frames = 1 + int(np.ceil(max(x.shape[-1] - frame_size, 0) / hop))
    padded = np.zeros((x.shape[0], (n_frames - 1) * hop + frame_size))
    padded[:, : x.shape[-1]] = x
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_size) / frame_size)
    bins = frame_size // 2
    out = np.zeros((x.shape[0], n_frames, bins), dtype=np.complex128)
    n = np.arange(frame_size)
    for m in range(n_frames):
        seg = padded[:, m * hop : m * hop + frame_size] * w
        for k in range(bins):
            out[:, m, k] = np.sum(seg * np.exp(-2j * np.pi * k * n / frame_size), axis=-1)
    return out


class TestContainers:
    def test_time_signal_promotes_1d_and_rejects_3d(self):
        assert TimeSignal(np.zeros(100), 16000).samples.shape == (1, 100)
        with pytest.raises(ValueError):
            TimeSignal(np.zeros((2, 3, 4)), 16000)

    def test_spectrogram_rejects_wrong_bin_count(self):
        with pytest.raises(ValueError):
            Spectrogram(np.zeros((1, 4, 100)), np.zeros((1, 4, 100)), 512, 64, 512, 16000)

    def test_complex_round_trip(self):
        re, im = rng.standard_normal((1, 3, 256)), rng.standard_normal((1, 3, 256))
        s = Spectrogram(re, im, 512, 64, 512, 16000)
        z = s.to_complex()
        np.testing.assert_array_equal(z.real, re)
        np.testing.assert_array_equal(z.imag, im)

    def test_magnitude(self):
        s = Spectrogram(np.full((1, 1, 256), 3.0), np.full((1, 1, 256), 4.0), 512, 64, 512, 16000)
        np.testing.assert_allclose(s.magnitude(), 5.0)


class TestWindowAndFraming:
    def test_hann_periodic_endpoints(self):
        w = hann_window(8)
        assert w[0] == 0.0
        # periodic window: w[k] == w[N-k], so w[1] pairs with w[7]
        np.testing.assert_allclose(w[1], w[7])
        assert len(w) == 8

    def test_hann_overlap_sum_is_flat(self):
        # 1/8-hop shifted copies of a periodic hann sum to a constant
        w = hann_window(512)
        acc = np.zeros(512 + 7 * 64)
        for m in range(8):
            acc[m * 64 : m * 64 + 512] += w
        interior = acc[512 - 64 : 512]
        np.testing.assert_allclose(interior, interior[0], rtol=1e-12)

    def test_frame_count(self):
        assert frame_count(512, 512, 64) == 1
        assert frame_count(513, 512, 64) == 2
        assert frame_count(512 + 64, 512, 64) == 2
        with pytest.raises(ValueError):
            frame_count(100, 512, 64)


class TestStft:
    def test_matches_naive_dft(self):
        x = TimeSignal(rng.standard_normal((2, 200)), 16000)
        s = stft(x, frame_size=64, hop=16, fft_size=64)
        want = dft_oracle(x.samples, 64, 16)
        np.testing.assert_allclose(s.to_complex(), want, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("hop", [64, 256])
    @pytest.mark.parametrize("channels", [1, 8])
    @pytest.mark.parametrize("length", [512, 512 + 64 * 37 + 5, 32000, 512 + 64 * 255,
                                        512 + 64 * 256 - 17])
    def test_bytes_equal_gather_framing(self, hop, channels, length):
        """The strided framing, windowed and transformed STFT_BLOCK frames
        at a time, gives the bytes of one transform of the fancy-index
        gather of every frame: one frame, a length that is not a whole
        number of hops, a whole 2 s signal (493 frames at hop 64), and at
        hop 64 exactly one block and one block and a frame."""
        assert STFT_BLOCK == 256
        x = TimeSignal(rng.standard_normal((channels, length)), 16000)
        n_frames = frame_count(length, 512, hop)
        data = np.zeros((channels, (n_frames - 1) * hop + 512))
        data[:, :length] = x.samples
        idx = np.arange(512)[None, :] + hop * np.arange(n_frames)[:, None]
        want = np.fft.rfft(data[:, idx] * hann_window(512), n=512, axis=-1)[..., :256]
        s = stft(x, 512, hop, 512)
        assert s.frames == n_frames
        assert s.re.tobytes() == want.real.tobytes() and s.im.tobytes() == want.imag.tobytes()

    def test_shape_and_metadata(self):
        x = TimeSignal(rng.standard_normal((4, 16000)), 16000)
        s = stft(x)
        assert s.re.shape == (4, frame_count(16000, 512, 64), 256)
        assert s.hop == 64 and s.frame_size == 512

    def test_rejects_mismatched_fft_size(self):
        x = TimeSignal(rng.standard_normal((1, 1000)), 16000)
        with pytest.raises(ValueError):
            stft(x, frame_size=512, hop=64, fft_size=1024)

    def test_rejects_bad_hop(self):
        x = TimeSignal(rng.standard_normal((1, 1000)), 16000)
        with pytest.raises(ValueError):
            stft(x, frame_size=512, hop=96, fft_size=512)


class TestRoundTrip:
    def test_interior_reconstruction_band_limited(self):
        x = band_limited(2, 5000)
        y = istft(stft(x), length=x.length)
        err = np.abs(y.samples - x.samples)[:, 512:-512]
        assert err.max() < 1e-6

    def test_reconstruction_with_default_length(self):
        x = band_limited(1, 4096)
        y = istft(stft(x))
        assert y.length >= x.length
        err = np.abs(y.samples[:, 512:4096 - 512] - x.samples[:, 512:-512])
        assert err.max() < 1e-6

    def test_pure_tone_reconstructs(self):
        t = np.arange(8000) / 16000.0
        x = TimeSignal(np.sin(2 * np.pi * 440.0 * t)[None, :], 16000)
        y = istft(stft(x), length=x.length)
        err = np.abs(y.samples - x.samples)[:, 512:-512]
        assert err.max() < 1e-8

    def test_length_crop_and_pad(self):
        x = band_limited(1, 3000)
        s = stft(x)
        assert istft(s, length=1000).length == 1000
        assert istft(s, length=9000).length == 9000


class TestFractionalShift:
    def test_integer_shift_is_exact(self):
        x = rng.standard_normal(400)
        y = shift_fractional(x, 5.0)
        np.testing.assert_allclose(y[5:], x[:-5], atol=1e-9)
        np.testing.assert_allclose(y[:5], 0.0, atol=1e-9)

    def test_negative_integer_shift(self):
        x = rng.standard_normal(400)
        y = shift_fractional(x, -3.0)
        np.testing.assert_allclose(y[:-3], x[3:], atol=1e-9)

    def test_half_sample_shift_matches_sinc_interpolation(self):
        # band-limited input so the ideal interpolator is well defined
        x = band_limited(1, 512, keep=0.6).samples[0]
        y = shift_fractional(x, 0.5)
        # ideal reconstruction of x at positions n - 0.5
        n = np.arange(512)
        want = np.array([np.sum(x * np.sinc((m - 0.5) - n)) for m in range(100, 412)])
        np.testing.assert_allclose(y[100:412], want, atol=5e-3)

    def test_shift_then_unshift_is_identity(self):
        # dead zones at both ends so neither crop discards signal; an
        # abrupt edge would leak truncation error everywhere
        x = band_limited(1, 600, keep=0.5).samples[0]
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(64) / 64)
        x[:32] = 0.0
        x[32:96] *= ramp
        x[-96:-32] *= ramp[::-1]
        x[-32:] = 0.0
        y = shift_fractional(shift_fractional(x, 2.7), -2.7)
        np.testing.assert_allclose(y, x, atol=1e-6)


class TestWavReader:
    """read_wav takes files written by other tools, so each PCM format it
    accepts is written here with scipy directly."""

    @pytest.mark.parametrize("dtype, full_scale", [
        (np.int16, 2.0**15), (np.int32, 2.0**31), (np.uint8, 2.0**7),
    ])
    def test_pcm_is_scaled_to_unit_range(self, tmp_path, dtype, full_scale):
        info = np.iinfo(dtype)
        zero = 128 if dtype == np.uint8 else 0  # 8-bit PCM is unsigned
        frames = np.array([[info.min, info.min], [zero, zero + 1], [info.max, zero - 1]],
                          dtype=dtype)  # (L, C) as WAV stores it
        path = tmp_path / "pcm.wav"
        wavfile.write(path, 8000, frames)
        sig = read_wav(path)
        assert sig.sample_rate == 8000
        assert sig.samples.dtype == np.float64 and sig.samples.shape == (2, 3)
        lsb = 1.0 / full_scale
        np.testing.assert_array_equal(sig.samples, [[-1.0, 0.0, 1.0 - lsb], [-1.0, lsb, -lsb]])

    def test_mono_reads_as_one_channel(self, tmp_path):
        path = tmp_path / "mono.wav"
        wavfile.write(path, 16000, np.array([0, 16384, -32768, 32767], dtype=np.int16))
        sig = read_wav(path)
        assert sig.samples.shape == (1, 4)
        np.testing.assert_array_equal(sig.samples[0], [0.0, 0.5, -1.0, 32767 / 32768])

    def test_float_passes_through(self, tmp_path):
        data = np.array([[0.25, -1.5], [1e-7, 3.0]], dtype=np.float32)
        path = tmp_path / "float.wav"
        wavfile.write(path, 16000, data)
        np.testing.assert_array_equal(read_wav(path).samples, data.T.astype(np.float64))

    def test_one_frame_multichannel_keeps_its_channels(self, tmp_path):
        data = np.array([[0.25, -0.5, 0.75]], dtype=np.float32)  # 1 frame, 3 channels
        path = tmp_path / "one_frame.wav"
        wavfile.write(path, 16000, data)
        sig = read_wav(path)
        assert sig.channels == 3 and sig.length == 1
        np.testing.assert_array_equal(sig.samples, data.T.astype(np.float64))
