"""Multichannel WAV read (PCM or float) and write (32-bit float).

scipy.io.wavfile does the container work. It is imported on first use:
nothing else in the package needs scipy, and importing scipy.io costs
every process that never touches a WAV file some 20 MB."""

from __future__ import annotations

import numpy as np

from .dsp import TimeSignal


def write_wav(path, signal: TimeSignal):
    """Write channels-first samples to a 32-bit float WAV file, which keeps
    float32 samples bit-exact."""
    from scipy.io import wavfile

    data = np.asarray(signal.samples, dtype=np.float64).T  # (L, C) for the container
    wavfile.write(path, signal.sample_rate, data.astype(np.float32))


def read_wav(path) -> TimeSignal:
    """Read a WAV file into float64 channels-first samples. PCM is scaled
    to [-1, 1); float data is passed through."""
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    # scipy returns (L,) for mono and (L, C) for any multichannel file
    data = data.reshape(1, -1) if data.ndim == 1 else data.T
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        raise ValueError(f"unsupported WAV sample format {data.dtype}")
    return TimeSignal(samples, rate)
