"""Shoebox room simulation and synthetic dataset construction.

Rooms are rectangular, with one absorption for all six walls. Impulse
responses come from the image-source method: mirror sources are
enumerated up to a reflection order, each contributing an attenuated,
fractionally delayed pulse (windowed-sinc interpolation) at distance/c
seconds. Receivers are two tetrahedral 4-microphone arrays in the middle
of the room. Everything is rendered at the front end's rate,
dsp.SAMPLE_RATE. Mixtures are speech and noise each convolved with their
own RIR set, the noise scaled to hit a target SNR on the reference
channel.

Datasets are rendered deterministically from a seed; every utterance gets
its own child generator, so entry k does not depend on how many entries
come before it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import SAMPLE_RATE, TimeSignal, check_signal
from .wavio import write_wav

SPEED_OF_SOUND = 343.0
SINC_HALF_WIDTH = 32
GRID_X = 14
GRID_Y = 18  # 14 * 18 = 252 candidate source positions
GRID_MARGIN = 0.6
GRID_HEIGHT = 1.3

DEFAULT_ROOM = (6.0, 5.0, 3.0)
ARRAY_RADIUS = 0.032
ARRAY_SPACING = 0.2
ARRAY_HEIGHT = 1.3

# unit tetrahedron vertices (unit radius after normalization)
_TETRA = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / np.sqrt(3.0)


@dataclass
class SceneSpec:
    room: tuple = DEFAULT_ROOM
    absorption: float = 0.3  # of every wall
    source_position: tuple = (2.0, 3.0, 1.5)
    noise_position: tuple = (4.5, 1.5, 1.5)
    snr_db: float = 5.0
    max_image_order: int = 6

    def __post_init__(self):
        if len(self.room) != 3 or any(d <= 0 for d in self.room):
            raise ValueError("room dimensions must be three positive lengths")
        self.absorption = float(self.absorption)
        if not 0.0 <= self.absorption <= 1.0:
            raise ValueError("absorption must lie in [0, 1]")
        order = self.max_image_order
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
            raise ValueError(f"max_image_order must be a nonnegative integer, got {order!r}")
        for name, pos in (("source", self.source_position), ("noise", self.noise_position)):
            _check_inside(pos, self.room, name)

    def mic_positions(self) -> np.ndarray:
        """(8, 3) microphone coordinates: two tetrahedral arrays whose
        centers straddle _array_center along x, ARRAY_SPACING apart."""
        cx, cy, cz = _array_center(self.room)
        half = ARRAY_SPACING / 2.0
        mics = []
        for off in (-half, half):
            center = np.array([cx + off, cy, cz])
            for v in _TETRA:
                mics.append(center + ARRAY_RADIUS * v)
        out = np.array(mics)
        for m in out:
            _check_inside(tuple(m), self.room, "microphone")
        return out

    def scene_hash(self) -> str:
        # the payload keeps the six wall absorptions, the rate and the array
        # geometry that scenes once set, so hashes match older manifests
        payload = repr(
            (
                tuple(self.room), (self.absorption,) * 6, tuple(self.source_position),
                tuple(self.noise_position), float(self.snr_db), int(self.max_image_order),
                SAMPLE_RATE, _array_center(self.room), ARRAY_RADIUS, ARRAY_SPACING,
            )
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _array_center(room) -> tuple:
    """Midpoint between the two arrays: over the middle of the floor, ARRAY_HEIGHT up."""
    return (room[0] / 2.0, room[1] / 2.0, ARRAY_HEIGHT)


def _check_inside(pos, room, name):
    if len(pos) != 3:
        raise ValueError(f"{name} position must have 3 coordinates")
    if not all(0.0 < p < d for p, d in zip(pos, room)):
        raise ValueError(f"{name} position {tuple(pos)} is outside the room {tuple(room)}")


def candidate_positions(room=DEFAULT_ROOM) -> np.ndarray:
    """(252, 3) grid of candidate source positions at 1.3 m height."""
    lx, ly, _ = room
    if lx <= 2 * GRID_MARGIN or ly <= 2 * GRID_MARGIN:
        raise ValueError("room too small for the candidate grid")
    xs = np.linspace(GRID_MARGIN, lx - GRID_MARGIN, GRID_X)
    ys = np.linspace(GRID_MARGIN, ly - GRID_MARGIN, GRID_Y)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    out = np.stack([gx.ravel(), gy.ravel(), np.full(GRID_X * GRID_Y, GRID_HEIGHT)], axis=1)
    return out


def _image_sources(scene: SceneSpec, src: np.ndarray):
    """Image-source positions (K, 3) and reflection amplitudes (K,) up to
    max_image_order total reflections.

    An image is a mirror flag q and a shift m by whole room pairs per axis;
    images come in the order of nested loops over qx, qy, qz, mx, my, mz,
    which simulate_rir's sums keep. Its amplitude is the product of one
    beta ** hits factor per wall, in the order x0, x1, y0, y1, z0, z1.
    """
    order = scene.max_image_order
    beta = np.sqrt(1.0 - scene.absorption)  # pressure reflection coefficient
    shifts = np.arange(-(order // 2 + 1), order // 2 + 2)
    grid = np.meshgrid((0, 1), (0, 1), (0, 1), shifts, shifts, shifts, indexing="ij")
    image = np.stack(grid, axis=-1).reshape(-1, 6)
    q, m = image[:, :3], image[:, 3:]
    # reflections off the low and the high wall of each axis
    hits = np.stack([np.abs(m - q), np.abs(m)], axis=2).reshape(-1, 6)
    keep = hits.sum(axis=1) <= order
    q, m, hits = q[keep], m[keep], hits[keep]
    positions = (1 - 2 * q) * src + 2 * m * np.asarray(scene.room, dtype=np.float64)
    # scalar powers, multiplied wall by wall: the bytes of the per-image product
    wall = np.array([beta ** k for k in range(order + 1)])[hits]
    return positions, wall[:, 0] * wall[:, 1] * wall[:, 2] * wall[:, 3] * wall[:, 4] * wall[:, 5]


def simulate_rir(scene: SceneSpec, emitter: str = "source") -> np.ndarray:
    """Image-source RIR from the scene's source (or noise) position to all
    eight microphones: (8, L) float64 taps at SAMPLE_RATE. Direct-path
    amplitude is 1/(4 pi r)."""
    if emitter == "source":
        src = np.asarray(scene.source_position, dtype=np.float64)
    elif emitter == "noise":
        src = np.asarray(scene.noise_position, dtype=np.float64)
    else:
        raise ValueError(f"emitter must be 'source' or 'noise', got {emitter!r}")

    mics = scene.mic_positions()
    positions, amps = _image_sources(scene, src)
    fs = SAMPLE_RATE

    # farthest image sets the tap count
    d_all = np.linalg.norm(positions[:, None, :] - mics[None, :, :], axis=2)
    live = amps > 0.0
    if not np.any(live):
        raise ValueError("all reflections are fully absorbed and there is no direct path")
    max_delay = d_all[live].max() / SPEED_OF_SOUND * fs
    length = int(np.ceil(max_delay)) + SINC_HALF_WIDTH + 2

    # each image adds a windowed-sinc pulse at its fractional delay tau,
    # clipped to the taps; one (images, 2W + 1) array per microphone, which
    # bincount adds in image order, as adding each pulse in turn would
    w = SINC_HALF_WIDTH
    offsets = np.arange(2 * w + 1)
    taps = np.empty((mics.shape[0], length))
    for p in range(mics.shape[0]):
        dist = d_all[live, p]
        tau = dist / SPEED_OF_SOUND * fs
        gain = amps[live] / (4.0 * np.pi * dist)
        lo = np.maximum(np.ceil(tau - w), 0).astype(np.int64)
        hi = np.minimum(np.floor(tau + w), length - 1).astype(np.int64)
        idx = lo[:, None] + offsets
        keep = idx <= hi[:, None]
        counts = keep.sum(axis=1)
        n = idx[keep]
        t = n - np.repeat(tau, counts)
        vals = np.repeat(gain, counts) * np.sinc(t) * (0.5 + 0.5 * np.cos(np.pi * t / w))
        taps[p] = np.bincount(n, weights=vals, minlength=length)
    return taps


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, the real-FFT size of
    scipy.fft.next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def mix(
    speech: TimeSignal,
    noise: TimeSignal,
    rir_speech: np.ndarray,
    rir_noise: np.ndarray,
    snr_db: float,
):
    """Render a scene from single-channel speech and noise at SAMPLE_RATE
    and the (P, L) taps simulate_rir gives for each. Returns (mixture,
    reverberant_clean, dry), all truncated to the dry length: mixture and
    reverberant_clean have one channel per microphone, dry is the
    unprocessed source.

    snr_db is enforced between reverberant speech and scaled reverberant
    noise on channel 0; +inf disables the noise entirely.
    """
    for name, sig in (("speech", speech), ("noise", noise)):
        check_signal(sig, name, SAMPLE_RATE, 1)
    if rir_speech.shape[0] != rir_noise.shape[0]:
        raise ValueError("RIR channel count mismatch")
    n = speech.length
    if noise.length < n:
        raise ValueError("noise must be at least as long as speech")

    def render(sig: np.ndarray, taps: np.ndarray) -> np.ndarray:
        # the full linear convolution of every channel at once, through real
        # FFTs of the size scipy.signal.fftconvolve picks, so the first n
        # samples are the bytes it would give channel by channel; copied,
        # so the caller holds a contiguous (P, n) and not the whole transform
        size = _fft_size(n + taps.shape[1] - 1)
        spec = np.fft.rfft(sig, size) * np.fft.rfft(taps, size)
        return np.fft.irfft(spec, size)[:, :n].copy()

    rev_s = render(speech.samples[0], rir_speech)
    rev_n = render(noise.samples[0, :n], rir_noise)

    es = float(np.sum(rev_s[0] ** 2))
    if es <= 0.0:
        raise ValueError("speech has no energy on the reference channel")
    if np.isinf(snr_db):
        scale = 0.0
    else:
        en = float(np.sum(rev_n[0] ** 2))
        if en <= 0.0:
            raise ValueError("noise has no energy on the reference channel")
        scale = float(np.sqrt(es / (en * 10.0 ** (snr_db / 10.0))))

    mixture = rev_s + scale * rev_n
    return TimeSignal(mixture), TimeSignal(rev_s), TimeSignal(speech.samples.copy())


# -- built-in synthetic sources -------------------------------------------------------


def synth_speech(rng: np.random.Generator, n: int) -> TimeSignal:
    """Speech-shaped synthetic source: a slowly wandering harmonic stack
    with a syllabic-rate amplitude envelope plus a soft noise floor."""
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(110.0, 200.0)
    vibrato = 1.0 + 0.02 * np.sin(2.0 * np.pi * rng.uniform(4.0, 7.0) * t)
    phase = 2.0 * np.pi * np.cumsum(f0 * vibrato) / SAMPLE_RATE
    sig = np.zeros(n)
    for k in range(1, 21):
        if k * f0 > 0.45 * SAMPLE_RATE:
            break
        sig += (1.0 / k) * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    syllable = 0.55 + 0.45 * np.sin(2.0 * np.pi * rng.uniform(2.5, 4.5) * t + rng.uniform(0, 2 * np.pi))
    sig = sig * syllable + 0.02 * rng.standard_normal(n)
    sig /= np.max(np.abs(sig)) + 1e-12
    return TimeSignal(0.3 * sig[None, :], SAMPLE_RATE)


# taps of synth_noise's smoothing kernel, and so the fewest samples it can render
NOISE_KERNEL = 17


def synth_noise(rng: np.random.Generator, n: int) -> TimeSignal:
    """Interferer: band-limited noise bursts over a low hum and a chirp."""
    t = np.arange(n) / SAMPLE_RATE
    base = rng.standard_normal(n)
    # crude band-limit via cumulative smoothing
    kernel = np.hanning(NOISE_KERNEL)
    kernel /= kernel.sum()
    base = np.convolve(base, kernel, mode="same")
    bursts = (np.sin(2.0 * np.pi * rng.uniform(1.0, 3.0) * t + rng.uniform(0, 2 * np.pi)) > 0.1)
    f_lo, f_hi = sorted(rng.uniform(300.0, 3500.0, size=2))
    chirp = 0.4 * np.sin(2.0 * np.pi * (f_lo * t + 0.5 * (f_hi - f_lo) / t[-1] * t * t))
    sig = base * bursts + chirp + 0.1 * np.sin(2.0 * np.pi * 60.0 * t)
    sig /= np.max(np.abs(sig)) + 1e-12
    return TimeSignal(0.3 * sig[None, :], SAMPLE_RATE)


# -- dataset construction ---------------------------------------------------------------


@dataclass
class DatasetConfig:
    out_dir: str | Path = "dataset"
    num_utterances: int = 4
    seconds: float = 1.0
    seed: int = 0
    snr_db_min: float = 0.0
    snr_db_max: float = 10.0
    absorption: float = 0.3
    max_image_order: int = 2
    room: tuple = DEFAULT_ROOM

    def __post_init__(self):
        if self.num_utterances < 1:
            raise ValueError("num_utterances must be positive")
        if self.seconds <= 0:
            raise ValueError("seconds must be positive")
        if self.snr_db_min > self.snr_db_max:
            raise ValueError("snr_db_min must not exceed snr_db_max")
        n = int(round(self.seconds * SAMPLE_RATE))
        if n < NOISE_KERNEL:
            raise ValueError(
                f"seconds = {self.seconds} gives {n} samples at {SAMPLE_RATE} Hz; "
                f"at least {NOISE_KERNEL} are needed"
            )
        # a scene between two corners of the candidate grid checks the room,
        # the absorption, the image order and the arrays before build_dataset
        # writes anything
        grid = candidate_positions(self.room)
        SceneSpec(room=self.room, absorption=self.absorption, source_position=tuple(grid[0]),
                  noise_position=tuple(grid[-1]),
                  max_image_order=self.max_image_order).mic_positions()


def _format_pos(pos) -> str:
    return ",".join(f"{v:.6f}" for v in pos)


def build_dataset(config: DatasetConfig) -> Path:
    """Render a synthetic dataset at the front end's rate (dsp.SAMPLE_RATE)
    and write its manifest.

    Per utterance: '<id>_mix.wav' (8 ch), '<id>_revclean.wav' (8 ch),
    '<id>_dry.wav' (1 ch), all 32-bit float, plus one manifest line with
    the scene draw. Returns the manifest path.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = candidate_positions(config.room)
    n = int(round(config.seconds * SAMPLE_RATE))

    children = np.random.SeedSequence(config.seed).spawn(config.num_utterances)
    lines = []
    for k in range(config.num_utterances):
        rng = np.random.default_rng(children[k])
        src_idx, noise_idx = rng.choice(grid.shape[0], size=2, replace=False)
        snr = float(rng.uniform(config.snr_db_min, config.snr_db_max))
        scene = SceneSpec(
            room=config.room,
            absorption=config.absorption,
            source_position=tuple(grid[src_idx]),
            noise_position=tuple(grid[noise_idx]),
            snr_db=snr,
            max_image_order=config.max_image_order,
        )
        speech = synth_speech(rng, n)
        noise = synth_noise(rng, n)
        rir_s = simulate_rir(scene, "source")
        rir_n = simulate_rir(scene, "noise")
        mixture, revclean, dry = mix(speech, noise, rir_s, rir_n, snr)

        uid = f"utt{k:04d}"
        write_wav(out_dir / f"{uid}_mix.wav", mixture)
        write_wav(out_dir / f"{uid}_revclean.wav", revclean)
        write_wav(out_dir / f"{uid}_dry.wav", dry)
        lines.append(
            f"{uid} mix={uid}_mix.wav revclean={uid}_revclean.wav dry={uid}_dry.wav "
            f"snr_db={snr:.6f} src={_format_pos(scene.source_position)} "
            f"noise={_format_pos(scene.noise_position)} scene={scene.scene_hash()}"
        )

    manifest = out_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


@dataclass
class ManifestEntry:
    uid: str
    mix_path: Path
    revclean_path: Path
    dry_path: Path


def read_manifest(path) -> list:
    """The manifest's entries. A line with a field that is not key=value,
    or without one of the mix, revclean and dry keys, is refused by path,
    line number and field or key."""
    path = Path(path)
    keys = ("mix", "revclean", "dry")  # ManifestEntry's paths, in order
    entries = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        where = f"manifest {path} line {number}"
        for f in fields[1:]:
            if "=" not in f:
                raise ValueError(f"{where}: field {f!r} is not key=value")
        kv = dict(f.split("=", 1) for f in fields[1:])
        for key in keys:
            if key not in kv:
                raise ValueError(f"{where}: no {key}= field")
        entries.append(ManifestEntry(fields[0], *(path.parent / kv[k] for k in keys)))
    if not entries:
        raise ValueError(f"manifest {path} has no entries")
    return entries
