"""Shoebox room simulation and synthetic dataset construction.

Rooms are rectangular with per-wall absorption. Impulse responses come
from the image-source method: mirror sources are enumerated up to a
reflection order, each contributing an attenuated, fractionally delayed
pulse (windowed-sinc interpolation) at distance/c seconds. Receivers are
two tetrahedral 4-microphone arrays. Mixtures are speech and noise each
convolved with their own RIR set, the noise scaled to hit a target SNR on
the reference channel.

Datasets are rendered deterministically from a seed; every utterance gets
its own child generator, so entry k does not depend on how many entries
come before it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import SAMPLE_RATE, TimeSignal
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
    absorption: tuple | float = 0.3  # scalar or per wall (x0, x1, y0, y1, z0, z1)
    source_position: tuple = (2.0, 3.0, 1.5)
    noise_position: tuple = (4.5, 1.5, 1.5)
    snr_db: float = 5.0
    max_image_order: int = 6
    sample_rate: int = SAMPLE_RATE
    array_center: tuple | None = None  # midpoint between the two arrays

    def __post_init__(self):
        if len(self.room) != 3 or any(d <= 0 for d in self.room):
            raise ValueError("room dimensions must be three positive lengths")
        self.absorption = _wall_absorption(self.absorption)
        _check_rate_and_order(self.sample_rate, self.max_image_order)
        if self.array_center is None:
            self.array_center = (self.room[0] / 2.0, self.room[1] / 2.0, ARRAY_HEIGHT)
        for name, pos in (("source", self.source_position), ("noise", self.noise_position)):
            _check_inside(pos, self.room, name)

    def mic_positions(self) -> np.ndarray:
        """(8, 3) microphone coordinates: two tetrahedral arrays whose
        centers straddle array_center along x, ARRAY_SPACING apart."""
        cx, cy, cz = self.array_center
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
        # the fixed array geometry stays in the payload, so hashes match older manifests
        payload = repr(
            (
                tuple(self.room), tuple(self.absorption), tuple(self.source_position),
                tuple(self.noise_position), float(self.snr_db), int(self.max_image_order),
                int(self.sample_rate), tuple(self.array_center), ARRAY_RADIUS, ARRAY_SPACING,
            )
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _wall_absorption(a) -> tuple:
    if np.isscalar(a):
        vals = (float(a),) * 6
    else:
        vals = tuple(float(v) for v in a)
        if len(vals) != 6:
            raise ValueError("absorption must be a scalar or 6 per-wall values")
    if any(not 0.0 <= v <= 1.0 for v in vals):
        raise ValueError("absorption must lie in [0, 1]")
    return vals


def _check_rate_and_order(sample_rate, max_image_order):
    """Reject a rate or reflection order that would render a wrong or empty RIR."""
    for name, value, low, kind in (("sample_rate", sample_rate, 1, "positive"),
                                   ("max_image_order", max_image_order, 0, "nonnegative")):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


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


@dataclass
class RoomImpulseResponse:
    taps: np.ndarray  # (P, L)
    sample_rate: int

    def __post_init__(self):
        self.taps = np.atleast_2d(np.asarray(self.taps, dtype=np.float64))

    @property
    def channels(self) -> int:
        return self.taps.shape[0]


def _image_sources(scene: SceneSpec, src: np.ndarray):
    """Enumerate image-source positions and reflection amplitudes up to
    max_image_order total reflections."""
    lx, ly, lz = scene.room
    order = scene.max_image_order
    beta = np.sqrt(1.0 - np.asarray(scene.absorption))  # pressure reflection coefficients
    half = order // 2 + 1
    positions = []
    amps = []
    rng_m = range(-half, half + 1)
    for qx in (0, 1):
        for qy in (0, 1):
            for qz in (0, 1):
                for mx in rng_m:
                    nx = abs(mx - qx) + abs(mx)
                    if nx > order:
                        continue
                    for my in rng_m:
                        ny = abs(my - qy) + abs(my)
                        if nx + ny > order:
                            continue
                        for mz in rng_m:
                            nz = abs(mz - qz) + abs(mz)
                            if nx + ny + nz > order:
                                continue
                            px = (1 - 2 * qx) * src[0] + 2 * mx * lx
                            py = (1 - 2 * qy) * src[1] + 2 * my * ly
                            pz = (1 - 2 * qz) * src[2] + 2 * mz * lz
                            a = (
                                beta[0] ** abs(mx - qx) * beta[1] ** abs(mx)
                                * beta[2] ** abs(my - qy) * beta[3] ** abs(my)
                                * beta[4] ** abs(mz - qz) * beta[5] ** abs(mz)
                            )
                            positions.append((px, py, pz))
                            amps.append(a)
    return np.asarray(positions), np.asarray(amps)


def simulate_rir(scene: SceneSpec, emitter: str = "source") -> RoomImpulseResponse:
    """Image-source RIR from the scene's source (or noise) position to all
    eight microphones. Direct-path amplitude is 1/(4 pi r)."""
    if emitter == "source":
        src = np.asarray(scene.source_position, dtype=np.float64)
    elif emitter == "noise":
        src = np.asarray(scene.noise_position, dtype=np.float64)
    else:
        raise ValueError(f"emitter must be 'source' or 'noise', got {emitter!r}")

    mics = scene.mic_positions()
    positions, amps = _image_sources(scene, src)
    fs = scene.sample_rate

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
    return RoomImpulseResponse(taps, fs)


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
    rir_speech: RoomImpulseResponse,
    rir_noise: RoomImpulseResponse,
    snr_db: float,
):
    """Render a scene. Returns (mixture, reverberant_clean, dry), all
    truncated to the dry length: mixture and reverberant_clean have one
    channel per microphone, dry is the unprocessed source.

    snr_db is enforced between reverberant speech and scaled reverberant
    noise on channel 0; +inf disables the noise entirely.
    """
    if speech.channels != 1 or noise.channels != 1:
        raise ValueError("mix expects single-channel dry speech and noise")
    if speech.sample_rate != noise.sample_rate:
        raise ValueError("speech/noise sample rate mismatch")
    for name, rir in (("speech", rir_speech), ("noise", rir_noise)):
        if rir.sample_rate != speech.sample_rate:
            raise ValueError(f"{name} RIR sample rate {rir.sample_rate} Hz does not match "
                             f"the speech's {speech.sample_rate} Hz")
    if rir_speech.channels != rir_noise.channels:
        raise ValueError("RIR channel count mismatch")
    n = speech.length
    if noise.length < n:
        raise ValueError("noise must be at least as long as speech")

    def render(sig: np.ndarray, rir: RoomImpulseResponse) -> np.ndarray:
        # the full linear convolution of every channel at once, through real
        # FFTs of the size scipy.signal.fftconvolve picks, so the first n
        # samples are the bytes it would give channel by channel; copied,
        # so the caller holds a contiguous (P, n) and not the whole transform
        size = _fft_size(n + rir.taps.shape[1] - 1)
        spec = np.fft.rfft(sig, size) * np.fft.rfft(rir.taps, size)
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
    fs = speech.sample_rate
    return (
        TimeSignal(mixture, fs),
        TimeSignal(rev_s, fs),
        TimeSignal(speech.samples.copy(), fs),
    )


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
    snr_db: float
    source_position: tuple
    noise_position: tuple


def read_manifest(path) -> list:
    path = Path(path)
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        uid = fields[0]
        kv = dict(f.split("=", 1) for f in fields[1:])
        entries.append(
            ManifestEntry(
                uid=uid,
                mix_path=path.parent / kv["mix"],
                revclean_path=path.parent / kv["revclean"],
                dry_path=path.parent / kv["dry"],
                snr_db=float(kv["snr_db"]),
                source_position=tuple(float(v) for v in kv["src"].split(",")),
                noise_position=tuple(float(v) for v in kv["noise"].split(",")),
            )
        )
    if not entries:
        raise ValueError(f"manifest {path} has no entries")
    return entries
