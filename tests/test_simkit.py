"""Room simulation against closed-form geometry.

The mirror enumeration is cross-checked by unfolding first-order
reflections by hand and against the six nested loops it replaced,
convolution against a direct O(N*M) loop and against
scipy.signal.fftconvolve, and the SNR contract by re-measuring the
rendered components.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from mcse.dsp import SAMPLE_RATE, TimeSignal
from mcse.simkit import (
    ARRAY_RADIUS,
    SINC_HALF_WIDTH,
    SPEED_OF_SOUND,
    DatasetConfig,
    SceneSpec,
    _fft_size,
    _image_sources,
    build_dataset,
    candidate_positions,
    mix,
    read_manifest,
    simulate_rir,
    synth_noise,
    synth_speech,
)

rng = np.random.default_rng(31)


def sinc_pulse_oracle(tau, amp, length):
    """Windowed-sinc pulse, written independently of the simulator."""
    out = np.zeros(length)
    n = np.arange(length)
    t = n - tau
    inside = np.abs(t) <= SINC_HALF_WIDTH
    out[inside] = amp * np.sinc(t[inside]) * (
        0.5 + 0.5 * np.cos(np.pi * t[inside] / SINC_HALF_WIDTH)
    )
    return out


def rir_loop_oracle(scene: SceneSpec, emitter: str = "source") -> np.ndarray:
    """The renderer's taps accumulated one image's pulse at a time, in image
    order; simulate_rir must reproduce them byte for byte."""
    src = np.asarray(scene.source_position if emitter == "source" else scene.noise_position,
                     dtype=np.float64)
    mics = scene.mic_positions()
    positions, amps = _image_sources(scene, src)
    fs = SAMPLE_RATE
    d_all = np.linalg.norm(positions[:, None, :] - mics[None, :, :], axis=2)
    live = amps > 0.0
    length = int(np.ceil(d_all[live].max() / SPEED_OF_SOUND * fs)) + SINC_HALF_WIDTH + 2
    w = SINC_HALF_WIDTH
    taps = np.zeros((mics.shape[0], length))
    for p in range(mics.shape[0]):
        dist = d_all[live, p]
        for tau, amp in zip(dist / SPEED_OF_SOUND * fs, amps[live] / (4.0 * np.pi * dist)):
            lo = max(int(np.ceil(tau - w)), 0)
            hi = min(int(np.floor(tau + w)), length - 1)
            n = np.arange(lo, hi + 1)
            t = n - tau
            taps[p, n] += amp * np.sinc(t) * (0.5 + 0.5 * np.cos(np.pi * t / w))
    return taps


def image_sources_loop_oracle(scene: SceneSpec, src: np.ndarray):
    """The image enumeration as six nested loops, the order _image_sources
    keeps: mirror flags qx, qy, qz over room-pair shifts mx, my, mz, each
    image's amplitude the wall factors multiplied in the order x0, x1, y0,
    y1, z0, z1."""
    lx, ly, lz = scene.room
    order = scene.max_image_order
    beta = np.sqrt(1.0 - scene.absorption)
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
                                beta ** abs(mx - qx) * beta ** abs(mx)
                                * beta ** abs(my - qy) * beta ** abs(my)
                                * beta ** abs(mz - qz) * beta ** abs(mz)
                            )
                            positions.append((px, py, pz))
                            amps.append(a)
    return np.asarray(positions), np.asarray(amps)


def onset_sample(h: np.ndarray, fraction: float = 0.1) -> int:
    """First sample where cumulative energy crosses a fraction of the total."""
    e = np.cumsum(h ** 2)
    return int(np.searchsorted(e, fraction * e[-1]))


def manifest_fields(manifest: Path) -> list:
    """The key=value fields of each manifest line."""
    return [dict(f.split("=", 1) for f in line.split()[1:])
            for line in manifest.read_text().splitlines()]


class TestSceneSpec:
    def test_mic_layout(self):
        scene = SceneSpec()
        mics = scene.mic_positions()
        assert mics.shape == (8, 3)
        left, right = mics[:4], mics[4:]
        for cluster, offset in ((left, -0.1), (right, 0.1)):
            center = cluster.mean(axis=0)
            np.testing.assert_allclose(center, [3.0 + offset, 2.5, 1.3], atol=1e-12)
            d = np.linalg.norm(cluster - center, axis=1)
            np.testing.assert_allclose(d, ARRAY_RADIUS, rtol=1e-12)

    def test_absorption_forms(self):
        """One absorption, a float in [0, 1], for all six walls."""
        assert SceneSpec(absorption=1).absorption == 1.0
        assert isinstance(SceneSpec(absorption=1).absorption, float)
        for bad in (1.5, -0.1):
            with pytest.raises(ValueError, match=r"^absorption must lie in \[0, 1\]$"):
                SceneSpec(absorption=bad)

    def test_positions_must_be_inside(self):
        with pytest.raises(ValueError):
            SceneSpec(source_position=(7.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            SceneSpec(noise_position=(1.0, 1.0, -0.5))

    @pytest.mark.parametrize("cls, key, value, message", [
        pytest.param(cls, "max_image_order", value,
                     f"max_image_order must be a nonnegative integer, got {value}",
                     id=f"{cls.__name__}-order_{name}")
        for cls in (SceneSpec, DatasetConfig)
        for name, value in (("fractional", 2.5), ("negative", -1))
    ])
    def test_bad_rate_or_order_raises(self, cls, key, value, message):
        """An order that would render an empty or wrong RIR fails at
        construction, naming the field and the value."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(**{key: value})

    def test_hash_tracks_content(self):
        a = SceneSpec()
        b = SceneSpec(snr_db=6.0)
        assert a.scene_hash() == SceneSpec().scene_hash()
        assert a.scene_hash() != b.scene_hash()

    def test_hash_matches_older_manifests(self, tmp_path):
        """The hash payload still holds six wall absorptions, the rate and
        the array center, so the hashes are the ones scenes always had."""
        assert SceneSpec().scene_hash() == "ee7ccfe0306c1c06"
        manifest = build_dataset(DatasetConfig(out_dir=tmp_path, num_utterances=1,
                                               seconds=0.3, seed=0, max_image_order=1))
        assert manifest.read_text().split()[-1] == "scene=a04adf48113f0733"


class TestCandidateGrid:
    def test_count_and_bounds(self):
        grid = candidate_positions()
        assert grid.shape == (252, 3)
        assert np.all(grid[:, 2] == 1.3)
        assert grid[:, 0].min() >= 0.6 and grid[:, 0].max() <= 5.4
        assert grid[:, 1].min() >= 0.6 and grid[:, 1].max() <= 4.4
        # all points distinct
        assert len({tuple(p) for p in grid}) == 252


class TestRir:
    def test_anechoic_single_pulse(self):
        """Full absorption leaves only the direct path: one windowed sinc
        at distance/c with spherical-spreading amplitude."""
        scene = SceneSpec(absorption=1.0)
        rir = simulate_rir(scene)
        mics = scene.mic_positions()
        fs = SAMPLE_RATE
        for p in range(8):
            r = np.linalg.norm(np.asarray(scene.source_position) - mics[p])
            want = sinc_pulse_oracle(r / SPEED_OF_SOUND * fs, 1.0 / (4 * np.pi * r),
                                     rir.shape[1])
            np.testing.assert_allclose(rir[p], want, atol=1e-12)

    def test_first_order_matches_hand_unfolding(self):
        """Order 1: the direct path plus six wall mirrors, enumerated here
        without the generic image machinery."""
        room = (4.0, 3.0, 2.5)
        src = np.array([1.0, 1.2, 1.1])
        alpha = 0.4
        beta = np.sqrt(1.0 - alpha)
        scene = SceneSpec(room=room, absorption=alpha, source_position=tuple(src),
                          noise_position=(2.0, 2.0, 1.0), max_image_order=1)
        rir = simulate_rir(scene)
        mics = scene.mic_positions()
        fs = SAMPLE_RATE

        images = [(src, 1.0)]
        for axis, dim in enumerate(room):
            lo = src.copy()
            lo[axis] = -src[axis]
            hi = src.copy()
            hi[axis] = 2 * dim - src[axis]
            images.append((lo, beta))
            images.append((hi, beta))

        for p in range(8):
            want = np.zeros(rir.shape[1])
            for pos, refl in images:
                r = np.linalg.norm(pos - mics[p])
                want += sinc_pulse_oracle(
                    r / SPEED_OF_SOUND * fs, refl / (4 * np.pi * r), want.shape[0]
                )
            np.testing.assert_allclose(rir[p], want, atol=1e-12)

    def test_direct_path_onset(self):
        # cumulative-energy onset lands within a sample of distance/c
        scene = SceneSpec(absorption=0.7, max_image_order=3)
        rir = simulate_rir(scene)
        mics = scene.mic_positions()
        for p in range(8):
            r = np.linalg.norm(np.asarray(scene.source_position) - mics[p])
            expect = r / SPEED_OF_SOUND * SAMPLE_RATE
            got = onset_sample(rir[p])
            assert abs(got - expect) <= 1.0, f"mic {p}: onset {got} vs {expect:.2f}"

    def test_inter_mic_delays_match_geometry(self):
        scene = SceneSpec(absorption=1.0)
        rir = simulate_rir(scene)
        mics = scene.mic_positions()
        src = np.asarray(scene.source_position)
        fs = SAMPLE_RATE
        # anechoic pulses: locate each peak by quadratic interpolation
        for p in range(1, 8):
            want = (np.linalg.norm(src - mics[p]) - np.linalg.norm(src - mics[0])) \
                / SPEED_OF_SOUND * fs
            k0, kp = np.argmax(np.abs(rir[0])), np.argmax(np.abs(rir[p]))
            assert abs((kp - k0) - want) <= 1.0

    def test_more_absorption_less_tail(self):
        def tail_energy(alpha):
            scene = SceneSpec(absorption=alpha, max_image_order=4)
            rir = simulate_rir(scene)
            onset = onset_sample(rir[0])
            cut = onset + 2 * SINC_HALF_WIDTH
            return float(np.sum(rir[0, cut:] ** 2))

        e_live, e_mid, e_dead = tail_energy(0.1), tail_energy(0.5), tail_energy(0.9)
        assert e_live > e_mid > e_dead

    def test_higher_order_adds_energy(self):
        scene1 = SceneSpec(absorption=0.3, max_image_order=1)
        scene4 = SceneSpec(absorption=0.3, max_image_order=4)
        e1 = float(np.sum(simulate_rir(scene1) ** 2))
        e4 = float(np.sum(simulate_rir(scene4) ** 2))
        assert e4 > e1

    def test_noise_emitter_uses_noise_position(self):
        scene = SceneSpec(absorption=1.0)
        rs = simulate_rir(scene, "source")
        rn = simulate_rir(scene, "noise")
        mics = scene.mic_positions()
        r = np.linalg.norm(np.asarray(scene.noise_position) - mics[0])
        expect = r / SPEED_OF_SOUND * SAMPLE_RATE
        assert abs(np.argmax(np.abs(rn[0])) - expect) <= 1.0
        assert rs.shape[0] == rn.shape[0] == 8

    @pytest.mark.parametrize("kwargs", [
        {"max_image_order": 0},
        {"max_image_order": 2},
        {"max_image_order": 6},
        {"absorption": 1.0},
        # 4 cm from microphone 0: its direct-path pulse is clipped at sample 0
        {"source_position": tuple(SceneSpec().mic_positions()[0] + [0.04, 0.0, 0.0])},
    ], ids=["order0", "order2", "order6", "anechoic", "clipped_at_0"])
    @pytest.mark.parametrize("emitter", ["source", "noise"])
    def test_taps_equal_pulse_loop(self, kwargs, emitter):
        scene = SceneSpec(**kwargs)
        np.testing.assert_array_equal(simulate_rir(scene, emitter),
                                      rir_loop_oracle(scene, emitter))

    @pytest.mark.parametrize("absorption", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("order", range(9))
    def test_image_sources_equal_nested_loops(self, order, absorption):
        """Same images, same order, same bytes as the six nested loops."""
        scene = SceneSpec(absorption=absorption, max_image_order=order)
        src = np.asarray(scene.source_position, dtype=np.float64)
        for got, want in zip(_image_sources(scene, src), image_sources_loop_oracle(scene, src)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_unknown_emitter_raises(self):
        with pytest.raises(ValueError):
            simulate_rir(SceneSpec(), "wall")


class TestMix:
    def unit_rirs(self, channels=3):
        taps = np.zeros((channels, 8))
        taps[:, 0] = 1.0
        return taps

    def test_unit_rir_identity(self):
        s = TimeSignal(rng.standard_normal((1, 500)), 16000)
        n = TimeSignal(rng.standard_normal((1, 500)), 16000)
        mixture, revclean, dry = mix(s, n, self.unit_rirs(), self.unit_rirs(), np.inf)
        np.testing.assert_allclose(revclean.samples, np.repeat(s.samples, 3, axis=0), atol=1e-12)
        np.testing.assert_allclose(mixture.samples, revclean.samples, atol=1e-12)
        np.testing.assert_allclose(dry.samples, s.samples)

    def test_snr_remeasured_from_components(self):
        scene = SceneSpec(max_image_order=2)
        rs = simulate_rir(scene, "source")
        rn = simulate_rir(scene, "noise")
        s = synth_speech(np.random.default_rng(1), 8000)
        n = synth_noise(np.random.default_rng(2), 8000)
        for target in (-5.0, 0.0, 5.0, 20.0):
            mixture, revclean, _ = mix(s, n, rs, rn, target)
            noise_part = mixture.samples[0] - revclean.samples[0]
            got = 10.0 * np.log10(
                np.sum(revclean.samples[0] ** 2) / np.sum(noise_part ** 2)
            )
            assert abs(got - target) < 0.1, f"target {target}, measured {got:.3f}"

    def test_convolution_matches_direct_loop(self):
        scene = SceneSpec(max_image_order=1)
        rir = simulate_rir(scene, "source")
        x = rng.standard_normal(400)
        s = TimeSignal(x[None, :], 16000)
        n = TimeSignal(rng.standard_normal((1, 400)), 16000)
        mixture, revclean, _ = mix(s, n, rir, rir, np.inf)

        h = rir[2]
        want = np.zeros(400)
        for i in range(400):
            lo = max(0, i - len(h) + 1)
            want[i] = np.dot(x[lo : i + 1], h[i - lo :: -1][: i + 1 - lo])
        np.testing.assert_allclose(revclean.samples[2], want, atol=1e-6)

    def test_bytes_match_scipy_fftconvolve(self):
        """An order-6 scene renders to the bytes that per-channel
        fftconvolve and the same SNR scaling give."""
        scene = SceneSpec(max_image_order=6)
        rs, rn = simulate_rir(scene, "source"), simulate_rir(scene, "noise")
        s = synth_speech(np.random.default_rng(3), 16000)
        n = synth_noise(np.random.default_rng(4), 16000)
        mixture, revclean, _ = mix(s, n, rs, rn, 5.0)

        def render(sig, rir):
            return np.stack([fftconvolve(sig, h)[: sig.shape[0]] for h in rir])

        rev_s, rev_n = render(s.samples[0], rs), render(n.samples[0], rn)
        scale = np.sqrt(np.sum(rev_s[0] ** 2) / (np.sum(rev_n[0] ** 2) * 10.0 ** 0.5))
        assert np.array_equal(revclean.samples, rev_s)
        assert np.array_equal(mixture.samples, rev_s + scale * rev_n)

    @pytest.mark.parametrize("n", [1, 2, 7, 97, 1000, 16001, 31249, 58081, 2**20 + 1, 10**9 + 7])
    def test_fft_size_is_scipys(self, n):
        assert _fft_size(n) == next_fast_len(n, real=True)

    def test_output_length_is_dry_length(self):
        s = TimeSignal(rng.standard_normal((1, 300)), 16000)
        n = TimeSignal(rng.standard_normal((1, 400)), 16000)
        mixture, revclean, dry = mix(s, n, self.unit_rirs(), self.unit_rirs(), 5.0)
        assert mixture.length == revclean.length == dry.length == 300

    def test_noise_shorter_than_speech_raises(self):
        s = TimeSignal(rng.standard_normal((1, 400)), 16000)
        n = TimeSignal(rng.standard_normal((1, 300)), 16000)
        with pytest.raises(ValueError):
            mix(s, n, self.unit_rirs(), self.unit_rirs(), 5.0)

    def test_silent_speech_raises(self):
        s = TimeSignal(np.zeros((1, 300)), 16000)
        n = TimeSignal(rng.standard_normal((1, 300)), 16000)
        with pytest.raises(ValueError):
            mix(s, n, self.unit_rirs(), self.unit_rirs(), 5.0)

    @pytest.mark.parametrize("which", ["speech", "noise"])
    def test_signal_at_another_rate_raises(self, which):
        """The taps are at SAMPLE_RATE, so 8 kHz speech or noise is refused by name."""
        sigs = {"speech": TimeSignal(np.ones((1, 300)), 16000),
                "noise": TimeSignal(np.ones((1, 300)), 16000)}
        sigs[which] = TimeSignal(np.ones((1, 300)), 8000)
        with pytest.raises(ValueError, match=f"^{which}: sample rate 8000 Hz, expected 16000 Hz$"):
            mix(sigs["speech"], sigs["noise"], self.unit_rirs(), self.unit_rirs(), 5.0)


class TestSyntheticSources:
    def test_speech_has_harmonic_envelope(self):
        s = synth_speech(np.random.default_rng(0), 16000)
        assert s.samples.shape == (1, 16000)
        assert np.max(np.abs(s.samples)) <= 0.31

    def test_noise_bounded(self):
        n = synth_noise(np.random.default_rng(0), 16000)
        assert n.samples.shape == (1, 16000)
        assert np.max(np.abs(n.samples)) <= 0.31


class TestDataset:
    def test_deterministic_rebuild(self, tmp_path):
        cfg_a = DatasetConfig(out_dir=tmp_path / "a", num_utterances=2, seconds=0.3,
                              seed=9, max_image_order=1)
        cfg_b = DatasetConfig(out_dir=tmp_path / "b", num_utterances=2, seconds=0.3,
                              seed=9, max_image_order=1)
        ma, mb = build_dataset(cfg_a), build_dataset(cfg_b)
        assert ma.read_text() == mb.read_text()
        for f in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_seed_changes_content(self, tmp_path):
        m1 = build_dataset(DatasetConfig(out_dir=tmp_path / "s1", num_utterances=1,
                                         seconds=0.3, seed=1, max_image_order=1))
        m2 = build_dataset(DatasetConfig(out_dir=tmp_path / "s2", num_utterances=1,
                                         seconds=0.3, seed=2, max_image_order=1))
        assert m1.read_text() != m2.read_text()

    def test_utterances_independent_of_count(self, tmp_path):
        """Entry k is a function of (seed, k), not of how many entries exist."""
        build_dataset(DatasetConfig(out_dir=tmp_path / "n2", num_utterances=2,
                                    seconds=0.3, seed=4, max_image_order=1))
        build_dataset(DatasetConfig(out_dir=tmp_path / "n4", num_utterances=4,
                                    seconds=0.3, seed=4, max_image_order=1))
        for name in ("utt0000_mix.wav", "utt0001_mix.wav", "utt0001_dry.wav"):
            assert (tmp_path / "n2" / name).read_bytes() == (tmp_path / "n4" / name).read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        manifest = build_dataset(DatasetConfig(out_dir=tmp_path, num_utterances=2,
                                               seconds=0.3, seed=0, max_image_order=1))
        entries = read_manifest(manifest)
        assert len(entries) == 2
        assert entries[0].uid == "utt0000"
        assert entries[0].mix_path.exists()
        assert entries[0].dry_path.exists()
        # the scene draw is written for the reader, not read back
        draw = manifest_fields(manifest)[0]
        assert 0.0 <= float(draw["snr_db"]) <= 10.0
        assert len(draw["src"].split(",")) == 3

    def test_source_and_noise_positions_differ(self, tmp_path):
        manifest = build_dataset(DatasetConfig(out_dir=tmp_path, num_utterances=3,
                                               seconds=0.3, seed=5, max_image_order=1))
        for draw in manifest_fields(manifest):
            assert draw["src"] != draw["noise"]

    def test_wav_channel_counts(self, tmp_path):
        from mcse.wavio import read_wav

        manifest = build_dataset(DatasetConfig(out_dir=tmp_path, num_utterances=1,
                                               seconds=0.3, seed=0, max_image_order=1))
        e = read_manifest(manifest)[0]
        assert read_wav(e.mix_path).channels == 8
        assert read_wav(e.revclean_path).channels == 8
        assert read_wav(e.dry_path).channels == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DatasetConfig(num_utterances=0)
        with pytest.raises(ValueError):
            DatasetConfig(snr_db_min=5.0, snr_db_max=0.0)

    @pytest.mark.parametrize("seconds", [1e-5, 16 / 16000], ids=["0_samples", "16_samples"])
    def test_too_few_samples_raises(self, seconds):
        n = round(seconds * 16000)
        with pytest.raises(ValueError, match=rf"gives {n} samples at 16000 Hz; at least 17"):
            DatasetConfig(seconds=seconds)

    def test_shortest_renderable_clip(self, tmp_path):
        manifest = build_dataset(DatasetConfig(out_dir=tmp_path, num_utterances=1,
                                               seconds=17 / 16000, max_image_order=0))
        assert len(read_manifest(manifest)) == 1

    @pytest.mark.parametrize("kwargs, message", [
        ({"absorption": 1.5}, r"absorption must lie in \[0, 1\]"),
        ({"room": (1.0, 5.0, 3.0)}, "room too small for the candidate grid"),
        ({"room": (6.0, 5.0, 1.0)}, "outside the room"),
    ], ids=["absorption", "room_x", "room_z"])
    def test_bad_scene_raises_before_writing(self, tmp_path, kwargs, message):
        out = tmp_path / "data"
        with pytest.raises(ValueError, match=message):
            build_dataset(DatasetConfig(out_dir=out, **kwargs))
        assert not out.exists()
