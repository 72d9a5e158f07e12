"""Classical array processing baselines.

Alignment identities use integer delays (exact shifts), prediction
dereverberation is exercised on a constructed two-path signal whose echo
residual can be measured against the dry reference, and beamformer
weights are checked against the defining constraint and a matched-filter
closed form.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

import mcse.baselines as B
from mcse import simkit
from mcse.dsp import Spectrogram, TimeSignal, istft, stft
from mcse.metrics import stoi
from mcse.pipeline import filter_and_sum, init_two_stage_model

rng = np.random.default_rng(41)


def band_limited(length: int, keep: float = 0.6, seed: int = 0) -> np.ndarray:
    r = np.random.default_rng(seed)
    x = r.standard_normal(length)
    spec = np.fft.rfft(x)
    spec[int(keep * len(spec)):] = 0.0
    return np.fft.irfft(spec, n=length)


def hermitian_psd(p: int, seed: int) -> np.ndarray:
    r = np.random.default_rng(seed)
    a = r.standard_normal((p, p)) + 1j * r.standard_normal((p, p))
    return a @ a.conj().T + 0.1 * np.eye(p)


class TestDelayAndSum:
    def test_integer_delay_alignment_identity(self):
        """Channels that are integer-delayed copies collapse back to the
        original once compensated. The tail truncated by the largest
        delay stays out of the comparison window."""
        n = 6000
        x = band_limited(n)
        delays = [0, 3, 7, 12]
        chans = np.zeros((4, n))
        for p, d in enumerate(delays):
            chans[p, d:] = x[: n - d]
        spec = stft(TimeSignal(chans, 16000))
        out = istft(B.delay_and_sum(spec, delays), length=n)
        err = np.abs(out.samples[0] - x)[512:-1024]
        assert err.max() < 1e-6

    def test_diffuse_noise_suppression(self):
        """Averaging 8 aligned channels with independent noise buys about
        9 dB; insist on at least 6."""
        n = 16000
        s = band_limited(n, seed=3)
        noisy = np.stack([
            s + 0.5 * band_limited(n, seed=100 + p) for p in range(8)
        ])
        spec = stft(TimeSignal(noisy, 16000))
        out = istft(B.delay_and_sum(spec, np.zeros(8)), length=n)

        def snr(est):
            noise = est - s
            return 10 * np.log10(np.sum(s[512:-512] ** 2) / np.sum(noise[512:-512] ** 2))

        gain = snr(out.samples[0]) - snr(noisy[0])
        assert gain > 6.0, f"array gain only {gain:.2f} dB"

    def test_needs_one_delay_per_channel(self):
        spec = stft(TimeSignal(rng.standard_normal((3, 4000)), 16000))
        with pytest.raises(ValueError):
            B.delay_and_sum(spec, [0.0, 1.0])

    def test_geometry_delays(self):
        mics = np.array([[0.0, 0, 0], [0.343, 0, 0], [0.686, 0, 0]])
        src = np.array([-10.0, 0.0, 0.0])  # far on the negative x axis
        d = B.geometry_delays(mics, src, 16000)
        # spacing 0.343 m along the propagation axis: 1 ms = 16 samples apart
        np.testing.assert_allclose(d, [0.0, 16.0, 32.0], atol=0.05)


class TestWpe:
    def test_zero_taps_is_identity(self):
        spec = stft(TimeSignal(rng.standard_normal((2, 5000)), 16000), 512, 256, 512)
        out = B.wpe(spec, taps=0)
        np.testing.assert_array_equal(out.re, spec.re)
        np.testing.assert_array_equal(out.im, spec.im)

    def test_anechoic_nearly_untouched(self):
        """With no reverberation there is nothing to predict. The filters
        can still overfit in-sample by roughly (taps * channels) / frames,
        so the signal is made long enough that an honest bound of one
        percent has headroom."""
        n = 640000  # 2499 frames at hop 256 vs 20 filter coefficients
        x = np.stack([band_limited(n, seed=p) for p in range(2)])
        spec = stft(TimeSignal(x, 16000), 512, 256, 512)
        out = B.wpe(spec)
        e_in = np.sum(spec.magnitude() ** 2)
        e_out = np.sum(out.magnitude() ** 2)
        assert abs(e_out - e_in) / e_in < 0.01

    def test_two_path_echo_suppressed(self):
        """A single echo at a whole number of hops sits on one prediction
        tap, and its truncated inverse (lags 4, 8, 12 frames) fits inside
        the default tap window. The source stays active throughout so no
        frame degenerates to the variance floor. Prediction should remove
        at least half of the echo energy, measured against the dry
        reference."""
        fs = 16000
        n = 64000
        echo_at = 1024  # 4 frames at hop 256
        gain = 0.8
        x = band_limited(n, seed=8)
        chans = np.zeros((2, n))
        chans[0] = x
        chans[0, echo_at:] += gain * x[: n - echo_at]
        chans[1, 2:] = x[: n - 2]  # distinct channel, else rank-deficient
        chans[1, echo_at + 2 :] += gain * x[: n - echo_at - 2]

        spec = stft(TimeSignal(chans, fs), 512, 256, 512)
        out = istft(B.wpe(spec), length=n)

        sl = slice(1024, n - 1024)
        echo_in = np.sum((chans[0] - x)[sl] ** 2)
        echo_out = np.sum((out.samples[0] - x)[sl] ** 2)
        assert echo_out <= 0.5 * echo_in, f"echo residual {echo_out / echo_in:.3f}"

    def test_preserves_channel_count(self):
        spec = stft(TimeSignal(rng.standard_normal((3, 8000)), 16000), 512, 256, 512)
        assert B.wpe(spec).channels == 3

    def test_too_short_utterance_raises(self):
        spec = stft(TimeSignal(rng.standard_normal((2, 1024)), 16000), 512, 256, 512)
        with pytest.raises(ValueError):
            B.wpe(spec)  # 3 frames < delay + taps

    def test_bad_arguments(self):
        spec = stft(TimeSignal(rng.standard_normal((2, 8000)), 16000), 512, 256, 512)
        with pytest.raises(ValueError):
            B.wpe(spec, delay=0)
        with pytest.raises(ValueError):
            B.wpe(spec, iterations=0)


class TestMvdrWeights:
    def test_distortionless_constraint(self):
        """w^H d = 1 for arbitrary Hermitian PSD noise and steering."""
        for seed in range(20):
            cov = np.stack([hermitian_psd(6, seed * 31 + k) for k in range(4)])
            d_raw = np.random.default_rng(seed).standard_normal((4, 6)) \
                + 1j * np.random.default_rng(seed + 1).standard_normal((4, 6))
            d = d_raw / np.linalg.norm(d_raw, axis=-1, keepdims=True)
            w = B._mvdr_weights(cov, d, loading=1e-6)
            resp = np.einsum("fp,fp->f", w.conj(), d)
            assert np.max(np.abs(resp - 1.0)) < 1e-6

    def test_identity_noise_gives_matched_filter(self):
        # Rn = I: w = d / (d^H d), so with a unit-norm steering w = d
        d = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        cov = np.tile(np.eye(4, dtype=np.complex128)[None], (3, 1, 1))
        w = B._mvdr_weights(cov, d, loading=0.0)
        np.testing.assert_allclose(w, d, atol=1e-10)

    def test_steering_phase_reference(self):
        cov = np.stack([hermitian_psd(5, k) for k in range(3)])
        d = B.steering_from_covariance(cov)
        # channel 0 must come out real and nonnegative
        assert np.all(np.abs(d[:, 0].imag) < 1e-12)
        assert np.all(d[:, 0].real >= 0.0)

    def test_steering_recovers_rank_one_direction(self):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a /= np.linalg.norm(a)
        cov = 4.0 * np.einsum("p,q->pq", a, a.conj())[None] + 1e-6 * np.eye(5)[None]
        d = B.steering_from_covariance(cov)[0]
        # same direction up to the fixed phase convention
        align = np.abs(np.vdot(d, a)) / (np.linalg.norm(d) * np.linalg.norm(a))
        assert align > 1.0 - 1e-9


class TestMaskMvdr:
    def make_two_source_scene(self, p=6, t=300, f=16, seed=0):
        """Anechoic two-source mixture with known per-band steering."""
        r = np.random.default_rng(seed)
        a_s = np.exp(1j * r.uniform(0, 2 * np.pi, (f, p)))
        a_i = np.exp(1j * r.uniform(0, 2 * np.pi, (f, p)))
        a_s[:, 0] = 1.0
        a_i[:, 0] = 1.0
        s = r.standard_normal((t, f)) + 1j * r.standard_normal((t, f))
        v = r.standard_normal((t, f)) + 1j * r.standard_normal((t, f))
        # time-frequency disjoint activity so oracle masks are clean
        s[t // 2 :] = 0.0
        v[: t // 2] = 0.0
        z = np.einsum("fp,tf->ptf", a_s, s) + np.einsum("fp,tf->ptf", a_i, v)
        sm = np.zeros((t, f))
        sm[: t // 2] = 1.0
        return z, a_s, a_i, sm, 1.0 - sm

    def test_interferer_attenuated_15db(self):
        z, a_s, a_i, sm, nm = self.make_two_source_scene()
        cov = B.CovarianceEstimate.block(z, sm, nm)
        d = B.steering_from_covariance(cov.speech)
        w = B._mvdr_weights(cov.noise, d, loading=1e-6)
        # per band: response to the interferer direction vs channel 0 passthrough
        leak = np.abs(np.einsum("fp,fp->f", w.conj(), a_i))
        ref = np.abs(a_i[:, 0])
        att_db = 20 * np.log10(ref / np.maximum(leak, 1e-30))
        assert att_db.min() > 15.0, f"worst attenuation {att_db.min():.1f} dB"

    def test_speech_direction_preserved(self):
        z, a_s, a_i, sm, nm = self.make_two_source_scene(seed=5)
        cov = B.CovarianceEstimate.block(z, sm, nm)
        d = B.steering_from_covariance(cov.speech)
        w = B._mvdr_weights(cov.noise, d, loading=1e-6)
        resp = np.abs(np.einsum("fp,fp->f", w.conj(), a_s))
        # a_s has unit-modulus entries and d unit norm, so the response is
        # sqrt(P); steering was estimated from data, so allow a few percent
        np.testing.assert_allclose(resp, np.sqrt(z.shape[0]), rtol=0.05)
        assert np.all(resp > 0.9)

    def test_block_output_matches_manual_weights(self):
        z, a_s, a_i, sm, nm = self.make_two_source_scene(seed=2)
        spec = Spectrogram(z.real, z.imag, 32, 16, 32, 16000)
        out = B.mask_mvdr(spec, sm, nm, mode="block")

        cov = B.CovarianceEstimate.block(z, sm, nm)
        d = B.steering_from_covariance(cov.speech)
        w = B._mvdr_weights(cov.noise, d, loading=B.MVDR_LOADING)
        want = np.einsum("fp,ptf->tf", w.conj(), z)
        np.testing.assert_allclose(out.to_complex()[0], want, rtol=1e-9, atol=1e-12)

    def test_frame_mode_runs_and_attenuates(self):
        z, a_s, a_i, sm, nm = self.make_two_source_scene(seed=7)
        spec = Spectrogram(z.real, z.imag, 32, 16, 32, 16000)
        out = B.mask_mvdr(spec, sm, nm, mode="frame", forgetting=0.95)
        assert out.channels == 1
        # at minimum the interferer half must come out quieter than ch0
        t = z.shape[1]
        e_in = np.sum(np.abs(z[0, t // 2 :]) ** 2)
        e_out = np.sum(np.abs(out.to_complex()[0, t // 2 :]) ** 2)
        assert e_out < 0.5 * e_in

    def test_covariances_stay_hermitian_in_frame_mode(self):
        cov = B.CovarianceEstimate.empty(4, 3, 0.9)
        r = np.random.default_rng(0)
        for _ in range(10):
            frame = r.standard_normal((4, 3)) + 1j * r.standard_normal((4, 3))
            cov.update(frame, r.uniform(0, 1, 4), r.uniform(0, 1, 4))
        np.testing.assert_allclose(cov.speech, cov.speech.conj().transpose(0, 2, 1), atol=1e-12)
        np.testing.assert_allclose(cov.noise, cov.noise.conj().transpose(0, 2, 1), atol=1e-12)

    def test_mask_validation(self):
        z = rng.standard_normal((2, 10, 4)) + 1j * rng.standard_normal((2, 10, 4))
        spec = Spectrogram(z.real, z.imag, 8, 4, 8, 16000)
        good = np.full((10, 4), 0.5)
        with pytest.raises(ValueError):
            B.mask_mvdr(spec, good * 3.0, good)  # out of range
        with pytest.raises(ValueError):
            B.mask_mvdr(spec, np.zeros((10, 4)), good)  # all zero
        with pytest.raises(ValueError):
            B.mask_mvdr(spec, np.full((4, 10), 0.5), good)  # wrong shape
        with pytest.raises(ValueError):
            B.mask_mvdr(spec, good, good, mode="sliding")
        for mode, forgetting in (("block", 5.0), ("block", 1.0), ("frame", 0.0)):
            with pytest.raises(ValueError, match=r"forgetting factor must lie in \(0, 1\)"):
                B.mask_mvdr(spec, good, good, mode=mode, forgetting=forgetting)

    def test_oracle_masks_complementary(self):
        s = stft(TimeSignal(rng.standard_normal((2, 4000)), 16000))
        n = stft(TimeSignal(rng.standard_normal((2, 4000)), 16000))
        sm, nm = B.oracle_masks(s, n)
        assert sm.shape == (s.frames, s.bins)
        assert sm.min() >= 0.0 and sm.max() <= 1.0
        np.testing.assert_allclose(sm + nm, 1.0, atol=1e-12)


def frame_mvdr_eigh(y: Spectrogram, speech_mask, noise_mask) -> Spectrogram:
    """Frame-mode MVDR with a full eigendecomposition per frame: the
    reference the tracked steering is held to."""
    z = y.to_complex()
    p, t_len, f_bins = z.shape
    cov = B.CovarianceEstimate.empty(f_bins, p)
    out = np.empty((t_len, f_bins), dtype=np.complex128)
    for t in range(t_len):
        cov.update(z[:, t, :].T, speech_mask[t], noise_mask[t])
        d = B.steering_from_covariance(cov.speech)
        w = B._mvdr_weights(cov.noise, d, B.MVDR_LOADING)
        out[t] = np.einsum("fp,fp->f", w.conj(), z[:, t, :].T)
    return y.like(out.real[None].copy(), out.imag[None].copy())


class TestSteeringTracker:
    def test_converges_on_stationary_rank_one_speech(self):
        f, p = 5, 6
        r = np.random.default_rng(3)
        a = r.standard_normal((f, p)) + 1j * r.standard_normal((f, p))
        cov = B.CovarianceEstimate.empty(f, p, 0.9)
        # start far from the answer: a random unit vector per band
        d = r.standard_normal((f, p)) + 1j * r.standard_normal((f, p))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        for _ in range(40):
            s = r.standard_normal(f) + 1j * r.standard_normal(f)
            cov.update(a * s[:, None], np.ones(f), np.zeros(f))
            d = B._track_steering(cov.speech, d)
        want = B.steering_from_covariance(cov.speech)
        align = np.abs(np.einsum("fp,fp->f", want.conj(), d))
        assert np.all(align >= 1.0 - 1e-9)
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, rtol=1e-12)
        # phase-normalized to channel 0, as steering_from_covariance is
        np.testing.assert_allclose(d, want, atol=1e-9)

    def test_zero_covariance_band_keeps_steering(self):
        """Bands whose power step vanishes or underflows keep the previous
        steering; the rest move, and every band stays unit norm."""
        r = np.random.default_rng(4)
        cov = hermitian_psd(4, seed=1)[None].repeat(4, axis=0)
        cov[1] = 0.0
        cov[2] *= 1e-320 / np.abs(cov[2]).max()  # subnormal entries
        cov[3] *= 1e-160 / np.abs(cov[3]).max()  # squared norm is subnormal
        d = r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        d *= np.exp(-1j * np.angle(d[:, [0]]))
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = B._track_steering(cov, d)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(np.linalg.norm(got, axis=-1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(got[1:], d[1:], rtol=1e-12)
        assert not np.allclose(got[0], d[0])

    def test_frame_mode_stays_finite_when_speech_covariance_underflows(self):
        """Speech mask zero in band 0 throughout: its speech covariance is
        only the decaying 1e-8 loading, which reaches exactly zero."""
        r = np.random.default_rng(6)
        p, t, f = 3, 1200, 4
        z = r.standard_normal((p, t, f)) + 1j * r.standard_normal((p, t, f))
        sm = r.uniform(0.2, 0.8, (t, f))
        sm[:, 0] = 0.0
        spec = Spectrogram(z.real, z.imag, 8, 4, 8, 16000)
        cov = B.CovarianceEstimate.empty(f, p, 0.5)
        for k in range(t):
            cov.update(z[:, k, :].T, sm[k], 1.0 - sm[k])
        assert np.all(cov.speech[0] == 0.0)
        out = B.mask_mvdr(spec, sm, 1.0 - sm, mode="frame", forgetting=0.5)
        assert np.all(np.isfinite(out.to_complex()))

    def test_rendered_scene_within_tracking_tolerance(self):
        """One rendered 8-channel scene with oracle masks: the tracked
        steering stays within STOI 0.005 and 5% relative output error of
        the per-frame eigendecomposition."""
        r = np.random.default_rng(12)
        scene = simkit.SceneSpec()
        n = 16000
        mixture, revclean, dry = simkit.mix(
            simkit.synth_speech(r, n), simkit.synth_noise(r, n),
            simkit.simulate_rir(scene, "source"), simkit.simulate_rir(scene, "noise"),
            scene.snr_db,
        )
        noise = TimeSignal(mixture.samples - revclean.samples, mixture.sample_rate)
        sm, nm = B.oracle_masks(stft(revclean), stft(noise))
        y = stft(mixture)
        got = istft(B.mask_mvdr(y, sm, nm, mode="frame"), length=n).samples[0]
        want = istft(frame_mvdr_eigh(y, sm, nm), length=n).samples[0]
        assert np.linalg.norm(got - want) <= 0.05 * np.linalg.norm(want)
        ref = dry.samples[0]
        assert abs(stoi(ref, got, 16000) - stoi(ref, want, 16000)) <= 0.005


def frame_mvdr_loop(y: Spectrogram, speech_mask, noise_mask) -> Spectrogram:
    """Frame-mode MVDR one frame at a time on the calling thread, with the
    tracked steering: the reference the blocked, two-thread run is held to
    byte for byte."""
    z = y.to_complex()
    p, t_len, f_bins = z.shape
    cov = B.CovarianceEstimate.empty(f_bins, p)
    out = np.empty((t_len, f_bins), dtype=np.complex128)
    d = None
    for t in range(t_len):
        frame = z[:, t, :].T
        cov.update(frame, speech_mask[t], noise_mask[t])
        d = B.steering_from_covariance(cov.speech) if d is None else B._track_steering(
            cov.speech, d)
        w = B._mvdr_weights(cov.noise, d, B.MVDR_LOADING)
        out[t] = np.einsum("fp,fp->f", w.conj(), frame)
    return y.like(out.real[None].copy(), out.imag[None].copy())


def random_spec(p, t, bins, seed):
    r = np.random.default_rng(seed)
    z = r.standard_normal((p, t, bins)) + 1j * r.standard_normal((p, t, bins))
    return Spectrogram(z.real, z.imag, 2 * bins, 1, 2 * bins, 16000)


def same_bytes(a: Spectrogram, b: Spectrogram) -> bool:
    return a.re.tobytes() == b.re.tobytes() and a.im.tobytes() == b.im.tobytes()


def refuse_zero_band(monkeypatch, up_to):
    """np.linalg.solve that raises LinAlgError on the loaded normal
    equations of an all-zero band, load * I, while the load is at most
    up_to; every other system is solved."""
    solve = np.linalg.solve

    def fake(a, b):
        if a.ndim == 2 and np.all(a == a[0, 0] * np.eye(len(a))) and a[0, 0].real <= up_to:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fake)


class TestWorkerSplit:
    """WPE and frame-mode MVDR hand half their work to the runtime.pair
    worker; that changes no byte of the output."""

    @pytest.mark.parametrize("bins", [7, 8])
    def test_wpe_threaded_equals_one_thread(self, two_and_one_thread, bins):
        y = random_spec(3, 40, bins, seed=bins)
        two, one = two_and_one_thread(lambda: B.wpe(y))
        assert same_bytes(two, one)

    @pytest.mark.parametrize("frames", [1, B.MVDR_BLOCK, 2 * B.MVDR_BLOCK + 3])
    @pytest.mark.parametrize("bins", [7, 8])
    def test_frame_mvdr_threaded_equals_one_thread_and_frame_loop(self, two_and_one_thread,
                                                                  frames, bins):
        y = random_spec(4, frames, bins, seed=frames)
        sm = np.random.default_rng(bins).uniform(0.0, 1.0, (frames, bins))
        two, one = two_and_one_thread(lambda: B.mask_mvdr(y, sm, 1.0 - sm, mode="frame"))
        assert same_bytes(two, one)
        assert same_bytes(two, frame_mvdr_loop(y, sm, 1.0 - sm))

    def test_wpe_unsolvable_band_raises_after_both_halves(self, threaded, monkeypatch):
        """The first band of the worker's half fails at once; the error
        still comes only after the caller's half has solved every band."""
        bins = 9
        half = (bins + 1) // 2
        y = random_spec(2, 30, bins, seed=1)
        y.re[:, :, half] = 0.0
        y.im[:, :, half] = 0.0
        refuse_zero_band(monkeypatch, up_to=np.inf)
        solved = []
        solve_loaded = B._solve_loaded
        monkeypatch.setattr(B, "_solve_loaded", lambda r, rhs, band, eye: (
            solved.append(band), solve_loaded(r, rhs, band, eye))[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(np.linalg.LinAlgError, match=f"unsolvable at band {half}$"):
                B.wpe(y, iterations=2)
        assert sorted(b for b in solved if b < half) == sorted(list(range(half)) * 2)
        assert [b for b in solved if b >= half] == [half]

    def test_wpe_singular_band_in_worker_half_warns(self, threaded, monkeypatch):
        bins = 9
        y = random_spec(2, 30, bins, seed=2)
        y.re[:, :, bins - 1] = 0.0
        y.im[:, :, bins - 1] = 0.0
        refuse_zero_band(monkeypatch, up_to=1e-9)  # the first, smallest load only
        with pytest.warns(UserWarning, match=f"singular at band {bins - 1}; increasing"):
            out = B.wpe(y)
        assert np.all(np.isfinite(out.to_complex()))
        assert not np.any(out.to_complex()[:, :, bins - 1])


class TestFilterSum:
    """The learned filter-and-sum baseline: Stage I of a two-stage model,
    summed over channels."""

    def test_model_collapses_channels(self):
        model = init_two_stage_model(2, Fraction(1, 16), seed=0)
        y = rng.standard_normal((2, 4, 256)) + 1j * rng.standard_normal((2, 4, 256))
        spec = Spectrogram(y.real, y.imag, 512, 64, 512, 16000)
        out = filter_and_sum(spec, model)
        assert out.channels == 1
        assert out.re.shape == (1, 4, 256)

    def test_channel_mismatch_raises(self):
        model = init_two_stage_model(2, Fraction(1, 16), seed=0)
        spec = Spectrogram(np.zeros((3, 4, 256)), np.zeros((3, 4, 256)), 512, 64, 512, 16000)
        with pytest.raises(ValueError, match="model expects 2 channels, got 3"):
            filter_and_sum(spec, model)
