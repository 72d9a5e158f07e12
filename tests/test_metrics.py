"""Intelligibility scoring, transcript error rate, and the combined score.

The edit distance under wer() is checked against a tiny recursive oracle
on short token lists. STOI has no closed form worth freezing, so the
tests pin its behavioral contract instead: perfect on identical and on
attenuated input, monotonically falling as noise rises, and failing
loudly on silence or too-short signals. Its resampler is checked against
scipy.signal.resample_poly, whose default filter it reproduces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import resample_poly

from mcse import simkit
from mcse.metrics import STOI_FS, MetricReport, UtteranceScore, _resample, challenge_metric, stoi, wer


def speechlike(n: int, fs: int = 16000, seed: int = 0) -> np.ndarray:
    """Carriers between 300 Hz and 3.4 kHz, each with its own slow
    amplitude modulation. Gives STOI real envelopes to correlate."""
    r = np.random.default_rng(seed)
    t = np.arange(n) / fs
    x = np.zeros(n)
    for cf in (300.0, 520.0, 900.0, 1500.0, 2300.0, 3400.0):
        rate = r.uniform(2.0, 7.0)
        env = 1.0 + np.sin(2 * np.pi * rate * t + r.uniform(0, 2 * np.pi))
        x += env * np.sin(2 * np.pi * cf * t + r.uniform(0, 2 * np.pi))
    return x / np.abs(x).max()


def edit_oracle(ref: tuple, est: tuple) -> int:
    """Plain recursion over all alignments; only sane for short lists."""
    if not ref:
        return len(est)
    if not est:
        return len(ref)
    return min(
        edit_oracle(ref[1:], est[1:]) + (ref[0] != est[0]),
        edit_oracle(ref[1:], est) + 1,
        edit_oracle(ref, est[1:]) + 1,
    )


class TestStoi:
    def test_self_similarity(self):
        x = speechlike(24000)
        assert stoi(x, x, 16000) >= 0.999

    def test_attenuation_invariance(self):
        """Per-segment normalization removes static gain differences."""
        x = speechlike(24000, seed=1)
        assert stoi(x, 0.25 * x, 16000) >= 0.999

    def test_monotonic_under_noise(self):
        r = np.random.default_rng(7)
        x = speechlike(24000, seed=2)
        noise = r.standard_normal(x.shape[0])
        noise /= np.sqrt(np.mean(noise**2))
        rms = np.sqrt(np.mean(x**2))
        scores = []
        for snr_db in (20.0, 10.0, 0.0, -10.0):
            deg = x + noise * rms * 10.0 ** (-snr_db / 20.0)
            scores.append(stoi(x, deg, 16000))
        assert all(a > b for a, b in zip(scores, scores[1:])), scores
        assert scores[0] - scores[-1] > 0.15

    def test_unrelated_noise_scores_low(self):
        x = speechlike(24000, seed=3)
        noise = np.random.default_rng(9).standard_normal(x.shape[0])
        assert stoi(x, noise, 16000) < 0.6

    def test_native_rate_needs_no_resampling(self):
        x = speechlike(15000, fs=10000, seed=4)
        assert stoi(x, x, 10000) >= 0.999

    def test_silent_reference_raises(self):
        z = np.zeros(24000)
        with pytest.raises(ValueError):
            stoi(z, speechlike(24000), 16000)

    def test_too_short_raises(self):
        x = speechlike(1000)
        with pytest.raises(ValueError):
            stoi(x, x, 16000)

    def test_length_mismatch_raises(self):
        x = speechlike(24000)
        with pytest.raises(ValueError):
            stoi(x, x[:-1], 16000)

    def test_multichannel_raises(self):
        x = np.zeros((2, 24000))
        with pytest.raises(ValueError):
            stoi(x, x, 16000)


class TestResample:
    # the last two inputs are shorter than their filter (161 and 8821 taps)
    @pytest.mark.parametrize("fs, n", [(8000, 12000), (16000, 24000), (44100, 66150),
                                       (48000, 72000), (16000, 100), (44100, 300)])
    def test_matches_scipy_resample_poly(self, fs, n):
        x = np.random.default_rng(n).standard_normal(n)
        g = int(np.gcd(fs, STOI_FS))
        want = resample_poly(x, STOI_FS // g, fs // g)
        got = _resample(x, STOI_FS // g, fs // g)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_stoi_of_a_scene_matches_scipy_resampled(self):
        """STOI at 16 kHz equals STOI at its native rate on the signals
        resample_poly takes to 10 kHz."""
        r = np.random.default_rng(5)
        scene = simkit.SceneSpec(max_image_order=6)
        s, n = simkit.synth_speech(r, 24000), simkit.synth_noise(r, 24000)
        mixture, _, dry = simkit.mix(s, n, simkit.simulate_rir(scene, "source"),
                                     simkit.simulate_rir(scene, "noise"), 5.0)
        ref, deg = dry.samples[0], mixture.samples[0]
        want = stoi(resample_poly(ref, 5, 8), resample_poly(deg, 5, 8), STOI_FS)
        assert abs(stoi(ref, deg, 16000) - want) <= 1e-12


class TestWer:
    @pytest.mark.parametrize(
        "ref, est, expected",
        [
            ("the cat sat", "the cat sat", 0.0),
            ("the cat sat", "the hat sat", 1 / 3),
            ("a b c d", "a b c", 0.25),  # one deletion
            ("a b c", "a x b c", 1 / 3),  # one insertion
            ("a b", "x y z q w", 2.5),  # nothing aligns, length 5 edits
        ],
    )
    def test_hand_scored(self, ref, est, expected):
        assert wer(ref.split(), est.split()) == pytest.approx(expected)

    def test_empty_estimate_is_all_deletions(self):
        assert wer(["a", "b", "c"], []) == 1.0

    def test_empty_reference_raises(self):
        with pytest.raises(ValueError):
            wer([], ["a"])

    def test_against_recursive_oracle(self):
        r = np.random.default_rng(5)
        alphabet = ["a", "b", "c"]
        for _ in range(60):
            ref = [alphabet[i] for i in r.integers(0, 3, r.integers(1, 6))]
            est = [alphabet[i] for i in r.integers(0, 3, r.integers(0, 6))]
            assert wer(ref, est) == edit_oracle(tuple(ref), tuple(est)) / len(ref)

    @given(
        ref=st.lists(st.sampled_from("abc"), min_size=1, max_size=12),
        est=st.lists(st.sampled_from("abc"), max_size=12),
        tok=st.sampled_from("abc"),
    )
    @settings(max_examples=80, deadline=None)
    def test_edit_distance_properties(self, ref, est, tok):
        base = wer(ref, est) * len(ref)
        assert wer(ref, ref) == 0.0
        assert base >= abs(len(ref) - len(est)) - 1e-12
        # appending one token moves the distance by at most one
        grown = wer(ref, est + [tok]) * len(ref)
        assert abs(grown - base) <= 1.0 + 1e-12


class TestChallengeMetric:
    @pytest.mark.parametrize(
        "s, w, expected",
        [
            (1.0, 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (0.8, 0.2, 0.8),
            (0.6, 0.5, 0.55),
        ],
    )
    def test_arithmetic(self, s, w, expected):
        assert challenge_metric(s, w) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "s, w, expected_3dp",
        [
            (0.975, 0.036, 0.970),
            (0.615, 0.389, 0.613),
        ],
    )
    def test_rounded_to_three_decimals(self, s, w, expected_3dp):
        raw = challenge_metric(s, w)
        rounded = np.floor(raw * 1000.0 + 0.5) / 1000.0
        assert rounded == pytest.approx(expected_3dp, abs=1e-12)

    @pytest.mark.parametrize("s, w", [(1.2, 0.0), (-0.1, 0.0), (0.5, 1.01), (0.5, -0.2)])
    def test_out_of_range_raises(self, s, w):
        with pytest.raises(ValueError):
            challenge_metric(s, w)


class TestReport:
    def test_combined_requires_wer(self):
        u = UtteranceScore("u", 0.9)
        assert u.combined is None

    def test_combined_clamps_runaway_wer(self):
        # insertion-heavy transcripts can push WER past 1
        u = UtteranceScore("u", 0.9, wer=1.7)
        assert u.combined == pytest.approx(0.45)

    def test_means_skip_missing_wer(self):
        rep = MetricReport()
        rep.add("a", 0.8, 0.2)
        rep.add("b", 0.6)
        assert rep.mean_stoi == pytest.approx(0.7)
        assert rep.mean_wer == pytest.approx(0.2)
        assert rep.mean_combined == pytest.approx(0.8)

    def test_all_missing_wer_gives_none(self):
        rep = MetricReport()
        rep.add("a", 0.8)
        assert rep.mean_wer is None
        assert rep.mean_combined is None

    def test_empty_report_raises(self):
        with pytest.raises(ValueError):
            MetricReport().mean_stoi

    def test_text_format(self):
        rep = MetricReport()
        rep.add("utt0", 0.75, 0.25)
        rep.add("utt1", 0.5)
        text = rep.to_text().splitlines()
        assert text[0] == "utt0  stoi=0.7500  wer=0.2500  combined=0.7500"
        assert text[1] == "utt1  stoi=0.5000  wer=-  combined=-"
        assert text[2].startswith("aggregate  stoi=0.6250")

    def test_keyvalues_parse_back(self):
        rep = MetricReport()
        rep.add("utt0", 0.7512, 0.33)
        lines = rep.to_keyvalues().splitlines()
        table = dict(line.split(" = ") for line in lines)
        assert float(table["utterance.utt0.stoi"]) == pytest.approx(0.7512)
        assert float(table["aggregate.combined"]) == pytest.approx((0.7512 + 0.67) / 2)
