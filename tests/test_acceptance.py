"""Acceptance checklist: one test per criterion, run in order.

Every test ends by writing a [PASS] line with its measured numbers
straight to the real stdout, bypassing pytest capture, so a full run
prints a nine-line checklist even with -q. Tolerances are pinned at the
assert sites; none of them are derived from the measured values.

The overfit criterion trains both stages of a 1/8-width model on a
single simulated utterance and is the slow test of the whole suite
(a few minutes of CPU); everything else is seconds.
"""

import sys
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

import mcse.baselines as B
from crn_trace import trace_crn
from gradcheck import check_grads, numeric_grad, to_float64
from mcse import layers as L
from mcse.checkpoint import load_checkpoint, save_checkpoint
from mcse.crn import FREQ_BINS, CrnConfig, init_crn_params
from mcse.dsp import TimeSignal, istft, stft
from mcse.loss import mag_hurts_loss, ri_mag_loss, total_loss
from mcse.metrics import challenge_metric, stoi
from mcse.optim import TrainConfig
from mcse.pipeline import (
    enhance,
    init_two_stage_model,
    spatial_tensors,
    stage1_tensors,
    stage2_tensors,
)
from mcse.simkit import DatasetConfig, build_dataset, read_manifest
from mcse.tensor import Tensor
from mcse.train import load_training_set, train
from mcse.wavio import read_wav

rng = np.random.default_rng(2024)


def note(line: str):
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def band_limited(channels: int, length: int, keep: float = 0.6, seed: int = 0):
    r = np.random.default_rng(seed)
    x = r.standard_normal((channels, length))
    spec = np.fft.rfft(x, axis=-1)
    spec[:, int(keep * spec.shape[-1]):] = 0.0
    return np.fft.irfft(spec, n=length, axis=-1)


def test_c1_full_width_shapes_and_parameter_count(monkeypatch):
    t0 = time.time()
    cfg = CrnConfig(c_in=16, c_out=16, width_scale=Fraction(1))
    params = init_crn_params(cfg, np.random.default_rng(0))
    total = sum(t.data.size for t in params.params.values())
    assert total == 14_233_760

    trace, (re, im) = trace_crn(
        monkeypatch, rng.standard_normal((16, 4, 256)).astype(np.float32), params
    )
    shapes = dict(trace)
    assert shapes["enc5"] == (256, 4, 4)
    assert shapes["lstm_in"] == (1, 4, 1024)
    assert shapes["lstm_out"] == (1, 4, 1024)
    assert shapes["dec_re5"] == (8, 4, 256)
    assert re.shape == (8, 4, 256) and im.shape == (8, 4, 256)
    dt = time.time() - t0
    assert dt < 60.0
    note(f"[PASS] criterion 1: full-width parameter count {total:,} and "
         f"encoder/recurrent/decoder shapes as specified ({dt:.1f}s)")


def test_c2_finite_difference_gradients():
    t0 = time.time()
    r = np.random.default_rng(3)

    # single ops at relative 1e-4
    x = r.standard_normal((3, 2, 8))
    w = r.standard_normal((4, 3, 1, 3))
    b = r.standard_normal(4)
    check_grads(lambda x, w, b: L.conv2d(x, w, b).sum(), (x, w, b), rtol=1e-4)

    xd = r.standard_normal((4, 2, 4))
    wd = r.standard_normal((4, 3, 1, 3))
    bd = np.linspace(-0.5, 0.5, 3)  # not drawn from r, whose later draws feed the checks below
    check_grads(lambda x, w, b: L.deconv2d(x, w, b).sum(), (xd, wd, bd), rtol=1e-4)

    g = r.standard_normal(3)
    be = r.standard_normal(3)
    rm = np.zeros(3)
    rv = np.ones(3)
    check_grads(
        lambda x, g, be: L.batchnorm2d(x, g, be, rm.copy(), rv.copy()).sum(),
        (x, g, be), rtol=1e-4,
    )
    gl = r.standard_normal(8)
    bl8 = r.standard_normal(8)
    check_grads(lambda x, g, be: L.layernorm(x, g, be).sum(), (x, gl, bl8), rtol=1e-4)
    slope = np.full(3, 0.25)
    check_grads(lambda x, a: L.prelu(x, a).sum(), (x, slope), rtol=1e-4)

    xs = r.standard_normal((2, 3, 4))
    w_ih = r.standard_normal((8, 4)) * 0.4
    w_hh = r.standard_normal((8, 2)) * 0.4
    bl = r.standard_normal(8) * 0.1
    # the bw direction's weights come from their own generator, so the
    # composed check below keeps its data
    rb = np.random.default_rng(4)
    bw = (rb.standard_normal((8, 4)) * 0.4, rb.standard_normal((8, 2)) * 0.4,
          rb.standard_normal(8) * 0.1)
    check_grads(lambda x, *w: L.lstm_cell_seq(x, w[:3], w[3:]).sum(),
                (xs, w_ih, w_hh, bl, *bw), rtol=1e-4)

    # composed: whole two-stage forward into the training loss, float64,
    # sampled coordinates per parameter at relative 1e-3
    model = to_float64(init_two_stage_model(p_channels=2, width_scale=Fraction(1, 16), seed=5))
    y_re = 0.3 * r.standard_normal((2, 6, FREQ_BINS))
    y_im = 0.3 * r.standard_normal((2, 6, FREQ_BINS))
    t_re = 0.3 * r.standard_normal((6, FREQ_BINS))
    t_im = 0.3 * r.standard_normal((6, FREQ_BINS))

    def loss_value() -> float:
        s_re, s_im = stage1_tensors(Tensor(y_re), Tensor(y_im), model)
        f_re, f_im = spatial_tensors(s_re, s_im, model)
        e = stage2_tensors(f_re, f_im, Tensor(y_re[0]), Tensor(y_im[0]), model)
        return total_loss(e, (t_re, t_im))

    loss = loss_value()
    for p in model.named_params().values():
        p.zero_grad()
    loss.backward()

    params = model.named_params()
    picks = []
    for pattern in ("stage1.enc0.w", "stage1.lstm.l0.fw.w_ih", "spatial.fc.w",
                    "spatial.lstm.l0.fw.w_hh", "stage2.enc0.w"):
        picks.append(next(k for k in params if k == pattern))
    picks.append(next(k for k in params if "dec" in k and k.endswith(".w")))

    # A step of 1e-5 can straddle a PReLU kink or the magnitude-hurts ReLU
    # kink and disagree with the exact one-sided gradient; 1e-6 clears them
    # at every coordinate checked here. Coordinates are seeded by crc32
    # because str hash() is salted per process.
    step = 1e-6
    checked = 0
    worst = 0.0
    for name in picks:
        p = params[name]
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for idx in np.random.default_rng(zlib.crc32(name.encode())).integers(0, flat.size, 3):
            keep = flat[idx]
            flat[idx] = keep + step
            hi = loss_value().item()
            flat[idx] = keep - step
            lo = loss_value().item()
            flat[idx] = keep
            num = (hi - lo) / (2 * step)
            ana = float(gflat[idx])
            assert abs(ana - num) <= 1e-3 * max(abs(ana), abs(num)) + 1e-8, \
                f"{name}[{idx}]: analytic {ana:.3e} vs numeric {num:.3e}"
            worst = max(worst, abs(ana - num) / max(abs(ana), abs(num), 1e-12))
            checked += 1
    dt = time.time() - t0
    assert dt < 300.0
    note(f"[PASS] criterion 2: finite differences match analytic gradients, "
         f"single ops at rel 1e-4 and {checked} composed coordinates at rel 1e-3, "
         f"worst rel {worst:.1e} ({dt:.1f}s)")


def test_c3_stft_round_trip():
    x = band_limited(2, 5000, keep=0.7, seed=1)
    sig = TimeSignal(x, 16000)
    y = istft(stft(sig), length=5000)
    err = np.abs(y.samples - x)[:, 512:-512].max()
    assert err < 1e-6
    note(f"[PASS] criterion 3: band-limited analysis/synthesis round trip, "
         f"interior error {err:.2e} < 1e-6")


def test_c4_loss_identities():
    r = np.random.default_rng(4)
    tgt = (r.standard_normal((3, 8)), r.standard_normal((3, 8)))

    at_target = total_loss((Tensor(tgt[0].copy()), Tensor(tgt[1].copy())), tgt).item()
    assert at_target == 0.0

    # one bin, estimate 1+0j against target 0+1j on the compressed scale:
    # unit magnitudes survive compression, so RI error is |1 - 1j|^2 = 2
    est = (Tensor(np.array([[1.0]])), Tensor(np.array([[0.0]])))
    hand = ri_mag_loss(est, (np.array([[0.0]]), np.array([[1.0]])))
    assert hand.item() == pytest.approx(2.0, rel=1e-6)

    # over-estimation is never punished by the one-sided magnitude term
    worst = 0.0
    for k in range(1000):
        rk = np.random.default_rng(k)
        t_re = rk.standard_normal((4, 6))
        t_im = rk.standard_normal((4, 6))
        scale = rk.uniform(1.0, 3.0)
        phase = rk.uniform(0, 2 * np.pi)
        e_re = scale * (np.cos(phase) * t_re - np.sin(phase) * t_im)
        e_im = scale * (np.sin(phase) * t_re + np.cos(phase) * t_im)
        worst = max(worst, mag_hurts_loss((Tensor(e_re), Tensor(e_im)),
                                          (t_re, t_im)).item())
    assert worst == 0.0
    note("[PASS] criterion 4: loss zero at target, hand-worked RI value, and "
         "1000 amplified estimates never penalized by the one-sided term")


def test_c5_combined_metric_arithmetic():
    def round3(x: float) -> float:
        return float(np.floor(x * 1000.0 + 0.5) / 1000.0)

    assert challenge_metric(1.0, 0.0) == 1.0
    assert challenge_metric(0.0, 1.0) == 0.0
    assert round3(challenge_metric(0.975, 0.036)) == pytest.approx(0.970)
    assert round3(challenge_metric(0.615, 0.389)) == pytest.approx(0.613)
    with pytest.raises(ValueError):
        challenge_metric(1.2, 0.0)
    note("[PASS] criterion 5: combined score arithmetic matches the published "
         "pairs at three decimals")


def test_c6_mvdr_constraint_and_attenuation():
    t0 = time.time()
    worst_resp = 0.0
    for seed in range(20):
        r = np.random.default_rng(seed)
        a = r.standard_normal((4, 6)) + 1j * r.standard_normal((4, 6))
        cov = np.einsum("fp,fq->fpq", a, a.conj()) + np.eye(6)[None]
        d = r.standard_normal((4, 6)) + 1j * r.standard_normal((4, 6))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        w = B._mvdr_weights(cov, d, loading=1e-6)
        resp = np.einsum("fp,fp->f", w.conj(), d)
        worst_resp = max(worst_resp, float(np.max(np.abs(resp - 1.0))))
    assert worst_resp < 1e-6

    # two anechoic sources with disjoint activity and oracle masks
    p, t, f = 6, 300, 16
    r = np.random.default_rng(0)
    a_s = np.exp(1j * r.uniform(0, 2 * np.pi, (f, p)))
    a_i = np.exp(1j * r.uniform(0, 2 * np.pi, (f, p)))
    a_s[:, 0] = 1.0
    a_i[:, 0] = 1.0
    s = r.standard_normal((t, f)) + 1j * r.standard_normal((t, f))
    v = r.standard_normal((t, f)) + 1j * r.standard_normal((t, f))
    s[t // 2:] = 0.0
    v[: t // 2] = 0.0
    z = np.einsum("fp,tf->ptf", a_s, s) + np.einsum("fp,tf->ptf", a_i, v)
    sm = np.zeros((t, f))
    sm[: t // 2] = 1.0

    cov = B.CovarianceEstimate.block(z, sm, 1.0 - sm)
    d = B.steering_from_covariance(cov.speech)
    w = B._mvdr_weights(cov.noise, d, loading=1e-6)
    leak = np.abs(np.einsum("fp,fp->f", w.conj(), a_i))
    att_db = 20 * np.log10(np.abs(a_i[:, 0]) / np.maximum(leak, 1e-30))
    dt = time.time() - t0
    assert att_db.min() > 15.0
    assert dt < 120.0
    note(f"[PASS] criterion 6: distortionless response |w^H d - 1| "
         f"{worst_resp:.1e} < 1e-6 over 20 draws; interferer attenuated "
         f">= {att_db.min():.1f} dB ({dt:.1f}s)")


def test_c7_wpe_behavior():
    t0 = time.time()
    # anechoic: long stationary signal so in-sample overfit (~taps*P/T)
    # sits well inside the one-percent bound
    n = 640000
    x = band_limited(2, n, seed=0)
    spec = stft(TimeSignal(x, 16000), 512, 256, 512)
    out = B.wpe(spec)
    e_in = np.sum(spec.magnitude() ** 2)
    e_out = np.sum(out.magnitude() ** 2)
    anech = abs(e_out - e_in) / e_in
    assert anech < 0.01

    # two-path: echo on a whole tap, truncated inverse inside the window
    n = 64000
    echo_at, gain = 1024, 0.8
    dry = band_limited(1, n, seed=8)[0]
    chans = np.zeros((2, n))
    chans[0] = dry
    chans[0, echo_at:] += gain * dry[: n - echo_at]
    chans[1, 2:] = dry[: n - 2]
    chans[1, echo_at + 2:] += gain * dry[: n - echo_at - 2]
    deverb = istft(B.wpe(stft(TimeSignal(chans, 16000), 512, 256, 512)), length=n)
    sl = slice(1024, n - 1024)
    echo_in = np.sum((chans[0] - dry)[sl] ** 2)
    echo_out = np.sum((deverb.samples[0] - dry)[sl] ** 2)
    ratio = echo_out / echo_in
    dt = time.time() - t0
    assert ratio <= 0.5
    note(f"[PASS] criterion 7: anechoic energy change {anech*100:.2f}% < 1%, "
         f"two-path echo residual {ratio*100:.0f}% <= 50% ({dt:.1f}s)")


def test_c8_overfit_single_utterance(tmp_path):
    t0 = time.time()
    manifest = build_dataset(DatasetConfig(out_dir=tmp_path / "d", num_utterances=1,
                                           seconds=0.7, seed=11))
    model = init_two_stage_model(p_channels=8, width_scale=Fraction(1, 8), seed=0)
    data = load_training_set(manifest)

    c1 = train(data, model, TrainConfig(batch_size=1, lr=1e-2, max_iters=150,
                                        stage="stage1", seed=0,
                                        lr_halving_interval=100_000))
    r1 = c1[-1][2] / c1[0][2]
    assert len(c1) <= 2000
    assert r1 < 0.10, f"stage1 loss only fell to {r1:.3f} of initial"

    c2 = train(data, model, TrainConfig(batch_size=1, lr=1e-2, max_iters=250,
                                        stage="stage2", seed=0,
                                        lr_halving_interval=100_000))
    r2 = c2[-1][2] / c2[0][2]
    assert len(c2) <= 2000
    assert r2 < 0.10, f"stage2 loss only fell to {r2:.3f} of initial"

    entry = read_manifest(manifest)[0]
    mix = read_wav(entry.mix_path)
    dry = read_wav(entry.dry_path)
    out = enhance(mix, model)
    s_mix = stoi(dry.samples[0], mix.samples[0], 16000)
    s_out = stoi(dry.samples[0], out.samples[0], 16000)
    dt = time.time() - t0
    assert s_out > s_mix, f"stoi {s_mix:.4f} -> {s_out:.4f} did not improve"
    assert dt < 900.0, f"took {dt:.0f}s, budget is 15 minutes"
    note(f"[PASS] criterion 8: single-utterance overfit, stage1 loss x{r1:.3f}, "
         f"stage2 loss x{r2:.3f}, stoi {s_mix:.4f} -> {s_out:.4f} ({dt:.0f}s)")


def test_c9_determinism(tmp_path):
    # same-seed dataset rebuilds byte-identically
    m1 = build_dataset(DatasetConfig(out_dir=tmp_path / "a", num_utterances=1,
                                     seconds=0.5, seed=21))
    m2 = build_dataset(DatasetConfig(out_dir=tmp_path / "b", num_utterances=1,
                                     seconds=0.5, seed=21))
    assert m1.read_text() == m2.read_text().replace(str(tmp_path / "b"),
                                                    str(tmp_path / "a"))
    for e1, e2 in zip(read_manifest(m1), read_manifest(m2)):
        for p1, p2 in ((e1.mix_path, e2.mix_path),
                       (e1.revclean_path, e2.revclean_path),
                       (e1.dry_path, e2.dry_path)):
            assert open(p1, "rb").read() == open(p2, "rb").read()

    # same-seed training runs produce float-identical loss curves
    def run():
        model = init_two_stage_model(p_channels=2, width_scale=Fraction(1, 16), seed=1)
        r = np.random.default_rng(100)
        sig = lambda ch: stft(TimeSignal(0.1 * r.standard_normal((ch, 4000)), 16000))
        from mcse.train import Utterance

        data = [Utterance("u", sig(2), sig(2), sig(1))]
        return train(data, model, TrainConfig(batch_size=1, max_iters=3,
                                              stage="stage1", seed=5))

    assert run() == run()

    # checkpoint round trip is bit-exact
    model = init_two_stage_model(p_channels=2, width_scale=Fraction(1, 16), seed=9)
    save_checkpoint(tmp_path / "m.bin", model)
    loaded, _, _ = load_checkpoint(tmp_path / "m.bin")
    for name, t in model.named_params().items():
        np.testing.assert_array_equal(t.data, loaded.named_params()[name].data)
    note("[PASS] criterion 9: dataset rebuild byte-identical, training curves "
         "float-identical, checkpoint round trip bit-exact")
