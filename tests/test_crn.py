"""Encoder/decoder topology of the spectrogram network.

The full-width shape ladder is frozen here as data: six encoder stages
halving the frequency axis, a sequence bottleneck, and two mirrored
decoder branches doubling it back, with skip concatenation everywhere
except the last block. The parameter count is pinned against a by-hand
tally of every block.
"""

from fractions import Fraction

import numpy as np
import pytest

from crn_trace import trace_crn
from gradcheck import to_float64
from mcse import layers as L
from mcse.crn import (
    BASE_CHANNELS,
    FREQ_BINS,
    CrnConfig,
    CrnParams,
    _block,
    crn_forward,
    init_crn_params,
)
from mcse.tensor import no_grad

rng = np.random.default_rng(3)


def make(c_in=4, c_out=4, width=Fraction(1, 16), seed=0):
    cfg = CrnConfig(c_in, c_out, width)
    return cfg, init_crn_params(cfg, np.random.default_rng(seed))


class TestConfig:
    def test_ladder_scales(self):
        cfg = CrnConfig(16, 16, Fraction(1, 4))
        assert cfg.ladder == (4, 8, 16, 32, 64, 64)

    def test_lstm_width_follows_bottleneck(self):
        cfg = CrnConfig(16, 16, 1)
        assert cfg.f_bottleneck == 4
        assert cfg.lstm_input == 1024
        assert cfg.lstm_hidden == 512  # per direction; both together match the input

    def test_decoder_channel_plan_full_width(self):
        cfg = CrnConfig(16, 16, 1)
        assert cfg.decoder_in_channels() == (512, 512, 256, 128, 64, 16)
        assert cfg.decoder_out_channels() == (256, 128, 64, 32, 16, 8)

    def test_rejects_odd_dual_output(self):
        with pytest.raises(ValueError):
            CrnConfig(4, 3, 1)

    def test_rejects_fractional_channels(self):
        with pytest.raises(ValueError):
            CrnConfig(4, 4, Fraction(1, 32))


class TestFullWidthLadder:
    def test_shape_trace(self, monkeypatch):
        """Frozen stage-by-stage shapes for the 8-microphone model."""
        cfg, params = make(c_in=16, c_out=16, width=1)
        x = rng.standard_normal((16, 10, 256)).astype(np.float32)
        trace, (re, im) = trace_crn(monkeypatch, x, params)

        expected = [
            ("input", (16, 10, 256)),
            ("enc0", (16, 10, 128)),
            ("enc1", (32, 10, 64)),
            ("enc2", (64, 10, 32)),
            ("enc3", (128, 10, 16)),
            ("enc4", (256, 10, 8)),
            ("enc5", (256, 10, 4)),
            ("lstm_in", (1, 10, 1024)),
            ("lstm_out", (1, 10, 1024)),
            ("dec_re0", (256, 10, 8)),
            ("dec_re1", (128, 10, 16)),
            ("dec_re2", (64, 10, 32)),
            ("dec_re3", (32, 10, 64)),
            ("dec_re4", (16, 10, 128)),
            ("dec_re5", (8, 10, 256)),
            ("dec_im0", (256, 10, 8)),
            ("dec_im1", (128, 10, 16)),
            ("dec_im2", (64, 10, 32)),
            ("dec_im3", (32, 10, 64)),
            ("dec_im4", (16, 10, 128)),
            ("dec_im5", (8, 10, 256)),
        ]
        assert trace == expected
        assert re.shape == (8, 10, 256)
        assert im.shape == (8, 10, 256)

    def test_parameter_count(self):
        # tallied block by block: conv/deconv weights (kernel 1x3, no
        # bias), batchnorm affine pairs, prelu slopes, and the 2-layer
        # bidirectional LSTM at 1024 in / 512 per direction
        _, params = make(c_in=16, c_out=16, width=1)
        total = sum(t.data.size for t in params.params.values())

        enc = 816 + 1632 + 6336 + 24960 + 99072 + 197376
        lstm = 2 * 2 * (2048 * 1024 + 2048 * 512 + 2048)
        dec = 2 * (393984 + 196992 + 49344 + 12384 + 3120 + 408)
        assert total == enc + lstm + dec == 14_233_760


class TestForward:
    def test_toy_shapes(self):
        cfg, params = make(c_in=4, c_out=4, width=Fraction(1, 8))
        re, im = crn_forward(rng.standard_normal((4, 7, FREQ_BINS)), params)
        assert re.shape == (2, 7, FREQ_BINS)
        assert im.shape == (2, 7, FREQ_BINS)

    def test_single_decoder_splits_output(self):
        """c_out = 2 leaves each decoder branch a single output channel."""
        cfg, params = make(c_in=2, c_out=2)
        re, im = crn_forward(rng.standard_normal((2, 5, FREQ_BINS)), params)
        assert re.shape == (1, 5, FREQ_BINS)
        assert im.shape == (1, 5, FREQ_BINS)

    def test_zero_input_gives_zero_output_in_eval(self):
        # no conv biases, zero beta, fresh running stats: zeros propagate
        # through conv, batchnorm, prelu, and the zero-state LSTM
        cfg, params = make(c_in=2, c_out=2)
        with no_grad():
            re, im = crn_forward(np.zeros((2, 4, FREQ_BINS), dtype=np.float32), params)
        assert np.all(re.data == 0.0)
        assert np.all(im.data == 0.0)

    def test_deterministic_init_and_forward(self):
        _, p1 = make(seed=5)
        _, p2 = make(seed=5)
        for k in p1.params:
            np.testing.assert_array_equal(p1.params[k].data, p2.params[k].data)
        x = rng.standard_normal((4, 3, FREQ_BINS)).astype(np.float32)
        with no_grad():
            r1, i1 = crn_forward(x, p1)
            r2, i2 = crn_forward(x, p2)
        np.testing.assert_array_equal(r1.data, r2.data)
        np.testing.assert_array_equal(i1.data, i2.data)

    def test_rejects_wrong_input_shape(self):
        _, params = make()
        with pytest.raises(ValueError):
            crn_forward(rng.standard_normal((3, 5, FREQ_BINS)), params)
        with pytest.raises(ValueError, match=rf"^crn_forward expects \(4, T, {FREQ_BINS}\) input, "
                                             r"got \(4, 5, 128\)$"):
            crn_forward(rng.standard_normal((4, 5, FREQ_BINS // 2)), params)

    def test_gradients_reach_every_parameter(self):
        _, params = make(c_in=2, c_out=2)
        x = rng.standard_normal((2, 3, FREQ_BINS)).astype(np.float32)

        re, im = crn_forward(x, params)
        ((re * re).sum() + (im * im).sum()).backward()
        g = {k: t.grad for k, t in params.params.items()}
        assert [k for k, v in g.items() if v is None] == []
        # A conv/deconv bias would feed a batchnorm on the sample's own
        # statistics that subtracts it again, so no block has one. Every
        # other parameter carries signal; prelu slopes may see no negative
        # inputs on a tiny example.
        assert [k for k in g if k.endswith(".b") and not k.startswith("lstm")] == []
        dead = [k for k, v in g.items() if not k.endswith("prelu.a") and np.all(v == 0.0)]
        assert dead == []


def eval_batchnorm(h, gamma, beta, mean, var):
    """Eval-mode batchnorm as the unfused per-channel map over (C, T, F)."""
    c = (slice(None), None, None)
    return gamma[c] * (h - mean[c]) / np.sqrt(var[c] + L.BN_EPS) + beta[c]


def block_params(name, w, gamma, beta, slope, mean, var):
    """A CrnParams holding the one block `name`; the running buffers are
    the arrays given, not copies."""
    params = {f"{name}.w": w, f"{name}.bn.gamma": gamma,
              f"{name}.bn.beta": beta, f"{name}.prelu.a": slope}
    return CrnParams(None, params, {f"{name}.bn.mean": mean, f"{name}.bn.var": var})


class TestEvalBlockFold:
    """When the tape does not record its parameters, crn._block folds
    batchnorm into its conv or deconv."""

    def test_eval_mode_uses_buffers_and_leaves_them_alone(self):
        frng = np.random.default_rng(11)
        x, w = frng.standard_normal((3, 4, 4)), frng.standard_normal((2, 3, 1, 3))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        gamma, beta = np.array([2.0, 1.0]), np.array([0.5, 0.0])
        # slope 1 makes the PReLU the identity, so the block is conv + batchnorm
        p = block_params("enc0", w, gamma, beta, np.ones(2), rm, rv)
        out = _block(L.conv2d, x, p, "enc0").data
        want = eval_batchnorm(L.conv2d(x, w, np.zeros(2)).data, gamma, beta, rm, rv)
        np.testing.assert_allclose(out, want, rtol=1e-10)
        np.testing.assert_allclose(rm, [1.0, -1.0])
        np.testing.assert_allclose(rv, [4.0, 0.25])

    @pytest.mark.parametrize("width", [Fraction(1, 8), Fraction(1)], ids=["w1_8", "w1"])
    def test_fold_matches_unfused_on_ladder(self, width):
        """Every block of the stage-1 CRN at this width, in float64, with
        non-trivial running buffers, against conv/deconv, then eval
        batchnorm, then PReLU."""
        cfg = CrnConfig(16, 16, width)
        frng = np.random.default_rng(12)
        p = to_float64(init_crn_params(cfg, frng))
        for k, t in p.params.items():
            if not k.startswith("lstm") and not k.endswith(".w"):
                t.data = t.data + 0.3 * frng.standard_normal(t.shape)
        for k, buf in p.buffers.items():
            buf[...] = frng.standard_normal(buf.shape) if k.endswith("mean") else frng.uniform(
                0.2, 3.0, buf.shape)
        kept = {k: v.copy() for k, v in p.buffers.items()}
        t_len = 3
        blocks = [(L.conv2d, f"enc{i}", c, FREQ_BINS >> i)
                  for i, c in enumerate((cfg.c_in,) + cfg.ladder[:-1])]
        blocks += [(L.deconv2d, f"dec_re{i}", c, cfg.f_bottleneck << i)
                   for i, c in enumerate(cfg.decoder_in_channels())]
        for layer, name, c, f in blocks:
            x = frng.standard_normal((c, t_len, f))
            with no_grad():  # to_float64 leaves the parameters recorded
                got = _block(layer, x, p, name).data
            pr = {k[len(name) + 1:]: p.params[k].data for k in p.params if k.startswith(name + ".")}
            bias = np.zeros(len(pr["bn.gamma"]))
            h = eval_batchnorm(layer(x, pr["w"], bias).data, pr["bn.gamma"], pr["bn.beta"],
                               p.buffers[f"{name}.bn.mean"], p.buffers[f"{name}.bn.var"])
            want = L.prelu(h, pr["prelu.a"]).data
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(),
                                       err_msg=name)
        for k, v in kept.items():
            np.testing.assert_array_equal(p.buffers[k], v, err_msg=k)


class TestBaseChannels:
    def test_ladder_constants(self):
        assert BASE_CHANNELS == (16, 32, 64, 128, 256, 256)
