"""Two-stage pipeline assembly.

The mask algebra of stage one is re-derived here with plain complex
numbers, the frequency-wise filter is checked for band equivariance (one
parameter set, bands on the batch axis), and the end-to-end path is
pinned for shapes, determinism, and input validation.
"""

from fractions import Fraction

import numpy as np
import pytest

from mcse import runtime
from mcse.crn import crn_forward
from mcse.dsp import Spectrogram, TimeSignal
from mcse.pipeline import (
    StftSettings,
    TwoStageModel,
    enhance,
    init_spatial_params,
    init_two_stage_model,
    spatial_filter,
    spatial_tensors,
    stage1_mimo,
    stage1_tensors,
    stage2_miso,
    stage2_tensors,
    two_stage_tensors,
)
from mcse.tensor import Tensor, no_grad

rng = np.random.default_rng(17)

TOY_BINS = 64
TOY_WIDTH = Fraction(1, 16)


def toy_model(p=2, seed=0):
    return init_two_stage_model(p, TOY_WIDTH, TOY_BINS, seed=seed)


def toy_spec(p=2, t=4, bins=TOY_BINS):
    re = rng.standard_normal((p, t, bins)).astype(np.float32)
    im = rng.standard_normal((p, t, bins)).astype(np.float32)
    return Spectrogram(re, im, 2 * bins, bins // 2, 2 * bins, 16000)


class TestStageOne:
    def test_output_is_mask_times_input(self):
        """Recompute the complex product outside the graph."""
        model = toy_model()
        y = toy_spec()
        with no_grad():
            feat = np.concatenate([y.re, y.im], axis=0).astype(np.float32)
            m_re, m_im = crn_forward(feat, model.stage1, training=False)
        mask = m_re.data + 1j * m_im.data
        want = y.to_complex() * mask

        got = stage1_mimo(y, model)
        np.testing.assert_allclose(got.to_complex(), want, rtol=1e-5, atol=1e-6)

    def test_channel_count_preserved(self):
        model = toy_model(p=2)
        out = stage1_mimo(toy_spec(p=2), model)
        assert out.channels == 2

    def test_rejects_wrong_channel_count(self):
        model = toy_model(p=2)
        with pytest.raises(ValueError):
            stage1_mimo(toy_spec(p=3), model)


class TestSpatialFilter:
    def test_band_permutation_equivariance(self):
        """The filter treats bands as batch items: permuting input bands
        permutes the output identically."""
        model = toy_model()
        s_re = Tensor(rng.standard_normal((2, 5, TOY_BINS)).astype(np.float32))
        s_im = Tensor(rng.standard_normal((2, 5, TOY_BINS)).astype(np.float32))
        with no_grad():
            f_re, f_im = spatial_tensors(s_re, s_im, model)

        perm = np.random.default_rng(0).permutation(TOY_BINS)
        with no_grad():
            p_re, p_im = spatial_tensors(
                Tensor(s_re.data[:, :, perm]), Tensor(s_im.data[:, :, perm]), model
            )
        np.testing.assert_allclose(p_re.data, f_re.data[:, perm], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(p_im.data, f_im.data[:, perm], rtol=1e-5, atol=1e-6)

    def test_single_band_matches_full_run(self):
        # running one band alone gives the same answer as in the batch
        model = toy_model()
        s_re = rng.standard_normal((2, 6, TOY_BINS)).astype(np.float32)
        s_im = rng.standard_normal((2, 6, TOY_BINS)).astype(np.float32)
        with no_grad():
            f_re, _ = spatial_tensors(Tensor(s_re), Tensor(s_im), model)
            one_re, _ = spatial_tensors(
                Tensor(s_re[:, :, 7:8]), Tensor(s_im[:, :, 7:8]), model
            )
        np.testing.assert_allclose(one_re.data[:, 0], f_re.data[:, 7], rtol=1e-5, atol=1e-6)

    def test_collapses_to_one_channel(self):
        model = toy_model()
        out = spatial_filter(toy_spec(), model)
        assert out.channels == 1

    def test_parameter_inventory(self):
        p = init_spatial_params(8, np.random.default_rng(0))
        assert p["ln.gamma"].shape == (16,)
        assert p["fc.w"].shape == (2, 128)
        assert p["lstm.l0.fw.w_ih"].shape == (256, 16)
        assert p["lstm.l1.fw.w_ih"].shape == (256, 128)  # sees both directions


class TestStageTwo:
    def test_input_packing_order(self):
        """Stage two must see [filtered_re, ref_re, filtered_im, ref_im]."""
        model = toy_model()
        f_re = rng.standard_normal((4, TOY_BINS)).astype(np.float32)
        f_im = rng.standard_normal((4, TOY_BINS)).astype(np.float32)
        y0_re = rng.standard_normal((4, TOY_BINS)).astype(np.float32)
        y0_im = rng.standard_normal((4, TOY_BINS)).astype(np.float32)

        with no_grad():
            e_re, e_im = stage2_tensors(Tensor(f_re), Tensor(f_im), y0_re, y0_im, model)
            feat = np.stack([f_re, y0_re, f_im, y0_im], axis=0)
            w_re, w_im = crn_forward(feat, model.stage2, training=False)
        np.testing.assert_allclose(e_re.data, w_re.data[0], rtol=1e-6)
        np.testing.assert_allclose(e_im.data, w_im.data[0], rtol=1e-6)

    def test_full_graph_matches_stagewise(self):
        model = toy_model()
        y = toy_spec()
        with no_grad():
            r1, i1 = two_stage_tensors(y.re, y.im, model)
        s1 = stage1_mimo(y, model)
        f = spatial_filter(s1, model)
        out = stage2_miso(f, y.like(y.re[:1], y.im[:1]), model)
        np.testing.assert_allclose(out.re[0], r1.data, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(out.im[0], i1.data, rtol=1e-4, atol=1e-5)


class TestEnhance:
    def test_shapes_and_rate(self):
        model = init_two_stage_model(2, TOY_WIDTH, 256, seed=0)
        x = TimeSignal(rng.standard_normal((2, 3000)), 16000)
        out = enhance(x, model)
        assert out.samples.shape == (1, 3000)
        assert out.sample_rate == 16000

    def test_deterministic(self):
        model = init_two_stage_model(2, TOY_WIDTH, 256, seed=0)
        x = TimeSignal(rng.standard_normal((2, 2000)), 16000)
        a = enhance(x, model)
        b = enhance(x, model)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_rejects_wrong_rate(self):
        model = init_two_stage_model(2, TOY_WIDTH, 256, seed=0)
        with pytest.raises(ValueError):
            enhance(TimeSignal(rng.standard_normal((2, 2000)), 8000), model)

    def test_rejects_wrong_channels(self):
        model = init_two_stage_model(2, TOY_WIDTH, 256, seed=0)
        with pytest.raises(ValueError):
            enhance(TimeSignal(rng.standard_normal((3, 2000)), 16000), model)

    def test_trims_the_heap_once_per_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runtime, "malloc_trim", calls.append)
        model = init_two_stage_model(2, TOY_WIDTH, 256, seed=0)
        for n in (1, 2):
            enhance(TimeSignal(rng.standard_normal((2, 2000)), 16000), model)
            assert calls == [0] * n

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        model = init_two_stage_model(2, TOY_WIDTH, 256, seed=0)
        samples = rng.standard_normal((2, 2000))
        samples[1, 700] = bad
        samples[0, 1500] = bad  # later in time, so not the one named
        with pytest.raises(ValueError, match="non-finite sample .* at channel 1, sample 700"):
            enhance(TimeSignal(samples, 16000), model)


class TestModelContainer:
    def test_stage_params_partition(self):
        model = toy_model()
        s1 = model.stage_params("stage1")
        s2 = model.stage_params("stage2")
        joint = model.stage_params("joint")
        assert set(joint) == set(s1) | set(s2)
        assert not (set(s1) & set(s2))
        assert all(k.startswith("stage1.") for k in s1)
        assert any(k.startswith("spatial.") for k in s2)
        assert any(k.startswith("stage2.") for k in s2)

    def test_unknown_stage_raises(self):
        with pytest.raises(ValueError):
            toy_model().stage_params("stage3")

    def test_named_params_unique_and_complete(self):
        model = toy_model()
        named = model.named_params()
        total = len(model.stage1.params) + len(model.spatial) + len(model.stage2.params)
        assert len(named) == total
