"""Two-stage pipeline assembly.

The mask algebra of stage one is re-derived here with plain complex
numbers, the frequency-wise filter is checked for band equivariance (one
parameter set, bands on the batch axis), and the end-to-end path is
pinned for shapes, determinism, and input validation.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mcse import layers as L
from mcse import runtime
from mcse.crn import FREQ_BINS, crn_forward
from mcse.dsp import Spectrogram, TimeSignal
from mcse.pipeline import (
    SPATIAL_BAND_BLOCK,
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

TOY_WIDTH = Fraction(1, 16)


def toy_model(p=2, seed=0):
    return init_two_stage_model(p, TOY_WIDTH, seed=seed)


def toy_spec(p=2, t=4, bins=FREQ_BINS):
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
            m_re, m_im = crn_forward(feat, model.stage1)
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

    def test_rejects_other_bin_count(self):
        with pytest.raises(ValueError, match=f"^model expects {FREQ_BINS} bins, got 128$"):
            stage1_mimo(toy_spec(bins=128), toy_model())


class TestSpatialFilter:
    def test_band_permutation_equivariance(self):
        """The filter treats bands as batch items: permuting input bands
        permutes the output identically."""
        model = toy_model()
        s_re = Tensor(rng.standard_normal((2, 5, FREQ_BINS)).astype(np.float32))
        s_im = Tensor(rng.standard_normal((2, 5, FREQ_BINS)).astype(np.float32))
        with no_grad():
            f_re, f_im = spatial_tensors(s_re, s_im, model)

        perm = np.random.default_rng(0).permutation(FREQ_BINS)
        with no_grad():
            p_re, p_im = spatial_tensors(
                Tensor(s_re.data[:, :, perm]), Tensor(s_im.data[:, :, perm]), model
            )
        np.testing.assert_allclose(p_re.data, f_re.data[:, perm], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(p_im.data, f_im.data[:, perm], rtol=1e-5, atol=1e-6)

    def test_single_band_matches_full_run(self):
        # running one band alone gives the same answer as in the batch
        model = toy_model()
        s_re = rng.standard_normal((2, 6, FREQ_BINS)).astype(np.float32)
        s_im = rng.standard_normal((2, 6, FREQ_BINS)).astype(np.float32)
        with no_grad():
            f_re, _ = spatial_tensors(Tensor(s_re), Tensor(s_im), model)
            one_re, _ = spatial_tensors(
                Tensor(s_re[:, :, 7:8]), Tensor(s_im[:, :, 7:8]), model
            )
        np.testing.assert_allclose(one_re.data[:, 0], f_re.data[:, 7], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("t_", [16, 17])
    def test_band_blocks_match_one_recorded_block(self, t_):
        """Unrecorded, 256 bands run as two blocks of 128, each projected
        16 steps at a time; recorded, as one block projected whole. The
        outputs are the same bytes. T 16 ends on a projection-block edge
        and T 17 crosses one."""
        assert SPATIAL_BAND_BLOCK == 128 and L._CHUNK_ROWS // SPATIAL_BAND_BLOCK == 16
        model = toy_model(2, seed=1)
        s_re, s_im = (rng.standard_normal((2, t_, 256)).astype(np.float32) for _ in range(2))
        recorded = spatial_tensors(s_re, s_im, model)
        assert all(t.requires_grad for t in recorded)
        with no_grad():
            blocks = spatial_tensors(s_re, s_im, model)
        for a, b in zip(blocks, recorded):
            assert a.data.tobytes() == b.data.tobytes()

    def test_unrecorded_peak_is_under_two_full_layer_outputs(self):
        """An unrecorded forward over 256 bands holds one 128-band block's
        two layer outputs at a time, so its traced peak stays below the
        two (256, T, 128) float32 layer outputs that one block of every
        band would hold."""
        t_ = 120
        model = toy_model(8, seed=1)
        s_re, s_im = (rng.standard_normal((8, t_, 256)).astype(np.float32) for _ in range(2))
        tracemalloc.start()
        try:
            with no_grad():
                spatial_tensors(s_re, s_im, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 256 * t_ * 128 * 4

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
        f_re = rng.standard_normal((4, FREQ_BINS)).astype(np.float32)
        f_im = rng.standard_normal((4, FREQ_BINS)).astype(np.float32)
        y0_re = rng.standard_normal((4, FREQ_BINS)).astype(np.float32)
        y0_im = rng.standard_normal((4, FREQ_BINS)).astype(np.float32)

        with no_grad():
            e_re, e_im = stage2_tensors(Tensor(f_re), Tensor(f_im), y0_re, y0_im, model)
            feat = np.stack([f_re, y0_re, f_im, y0_im], axis=0)
            w_re, w_im = crn_forward(feat, model.stage2)
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
        model = toy_model(2, seed=0)
        x = TimeSignal(rng.standard_normal((2, 3000)), 16000)
        out = enhance(x, model)
        assert out.samples.shape == (1, 3000)
        assert out.sample_rate == 16000

    def test_deterministic(self):
        model = toy_model(2, seed=0)
        x = TimeSignal(rng.standard_normal((2, 2000)), 16000)
        a = enhance(x, model)
        b = enhance(x, model)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_rejects_wrong_rate(self):
        model = toy_model(2, seed=0)
        with pytest.raises(ValueError):
            enhance(TimeSignal(rng.standard_normal((2, 2000)), 8000), model)

    def test_rejects_wrong_channels(self):
        model = toy_model(2, seed=0)
        with pytest.raises(ValueError):
            enhance(TimeSignal(rng.standard_normal((3, 2000)), 16000), model)

    def test_trims_the_heap_once_per_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runtime, "malloc_trim", calls.append)
        model = toy_model(2, seed=0)
        for n in (1, 2):
            enhance(TimeSignal(rng.standard_normal((2, 2000)), 16000), model)
            assert calls == [0] * n

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        model = toy_model(2, seed=0)
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
