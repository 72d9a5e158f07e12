"""Objective identities, hand-worked values, and gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcse.loss import compress_pair, mag_hurts_loss, ri_mag_loss, total_loss
from mcse.tensor import Tensor

from gradcheck import check_grads

rng = np.random.default_rng(23)


class TestRiMag:
    def test_zero_for_identical_inputs(self):
        re, im = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 4))
        assert float(ri_mag_loss((re, im), (re, im)).data) == 0.0

    def test_hand_worked_single_bin(self):
        # est = 1+0j, tgt = 0+1j: re err 1, im err 1, |.| err 0 -> total 2
        got = ri_mag_loss((np.array([1.0]), np.array([0.0])),
                          (np.array([0.0]), np.array([1.0])))
        np.testing.assert_allclose(float(got.data), 2.0, rtol=1e-12)

    def test_mean_reduction(self):
        # same per-bin errors replicated: loss must not grow with size
        e = (np.ones((4, 4)), np.zeros((4, 4)))
        t = (np.zeros((4, 4)), np.zeros((4, 4)))
        small = ri_mag_loss((np.ones((1, 1)), np.zeros((1, 1))),
                            (np.zeros((1, 1)), np.zeros((1, 1))))
        big = ri_mag_loss(e, t)
        np.testing.assert_allclose(float(big.data), float(small.data), rtol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ri_mag_loss((np.ones((2, 2)), np.ones((2, 2))),
                        (np.ones((3, 2)), np.ones((3, 2))))


class TestMagHurts:
    def test_zero_when_estimate_covers_target(self):
        tre, tim = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        scale = 1.0 + np.abs(rng.standard_normal((3, 5)))
        got = mag_hurts_loss((tre * scale, tim * scale), (tre, tim))
        assert float(got.data) == 0.0

    def test_zero_when_magnitudes_match_with_different_phase(self):
        # rotate each bin: magnitude unchanged, so no underestimation
        z = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        rot = z * np.exp(1j * rng.uniform(0, 2 * np.pi, z.shape))
        got = mag_hurts_loss((rot.real, rot.imag), (z.real, z.imag))
        np.testing.assert_allclose(float(got.data), 0.0, atol=1e-12)

    def test_many_random_covering_estimates(self):
        # amplifying a spectrum can never be punished by this term
        for trial in range(1000):
            r = np.random.default_rng(trial)
            t = r.standard_normal((2, 8)) + 1j * r.standard_normal((2, 8))
            e = t * (1.0 + r.uniform(0.0, 3.0, t.shape))
            val = float(mag_hurts_loss((e.real, e.imag), (t.real, t.imag)).data)
            assert val == 0.0, f"trial {trial}: expected 0, got {val}"

    def test_hand_worked_underestimate(self):
        # |tgt| = 2, |est| = 0.5 on one bin of two: mean(1.5^2, 0) = 1.125
        got = mag_hurts_loss(
            (np.array([0.5, 1.0]), np.array([0.0, 0.0])),
            (np.array([2.0, 1.0]), np.array([0.0, 0.0])),
        )
        np.testing.assert_allclose(float(got.data), 1.125, rtol=1e-12)

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_one_sided(self, emag, tmag):
        got = float(
            mag_hurts_loss((np.array([emag]), np.array([0.0])),
                           (np.array([tmag]), np.array([0.0]))).data
        )
        want = max(0.0, tmag - emag) ** 2
        np.testing.assert_allclose(got, want, rtol=1e-9)


class TestCompression:
    def test_compressed_magnitude_is_square_root(self):
        re = np.array([3.0, 0.3])
        im = np.array([4.0, 0.4])
        _, _, cmag = compress_pair(Tensor(re), Tensor(im))
        np.testing.assert_allclose(cmag.data, np.sqrt([5.0, 0.5]), rtol=1e-6)

    def test_compression_keeps_phase(self):
        re, im = rng.standard_normal(10), rng.standard_normal(10)
        cre, cim, _ = compress_pair(Tensor(re), Tensor(im))
        np.testing.assert_allclose(
            np.arctan2(cim.data, cre.data), np.arctan2(im, re), atol=1e-9
        )

    def test_silent_bins_give_zero_not_nan(self):
        cre, cim, cmag = compress_pair(Tensor(np.zeros(3)), Tensor(np.zeros(3)))
        assert np.all(cre.data == 0.0) and np.all(np.isfinite(cmag.data))


class TestTotalLoss:
    def test_zero_at_target(self):
        re, im = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 4))
        assert float(total_loss((re, im), (re, im)).data) == 0.0

    def test_matches_manual_composition(self):
        ere, eim = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
        tre, tim = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
        cer = compress_pair(Tensor(ere), Tensor(eim))
        ctr = compress_pair(Tensor(tre), Tensor(tim))
        want = float(ri_mag_loss(cer[:2], ctr[:2]).data) + 2.0 * float(
            mag_hurts_loss(cer[:2], ctr[:2]).data
        )
        got = float(total_loss((ere, eim), (tre, tim)).data)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_gradient_through_compression(self):
        # keep magnitudes well away from the eps floor
        ere = 0.5 + np.abs(rng.standard_normal((2, 3)))
        eim = 0.5 + np.abs(rng.standard_normal((2, 3)))
        tre = 0.5 + np.abs(rng.standard_normal((2, 3)))
        tim = 0.5 + np.abs(rng.standard_normal((2, 3)))

        check_grads(
            lambda a, b: total_loss((a, b), (tre, tim)),
            [ere, eim],
            rtol=1e-3,
        )

    def test_gradient_finite_at_silent_estimate(self):
        ere = Tensor(np.zeros((2, 2)), requires_grad=True)
        eim = Tensor(np.zeros((2, 2)), requires_grad=True)
        tre = np.abs(rng.standard_normal((2, 2))) + 0.5
        total_loss((ere, eim), (tre, np.zeros((2, 2)))).backward()
        assert np.all(np.isfinite(ere.grad))
        assert np.all(np.isfinite(eim.grad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_operand_dtype(self, dtype):
        """eps and alpha are scalars, so they take the operands' dtype: a
        float32 estimate gets a float32 loss and float32 gradients."""
        def pair():
            return [Tensor(rng.standard_normal((2, 5)).astype(dtype), requires_grad=True)
                    for _ in range(2)]

        est, tgt = pair(), pair()
        loss = total_loss(est, tgt)
        loss.backward()
        assert loss.dtype == dtype
        assert [t.grad.dtype for t in est + tgt] == [dtype] * 4
