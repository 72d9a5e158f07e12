"""Training objectives on square-root-compressed spectra.

total_loss = L_RI + L_Mag + alpha * L_MagHurts, all mean-reduced:
  L_RI        mean squared real-part error plus mean squared imag-part error
  L_Mag       mean squared magnitude error
  L_MagHurts  penalizes only magnitude underestimation,
              mean(max(0, |target| - |estimate|)^2), alpha = 2

Both operands are compressed with S * (|S| + eps)^(-1/2) before any of the
terms are formed; ri_mag_loss and mag_hurts_loss therefore expect already
compressed inputs. total_loss does the compression itself and feeds the
compressed magnitudes to the same term formulas, so no magnitude is
computed twice. The magnitude's gradient is zeroed at silent bins instead
of propagating through the square root's singular point.
"""

from __future__ import annotations

from .dsp import COMPRESS_EPS
from .tensor import Tensor, as_tensor, magnitude, power, relu


ALPHA = 2.0  # weight of L_MagHurts


def _pair(x):
    """A (re, im) pair of Tensors or of arrays, as Tensors."""
    re, im = map(as_tensor, x)
    if re.shape != im.shape:
        raise ValueError("re/im shape mismatch")
    return re, im


def _operands(est, tgt):
    """(est_re, est_im, tgt_re, tgt_im) tensors of matching shape."""
    ere, eim = _pair(est)
    tre, tim = _pair(tgt)
    if ere.shape != tre.shape:
        raise ValueError(f"estimate shape {ere.shape} does not match target {tre.shape}")
    return ere, eim, tre, tim


def compress_pair(re: Tensor, im: Tensor):
    """Square-root compression in the graph. Returns (re, im, magnitude)
    of the compressed value."""
    mag = magnitude(re, im)
    scale = power(mag + COMPRESS_EPS, -0.5)
    cre = re * scale
    cim = im * scale
    return cre, cim, mag * scale


def _ri_mag(est, tgt) -> Tensor:
    """L_RI + L_Mag from (re, im, magnitude) triples."""
    dre = est[0] - tgt[0]
    dim = est[1] - tgt[1]
    dmag = est[2] - tgt[2]
    return (dre * dre).mean() + (dim * dim).mean() + (dmag * dmag).mean()


def _mag_hurts(est_mag, tgt_mag) -> Tensor:
    """L_MagHurts from the two magnitudes."""
    gap = relu(tgt_mag - est_mag)
    return (gap * gap).mean()


def ri_mag_loss(est, tgt) -> Tensor:
    """Real/imag plus magnitude squared error. Both inputs must already be
    square-root compressed (total_loss applies the compression)."""
    ere, eim, tre, tim = _operands(est, tgt)
    return _ri_mag((ere, eim, magnitude(ere, eim)), (tre, tim, magnitude(tre, tim)))


def mag_hurts_loss(est, tgt) -> Tensor:
    """Penalty on magnitude underestimation only; zero wherever the
    estimate's magnitude meets or exceeds the target's. Inputs already
    compressed, as in ri_mag_loss."""
    ere, eim, tre, tim = _operands(est, tgt)
    return _mag_hurts(magnitude(ere, eim), magnitude(tre, tim))


def total_loss(est, tgt) -> Tensor:
    """Full objective on raw (uncompressed) spectra; compression applied
    to both operands here, and its magnitudes feed both terms."""
    ere, eim, tre, tim = _operands(est, tgt)
    ce = compress_pair(ere, eim)
    ct = compress_pair(tre, tim)
    return _ri_mag(ce, ct) + ALPHA * _mag_hurts(ce[2], ct[2])
