"""Multichannel speech enhancement: a two-stage masking/refinement
pipeline with a frequency-wise recurrent spatial filter, classical
array-processing baselines, a shoebox room simulator, and the metrics
used to score all of them. Everything runs on numpy; gradients come from
the bundled reverse-mode engine in mcse.tensor.
"""

__version__ = "0.1.0"
