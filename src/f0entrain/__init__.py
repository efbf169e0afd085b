"""Toolkit for measuring F0 entrainment in paired speech-imitation corpora.

Pipeline: ingest word alignments and pitch tracks (or estimate pitch from
WAV), clean the F0 contours, parameterize them per word into five prosodic
features, compare imitator and model contours with dynamic time warping,
and evaluate the resulting entrainment measures with paired t-tests,
Pearson correlations, and intraclass correlation coefficients.
"""

import os

# The program calls no threaded BLAS routine, but an idle OpenBLAS worker
# spins on a second core while numpy is imported. Set before numpy loads;
# a value the user gave is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from f0entrain.types import F0Track, WordSpan

__all__ = ["F0Track", "WordSpan", "__version__"]
