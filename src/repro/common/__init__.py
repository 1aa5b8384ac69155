"""Shared infrastructure: seeded randomness, recording, small statistics.

Everything in :mod:`repro` that needs randomness takes a
``numpy.random.Generator`` (or a seed) explicitly so that every experiment
in the benchmark suite is reproducible bit-for-bit.
"""

from repro.common.recording import NULL_RECORDER, NullRecorder, Recorder, Span
from repro.common.rng import derive_rng, make_rng, stream_root, substream
from repro.common.stats import percentile

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "Span",
    "derive_rng",
    "make_rng",
    "percentile",
    "stream_root",
    "substream",
]
