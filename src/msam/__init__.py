"""Multi-span raw-waveform acoustic front-end.

Set MSAM_THREADS before importing this package to cap the BLAS thread
pools used internally.
"""

import os

if "MSAM_THREADS" in os.environ:
    _cap = os.environ["MSAM_THREADS"]
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _cap)

from .conv import KernelBank, Signal, output_map_size, required_span  # noqa: E402
from .streams import Stream, StreamConfig, stream_input_span  # noqa: E402

__all__ = [
    "KernelBank",
    "Signal",
    "Stream",
    "StreamConfig",
    "output_map_size",
    "required_span",
    "stream_input_span",
]

__version__ = "0.1.0"
