"""Multi-span raw-waveform acoustic front-end.

MSAM_THREADS caps the BLAS thread pools, through the environment and through
NumPy's bundled OpenBLAS, whichever module imported NumPy first.
"""

import ctypes
import os
from collections import namedtuple
from pathlib import Path

_cap = os.environ.get("MSAM_THREADS", "")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _cap)

import numpy as np  # noqa: E402

from .conv import KernelBank, output_map_size, required_span  # noqa: E402
from .dataio import Signal  # noqa: E402
from .streams import Stream, StreamConfig  # noqa: E402


OpenBlas = namedtuple("OpenBlas", "set_num_threads get_corename get_num_threads")


def openblas(libdir=Path(np.__file__).resolve().parent.parent / "numpy.libs"):
    """The thread and kernel functions of the OpenBLAS NumPy bundles, reached
    through ctypes; None without the library or one of its symbols.  Its
    file name carries a build hash, so it is globbed."""
    try:
        lib = ctypes.CDLL(str(sorted(Path(libdir).glob("libscipy_openblas64_*.so"))[0]))
        blas = OpenBlas(*(getattr(lib, f"scipy_openblas_{name}64_") for name in OpenBlas._fields))
    except (IndexError, OSError, AttributeError):
        return None
    blas.set_num_threads.argtypes, blas.set_num_threads.restype = [ctypes.c_int], None
    blas.get_corename.argtypes, blas.get_corename.restype = [], ctypes.c_char_p
    blas.get_num_threads.argtypes, blas.get_num_threads.restype = [], ctypes.c_int
    return blas


_blas = openblas() if _cap.isdigit() else None
if _blas is not None and 0 < int(_cap) < _blas.get_num_threads():
    _blas.set_num_threads(int(_cap))

__all__ = [
    "KernelBank",
    "Signal",
    "Stream",
    "StreamConfig",
    "output_map_size",
    "required_span",
]

__version__ = "0.1.0"
