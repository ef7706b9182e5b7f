"""The tier-1 report header names the BLAS kernel the run used, read
through the package's one OpenBLAS lookup, and MSAM_THREADS caps that
library whichever module imported NumPy first."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import conftest
import msam
from msam import OpenBlas, openblas


def header_with(blas):
    with mock.patch.object(conftest, "openblas", return_value=blas):
        return conftest.pytest_report_header(None)


def test_header_names_numpy_kernel_and_thread_cap(monkeypatch):
    monkeypatch.setenv("MSAM_THREADS", "3")
    header = header_with(OpenBlas(None, lambda: b"SkylakeX", lambda: 2))
    assert header == f"numpy {np.__version__}, OpenBLAS core SkylakeX, threads 2, MSAM_THREADS=3"


def test_absent_library_reads_unknown(tmp_path):
    assert openblas(tmp_path) is None
    assert "OpenBLAS core unknown, threads unknown" in header_with(openblas(tmp_path))


def test_absent_symbols_read_unknown(tmp_path):
    (tmp_path / "libscipy_openblas64_-0000.so").write_bytes(b"")
    with mock.patch.object(msam.ctypes, "CDLL", return_value=object()):
        assert openblas(tmp_path) is None


def test_unloadable_library_reads_unknown(tmp_path):
    (tmp_path / "libscipy_openblas64_-0000.so").write_bytes(b"not a library")
    assert openblas(tmp_path) is None


@pytest.mark.skipif(openblas() is None,
                    reason="NumPy bundles no OpenBLAS whose thread count can be read")
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one core: OpenBLAS runs one thread with or without the cap")
@pytest.mark.parametrize("imports", ["import numpy; import msam", "import msam; import numpy"])
def test_thread_cap_holds_in_either_import_order(imports):
    """With NumPy imported first, OpenBLAS has started its threads before
    msam sets the environment; the cap still holds."""
    src = str(Path(msam.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items()
           if name not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(MSAM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"{imports}; print(msam.openblas().get_num_threads())"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    assert child.stdout.strip() == "1"
