"""The tier-1 report header names the BLAS kernel the run used."""

from unittest import mock

import numpy as np

import conftest


def test_header_names_numpy_kernel_and_thread_cap(monkeypatch):
    monkeypatch.setenv("MSAM_THREADS", "3")
    with mock.patch.object(conftest, "openblas_kernel", return_value=("SkylakeX", "2")):
        header = conftest.pytest_report_header(None)
    assert header == f"numpy {np.__version__}, OpenBLAS core SkylakeX, threads 2, MSAM_THREADS=3"


def test_absent_library_reads_unknown(tmp_path):
    assert conftest.openblas_kernel(tmp_path) == ("unknown", "unknown")


def test_absent_symbols_read_unknown(tmp_path):
    (tmp_path / "libscipy_openblas64_-0000.so").write_bytes(b"")
    with mock.patch.object(conftest.ctypes, "CDLL", return_value=object()):
        assert conftest.openblas_kernel(tmp_path) == ("unknown", "unknown")


def test_unloadable_library_reads_unknown(tmp_path):
    (tmp_path / "libscipy_openblas64_-0000.so").write_bytes(b"not a library")
    assert conftest.openblas_kernel(tmp_path) == ("unknown", "unknown")
