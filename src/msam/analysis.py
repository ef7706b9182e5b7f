"""Diagnostics for learned first-layer filters: zero-padded spectra, sorting
by peak frequency, and effective kernel length measurement."""

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

import numpy as np

from .dataio import SAMPLE_RATE
from .errors import ValidationError
from .fbank import FbankConfig, mel_filterbank


@dataclass
class KernelSpectrum:
    kernel_index: int
    magnitudes: np.ndarray  # fft_size/2 + 1 non-negative-frequency bins
    peak_frequency: float  # Hz


def kernel_spectrum(kernel, fft_size: int = FbankConfig.fft_size,
                    kernel_index: int = 0) -> KernelSpectrum:
    """Zero-padded magnitude spectrum of one kernel.

    The peak frequency is reported at the raw sampling rate SAMPLE_RATE:
    kernels slide over raw samples, so the stride affects the hop, not the
    kernel's intrinsic rate.
    """
    kernel = np.asarray(kernel)
    if fft_size < len(kernel):
        raise ValueError(f"fft_size {fft_size} < kernel length {len(kernel)}")
    magnitudes = np.abs(np.fft.rfft(kernel, n=fft_size))
    peak = int(np.argmax(magnitudes))
    return KernelSpectrum(kernel_index, magnitudes, peak * SAMPLE_RATE / fft_size)


def sort_by_peak(spectra: Sequence[KernelSpectrum]) -> List[int]:
    """Kernel indices in ascending peak-frequency order, ties by index."""
    if not spectra:
        raise ValueError("no spectra to sort")
    order = sorted(range(len(spectra)),
                   key=lambda i: (spectra[i].peak_frequency, spectra[i].kernel_index))
    return order


def effective_kernel_length(kernel, energy_fraction: float = 0.99) -> int:
    """Shortest contiguous sub-window holding >= energy_fraction of the
    kernel's total squared magnitude."""
    kernel = np.asarray(kernel, dtype=np.float64)
    total = float(np.sum(kernel**2))
    if total == 0.0:
        raise ValueError("all-zero kernel has no effective length")
    if not 0 < energy_fraction <= 1:
        raise ValueError("energy_fraction must be in (0, 1]")
    target = energy_fraction * total
    prefix = np.concatenate([[0.0], np.cumsum(kernel**2)])
    best = len(kernel)
    lo = 0
    for hi in range(1, len(kernel) + 1):
        while prefix[hi] - prefix[lo + 1] >= target:
            lo += 1
        if prefix[hi] - prefix[lo] >= target:
            best = min(best, hi - lo)
    return best


def _write_csv(path: Path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def export_analysis(model, out_dir) -> List[Path]:
    """Write per-stream sorted spectra and effective-length CSVs plus a Mel
    filterbank reference, all at the default FFT size and energy fraction;
    returns the paths written."""
    if not hasattr(model, "streams"):
        raise ValidationError("no waveform kernels to analyze")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, stream in enumerate(model.streams):
        kernels = stream.first_layer.weights
        spectra = [kernel_spectrum(k, kernel_index=j) for j, k in enumerate(kernels)]
        order = sort_by_peak(spectra)
        spectra_path = out_dir / f"spectra_stream{i}.csv"
        _write_csv(
            spectra_path,
            [[spectra[j].kernel_index, f"{spectra[j].peak_frequency:.6f}"]
             + [f"{v:.9e}" for v in spectra[j].magnitudes] for j in order],
        )
        lengths_path = out_dir / f"effective_lengths_stream{i}.csv"
        _write_csv(
            lengths_path,
            [[j, effective_kernel_length(kernels[j])]
             for j in range(len(kernels))],
        )
        paths.extend([spectra_path, lengths_path])
    mel_path = out_dir / "mel_reference.csv"
    mel = mel_filterbank(FbankConfig())
    _write_csv(mel_path, [[f"{v:.9e}" for v in row] for row in mel])
    paths.append(mel_path)
    return paths
