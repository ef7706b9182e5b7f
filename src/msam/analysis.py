"""Diagnostics for learned first-layer filters: zero-padded spectra, sorting
by peak frequency, and effective kernel length measurement.  Each function
takes a stream's whole (K, L) first-layer bank."""

import csv
from pathlib import Path
from typing import List

import numpy as np

from .dataio import SAMPLE_RATE, new_file
from .errors import ValidationError
from .fbank import FbankConfig, mel_filterbank

ENERGY_FRACTION = 0.99


def kernel_spectra(kernels):
    """Zero-padded magnitude spectra (K, n/2 + 1) and peak frequencies (K,)
    in Hz, at n = max(FbankConfig.fft_size, next power of two >= L).

    Peaks are reported at the raw sampling rate SAMPLE_RATE: kernels slide
    over raw samples, so the stride affects the hop, not the kernel's
    intrinsic rate.
    """
    kernels = np.asarray(kernels)
    n = max(FbankConfig.fft_size, 1 << (kernels.shape[1] - 1).bit_length())
    magnitudes = np.abs(np.fft.rfft(kernels, n=n, axis=1))
    return magnitudes, np.argmax(magnitudes, axis=1) * SAMPLE_RATE / n


def effective_lengths(kernels) -> np.ndarray:
    """Per kernel, the shortest contiguous sub-window holding >=
    ENERGY_FRACTION of its total squared magnitude; 0 for an all-zero
    (dead) kernel."""
    energy = np.asarray(kernels, dtype=np.float64) ** 2
    total = energy.sum(axis=1)
    prefix = np.pad(np.cumsum(energy, axis=1), ((0, 0), (1, 0)))
    # best[w - 1, k]: the largest energy in any window of w taps of kernel k
    best = np.stack([(prefix[:, w:] - prefix[:, :-w]).max(axis=1)
                     for w in range(1, energy.shape[1] + 1)])
    return np.where(total > 0, np.argmax(best >= ENERGY_FRACTION * total, axis=0) + 1, 0)


def _write_csv(path: Path, rows):
    with new_file(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def export_analysis(model, out_dir) -> List[Path]:
    """Write per-stream sorted spectra and effective-length CSVs plus a Mel
    filterbank reference; returns the paths written."""
    if not hasattr(model, "streams"):
        raise ValidationError("no waveform kernels to analyze")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, stream in enumerate(model.streams):
        kernels = stream.first_layer.weights
        magnitudes, peak_hz = kernel_spectra(kernels)
        spectra_path = out_dir / f"spectra_stream{i}.csv"
        _write_csv(
            spectra_path,
            [[j, f"{peak_hz[j]:.6f}"] + [f"{v:.9e}" for v in magnitudes[j]]
             for j in np.argsort(peak_hz, kind="stable")],
        )
        lengths_path = out_dir / f"effective_lengths_stream{i}.csv"
        _write_csv(lengths_path, enumerate(effective_lengths(kernels)))
        paths.extend([spectra_path, lengths_path])
    mel_path = out_dir / "mel_reference.csv"
    mel = mel_filterbank(FbankConfig())
    _write_csv(mel_path, [[f"{v:.9e}" for v in row] for row in mel])
    paths.append(mel_path)
    return paths
