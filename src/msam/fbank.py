"""Log Mel-filterbank baseline features: framing, STFT magnitude, Mel filters.

The baseline pipeline uses a Hamming window, a zero-padded magnitude
spectrum and natural log with a 1e-10 floor.  These details are fixed here
so the baseline is bit-reproducible.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .conv import sliding_windows
from .dataio import FRAME_SHIFT, SAMPLE_RATE
from .errors import GeometryError

LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class FbankConfig:
    """Frames of frame_size samples on the FRAME_SHIFT grid at SAMPLE_RATE."""

    frame_size: int = 400
    num_filters: int = 40
    fft_size: int = 512

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.frame_size < FRAME_SHIFT:
            raise ValueError(f"frame_size must be >= the {FRAME_SHIFT}-sample frame shift")
        if self.num_filters < 1:
            raise ValueError("num_filters must be >= 1")
        if self.frame_size > self.fft_size:
            raise ValueError(f"frame_size {self.frame_size} exceeds the {self.fft_size}-sample FFT")
        if self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(config: FbankConfig) -> np.ndarray:
    """Triangular filters equally spaced on the Mel scale, 0 Hz to Nyquist.

    Returns a (num_filters, fft_size/2 + 1) non-negative weight matrix;
    each row has one contiguous support.
    """
    nyquist = SAMPLE_RATE / 2.0
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), config.num_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(config.fft_size // 2 + 1) * SAMPLE_RATE / config.fft_size
    left, center, right = hz_points[:-2, None], hz_points[1:-1, None], hz_points[2:, None]
    rising = (bin_freqs - left) / (center - left)
    falling = (right - bin_freqs) / (right - center)
    return np.maximum(0.0, np.minimum(rising, falling))


def band_sums(spectra: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """`filters @ spectra` for (bins, frames) spectra and (num_filters, bins)
    filters that are each zero outside one contiguous band, summed one band
    tap at a time in a fixed order.  Elementwise sums round the same on any
    BLAS kernel or SIMD width; a matrix product's reduction order does not."""
    support = filters > 0
    lo, width = support.argmax(axis=1), support.sum(axis=1)
    taps = np.arange(width.max())
    bins = np.minimum(lo[:, None] + taps, filters.shape[1] - 1)
    weights = np.where(taps < width[:, None], np.take_along_axis(filters, bins, axis=1), 0.0)
    energies = np.zeros((len(filters), spectra.shape[1]))
    for tap in taps:
        energies += weights[:, tap, None] * spectra[bins[:, tap]]
    return energies


def compute_fbank(signal, config: FbankConfig = FbankConfig()) -> np.ndarray:
    """Log Mel energies per frame, shape (num_frames, num_filters); a signal
    shorter than one frame is a GeometryError from `sliding_windows`."""
    samples = np.asarray(getattr(signal, "samples", signal), dtype=np.float64)
    window = np.hamming(config.frame_size)
    frames = sliding_windows(samples, config.frame_size, FRAME_SHIFT) * window
    spectra = np.abs(np.fft.rfft(frames, n=config.fft_size, axis=1))
    energies = band_sums(np.ascontiguousarray(spectra.T), mel_filterbank(config))
    return np.log(np.maximum(energies.T, LOG_FLOOR))


def stack_context(rows: np.ndarray, centers, num_frames: int) -> np.ndarray:
    """(N, D) rows -> (len(centers), D * num_frames): each centre's row and
    the num_frames // 2 rows either side, by one gather.  num_frames must be
    odd and every context inside `rows`; an index is never clipped or wrapped.
    """
    if num_frames % 2 == 0:
        raise ValueError("num_frames must be odd")
    half = num_frames // 2
    centers = np.asarray(centers)
    if len(centers) and (centers.min() < half or centers.max() + half >= len(rows)):
        raise GeometryError(f"a {num_frames}-frame context reaches outside the {len(rows)} rows")
    # np.take copies whole rows; rows[index] is ~2x slower at 256 x 11 x 40.
    stacked = np.take(rows, centers[:, None] + np.arange(-half, half + 1), axis=0)
    return stacked.reshape(len(centers), num_frames * rows.shape[1])
