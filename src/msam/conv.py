"""Strided 1-D convolution primitives, span arithmetic and their gradients.

A convolution layer is a bank of K kernels of length L slid with stride S
over a raw sample segment.  "Convolution" here means windowed dot products
without kernel flipping (cross-correlation), which is the standard neural
network convention.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, GradientShapeError


@dataclass
class Signal:
    """A mono waveform with its sampling rate."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.samples.ndim != 1 or len(self.samples) < 1:
            raise ValueError("samples must be a non-empty 1-D array")

    def __len__(self):
        return len(self.samples)


@dataclass
class KernelBank:
    """Parameters of one convolution layer: K kernels of length L, stride S."""

    weights: np.ndarray  # shape (K, L)
    biases: np.ndarray  # shape (K,)
    stride: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        self.biases = np.asarray(self.biases)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a K x L matrix")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValueError("biases must have one entry per kernel")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def num_kernels(self) -> int:
        return self.weights.shape[0]

    @property
    def kernel_len(self) -> int:
        return self.weights.shape[1]


def output_map_size(num_samples: int, kernel_len: int, stride: int) -> int:
    """Number of windows of length `kernel_len` at hop `stride` in `num_samples`."""
    if kernel_len < 1 or stride < 1:
        raise ValueError("kernel_len and stride must be >= 1")
    if num_samples < kernel_len:
        raise GeometryError(
            f"input of {num_samples} samples is shorter than kernel of {kernel_len}"
        )
    return (num_samples - kernel_len) // stride + 1


def required_span(map_size: int, stride: int, kernel_len: int) -> int:
    """Smallest input length producing exactly `map_size` output positions."""
    if map_size < 1 or stride < 1 or kernel_len < 1:
        raise ValueError("map_size, stride and kernel_len must be >= 1")
    return (map_size - 1) * stride + kernel_len


def sliding_windows(segment: np.ndarray, kernel_len: int, stride: int) -> np.ndarray:
    """View of all M strided windows, shape (..., M, kernel_len)."""
    segment = np.asarray(segment)
    m = output_map_size(segment.shape[-1], kernel_len, stride)
    windows = np.lib.stride_tricks.sliding_window_view(segment, kernel_len, axis=-1)
    return windows[..., ::stride, :][..., :m, :]


def conv1d_forward_batch(segments: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Convolve a batch of segments, shape (B, T) -> frame-major maps (B, M, K).

    Frame m's K kernel responses are contiguous, so `reshape(B, M*K)` is a
    view and is exactly the flat input a following layer convolves.
    """
    windows = sliding_windows(segments, bank.kernel_len, bank.stride)
    b, m, l = windows.shape
    maps = windows.reshape(-1, l) @ bank.weights.T + bank.biases
    return maps.reshape(b, m, -1)


def conv1d_backward_batch(segments: np.ndarray, bank: KernelBank, upstream: np.ndarray):
    """Exact gradients of conv1d_forward_batch; upstream has shape (B, M, K).

    Returns (weight_grads, bias_grads, input_grads).  Weight and bias
    gradients are summed over the batch; input gradients keep it, (B, T).
    """
    windows = sliding_windows(segments, bank.kernel_len, bank.stride)
    b, m, l = windows.shape
    if upstream.shape != (b, m, bank.num_kernels):
        raise GradientShapeError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"feature maps shape {(b, m, bank.num_kernels)}"
        )
    rows = upstream.reshape(-1, bank.num_kernels)
    weight_grads = rows.T @ windows.reshape(-1, l)
    bias_grads = rows.sum(axis=0)
    window_grads = (rows @ bank.weights).reshape(b, m, l)
    input_grads = np.zeros_like(segments, dtype=upstream.dtype)
    s = bank.stride
    for i in range(m):
        input_grads[:, i * s : i * s + l] += window_grads[:, i]
    return weight_grads, bias_grads, input_grads
