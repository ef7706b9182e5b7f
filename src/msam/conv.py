"""Strided 1-D convolution primitives, span arithmetic and parameter gradients.

A convolution layer is a bank of K kernels of length L that multiplies
im2col rows its caller lays out (`sliding_windows` at the stream's stride,
or gathered rows).  "Convolution" here means windowed dot products without
kernel flipping (cross-correlation), the standard neural network convention.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, GradientShapeError


@dataclass
class KernelBank:
    """Parameters of one convolution layer: K kernels of length L; its stride is the stream's."""

    weights: np.ndarray  # shape (K, L)
    biases: np.ndarray  # shape (K,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        self.biases = np.asarray(self.biases)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a K x L matrix")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValueError("biases must have one entry per kernel")

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


def conv1d_forward_batch(rows: np.ndarray, bank: KernelBank) -> np.ndarray:
    """Maps (..., K) of im2col rows (..., L).  Rows (B, M, L) give frame-major
    maps (B, M, K), whose `reshape(B, M*K)` is a view and the next layer's input."""
    if rows.shape[-1] != bank.kernel_len:
        raise GeometryError(f"rows of {rows.shape[-1]} samples for kernels of {bank.kernel_len}")
    maps = rows.reshape(-1, bank.kernel_len) @ bank.weights.T
    maps += bank.biases
    return maps.reshape(*rows.shape[:-1], bank.num_kernels)


def conv1d_backward_batch(rows: np.ndarray, bank: KernelBank, upstream: np.ndarray):
    """(weight_grads, bias_grads) of conv1d_forward_batch, summed over the
    rows; upstream has the maps' shape.  Each stream path scatters its own
    input gradients."""
    shape = (*rows.shape[:-1], bank.num_kernels)
    if upstream.shape != shape:
        raise GradientShapeError(f"upstream gradient shape {upstream.shape} does not match "
                                 f"feature maps shape {shape}")
    grads = upstream.reshape(-1, bank.num_kernels)
    return grads.T @ rows.reshape(-1, bank.kernel_len), grads.sum(axis=0)
