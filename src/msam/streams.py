"""Multi-span front-end streams: geometry, parameters and window centering.

Each stream convolves a different span of the raw waveform with its own
first layer (stride S_i, kernel length L_i), feeds the flattened result
through a fixed-geometry second layer, and projects the output down to a
small vector.  The stack itself runs in `RawWaveformModel.features_batch`.
"""

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .conv import KernelBank, output_map_size, required_span
from .errors import GeometryError


@dataclass(frozen=True)
class StreamConfig:
    """Geometry of one stream; only the first layer varies between streams."""

    first_stride: int
    first_kernel_len: int
    first_map_size: int = 200
    first_num_kernels: int = 64
    second_stride: int = 1024
    second_kernel_len: int = 2560
    second_map_size: int = 11
    second_num_kernels: int = 128
    projection_dim: int = 150

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        flat_len = self.first_map_size * self.first_num_kernels
        m2 = output_map_size(flat_len, self.second_kernel_len, self.second_stride)
        if m2 != self.second_map_size:
            raise GeometryError(
                f"second layer over {flat_len} values with kernel "
                f"{self.second_kernel_len} and stride {self.second_stride} "
                f"yields map size {m2}, expected {self.second_map_size}"
            )

    @property
    def input_span(self) -> int:
        return stream_input_span(self)

    @property
    def output_dim(self) -> int:
        """Length of the stream output before projection."""
        return self.second_num_kernels * self.second_map_size


def desk_scale_config(first_stride: int, first_kernel_len: int) -> StreamConfig:
    """Reduced geometry for fast desk-scale experiments.

    Keeps the two-layer structure and the second-layer consistency
    constraint but shrinks map sizes and kernel counts so full training
    runs finish in minutes on one core.
    """
    return StreamConfig(
        first_stride=first_stride,
        first_kernel_len=first_kernel_len,
        first_map_size=25,
        first_num_kernels=16,
        second_stride=48,
        second_kernel_len=160,
        second_map_size=6,
        second_num_kernels=32,
        projection_dim=50,
    )


@dataclass
class Stream:
    """One trainable stream: two kernel banks and an optional projection."""

    config: StreamConfig
    first_layer: KernelBank
    second_layer: KernelBank
    projection: Optional[np.ndarray] = None  # (projection_dim, output_dim)

    def __post_init__(self):
        cfg = self.config
        if self.first_layer.weights.shape != (cfg.first_num_kernels, cfg.first_kernel_len):
            raise GeometryError("first layer shape does not match config")
        if self.first_layer.stride != cfg.first_stride:
            raise GeometryError("first layer stride does not match config")
        if self.second_layer.weights.shape != (
            cfg.second_num_kernels,
            cfg.second_kernel_len,
        ):
            raise GeometryError("second layer shape does not match config")
        if self.second_layer.stride != cfg.second_stride:
            raise GeometryError("second layer stride does not match config")
        if self.projection is not None:
            self.projection = np.asarray(self.projection)
            if self.projection.shape != (cfg.projection_dim, cfg.output_dim):
                raise GeometryError(
                    f"projection shape {self.projection.shape} != "
                    f"{(cfg.projection_dim, cfg.output_dim)}"
                )


def glorot_uniform(rng: np.random.Generator, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_stream(
    config: StreamConfig,
    rng: np.random.Generator,
    with_projection: bool = True,
    dtype=np.float32,
) -> Stream:
    """Seeded uniform (Glorot-style) initialization; biases start at zero."""
    first = KernelBank(
        weights=glorot_uniform(
            rng,
            (config.first_num_kernels, config.first_kernel_len),
            config.first_kernel_len,
            config.first_num_kernels,
            dtype,
        ),
        biases=np.zeros(config.first_num_kernels, dtype=dtype),
        stride=config.first_stride,
    )
    second = KernelBank(
        weights=glorot_uniform(
            rng,
            (config.second_num_kernels, config.second_kernel_len),
            config.second_kernel_len,
            config.second_num_kernels,
            dtype,
        ),
        biases=np.zeros(config.second_num_kernels, dtype=dtype),
        stride=config.second_stride,
    )
    projection = None
    if with_projection:
        projection = glorot_uniform(
            rng,
            (config.projection_dim, config.output_dim),
            config.output_dim,
            config.projection_dim,
            dtype,
        )
    return Stream(config, first, second, projection)


def stream_input_span(config: StreamConfig) -> int:
    """Raw samples covered by one stream's receptive field."""
    return required_span(config.first_map_size, config.first_stride, config.first_kernel_len)


def centered_window(samples: np.ndarray, center: int, span: int) -> np.ndarray:
    """Window of `span` samples centered at `center`, zero-padded at edges.

    For odd spans the extra sample is taken from the past: the window is
    [center - ceil(span/2), center - ceil(span/2) + span).
    """
    samples = np.asarray(samples)
    start = center - (span + 1) // 2
    stop = start + span
    window = np.zeros(span, dtype=samples.dtype)
    lo = max(start, 0)
    hi = min(stop, len(samples))
    if hi > lo:
        window[lo - start : hi - start] = samples[lo:hi]
    return window


def gather_windows(buffer: np.ndarray, centers, span: int) -> np.ndarray:
    """`centered_window(buffer, c, span)` for every centre c, shape (B, span),
    gathered from one strided view; every window must lie inside `buffer`."""
    starts = np.asarray(centers) - (span + 1) // 2
    if len(starts) and (starts.min() < 0 or starts.max() + span > len(buffer)):
        raise GeometryError(f"a window of span {span} reaches outside the buffer")
    return np.lib.stride_tricks.sliding_window_view(buffer, span)[starts]
