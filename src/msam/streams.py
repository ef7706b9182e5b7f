"""Multi-span front-end streams: geometry, parameters and window centering.

Each stream convolves a different span of the raw waveform with its own
first layer (stride S_i, kernel length L_i), feeds the flattened result
through a fixed-geometry second layer, and projects the output down to a
small vector.  The stack itself runs in `model.stream_outputs_at`: one
window per frame, or once per distinct input position.
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
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
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
        """Raw samples covered by the stream's receptive field."""
        return required_span(self.first_map_size, self.first_stride, self.first_kernel_len)

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
    """One trainable stream: two kernel banks and, if multi-span, a projection."""

    config: StreamConfig
    first_layer: KernelBank
    second_layer: KernelBank
    projection: Optional[np.ndarray] = None  # (projection_dim, output_dim)


def window_starts(buffer: np.ndarray, centers, span: int) -> np.ndarray:
    """First sample of the window of each centre c, [c - ceil(span/2),
    c - ceil(span/2) + span): for odd spans the extra sample is taken from
    the past.  Every window must lie inside `buffer`."""
    starts = np.asarray(centers) - (span + 1) // 2
    if len(starts) and (starts.min() < 0 or starts.max() + span > len(buffer)):
        raise GeometryError(f"a window of span {span} reaches outside the buffer")
    return starts

