import numpy as np
import pytest

from msam.model import build_raw_model
from msam.streams import StreamConfig


def tiny_stream_config(stride: int, kernel_len: int = 5) -> StreamConfig:
    """Smallest consistent two-layer geometry for gradient-check models."""
    return StreamConfig(
        first_stride=stride,
        first_kernel_len=kernel_len,
        first_map_size=4,
        first_num_kernels=2,
        second_stride=2,
        second_kernel_len=4,
        second_map_size=3,
        second_num_kernels=3,
        projection_dim=2,
    )


def span_model(spans, dtype=np.float64):
    """Raw-waveform model with one tiny stream per entry of `spans` (each >= 4)."""
    kind = "single_span" if len(spans) == 1 else "multi_span"
    configs = [tiny_stream_config(1, kernel_len=span - 3) for span in spans]
    return build_raw_model(kind, configs, 3, hidden_dims=(), dtype=dtype)


def randomize_biases(model, rng, scale=0.05):
    """Move biases off exact zero so ReLU kinks don't sit on test points."""
    for name, p in model.params().items():
        if name.endswith(("biases", "bias")):
            p += rng.uniform(-scale, scale, size=p.shape).astype(p.dtype)


def finite_difference_grads(loss_fn, params: dict, step: float = 1e-5) -> dict:
    """Central finite differences of a scalar loss over every parameter entry."""
    fd = {}
    for name, w in params.items():
        g = np.zeros_like(w)
        flat_w, flat_g = w.reshape(-1), g.reshape(-1)
        for i in range(flat_w.size):
            orig = flat_w[i]
            flat_w[i] = orig + step
            plus = loss_fn()
            flat_w[i] = orig - step
            minus = loss_fn()
            flat_w[i] = orig
            flat_g[i] = (plus - minus) / (2 * step)
        fd[name] = g
    return fd


def max_relative_error(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for name in analytic:
        a, n = np.asarray(analytic[name]), np.asarray(numeric[name])
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
