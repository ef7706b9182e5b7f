import hashlib
import json
import os
import struct
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from msam import openblas
from msam.dataio import FRAME_SHIFT, SAMPLE_RATE
from msam.model import build_raw_model
from msam.streams import StreamConfig

DATA = Path(__file__).parent / "data"


def pytest_report_header(config):
    """Name the BLAS kernel, whose sums the byte pins depend on."""
    blas = openblas()
    core = blas.get_corename().decode() if blas else "unknown"
    threads = blas.get_num_threads() if blas else "unknown"
    return (f"numpy {np.__version__}, OpenBLAS core {core}, threads {threads}, "
            f"MSAM_THREADS={os.environ.get('MSAM_THREADS', 'unset')}")


def cpu_has_avx2() -> bool:
    """The CPU runs AVX2, which OpenBLAS's Haswell kernels need."""
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text()
    except OSError:
        return False


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


def frames_in_buffer(rng, model, count):
    """A uniform(-1, 1) buffer and `count` frame centres FRAME_SHIFT apart
    in it, each window inside the buffer."""
    margin = max(model.spans)
    centers = margin + FRAME_SHIFT * np.arange(count)
    return rng.uniform(-1, 1, size=centers[-1] + margin), centers


def centered_window(samples: np.ndarray, center: int, span: int) -> np.ndarray:
    """Oracle: the window of `span` samples centred at `center`, one frame at
    a time, zero-padded at the edges.  For odd spans the extra sample is
    taken from the past: the window is [center - ceil(span/2),
    center - ceil(span/2) + span)."""
    samples = np.asarray(samples)
    start = center - (span + 1) // 2
    stop = start + span
    window = np.zeros(span, dtype=samples.dtype)
    lo = max(start, 0)
    hi = min(stop, len(samples))
    if hi > lo:
        window[lo - start : hi - start] = samples[lo:hi]
    return window


def span_model(spans, dtype=np.float64):
    """Raw-waveform model with one tiny stream per entry of `spans` (each >= 4)."""
    kind = "single_span" if len(spans) == 1 else "multi_span"
    configs = [tiny_stream_config(1, kernel_len=span - 3) for span in spans]
    return build_raw_model(kind, configs, 3, hidden_dims=(), dtype=dtype)


def write_wav(path, signal):
    """Write a Signal as 16-bit PCM mono at SAMPLE_RATE, clipping to the int16 range."""
    samples = np.clip(np.asarray(signal.samples) * 32768.0, -32768, 32767)
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(SAMPLE_RATE)
        writer.writeframes(samples.astype("<i2").tobytes())


def traced_peak(fn):
    """fn's result and the peak bytes traced while it ran, the result included."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_new(path, data: bytes):
    """Write `data` to `path` as a new file.  Overwriting a file by
    truncation waits for the old blocks to be released, ~30 ms per 2 KB file
    on ext4 mounted with `discard`; after an unlink the write takes ~0.01 ms."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)


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
    """Largest elementwise relative error between two gradient dicts, which
    must name the same tensors: a dropped gradient is a failure, not a
    tensor left unchecked."""
    assert analytic.keys() == numeric.keys(), (sorted(analytic), sorted(numeric))
    worst = 0.0
    for name in analytic:
        a, n = np.asarray(analytic[name]), np.asarray(numeric[name])
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# Byte-level mutations: flip bits of one byte, truncate, or splice bytes in.
# Half the positions fall in the first 64 bytes, where a file keeps its header.
_POSITIONS = st.one_of(st.integers(0, 63), st.integers(0, 1 << 16))
BYTE_OPS = st.lists(st.one_of(
    st.tuples(st.just("flip"), _POSITIONS, st.integers(1, 255)),
    st.tuples(st.just("truncate"), _POSITIONS),
    st.tuples(st.just("splice"), _POSITIONS, st.integers(0, 8), st.binary(max_size=8)),
), min_size=1, max_size=4)


def line_ops(tokens):
    """Line mutations: delete or duplicate a line, or set one of its tokens
    to one of `tokens`."""
    line = st.integers(0, 63)
    return st.lists(st.one_of(
        st.tuples(st.just("delete"), line),
        st.tuples(st.just("duplicate"), line),
        st.tuples(st.just("token"), line, st.integers(0, 3), st.sampled_from(tokens)),
    ), min_size=1, max_size=3)


def mutate(data: bytes, ops, sep: bytes = b"\t") -> bytes:
    """`data` after BYTE_OPS or line_ops mutations; tokens are split on `sep`."""
    data = bytearray(data)
    for op in ops:
        if op[0] == "flip" and data:
            data[op[1] % len(data)] ^= op[2]
        elif op[0] == "truncate":
            del data[op[1] % (len(data) + 1):]
        elif op[0] == "splice":
            at = op[1] % (len(data) + 1)
            data[at : at + op[2]] = op[3]
        elif op[0] in ("delete", "duplicate", "token"):
            lines = bytes(data).split(b"\n")
            i = op[1] % len(lines)
            if op[0] == "delete":
                del lines[i]
            elif op[0] == "duplicate":
                lines.insert(i, lines[i])
            else:
                tokens = lines[i].split(sep)
                tokens[op[2] % len(tokens)] = op[3]
                lines[i] = sep.join(tokens)
            data = bytearray(b"\n".join(lines))
    return bytes(data)


def with_config(blob: bytes, edit) -> bytes:
    """Checkpoint bytes with the config JSON rewritten and its digest
    recomputed: `edit(config)` edits the dict in place, or returns the
    config bytes to write instead."""
    size = int.from_bytes(blob[40:44], "little")
    config = json.loads(blob[44 : 44 + size])
    encoded = edit(config)
    if not isinstance(encoded, bytes):
        encoded = json.dumps(config, sort_keys=True).encode("utf-8")
    return (blob[:8] + hashlib.sha256(encoded).digest() + struct.pack("<I", len(encoded))
            + encoded + blob[44 + size :])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
