"""End-to-end trainable acoustic models and their exact backward passes.

Three model kinds share the same classifier head:
  * multi_span  — several projected CNN streams, concatenated
  * single_span — one CNN stream fed to the head without projection
  * fbank_dnn   — log Mel-filterbank features with context stacking
"""

from dataclasses import asdict
from math import gcd, inf
from typing import List, Sequence

import numpy as np

from .conv import conv1d_backward_batch, conv1d_forward_batch
from .dataio import FRAME_SHIFT
from .errors import GeometryError, ValidationError
from .fbank import FbankConfig, compute_fbank, stack_context
from .network import (
    DnnHead,
    cross_entropy_batch,
    head_backward_batch,
    head_forward_batch,
    head_params,
    init_head,
)
from .streams import Stream, StreamConfig, gather_windows, init_stream

MODEL_KINDS = ("multi_span", "single_span", "fbank_dnn")


def head_loss_and_grads(head: DnnHead, features: np.ndarray, labels: np.ndarray):
    """Mean softmax-CE loss of a (B, D) batch, head gradients and the
    gradient w.r.t. the features, shape (B, D)."""
    probs, activations = head_forward_batch(head, features)
    loss = cross_entropy_batch(probs, labels)
    dlogits = probs.copy()
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    grads, dfeat = head_backward_batch(head, activations, dlogits)
    return loss, grads, dfeat


def frame_conv_macs(config: StreamConfig) -> int:
    """conv1 + conv2 multiply-accumulates of one stream over one frame window."""
    return (config.first_map_size * config.first_num_kernels * config.first_kernel_len
            + config.second_map_size * config.second_num_kernels * config.second_kernel_len)


def shared_run_sizes(config: StreamConfig, num_frames: int):
    """Sizes of one stream's conv stack shared over a run of `num_frames`
    frames FRAME_SHIFT samples apart.

    With S = first_stride and d = second_stride / first_num_kernels (conv1
    positions per conv2 step), conv2 window j of frame n starts at sample
    offset FRAME_SHIFT*n + S*d*j from the first frame's window, so frame n
    belongs to class FRAME_SHIFT*n mod S*d.  A class is a conv1 phase
    (offset mod S) and a conv2 shift (which of the d conv1 positions its
    windows start on).  Returns (phases, classes, conv1 positions per
    phase, conv2 outputs per class); every phase covers the largest shift
    d - 1, so all phases and all classes have one length.
    """
    s, k1 = config.first_stride, config.first_num_kernels
    d = config.second_stride // k1
    phases = min(num_frames, s // gcd(FRAME_SHIFT, s))
    classes = min(num_frames, s * d // gcd(FRAME_SHIFT, s * d))
    outputs = FRAME_SHIFT * (num_frames - 1) // (s * d) + config.second_map_size
    positions = d - 1 + d * (outputs - 1) + -(-config.second_kernel_len // k1)
    return phases, classes, positions, outputs


def shared_conv_macs(config: StreamConfig, num_frames: int) -> float:
    """conv1 + conv2 MACs of one stream over a run of `num_frames` frames
    FRAME_SHIFT apart on the shared path; infinite when a conv2 step is not
    a whole number of conv1 positions, which the shared path cannot do."""
    if config.second_stride % config.first_num_kernels:
        return inf
    phases, classes, positions, outputs = shared_run_sizes(config, num_frames)
    return (phases * positions * config.first_num_kernels * config.first_kernel_len
            + classes * outputs * config.second_num_kernels * config.second_kernel_len)


def stream_stack(stream: Stream, windows: np.ndarray):
    """conv1 -> ReLU -> conv2 -> ReLU of a (B, span) window batch: the
    frame-major conv1 maps (B, M1, K1) and the outputs (B, output_dim)."""
    y = np.maximum(conv1d_forward_batch(windows, stream.first_layer), 0)
    o = np.maximum(conv1d_forward_batch(y.reshape(len(windows), -1), stream.second_layer), 0)
    return y, o.reshape(len(windows), -1)


def shared_stream_outputs(stream: Stream, buffer: np.ndarray, first_center: int,
                          num_frames: int) -> np.ndarray:
    """`stream_stack` outputs of the `num_frames` frames centred at
    `first_center + FRAME_SHIFT*n` in `buffer`, shape (num_frames, output_dim).

    conv1 runs once per phase over the run's samples, conv2 once per class
    over that phase's frame-major conv1 output (see `shared_run_sizes`),
    and each frame gathers its second_map_size outputs.  Samples past the
    run's last window read as zeros where `buffer` ends; only outputs no
    frame uses read them.
    """
    cfg = stream.config
    span = cfg.input_span
    start = first_center - (span + 1) // 2
    if start < 0 or start + FRAME_SHIFT * (num_frames - 1) + span > len(buffer):
        raise GeometryError(f"a window of span {span} reaches outside the buffer")
    s, k1 = cfg.first_stride, cfg.first_num_kernels
    d = cfg.second_stride // k1
    _, _, positions, outputs = shared_run_sizes(cfg, num_frames)
    offsets = FRAME_SHIFT * np.arange(num_frames)
    keys, frame_class = np.unique(offsets % (s * d), return_inverse=True)
    phases, class_phase = np.unique(keys % s, return_inverse=True)
    length = s * (positions - 1) + cfg.first_kernel_len
    run = np.zeros(phases[-1] + length, dtype=buffer.dtype)
    samples = buffer[start : start + len(run)]
    run[: len(samples)] = samples
    segments = np.lib.stride_tricks.sliding_window_view(run, length)[phases]
    y = np.maximum(conv1d_forward_batch(segments, stream.first_layer), 0)
    flat = y.reshape(len(phases), -1)
    length2 = cfg.second_stride * (outputs - 1) + cfg.second_kernel_len
    shifts = (keys // s) * k1
    segments2 = np.lib.stride_tricks.sliding_window_view(flat, length2, axis=1)[class_phase, shifts]
    o = np.maximum(conv1d_forward_batch(segments2, stream.second_layer), 0)
    first = offsets // (s * d)
    o = o[frame_class[:, None], first[:, None] + np.arange(cfg.second_map_size)]
    return o.reshape(num_frames, -1)


class RawWaveformModel:
    """CNN streams plus DNN head operating directly on waveform windows."""

    def __init__(self, kind: str, streams: List[Stream], head: DnnHead, sample_rate: int = 16000):
        if kind not in ("multi_span", "single_span"):
            raise ValidationError(f"unknown raw-waveform model kind {kind!r}")
        if kind == "single_span" and len(streams) != 1:
            raise ValidationError("single_span requires exactly one stream")
        if kind == "multi_span":
            if len(streams) < 2:
                raise ValidationError("multi_span requires at least two streams")
            if any(s.projection is None for s in streams):
                raise ValidationError("multi_span streams require projections")
        self.kind = kind
        self.streams = streams
        self.head = head
        self.sample_rate = sample_rate
        if head.input_dim != self.feature_dim:
            raise ValidationError(
                f"head input dim {head.input_dim} != feature dim {self.feature_dim}"
            )

    @property
    def num_classes(self) -> int:
        return self.head.num_classes

    @property
    def feature_dim(self) -> int:
        if self.kind == "single_span":
            return self.streams[0].config.output_dim
        return sum(s.config.projection_dim for s in self.streams)

    @property
    def spans(self) -> List[int]:
        return [s.config.input_span for s in self.streams]

    def params(self) -> dict:
        params = {}
        for i, stream in enumerate(self.streams):
            params[f"stream{i}.conv1.weights"] = stream.first_layer.weights
            params[f"stream{i}.conv1.biases"] = stream.first_layer.biases
            params[f"stream{i}.conv2.weights"] = stream.second_layer.weights
            params[f"stream{i}.conv2.biases"] = stream.second_layer.biases
            if self.kind == "multi_span":
                params[f"stream{i}.projection"] = stream.projection
        params.update(head_params(self.head))
        return params

    def _project(self, stream: Stream, o: np.ndarray) -> np.ndarray:
        return o @ stream.projection.T if self.kind == "multi_span" else o

    def features_batch(self, windows: Sequence[np.ndarray], cache=None) -> np.ndarray:
        """Feature vectors for per-stream window batches, shape (B, feature_dim).

        Per stream: conv1 -> ReLU -> conv2 -> ReLU on frame-major maps, then
        the projection (multi-span only); the stream outputs are concatenated.
        """
        parts = []
        for stream, w in zip(self.streams, windows):
            if w.shape[1] != stream.config.input_span:
                raise GeometryError(
                    f"window length {w.shape[1]} != stream span {stream.config.input_span}"
                )
            y, o = stream_stack(stream, w)
            if cache is not None:
                cache.append((w, y, o))
            parts.append(self._project(stream, o))
        return np.concatenate(parts, axis=1)

    def features_at(self, buffer: np.ndarray, centers) -> np.ndarray:
        """Feature vectors of the frames centred at `centers` in `buffer`,
        shape (B, feature_dim): `features_batch` of their `gather_windows`.

        Per stream, a run of consecutive frames FRAME_SHIFT apart takes the
        shared path (`shared_stream_outputs`) when `shared_conv_macs` is
        strictly below the MACs of convolving each window; the other frames'
        windows are gathered and run through `stream_stack`.
        """
        centers = np.asarray(centers)
        bounds = np.flatnonzero(np.diff(centers) != FRAME_SHIFT) + 1
        runs = list(zip([0, *bounds], [*bounds, len(centers)]))
        lengths = {hi - lo for lo, hi in runs}
        parts = []
        for stream in self.streams:
            cfg = stream.config
            share = {n: shared_conv_macs(cfg, n) < n * frame_conv_macs(cfg) for n in lengths}
            shared = [(lo, hi) for lo, hi in runs if share[hi - lo]]
            if not shared:
                o = stream_stack(stream, gather_windows(buffer, centers, cfg.input_span))[1]
            else:
                gather = np.ones(len(centers), dtype=bool)
                for lo, hi in shared:
                    gather[lo:hi] = False
                o = np.empty((len(centers), cfg.output_dim),
                             dtype=np.result_type(buffer, stream.first_layer.weights))
                if gather.any():
                    o[gather] = stream_stack(
                        stream, gather_windows(buffer, centers[gather], cfg.input_span))[1]
                for lo, hi in shared:
                    o[lo:hi] = shared_stream_outputs(stream, buffer, centers[lo], hi - lo)
            parts.append(self._project(stream, o))
        return np.concatenate(parts, axis=1)

    def forward_batch(self, windows: Sequence[np.ndarray]):
        """Class probabilities for per-stream window batches, shape (B, C)."""
        probs, _ = head_forward_batch(self.head, self.features_batch(windows))
        return probs

    def forward_at(self, buffer: np.ndarray, centers) -> np.ndarray:
        """Class probabilities of the frames centred at `centers`, shape (B, C)."""
        probs, _ = head_forward_batch(self.head, self.features_at(buffer, centers))
        return probs

    def loss_and_grads(self, windows: Sequence[np.ndarray], labels: np.ndarray):
        """Mean CE loss over the batch and exact gradients per parameter."""
        labels = np.asarray(labels)
        stream_cache = []
        feats = self.features_batch(windows, cache=stream_cache)
        loss, grads, dfeat = head_loss_and_grads(self.head, feats, labels)
        offset = 0
        for i, (stream, (w, y, o)) in enumerate(zip(self.streams, stream_cache)):
            if self.kind == "multi_span":
                dim = stream.config.projection_dim
                dblock = dfeat[:, offset : offset + dim]
                grads[f"stream{i}.projection"] = dblock.T @ o
                do = dblock @ stream.projection
            else:
                dim = stream.config.output_dim
                do = dfeat[:, offset : offset + dim]
            offset += dim
            do = (do * (o > 0)).reshape(len(w), -1, stream.config.second_num_kernels)
            dw2, db2, dy = conv1d_backward_batch(y.reshape(len(w), -1), stream.second_layer, do)
            grads[f"stream{i}.conv2.weights"] = dw2
            grads[f"stream{i}.conv2.biases"] = db2
            dy = dy.reshape(y.shape) * (y > 0)
            dw1, db1, _ = conv1d_backward_batch(w, stream.first_layer, dy)
            grads[f"stream{i}.conv1.weights"] = dw1
            grads[f"stream{i}.conv1.biases"] = db1
        return loss, grads

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "num_classes": self.num_classes,
            "sample_rate": self.sample_rate,
            "streams": [asdict(s.config) for s in self.streams],
            "hidden_dims": [w.shape[0] for w in self.head.hidden_weights],
        }


class FbankDnnModel:
    """Log Mel-filterbank features with context stacking, fed to a DNN head."""

    kind = "fbank_dnn"

    def __init__(self, fbank_config: FbankConfig, head: DnnHead, context_frames: int = 11):
        self.fbank_config = fbank_config
        self.head = head
        self.context_frames = context_frames
        if head.input_dim != self.feature_dim:
            raise ValidationError(
                f"head input dim {head.input_dim} != feature dim {self.feature_dim}"
            )

    @property
    def num_classes(self) -> int:
        return self.head.num_classes

    @property
    def feature_dim(self) -> int:
        return self.fbank_config.num_filters * self.context_frames

    def params(self) -> dict:
        return head_params(self.head)

    def featurize(self, signal) -> np.ndarray:
        """One stacked feature row per 10ms label frame.

        The signal is zero-padded on the right by frame_size - frame_shift
        samples so the frame count equals the label count.
        """
        samples = np.asarray(getattr(signal, "samples", signal))
        pad = self.fbank_config.frame_size - self.fbank_config.frame_shift
        padded = np.concatenate([samples, np.zeros(pad, dtype=samples.dtype)])
        feats = compute_fbank(padded, self.fbank_config)
        return stack_context(feats, self.context_frames)

    def forward_batch(self, features: np.ndarray) -> np.ndarray:
        probs, _ = head_forward_batch(self.head, features)
        return probs

    def loss_and_grads(self, features: np.ndarray, labels: np.ndarray):
        loss, grads, _ = head_loss_and_grads(self.head, features, np.asarray(labels))
        return loss, grads

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "num_classes": self.num_classes,
            "context_frames": self.context_frames,
            "fbank": asdict(self.fbank_config),
            "hidden_dims": [w.shape[0] for w in self.head.hidden_weights],
        }


def build_raw_model(
    kind: str,
    stream_configs: Sequence[StreamConfig],
    num_classes: int,
    hidden_dims=(512, 512, 512, 512),
    seed: int = 0,
    sample_rate: int = 16000,
    dtype=np.float32,
) -> RawWaveformModel:
    rng = np.random.default_rng(seed)
    with_projection = kind == "multi_span"
    streams = [init_stream(c, rng, with_projection=with_projection, dtype=dtype) for c in stream_configs]
    if kind == "multi_span":
        feature_dim = sum(c.projection_dim for c in stream_configs)
    else:
        feature_dim = stream_configs[0].output_dim
    head = init_head(feature_dim, hidden_dims, num_classes, rng, dtype=dtype)
    return RawWaveformModel(kind, streams, head, sample_rate=sample_rate)


def build_fbank_model(
    num_classes: int,
    fbank_config: FbankConfig = FbankConfig(),
    context_frames: int = 11,
    hidden_dims=(512, 512, 512, 512),
    seed: int = 0,
    dtype=np.float32,
) -> FbankDnnModel:
    rng = np.random.default_rng(seed)
    head = init_head(
        fbank_config.num_filters * context_frames, hidden_dims, num_classes, rng, dtype=dtype
    )
    return FbankDnnModel(fbank_config, head, context_frames)


def model_from_config(config: dict, seed: int = 0):
    """Freshly initialized model matching a serialized config."""
    kind = config["kind"]
    if kind == "fbank_dnn":
        return build_fbank_model(
            config["num_classes"],
            FbankConfig(**config["fbank"]),
            config["context_frames"],
            hidden_dims=config["hidden_dims"],
            seed=seed,
        )
    stream_configs = [StreamConfig(**c) for c in config["streams"]]
    return build_raw_model(
        kind,
        stream_configs,
        config["num_classes"],
        hidden_dims=config["hidden_dims"],
        seed=seed,
        sample_rate=config.get("sample_rate", 16000),
    )
