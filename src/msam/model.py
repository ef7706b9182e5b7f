"""End-to-end trainable acoustic models and their exact backward passes.

Three model kinds share the same classifier head:
  * multi_span  — several projected CNN streams, concatenated
  * single_span — one CNN stream fed to the head without projection
  * fbank_dnn   — log Mel-filterbank features with context stacking
"""

from dataclasses import asdict
from math import lcm
from typing import List, Sequence

import numpy as np

from .conv import KernelBank, conv1d_backward_batch, conv1d_forward_batch
from .dataio import FRAME_SHIFT, SAMPLE_RATE
from .errors import GeometryError, ValidationError
from .fbank import FbankConfig, compute_fbank, stack_context
from .network import (
    HIDDEN_DIMS,
    DnnHead,
    cross_entropy_batch,
    head_backward_batch,
    head_forward_batch,
    head_params,
)
from .streams import Stream, StreamConfig, gather_windows, window_starts

# Checkpoint configs record the frame grid: raw models at the top level,
# FBANK models inside "fbank".
_GRID = {"sample_rate": SAMPLE_RATE, "frame_shift": FRAME_SHIFT}


def head_loss_and_grads(head: DnnHead, features: np.ndarray, labels: np.ndarray,
                        input_grads: bool = True):
    """Mean softmax-CE loss of a (B, D) batch, head gradients and the
    gradient w.r.t. the features, shape (B, D), or None with
    `input_grads=False`."""
    probs, activations = head_forward_batch(head, features)
    loss = cross_entropy_batch(probs, labels)
    dlogits = probs  # the loss is taken, so probs becomes its gradient in place
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    grads, dfeat = head_backward_batch(head, activations, dlogits, input_grads)
    return loss, grads, dfeat


def stream_stack(stream: Stream, windows: np.ndarray):
    """conv1 -> ReLU -> conv2 -> ReLU of a (B, span) window batch: the
    frame-major conv1 maps (B, M1, K1) and the outputs (B, output_dim)."""
    y = conv1d_forward_batch(windows, stream.first_layer)
    np.maximum(y, 0, out=y)
    o = conv1d_forward_batch(y.reshape(len(windows), -1), stream.second_layer)
    np.maximum(o, 0, out=o)
    return y, o.reshape(len(windows), -1)


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """`np.unique(values)` by one sort; NumPy 2's hash-based unique is ~20x
    slower on the (frames, map size) position grids eval builds."""
    v = np.sort(values, axis=None)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def stream_outputs_at(stream: Stream, buffer: np.ndarray, centers) -> np.ndarray:
    """`stream_stack` outputs of the frames centred at `centers` in `buffer`,
    shape (B, output_dim), computing conv1 once per distinct sample position
    and conv2 once per distinct window.

    Distinct conv1 positions are ordered by phase (position mod stride),
    then by position, so a frame's first_map_size positions are consecutive
    rows of the conv1 table and its conv2 input is one slice of that table
    flattened.
    """
    cfg = stream.config
    s = cfg.first_stride
    starts = window_starts(buffer, centers, cfg.input_span)
    pos = starts[:, None] + s * np.arange(cfg.first_map_size)
    keys = (pos % s) * len(buffer) + pos  # phase-major; key mod len(buffer) is the position
    distinct = sorted_distinct(keys)
    windows = np.lib.stride_tricks.sliding_window_view(buffer, cfg.first_kernel_len)
    y = conv1d_forward_batch(windows[distinct % len(buffer)], stream.first_layer)
    np.maximum(y, 0, out=y)
    row0 = np.searchsorted(distinct, keys[:, 0])
    flat = cfg.first_num_kernels * row0[:, None] + cfg.second_stride * np.arange(cfg.second_map_size)
    distinct2 = sorted_distinct(flat)
    windows2 = np.lib.stride_tricks.sliding_window_view(y.reshape(-1), cfg.second_kernel_len)
    o = conv1d_forward_batch(windows2[distinct2], stream.second_layer)
    np.maximum(o, 0, out=o)
    o = o.reshape(len(distinct2), -1)[np.searchsorted(distinct2, flat)]
    return o.reshape(len(starts), -1)


class RawWaveformModel:
    """CNN streams plus DNN head operating directly on waveform windows."""

    def __init__(self, kind: str, streams: List[Stream], head: DnnHead):
        self.kind = kind
        self.streams = streams
        self.head = head

    @property
    def num_classes(self) -> int:
        return self.head.num_classes

    @property
    def feature_dim(self) -> int:
        return self.head.input_dim

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

        A stream in which two frames FRAME_SHIFT apart can read a common
        conv1 position takes `stream_outputs_at`; any other stream's windows
        are gathered and run through `stream_stack`, as in training.
        """
        parts = []
        for stream in self.streams:
            cfg = stream.config
            if lcm(FRAME_SHIFT, cfg.first_stride) <= cfg.first_stride * (cfg.first_map_size - 1):
                o = stream_outputs_at(stream, buffer, centers)
            else:
                o = stream_stack(stream, gather_windows(buffer, centers, cfg.input_span))[1]
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
            do *= o > 0
            do = do.reshape(len(w), -1, stream.config.second_num_kernels)
            dw2, db2, dy = conv1d_backward_batch(y.reshape(len(w), -1), stream.second_layer, do)
            grads[f"stream{i}.conv2.weights"] = dw2
            grads[f"stream{i}.conv2.biases"] = db2
            dy = dy.reshape(y.shape)
            dy *= y > 0
            # conv1's input is the waveform: its gradient would be discarded.
            dw1, db1, _ = conv1d_backward_batch(w, stream.first_layer, dy, input_grads=False)
            grads[f"stream{i}.conv1.weights"] = dw1
            grads[f"stream{i}.conv1.biases"] = db1
        return loss, grads

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "num_classes": self.num_classes,
            "sample_rate": SAMPLE_RATE,
            "streams": [asdict(s.config) for s in self.streams],
            "hidden_dims": [w.shape[0] for w in self.head.hidden_weights],
        }


class FbankDnnModel:
    """Log Mel-filterbank features with context stacking, fed to a DNN head."""

    kind = "fbank_dnn"

    def __init__(self, fbank_config: FbankConfig, head: DnnHead, context_frames: int):
        self.fbank_config = fbank_config
        self.head = head
        self.context_frames = context_frames

    @property
    def num_classes(self) -> int:
        return self.head.num_classes

    @property
    def feature_dim(self) -> int:
        return self.head.input_dim

    def params(self) -> dict:
        return head_params(self.head)

    def featurize(self, signal) -> np.ndarray:
        """One stacked feature row per 10ms label frame.

        The signal is zero-padded on the right by frame_size - FRAME_SHIFT
        samples so the frame count equals the label count.
        """
        samples = np.asarray(getattr(signal, "samples", signal))
        pad = self.fbank_config.frame_size - FRAME_SHIFT
        padded = np.concatenate([samples, np.zeros(pad, dtype=samples.dtype)])
        feats = compute_fbank(padded, self.fbank_config)
        return stack_context(feats, self.context_frames)

    def forward_batch(self, features: np.ndarray) -> np.ndarray:
        probs, _ = head_forward_batch(self.head, features)
        return probs

    def loss_and_grads(self, features: np.ndarray, labels: np.ndarray):
        loss, grads, _ = head_loss_and_grads(self.head, features, np.asarray(labels),
                                             input_grads=False)
        return loss, grads

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "num_classes": self.num_classes,
            "context_frames": self.context_frames,
            "fbank": {**asdict(self.fbank_config), **_GRID},
            "hidden_dims": [w.shape[0] for w in self.head.hidden_weights],
        }


def glorot_uniform(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Uniform weights in +-sqrt(6 / (fan_in + fan_out)) for a (fan_out, fan_in) matrix."""
    limit = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _without_grid(config: dict) -> dict:
    """`config` without its frame-grid keys, which it may hold only at the
    grid's values; any other value raises ValueError."""
    for key, value in _GRID.items():
        if config.get(key, value) != value:
            raise ValueError(f"{key} {config[key]!r} is not the frame grid's {value}")
    return {key: value for key, value in config.items() if key not in _GRID}


def param_shapes(config: dict) -> dict:
    """Name -> shape of every parameter of the model a `to_config` dict
    describes, in `params()` order.  Allocates nothing; a config that
    describes no valid model raises."""
    kind = config["kind"]
    _without_grid(config)
    widths = [*config["hidden_dims"], config["num_classes"]]
    if not all(isinstance(w, int) and w >= 1 for w in widths):
        raise ValidationError(f"hidden_dims and num_classes must be integers >= 1, got {widths}")
    shapes = {}
    if kind == "fbank_dnn":
        context = config["context_frames"]
        if not isinstance(context, int) or context < 1 or context % 2 == 0:
            raise ValidationError(f"context_frames must be a positive odd integer, got {context!r}")
        feature_dim = FbankConfig(**_without_grid(config["fbank"])).num_filters * context
    elif kind in ("multi_span", "single_span"):
        streams = [StreamConfig(**c) for c in config["streams"]]
        if kind == "single_span" and len(streams) != 1:
            raise ValidationError("single_span requires exactly one stream")
        if kind == "multi_span" and len(streams) < 2:
            raise ValidationError("multi_span requires at least two streams")
        for i, c in enumerate(streams):
            shapes[f"stream{i}.conv1.weights"] = (c.first_num_kernels, c.first_kernel_len)
            shapes[f"stream{i}.conv1.biases"] = (c.first_num_kernels,)
            shapes[f"stream{i}.conv2.weights"] = (c.second_num_kernels, c.second_kernel_len)
            shapes[f"stream{i}.conv2.biases"] = (c.second_num_kernels,)
            if kind == "multi_span":
                shapes[f"stream{i}.projection"] = (c.projection_dim, c.output_dim)
        # The feature width: projections concatenated, or the one stream's output.
        feature_dim = sum(c.projection_dim if kind == "multi_span" else c.output_dim
                          for c in streams)
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    dims = [feature_dim, *widths]
    for j, (d_in, d_out) in enumerate(zip(dims[:-2], dims[1:-1])):
        shapes[f"head.hidden{j}.weight"] = (d_out, d_in)
        shapes[f"head.hidden{j}.bias"] = (d_out,)
    shapes["head.output.weight"] = (dims[-1], dims[-2])
    shapes["head.output.bias"] = (dims[-1],)
    return shapes


def model_from_params(config: dict, params: dict):
    """The model `config` describes, built around the arrays of `params`,
    whose names and shapes must be `param_shapes(config)`."""
    shapes = param_shapes(config)
    got = {name: p.shape for name, p in params.items()}
    wrong = [f"{name} {got.get(name, 'absent')}, expected {shapes.get(name, 'none')}"
             for name in sorted(shapes.keys() | got.keys()) if got.get(name) != shapes.get(name)]
    if wrong:
        raise ValidationError(f"tensors that do not fit the model: {'; '.join(wrong)}")
    hidden = range(len(config["hidden_dims"]))
    head = DnnHead(
        hidden_weights=[params[f"head.hidden{j}.weight"] for j in hidden],
        hidden_biases=[params[f"head.hidden{j}.bias"] for j in hidden],
        output_weight=params["head.output.weight"],
        output_bias=params["head.output.bias"],
    )
    if config["kind"] == "fbank_dnn":
        fbank_config = FbankConfig(**_without_grid(config["fbank"]))
        return FbankDnnModel(fbank_config, head, config["context_frames"])
    streams = []
    for i, c in enumerate(config["streams"]):
        c, name = StreamConfig(**c), f"stream{i}."
        first = KernelBank(params[name + "conv1.weights"], params[name + "conv1.biases"],
                           c.first_stride)
        second = KernelBank(params[name + "conv2.weights"], params[name + "conv2.biases"],
                            c.second_stride)
        streams.append(Stream(c, first, second, params.get(name + "projection")))
    return RawWaveformModel(config["kind"], streams, head)


def _seeded_model(config: dict, seed: int, dtype):
    """The model `config` describes, with Glorot-uniform weights drawn from
    `seed` in `params()` order and zero biases."""
    rng = np.random.default_rng(seed)
    return model_from_params(config, {
        name: glorot_uniform(rng, shape, dtype) if len(shape) == 2 else np.zeros(shape, dtype)
        for name, shape in param_shapes(config).items()
    })


def build_raw_model(
    kind: str,
    stream_configs: Sequence[StreamConfig],
    num_classes: int,
    hidden_dims=HIDDEN_DIMS,
    seed: int = 0,
    dtype=np.float32,
) -> RawWaveformModel:
    return _seeded_model({"kind": kind, "num_classes": num_classes,
                          "streams": [asdict(c) for c in stream_configs],
                          "hidden_dims": list(hidden_dims)}, seed, dtype)


def build_fbank_model(
    num_classes: int,
    fbank_config: FbankConfig = FbankConfig(),
    context_frames: int = 11,
    hidden_dims=HIDDEN_DIMS,
    seed: int = 0,
    dtype=np.float32,
) -> FbankDnnModel:
    return _seeded_model({"kind": "fbank_dnn", "num_classes": num_classes,
                          "context_frames": context_frames, "fbank": asdict(fbank_config),
                          "hidden_dims": list(hidden_dims)}, seed, dtype)
