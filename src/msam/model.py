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
    slower on (frames, map size) grids of positions."""
    v = np.sort(values, axis=None)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def conv_tables(cfg: StreamConfig, starts: np.ndarray):
    """Which frames of windows starting at `starts` take the table path,
    and the rows it convolves for them; None if no frame does.

    A frame takes the table path iff it reads a conv1 sample position that
    another frame of the batch reads.  Each such frame saves at least one
    conv1 row, so the table path does fewer conv MACs than those frames'
    windows; every other frame would add all its rows to the table, and
    takes the window path instead.  Only `starts` and the geometry are
    read: a geometry in which two frames FRAME_SHIFT apart read no common
    position returns None without looking at the batch.

    Returns (shared, positions, offsets, index): the (B,) mask of the
    frames that take the table path; their distinct conv1 positions,
    ordered by phase (position mod stride), then position, so a frame's
    first_map_size positions are consecutive rows of the conv1 table and
    its conv2 input is one slice of that table flattened; the distinct
    conv2 windows as sorted offsets into the flat table; and each shared
    frame's conv2 windows as rows of `offsets`, shape (shared frames,
    second_map_size).
    """
    s, m1, k1 = cfg.first_stride, cfg.first_map_size, cfg.first_num_kernels
    if lcm(FRAME_SHIFT, s) > s * (m1 - 1):
        return None

    def steps(order):
        # Lattice steps from each frame to the one before it of the same
        # phase, which reads furthest of all before it; m1 across phases,
        # where the step is not a multiple of the stride.
        step = np.diff(starts[order])
        return np.where(step % s == 0, np.minimum(step // s, m1), m1)

    order = np.lexsort((starts, starts % s))
    overlaps = steps(order) < m1
    shared = np.zeros(len(starts), dtype=bool)
    shared[order[1:][overlaps]] = shared[order[:-1][overlaps]] = True
    if not shared.any():
        return None
    # Rows each shared frame adds to the table, so that its positions are
    # the m1 rows that end with its own.
    order = order[shared[order]]
    new = np.full(len(order), m1)
    new[1:] = steps(order)
    rows = int(new.sum())
    row0 = np.cumsum(new) - m1
    flat = k1 * row0[:, None] + cfg.second_stride * np.arange(cfg.second_map_size)
    offsets = sorted_distinct(flat)
    index = np.empty((len(starts), cfg.second_map_size), dtype=flat.dtype)
    index[order] = np.searchsorted(offsets, flat)
    positions = np.repeat(starts[order] - s * row0, new) + s * np.arange(rows)
    return shared, positions, offsets, index[shared]


def window_outputs_at(stream: Stream, buffer: np.ndarray, centers):
    """`stream_outputs_at` by one gathered window per frame."""
    w = gather_windows(buffer, centers, stream.config.input_span)
    y, o = stream_stack(stream, w)

    def backward(do):
        dw2, db2, dy = conv1d_backward_batch(y.reshape(len(w), -1), stream.second_layer, do)
        dy = dy.reshape(y.shape)
        dy *= y > 0
        # conv1's input is the waveform: its gradient would be discarded.
        dw1, db1, _ = conv1d_backward_batch(w, stream.first_layer, dy, input_grads=False)
        return dw1, db1, dw2, db2

    return o, backward


def table_outputs_at(stream: Stream, buffer: np.ndarray, positions, offsets, index):
    """`stream_outputs_at` of the frames whose conv2 windows `index` reads
    from `conv_tables`' rows: conv1 runs once per distinct sample position
    and conv2 once per distinct window, forward and backward.

    The conv1 rows are kept for the backward.  The conv2 rows are gathered
    again for conv2's weight gradient and dropped before its input
    gradients are made: holding either raised peak memory and saved no
    time.  Windows whose offsets share a residue mod second_kernel_len lie
    at least a kernel apart, so each residue's input gradients add into
    the flat conv1 table as whole rows of a (-1, second_kernel_len) view.
    """
    cfg = stream.config
    l2 = cfg.second_kernel_len
    rows1 = np.lib.stride_tricks.sliding_window_view(buffer, cfg.first_kernel_len)[positions]
    y = conv1d_forward_batch(rows1, stream.first_layer)
    np.maximum(y, 0, out=y)
    flat = y.reshape(-1)
    windows2 = np.lib.stride_tricks.sliding_window_view(flat, l2)
    o = conv1d_forward_batch(windows2[offsets], stream.second_layer).reshape(len(offsets), -1)
    np.maximum(o, 0, out=o)

    def backward(do):
        # Each distinct window's gradient is the sum over the frames that read it.
        k2 = cfg.second_num_kernels
        do2 = np.zeros((len(offsets), 1, k2), dtype=do.dtype)
        np.add.at(do2.reshape(-1), (k2 * index[..., None] + np.arange(k2)).reshape(-1),
                  do.reshape(-1))
        dw2, db2, _ = conv1d_backward_batch(windows2[offsets], stream.second_layer, do2,
                                            input_grads=False)
        by_residue = np.argsort(offsets % l2, kind="stable")
        drows = do2[by_residue, 0] @ stream.second_layer.weights
        ordered = offsets[by_residue]
        residues = ordered % l2
        bounds = np.flatnonzero(np.diff(residues, prepend=-1, append=l2))
        dy = np.zeros_like(flat)
        for a, b in zip(bounds[:-1], bounds[1:]):
            q, lanes = residues[a], (ordered[a:b] - residues[a]) // l2
            dy[q : q + l2 * (lanes[-1] + 1)].reshape(-1, l2)[lanes] += drows[a:b]
        dy = dy.reshape(y.shape)
        dy *= y > 0
        dw1, db1, _ = conv1d_backward_batch(rows1, stream.first_layer, dy, input_grads=False)
        return dw1, db1, dw2, db2

    return o[index].reshape(len(index), -1), backward


def stream_outputs_at(stream: Stream, buffer: np.ndarray, centers):
    """`stream_stack` outputs of the frames centred at `centers` in
    `buffer`, shape (B, output_dim), and their backward: a function from
    the ReLU-masked output gradients, shape (B, second_map_size,
    second_num_kernels), to the conv1 and conv2 weight and bias gradients.

    The frames `conv_tables` picks take the table path; the others take
    the window path.
    """
    centers = np.asarray(centers)
    tables = conv_tables(stream.config, window_starts(buffer, centers, stream.config.input_span))
    if tables is None:
        return window_outputs_at(stream, buffer, centers)
    shared, *rows = tables
    o, backward = table_outputs_at(stream, buffer, *rows)
    if shared.all():
        return o, backward
    o_window, backward_window = window_outputs_at(stream, buffer, centers[~shared])
    outputs = np.empty((len(centers), o.shape[1]), dtype=o.dtype)
    outputs[shared], outputs[~shared] = o, o_window

    def backward_both(do):
        return [a + b for a, b in zip(backward(do[shared]), backward_window(do[~shared]))]

    return outputs, backward_both


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

    def features_batch(self, windows: Sequence[np.ndarray]) -> np.ndarray:
        """Feature vectors for per-stream window batches, shape (B, head.input_dim).

        Per stream: conv1 -> ReLU -> conv2 -> ReLU on frame-major maps, then
        the projection (multi-span only); the stream outputs are concatenated.
        """
        parts = []
        for stream, w in zip(self.streams, windows):
            if w.shape[1] != stream.config.input_span:
                raise GeometryError(
                    f"window length {w.shape[1]} != stream span {stream.config.input_span}"
                )
            parts.append(self._project(stream, stream_stack(stream, w)[1]))
        return np.concatenate(parts, axis=1)

    def features_at(self, buffer: np.ndarray, centers, cache=None) -> np.ndarray:
        """Feature vectors of the frames centred at `centers` in `buffer`,
        shape (B, head.input_dim): `features_batch` of their `gather_windows`,
        each stream run by `stream_outputs_at`.  With a `cache` list, each
        stream's (outputs, backward) pair is appended to it."""
        parts = []
        for stream in self.streams:
            o, backward = stream_outputs_at(stream, buffer, centers)
            if cache is not None:
                cache.append((o, backward))
            del backward  # unless cached, its tables go before the next stream builds its own
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

    def loss_and_grads(self, buffer: np.ndarray, centers, labels: np.ndarray):
        """Mean CE loss over the frames centred at `centers` in `buffer` and
        exact gradients per parameter."""
        labels = np.asarray(labels)
        stream_cache = []
        feats = self.features_at(buffer, centers, cache=stream_cache)
        loss, grads, dfeat = head_loss_and_grads(self.head, feats, labels)
        offset = 0
        for i, (stream, (o, backward)) in enumerate(zip(self.streams, stream_cache)):
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
            (grads[f"stream{i}.conv1.weights"], grads[f"stream{i}.conv1.biases"],
             grads[f"stream{i}.conv2.weights"], grads[f"stream{i}.conv2.biases"]) = backward(
                do.reshape(len(o), -1, stream.config.second_num_kernels))
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

    def params(self) -> dict:
        return head_params(self.head)

    def featurize(self, signal) -> np.ndarray:
        """One log-Mel row per 10ms label frame, shape (frames, num_filters).

        The signal is zero-padded on the right by frame_size - FRAME_SHIFT
        samples so the frame count equals the label count.
        """
        samples = np.asarray(getattr(signal, "samples", signal))
        pad = self.fbank_config.frame_size - FRAME_SHIFT
        return compute_fbank(np.concatenate([samples, np.zeros(pad, dtype=samples.dtype)]),
                             self.fbank_config)

    def forward_batch(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of stacked context rows, shape (B, C)."""
        probs, _ = head_forward_batch(self.head, features)
        return probs

    def forward_at(self, buffer: np.ndarray, centers) -> np.ndarray:
        """Class probabilities of the frames centred at rows `centers`, shape (B, C)."""
        return self.forward_batch(stack_context(buffer, centers, self.context_frames))

    def loss_and_grads(self, buffer: np.ndarray, centers, labels: np.ndarray):
        """Mean CE loss over the frames centred at rows `centers` of `buffer`
        and exact head gradients; none for the features, which are data."""
        features = stack_context(buffer, centers, self.context_frames)
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
