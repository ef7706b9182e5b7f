"""End-to-end trainable acoustic models and their exact backward passes.

Three model kinds share the same classifier head; a checkpoint config
names the kind, and a model holds none:
  * multi_span  — several projected CNN streams, concatenated
  * single_span — one CNN stream with no projection, fed to the head as is
  * fbank_dnn   — log Mel-filterbank features with context stacking
"""

from dataclasses import asdict
from typing import List, Sequence

import numpy as np

from .conv import KernelBank, conv1d_backward_batch, conv1d_forward_batch, sliding_windows
from .dataio import FRAME_SHIFT, SAMPLE_RATE
from .errors import GeometryError, ValidationError
from .fbank import FbankConfig, compute_fbank, stack_context
from .network import (
    CE_PROB_FLOOR,
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
# Distinct conv2 windows the table path gathers and convolves per call:
# 10.5 MB of float32 rows at the paper's 2560-tap conv2.
CONV2_BLOCK_ROWS = 1024


def head_loss_and_grads(head: DnnHead, features: np.ndarray, labels: np.ndarray,
                        input_grads: bool = True):
    """Mean softmax-CE loss of a (B, D) batch, head gradients and the
    gradient w.r.t. the features, shape (B, D), or None with
    `input_grads=False`."""
    probs, activations = head_forward_batch(head, features)
    loss = cross_entropy_batch(probs, labels)
    # Below the loss's floor a probability becomes 0, moving its gradient by at most
    # CE_PROB_FLOOR / B: subnormal operands slow the backward matmuls many-fold.
    probs *= probs >= CE_PROB_FLOOR
    dlogits = probs  # the loss is taken, so probs becomes its gradient in place
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    grads, dfeat = head_backward_batch(head, activations, dlogits, input_grads)
    return loss, grads, dfeat


def conv_tables(cfg: StreamConfig, starts: np.ndarray):
    """Which frames of windows starting at `starts` take the table path,
    and the rows it convolves for them; None if no frame does.

    A frame takes the table path iff it reads a conv1 sample position that
    another frame of the batch reads.  Each such frame saves at least one
    conv1 row, so the table path does fewer conv MACs than those frames'
    windows; every other frame would add all its rows to the table, and
    takes the window path instead.  Only `starts` and the geometry are
    read.

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
    # Rows each frame adds to the table so its positions are the last m1: its
    # lattice steps past the frame before it of its phase, m1 across phases.
    # Fewer than m1 means the two share; after a lone frame, m1 either way.
    order = np.lexsort((starts, starts % s))
    step = np.diff(starts[order])
    new = np.full(len(order), m1)
    new[1:] = np.where(step % s == 0, np.minimum(step // s, m1), m1)
    sharing = np.append(new[1:] < m1, False)
    sharing[1:] |= new[1:] < m1
    if not sharing.any():
        return None
    order, new = order[sharing], new[sharing]
    shared = np.zeros(len(starts), dtype=bool)
    shared[order] = True
    row0 = np.cumsum(new) - m1
    flat = k1 * row0[:, None] + cfg.second_stride * np.arange(cfg.second_map_size)
    # np.unique by one sort: NumPy 2's hash-based unique is ~20x slower here.
    offsets = np.sort(flat, axis=None)
    offsets = offsets[np.concatenate(([True], offsets[1:] != offsets[:-1]))]
    index = np.empty((len(starts), cfg.second_map_size), dtype=flat.dtype)
    index[order] = np.searchsorted(offsets, flat)
    positions = np.repeat(starts[order] - s * row0, new) + s * np.arange(new.sum())
    return shared, positions, offsets, index[shared]


def window_outputs_at(stream: Stream, windows: np.ndarray):
    """`stream_outputs_at` of the frames whose (B, input_span) windows are
    given; each layer convolves their (B, M, L) strided windows."""
    cfg, conv2 = stream.config, stream.second_layer
    rows1 = sliding_windows(windows, cfg.first_kernel_len, cfg.first_stride)
    y = conv1d_forward_batch(rows1, stream.first_layer)
    np.maximum(y, 0, out=y)
    flat = y.reshape(len(windows), -1)
    rows2 = sliding_windows(flat, cfg.second_kernel_len, cfg.second_stride)
    o = conv1d_forward_batch(rows2, conv2)
    np.maximum(o, 0, out=o)

    def backward(do):
        dw2, db2 = conv1d_backward_batch(rows2, conv2, do)
        # conv2's input gradients, overlap-added one conv2 position at a time.
        s2, l2, m2 = cfg.second_stride, cfg.second_kernel_len, cfg.second_map_size
        drows = do.reshape(-1, conv2.num_kernels) @ conv2.weights
        dy = np.zeros_like(flat, dtype=do.dtype)
        for i in range(m2):
            dy[:, i * s2 : i * s2 + l2] += drows[i::m2]
        del drows
        dy = dy.reshape(y.shape)
        dy *= y > 0
        dw1, db1 = conv1d_backward_batch(rows1, stream.first_layer, dy)
        return dw1, db1, dw2, db2

    return o.reshape(len(windows), -1), backward


def table_outputs_at(stream: Stream, buffer: np.ndarray, positions, offsets, index):
    """`stream_outputs_at` of the frames whose conv2 windows `index` reads
    from `conv_tables`' rows: conv1 runs once per distinct sample position
    and conv2 once per distinct window, forward and backward.

    The conv1 rows are kept for the backward.  The forward gathers and
    convolves the conv2 rows CONV2_BLOCK_ROWS at a time; the backward
    gathers them again, all at once, for conv2's weight gradient and drops
    them before its input gradients are made: holding either raised peak
    memory and saved no time.  Windows whose offsets share a residue mod
    second_kernel_len lie at least a kernel apart, so each residue's input
    gradients add into the flat conv1 table as whole rows of a
    (-1, second_kernel_len) view.
    """
    cfg = stream.config
    l2 = cfg.second_kernel_len
    rows1 = np.lib.stride_tricks.sliding_window_view(buffer, cfg.first_kernel_len)[positions]
    y = conv1d_forward_batch(rows1, stream.first_layer)
    np.maximum(y, 0, out=y)
    flat = y.reshape(-1)
    windows2 = np.lib.stride_tricks.sliding_window_view(flat, l2)
    o = np.empty((len(offsets), cfg.second_num_kernels), dtype=y.dtype)
    for a in range(0, len(offsets), CONV2_BLOCK_ROWS):
        block = offsets[a : a + CONV2_BLOCK_ROWS]
        o[a : a + len(block)] = conv1d_forward_batch(windows2[block], stream.second_layer)
    np.maximum(o, 0, out=o)

    def backward(do):
        # Each distinct window's gradient is the sum over the frames that read it.
        k2 = cfg.second_num_kernels
        do2 = np.zeros((len(offsets), k2), dtype=do.dtype)
        np.add.at(do2.reshape(-1), (k2 * index[..., None] + np.arange(k2)).reshape(-1),
                  do.reshape(-1))
        dw2, db2 = conv1d_backward_batch(windows2[offsets], stream.second_layer, do2)
        by_residue = np.argsort(offsets % l2, kind="stable")
        drows = do2[by_residue] @ stream.second_layer.weights
        ordered = offsets[by_residue]
        residues = ordered % l2
        bounds = np.flatnonzero(np.diff(residues, prepend=-1, append=l2))
        dy = np.zeros_like(flat)
        for a, b in zip(bounds[:-1], bounds[1:]):
            q, lanes = residues[a], (ordered[a:b] - residues[a]) // l2
            dy[q : q + l2 * (lanes[-1] + 1)].reshape(-1, l2)[lanes] += drows[a:b]
        dy = dy.reshape(y.shape)
        dy *= y > 0
        dw1, db1 = conv1d_backward_batch(rows1, stream.first_layer, dy)
        return dw1, db1, dw2, db2

    return o[index].reshape(len(index), -1), backward


def _project(stream: Stream, o: np.ndarray) -> np.ndarray:
    """A stream's outputs, projected if the stream has a projection."""
    return o if stream.projection is None else o @ stream.projection.T


def stream_outputs_at(stream: Stream, buffer: np.ndarray, centers):
    """conv1 -> ReLU -> conv2 -> ReLU outputs of the frames centred at
    `centers` in `buffer`, shape (B, output_dim), and their backward: a
    function from the ReLU-masked output gradients, shape (B,
    second_map_size, second_num_kernels), to the conv1 and conv2 weight and
    bias gradients.

    The frames `conv_tables` picks take the table path; the others take
    the window path.
    """
    span = stream.config.input_span
    starts = window_starts(buffer, centers, span)
    windows = np.lib.stride_tricks.sliding_window_view(buffer, span)
    tables = conv_tables(stream.config, starts)
    if tables is None:
        return window_outputs_at(stream, windows[starts])
    shared, *rows = tables
    o, backward = table_outputs_at(stream, buffer, *rows)
    if shared.all():
        return o, backward
    o_lone, backward_lone = window_outputs_at(stream, windows[starts[~shared]])
    outputs = np.empty((len(starts), o.shape[1]), dtype=o.dtype)
    outputs[shared], outputs[~shared] = o, o_lone

    def backward_both(do):
        return [a + b for a, b in zip(backward(do[shared]), backward_lone(do[~shared]))]

    return outputs, backward_both


class RawWaveformModel:
    """CNN streams plus DNN head operating directly on waveform windows."""

    def __init__(self, streams: List[Stream], head: DnnHead):
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
            if stream.projection is not None:
                params[f"stream{i}.projection"] = stream.projection
        params.update(head_params(self.head))
        return params

    def frames(self, utterances):
        """(buffer, centers) of the utterances' frames: the samples in the
        model dtype, each utterance after ceil(max_span/2) zeros and the last
        one before as many, so the edge windows [c - ceil(span/2), c -
        ceil(span/2) + span) of centres c read zeros, never a neighbouring
        utterance; a centre is a sample."""
        gap = (max(self.spans) + 1) // 2
        # A slot holds the samples and any frame centers past their end.
        slots = [max(len(u.signal), FRAME_SHIFT * u.num_frames) for u in utterances]
        size = sum(slots) + gap * (len(slots) + 1)
        try:
            buffer = np.zeros(size, dtype=self.head.output_weight.dtype)
        except (MemoryError, ValueError) as exc:
            raise ValidationError(
                f"a span of {max(self.spans)} samples pads the corpus to {size} samples, "
                f"which cannot be allocated ({exc})"
            ) from exc
        starts = gap * np.arange(1, len(slots) + 1) + np.cumsum([0] + slots[:-1])
        for start, u in zip(starts, utterances):
            buffer[start : start + len(u.signal)] = u.signal.samples
        return buffer, np.concatenate([start + FRAME_SHIFT * np.arange(u.num_frames)
                                       for start, u in zip(starts, utterances)])

    def inputs_at(self, buffer: np.ndarray, centers) -> List[np.ndarray]:
        """`forward_batch`'s input for the frames centred at `centers`: one
        window batch per stream."""
        return [gather_windows(buffer, centers, span) for span in self.spans]

    def features_batch(self, windows: Sequence[np.ndarray]) -> np.ndarray:
        """Feature vectors for per-stream window batches, shape (B, head.input_dim):
        `window_outputs_at` of each batch, then the projection (multi-span
        only); the stream outputs are concatenated."""
        parts = []
        for stream, w in zip(self.streams, windows):
            span = stream.config.input_span
            if w.shape[1] != span:
                raise GeometryError(f"window length {w.shape[1]} != stream span {span}")
            parts.append(_project(stream, window_outputs_at(stream, w)[0]))
        return np.concatenate(parts, axis=1)

    def features_at(self, buffer: np.ndarray, centers) -> np.ndarray:
        """Feature vectors of the frames centred at `centers` in `buffer`,
        shape (B, head.input_dim): `features_batch` of their `inputs_at`,
        each stream run by `stream_outputs_at`.  Each stream's backward is
        dropped with its call, so its tables go before the next stream
        builds its own."""
        return np.concatenate([_project(stream, stream_outputs_at(stream, buffer, centers)[0])
                               for stream in self.streams], axis=1)

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
        outputs, parts = [], []
        for stream in self.streams:
            outputs.append(stream_outputs_at(stream, buffer, centers))
            parts.append(_project(stream, outputs[-1][0]))
        feats = np.concatenate(parts, axis=1)
        splits = np.cumsum([p.shape[1] for p in parts[:-1]])
        del parts
        loss, grads, dfeat = head_loss_and_grads(self.head, feats, labels)
        dparts = np.split(dfeat, splits, axis=1)
        for i, (stream, (o, backward), do) in enumerate(zip(self.streams, outputs, dparts)):
            if stream.projection is not None:
                grads[f"stream{i}.projection"] = do.T @ o
                do = do @ stream.projection
            do *= o > 0
            (grads[f"stream{i}.conv1.weights"], grads[f"stream{i}.conv1.biases"],
             grads[f"stream{i}.conv2.weights"], grads[f"stream{i}.conv2.biases"]) = backward(
                do.reshape(len(o), -1, stream.config.second_num_kernels))
        return loss, grads

    def to_config(self) -> dict:
        return {
            "kind": "single_span" if self.streams[0].projection is None else "multi_span",
            "num_classes": self.num_classes,
            "sample_rate": SAMPLE_RATE,
            "streams": [asdict(s.config) for s in self.streams],
            "hidden_dims": [w.shape[0] for w in self.head.hidden_weights],
        }


class FbankDnnModel:
    """Log Mel-filterbank features with context stacking, fed to a DNN head."""

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

    def frames(self, utterances):
        """(buffer, centers) of the utterances' frames: log-Mel rows in the
        model dtype, each utterance's between context_frames // 2 copies of
        its first and of its last row; a centre is a row."""
        half = self.context_frames // 2
        frames = [u.num_frames for u in utterances]
        starts = half + np.cumsum([0] + [n + 2 * half for n in frames[:-1]])
        buffer = np.empty((starts[-1] + frames[-1] + half, self.fbank_config.num_filters),
                          dtype=self.head.output_weight.dtype)
        # One utterance at a time: featurize's float64 never holds the corpus.
        for start, n, u in zip(starts, frames, utterances):
            rows = self.featurize(u.signal)
            if len(rows) != n:
                raise ValidationError(f"utterance {u.id}: {n} labels for {len(rows)} "
                                      "log-Mel frames")
            buffer[start : start + n] = rows
            buffer[start - half : start] = buffer[start]
            buffer[start + n : start + n + half] = buffer[start + n - 1]
        return buffer, np.concatenate([start + np.arange(n) for start, n in zip(starts, frames)])

    def inputs_at(self, buffer: np.ndarray, centers) -> np.ndarray:
        """`forward_batch`'s input for the frames centred at rows `centers`:
        their stacked context rows."""
        return stack_context(buffer, centers, self.context_frames)

    def forward_batch(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of stacked context rows, shape (B, C)."""
        probs, _ = head_forward_batch(self.head, features)
        return probs

    def forward_at(self, buffer: np.ndarray, centers) -> np.ndarray:
        """Class probabilities of the frames centred at rows `centers`, shape (B, C)."""
        return self.forward_batch(self.inputs_at(buffer, centers))

    def loss_and_grads(self, buffer: np.ndarray, centers, labels: np.ndarray):
        """Mean CE loss over the frames centred at rows `centers` of `buffer`
        and exact head gradients; none for the features, which are data."""
        loss, grads, _ = head_loss_and_grads(self.head, self.inputs_at(buffer, centers),
                                             np.asarray(labels), input_grads=False)
        return loss, grads

    def to_config(self) -> dict:
        return {
            "kind": "fbank_dnn",
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
        first = KernelBank(params[name + "conv1.weights"], params[name + "conv1.biases"])
        second = KernelBank(params[name + "conv2.weights"], params[name + "conv2.biases"])
        streams.append(Stream(c, first, second, params.get(name + "projection")))
    return RawWaveformModel(streams, head)


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
