"""Float64 reference forward pass and closed-form geometry counts.

The reference uses nothing from msam's compute path: its own strided dot
products per output position, its own head and its own softmax.  It only
reads the model's parameters and stream geometry.
"""

import numpy as np


def _conv_relu(x, weights, biases, stride, map_size):
    """Frame-major ReLU(conv) of one 1-D input: (map_size * K,)."""
    kernel_len = weights.shape[1]
    out = np.empty((map_size, weights.shape[0]))
    for m in range(map_size):
        out[m] = weights @ x[m * stride : m * stride + kernel_len] + biases
    return np.maximum(out, 0.0).reshape(-1)


def _f64(a):
    return np.asarray(a, dtype=np.float64)


def reference_features(model, windows, row):
    """Float64 feature vector of one frame of a raw-waveform model."""
    parts = []
    for stream, batch in zip(model.streams, windows):
        cfg = stream.config
        first, second = stream.first_layer, stream.second_layer
        y = _conv_relu(_f64(batch[row]), _f64(first.weights), _f64(first.biases),
                       cfg.first_stride, cfg.first_map_size)
        o = _conv_relu(y, _f64(second.weights), _f64(second.biases),
                       cfg.second_stride, cfg.second_map_size)
        parts.append(_f64(stream.projection) @ o if stream.projection is not None else o)
    return np.concatenate(parts)


def reference_probs(model, inputs, row):
    """Float64 class probabilities of one frame, any model kind."""
    if hasattr(model, "streams"):
        h = reference_features(model, inputs, row)
    else:
        h = _f64(inputs[row])
    head = model.head
    for w, b in zip(head.hidden_weights, head.hidden_biases):
        h = np.maximum(_f64(w) @ h + _f64(b), 0.0)
    logits = _f64(head.output_weight) @ h + _f64(head.output_bias)
    e = np.exp(logits - logits.max())
    return e / e.sum()


def conv1_recomputed(stream_configs, frames_per_utterance, frame_shift=160):
    """(repeated, total) conv1 output positions over all frame windows.

    Frame n of an utterance is centred at frame_shift * n and its window
    starts ceil(span / 2) samples earlier; conv1 position m of that window
    reads the sample offset start + stride * m of the zero-padded
    utterance.  A position whose offset another frame of the same
    utterance already covered is a recomputation.  Counts are weighted by
    each stream's conv1 MACs per position.
    """
    repeated = total = 0
    for cfg in stream_configs:
        span = (cfg.first_map_size - 1) * cfg.first_stride + cfg.first_kernel_len
        macs = cfg.first_num_kernels * cfg.first_kernel_len
        offsets = np.arange(cfg.first_map_size) * cfg.first_stride - (span + 1) // 2
        for frames in frames_per_utterance:
            starts = np.arange(frames) * frame_shift
            positions = (starts[:, None] + offsets[None, :]).reshape(-1)
            repeated += (positions.size - np.unique(positions).size) * macs
            total += positions.size * macs
    return repeated, total
