"""Mini-batch SGD training with momentum, weight decay, NewBob+ learning-rate
scheduling, cross-validation and layer-by-layer pretraining for multi-span
models."""

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .dataio import FRAME_SHIFT
from .errors import ValidationError
from .fbank import stack_context
from .model import FbankDnnModel, glorot_uniform
from .network import HIDDEN_DIMS, cross_entropy_batch
from .streams import gather_windows

PRETRAINED_DEPTH = 4  # hidden layers after pretraining's two transitions
# NewBob+: CV accuracy improvements in percentage points, and the lr decay.
NEWBOB_START_THRESHOLD = 0.5
NEWBOB_STOP_THRESHOLD = 0.1
NEWBOB_DECAY = 0.5


@dataclass
class TrainConfig:
    learning_rate: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 1e-5
    batch_size: int = 256
    cv_fraction: float = 0.10
    max_epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValidationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for key in ("momentum", "weight_decay"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ValidationError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not 0 < self.cv_fraction < 1:
            raise ValidationError("cv_fraction must be in (0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValidationError("batch_size and max_epochs must be >= 1")


@dataclass
class NewBobState:
    """Cross-validation driven learning-rate ramp: once per-epoch improvement
    falls below NEWBOB_START_THRESHOLD the rate is multiplied by NEWBOB_DECAY
    every epoch, and training stops when improvement falls below
    NEWBOB_STOP_THRESHOLD."""

    current_lr: float
    previous_cv_accuracy: Optional[float] = None
    ramping: bool = False
    stopped: bool = False


def newbob_update(state: NewBobState, cv_accuracy: float) -> str:
    """Advance the scheduler; returns 'continue', 'decay_lr' or 'stop'.

    Thresholds compare strictly: improvement exactly at a threshold does
    not trigger it.  Stop is absorbing.
    """
    if state.stopped:
        return "stop"
    if state.previous_cv_accuracy is None:
        state.previous_cv_accuracy = cv_accuracy
        return "continue"
    improvement = cv_accuracy - state.previous_cv_accuracy
    state.previous_cv_accuracy = cv_accuracy
    if not state.ramping:
        if improvement < NEWBOB_START_THRESHOLD:
            state.ramping = True
            state.current_lr *= NEWBOB_DECAY
            return "decay_lr"
        return "continue"
    if improvement < NEWBOB_STOP_THRESHOLD:
        state.stopped = True
        return "stop"
    state.current_lr *= NEWBOB_DECAY
    return "decay_lr"


def sgd_step(params: dict, grads: dict, velocity: dict, lr: float,
             momentum: float, weight_decay: float) -> dict:
    """One momentum SGD update, in place:

        v <- momentum * v - lr * (g + weight_decay * w);  w <- w + v

    The step is built in one buffer in that expression's rounding order.
    """
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValidationError(f"gradient shape {g.shape} != param shape {w.shape} for {name}")
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(w)
        step = w * weight_decay
        step += g
        step *= lr
        v *= momentum
        v -= step
        velocity[name] = v
        w += v
    return velocity


@dataclass(frozen=True)
class PretrainSchedule:
    """Layer-by-layer pretraining: one epoch on a head with no hidden layer
    (the 'subnet' stage), one epoch after inserting two hidden layers, then
    the full head.  The stage is the head's depth, so one schedule serves
    any number of runs."""

    hidden_dim: int = HIDDEN_DIMS[0]
    seed: int = 0


def pretrain_transition(model, schedule: PretrainSchedule):
    """Insert two fresh hidden layers before the output layer: the next
    pretraining stage.

    All existing stream, projection and hidden-layer parameters are kept
    bit-identical.  The output weight matrix is re-initialized only when
    its input dimension changes (the subnet -> extended transition); the
    output bias is always preserved.
    """
    head = model.head
    if head.num_hidden >= PRETRAINED_DEPTH:
        raise ValidationError("cannot advance past the 'full' pretraining stage")
    index = head.num_hidden // 2
    rng = np.random.default_rng((schedule.seed, index))
    dtype = head.output_weight.dtype
    in_dim = head.hidden_weights[-1].shape[0] if head.hidden_weights else head.input_dim
    for _ in range(2):
        head.hidden_weights.append(glorot_uniform(rng, (schedule.hidden_dim, in_dim), dtype))
        head.hidden_biases.append(np.zeros(schedule.hidden_dim, dtype=dtype))
        in_dim = schedule.hidden_dim
    if head.output_weight.shape[1] != in_dim:
        head.output_weight = glorot_uniform(rng, (head.num_classes, in_dim), dtype)
    return model


class FrameDataset:
    """Per-frame view of a corpus for one model: one buffer, and each
    frame's centre in it, from which the model builds the frame's input.

    Waveform models: samples, each utterance preceded by ceil(max_span/2)
    zeros and the last one followed by as many, so edge windows (the
    `centered_window` rule) read zeros, never a neighbouring utterance.
    FBANK: log-Mel rows in the model dtype, each utterance's between
    context_frames // 2 copies of its first and of its last row.
    """

    def __init__(self, model, corpus):
        if not corpus.utterances or corpus.total_frames() == 0:
            raise ValidationError("empty corpus")
        self.labels = np.concatenate([u.labels for u in corpus.utterances])
        self.dtype = model.head.output_weight.dtype
        if isinstance(model, FbankDnnModel):
            self.spans, self.context_frames = None, model.context_frames
            half, shift = model.context_frames // 2, 1
            frames = [u.num_frames for u in corpus.utterances]
            starts = half + np.cumsum([0] + [n + 2 * half for n in frames[:-1]])
            self.buffer = np.empty((starts[-1] + frames[-1] + half,
                                    model.fbank_config.num_filters), dtype=self.dtype)
            # Filled one utterance at a time: the whole corpus is never
            # staged in featurize's float64.
            for start, n, u in zip(starts, frames, corpus.utterances):
                self.buffer[start : start + n] = model.featurize(u.signal)
                self.buffer[start - half : start] = self.buffer[start]
                self.buffer[start + n : start + n + half] = self.buffer[start + n - 1]
        else:
            self.spans, shift = model.spans, FRAME_SHIFT
            gap = (max(self.spans) + 1) // 2
            # A slot holds the samples and any frame centers past their end.
            slots = [max(len(u.signal), FRAME_SHIFT * u.num_frames) for u in corpus.utterances]
            size = sum(slots) + gap * (len(slots) + 1)
            try:
                self.buffer = np.zeros(size, dtype=self.dtype)
            except (MemoryError, ValueError) as exc:
                raise ValidationError(
                    f"a span of {max(self.spans)} samples pads the corpus to {size} samples, "
                    f"which cannot be allocated ({exc})"
                ) from exc
            starts = gap * np.arange(1, len(slots) + 1) + np.cumsum([0] + slots[:-1])
            for start, u in zip(starts, corpus.utterances):
                self.buffer[start : start + len(u.signal)] = u.signal.samples
        self.centers = np.concatenate([start + shift * np.arange(u.num_frames)
                                       for start, u in zip(starts, corpus.utterances)])

    def __len__(self):
        return len(self.labels)

    def inputs(self, idxs):
        """The given frames' `forward_batch` inputs: stacked context rows, or
        one window batch per stream."""
        if self.spans is None:
            return stack_context(self.buffer, self.centers[idxs], self.context_frames)
        return [gather_windows(self.buffer, self.centers[idxs], span) for span in self.spans]


@dataclass
class TrainerState:
    velocity: dict = field(default_factory=dict)
    newbob: NewBobState = None
    epoch: int = 0
    dataset: FrameDataset = None
    train_idx: np.ndarray = None
    cv_idx: np.ndarray = None


def make_state(model, corpus, config: TrainConfig) -> TrainerState:
    dataset = FrameDataset(model, corpus)
    rng = np.random.default_rng((config.seed, 0xCE))
    perm = rng.permutation(len(dataset))
    n_cv = max(1, int(round(config.cv_fraction * len(dataset))))
    if n_cv >= len(dataset):
        raise ValidationError(
            f"corpus of {len(dataset)} frame(s) leaves no training frames after the "
            f"cross-validation split (cv_fraction {config.cv_fraction})"
        )
    return TrainerState(
        newbob=NewBobState(current_lr=config.learning_rate),
        dataset=dataset,
        cv_idx=np.sort(perm[:n_cv]),
        train_idx=np.sort(perm[n_cv:]),
    )


def evaluate_frames(model, dataset: FrameDataset, idxs, batch_size: int = 512):
    """Mean CE loss and frame accuracy (percent) over the given frames.

    Each chunk is scored by `forward_at`; a waveform model computes a conv
    output once per chunk where frames' windows overlap.  Its buffers grow
    with the chunk, and smaller chunks slow the head's matmuls.
    """
    total_loss = 0.0
    correct = 0
    for start in range(0, len(idxs), batch_size):
        chunk = idxs[start : start + batch_size]
        probs = model.forward_at(dataset.buffer, dataset.centers[chunk])
        labels = dataset.labels[chunk]
        total_loss += cross_entropy_batch(probs, labels) * len(chunk)
        correct += int((probs.argmax(axis=1) == labels).sum())
    n = len(idxs)
    return total_loss / n, 100.0 * correct / n


def train_epoch(model, config: TrainConfig, state: TrainerState):
    """One shuffled pass over the training frames of a `make_state` state.

    Returns (model, mean train CE loss, CV frame accuracy in percent).
    Raises FloatingPointError on a non-finite step loss or, after the
    pass, a non-finite parameter.
    """
    dataset = state.dataset
    rng = np.random.default_rng((config.seed, 1 + state.epoch))
    order = state.train_idx[rng.permutation(len(state.train_idx))]
    lr = state.newbob.current_lr
    total_loss = 0.0
    for start in range(0, len(order), config.batch_size):
        chunk = order[start : start + config.batch_size]
        loss, grads = model.loss_and_grads(dataset.buffer, dataset.centers[chunk],
                                           dataset.labels[chunk])
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"non-finite training loss in epoch {state.epoch + 1}, "
                f"step {start // config.batch_size + 1}"
            )
        sgd_step(model.params(), grads, state.velocity, lr,
                 config.momentum, config.weight_decay)
        total_loss += loss * len(chunk)
    state.epoch += 1
    bad = [name for name, p in model.params().items() if not np.isfinite(p).all()]
    if bad:
        raise FloatingPointError(f"non-finite parameters after epoch {state.epoch}: {bad}")
    _, cv_accuracy = evaluate_frames(model, dataset, state.cv_idx)
    return model, total_loss / len(order), cv_accuracy


def format_log_line(epoch: int, lr: float, train_loss: float, cv_accuracy: float) -> str:
    return f"{epoch}\t{lr:.6g}\t{train_loss:.6f}\t{cv_accuracy:.4f}"


def train_model(model, corpus, config: TrainConfig,
                pretrain: Optional[PretrainSchedule] = None) -> List[str]:
    """Full training loop; returns tab-separated per-epoch log lines.

    With a pretraining schedule (multi-span models), runs one epoch per
    pretraining stage with a topology transition and momentum reset after
    each, then trains the full head under NewBob+ until it stops.  No run
    exceeds max_epochs epochs, and no transition follows the last epoch.
    """
    if pretrain is not None and model.head.num_hidden:
        raise ValidationError(
            f"pretraining must start at the 'subnet' stage, a head with no hidden "
            f"layer; this head has {model.head.num_hidden}"
        )
    state = make_state(model, corpus, config)
    log = []

    def run_epoch():
        lr = state.newbob.current_lr
        _, loss, cv = train_epoch(model, config, state)
        log.append(format_log_line(state.epoch, lr, loss, cv))
        return cv

    if pretrain is not None:
        while model.head.num_hidden < PRETRAINED_DEPTH and state.epoch < config.max_epochs:
            run_epoch()
            if state.epoch < config.max_epochs:
                pretrain_transition(model, pretrain)
                state.velocity = {}
    while state.epoch < config.max_epochs:
        cv = run_epoch()
        if newbob_update(state.newbob, cv) == "stop":
            break
    return log
