"""Mini-batch SGD training with momentum, weight decay, NewBob+ learning-rate
scheduling, cross-validation and layer-by-layer pretraining for multi-span
models."""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .dataio import FRAME_SHIFT
from .errors import ValidationError
from .model import FbankDnnModel
from .network import cross_entropy_batch
from .streams import gather_windows, glorot_uniform

PRETRAIN_STAGES = ("subnet", "extended", "full")


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
        if min(self.learning_rate, self.momentum, self.weight_decay) < 0:
            raise ValidationError("learning_rate, momentum, weight_decay must be >= 0")
        if not 0 < self.cv_fraction < 1:
            raise ValidationError("cv_fraction must be in (0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValidationError("batch_size and max_epochs must be >= 1")


@dataclass
class NewBobState:
    """Cross-validation driven learning-rate ramp: once per-epoch improvement
    falls below the start threshold the rate is halved every epoch, and
    training stops when improvement falls below the stop threshold."""

    current_lr: float
    previous_cv_accuracy: Optional[float] = None
    ramping: bool = False
    stopped: bool = False
    improvement_threshold_start: float = 0.5  # percentage points
    improvement_threshold_stop: float = 0.1
    decay_factor: float = 0.5

    def __post_init__(self):
        if self.current_lr <= 0:
            raise ValidationError("current_lr must be positive")
        if not 0 < self.decay_factor < 1:
            raise ValidationError("decay_factor must be in (0, 1)")


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
        if improvement < state.improvement_threshold_start:
            state.ramping = True
            state.current_lr *= state.decay_factor
            return "decay_lr"
        return "continue"
    if improvement < state.improvement_threshold_stop:
        state.stopped = True
        return "stop"
    state.current_lr *= state.decay_factor
    return "decay_lr"


def sgd_step(params: dict, grads: dict, velocity: dict, lr: float,
             momentum: float, weight_decay: float) -> dict:
    """One momentum SGD update, in place:

        v <- momentum * v - lr * (g + weight_decay * w);  w <- w + v
    """
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValidationError(f"gradient shape {g.shape} != param shape {w.shape} for {name}")
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(w)
        v *= momentum
        v -= (lr * (g + weight_decay * w)).astype(w.dtype)
        velocity[name] = v
        w += v
    return velocity


@dataclass
class PretrainSchedule:
    """Layer-by-layer pretraining: one epoch on a head with no hidden layer,
    one epoch after inserting two hidden layers, then the full head."""

    stage: str = "subnet"
    hidden_dim: int = 512
    epochs_per_stage: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.stage not in PRETRAIN_STAGES:
            raise ValidationError(f"unknown pretraining stage {self.stage!r}")


def pretrain_transition(model, schedule: PretrainSchedule):
    """Advance the schedule one stage, inserting two fresh hidden layers
    before the output layer.

    All existing stream, projection and hidden-layer parameters are kept
    bit-identical.  The output weight matrix is re-initialized only when
    its input dimension changes (the subnet -> extended transition); the
    output bias is always preserved.
    """
    index = PRETRAIN_STAGES.index(schedule.stage)
    if index == len(PRETRAIN_STAGES) - 1:
        raise ValidationError("cannot advance past the 'full' pretraining stage")
    next_stage = PRETRAIN_STAGES[index + 1]
    head = model.head
    rng = np.random.default_rng((schedule.seed, index))
    dtype = head.output_weight.dtype
    in_dim = head.hidden_weights[-1].shape[0] if head.hidden_weights else head.input_dim
    for _ in range(2):
        head.hidden_weights.append(
            glorot_uniform(rng, (schedule.hidden_dim, in_dim), in_dim, schedule.hidden_dim, dtype)
        )
        head.hidden_biases.append(np.zeros(schedule.hidden_dim, dtype=dtype))
        in_dim = schedule.hidden_dim
    if head.output_weight.shape[1] != in_dim:
        num_classes = head.output_weight.shape[0]
        head.output_weight = glorot_uniform(
            rng, (num_classes, in_dim), in_dim, num_classes, dtype
        )
    schedule.stage = next_stage
    return model


class FrameDataset:
    """Per-frame training view of a corpus for one model.

    Waveform models see per-stream centered windows (the `centered_window`
    rule), gathered from one buffer in which every utterance is preceded
    by ceil(max_span/2) zeros and the last one is followed by as many, so
    edge windows read zeros and never a neighbouring utterance.  The FBANK
    model sees precomputed stacked feature rows.
    """

    def __init__(self, model, corpus):
        if not corpus.utterances or corpus.total_frames() == 0:
            raise ValidationError("empty corpus")
        self.labels = np.concatenate([u.labels for u in corpus.utterances])
        self.dtype = model.head.output_weight.dtype
        if isinstance(model, FbankDnnModel):
            self.features = np.concatenate(
                [model.featurize(u.signal) for u in corpus.utterances]
            ).astype(self.dtype)
            self.spans = None
        else:
            self.features = None
            self.spans = model.spans
            gap = (max(self.spans) + 1) // 2
            # A slot holds the samples and any frame centers past their end.
            slots = [max(len(u.signal), FRAME_SHIFT * u.num_frames) for u in corpus.utterances]
            starts = gap * np.arange(1, len(slots) + 1) + np.cumsum([0] + slots[:-1])
            self.buffer = np.zeros(starts[-1] + slots[-1] + gap, dtype=self.dtype)
            for start, u in zip(starts, corpus.utterances):
                self.buffer[start : start + len(u.signal)] = u.signal.samples
            self.centers = np.concatenate([
                start + FRAME_SHIFT * np.arange(u.num_frames)
                for start, u in zip(starts, corpus.utterances)
            ])

    def __len__(self):
        return len(self.labels)

    def inputs(self, idxs):
        if self.features is not None:
            return self.features[idxs]
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


def evaluate_frames(model, dataset: FrameDataset, idxs, batch_size: int = 1024):
    """Mean CE loss and frame accuracy (percent) over the given frames.

    Waveform models score each chunk with `forward_at`, which shares the
    conv stacks over runs of consecutive frames where that saves MACs.
    """
    total_loss = 0.0
    correct = 0
    for start in range(0, len(idxs), batch_size):
        chunk = idxs[start : start + batch_size]
        if dataset.features is None:
            probs = model.forward_at(dataset.buffer, dataset.centers[chunk])
        else:
            probs = model.forward_batch(dataset.features[chunk])
        labels = dataset.labels[chunk]
        total_loss += cross_entropy_batch(probs, labels) * len(chunk)
        correct += int((probs.argmax(axis=1) == labels).sum())
    n = len(idxs)
    return total_loss / n, 100.0 * correct / n


def train_epoch(model, corpus, config: TrainConfig, state: TrainerState):
    """One shuffled pass over the training frames.

    Returns (model, mean train CE loss, CV frame accuracy in percent).
    Raises FloatingPointError on a non-finite step loss or, after the
    pass, a non-finite parameter.
    """
    if state.dataset is None:
        fresh = make_state(model, corpus, config)
        state.dataset, state.train_idx, state.cv_idx = (
            fresh.dataset, fresh.train_idx, fresh.cv_idx,
        )
        if state.newbob is None:
            state.newbob = fresh.newbob
    dataset = state.dataset
    rng = np.random.default_rng((config.seed, 1 + state.epoch))
    order = state.train_idx[rng.permutation(len(state.train_idx))]
    lr = state.newbob.current_lr if state.newbob else config.learning_rate
    total_loss = 0.0
    for start in range(0, len(order), config.batch_size):
        chunk = order[start : start + config.batch_size]
        loss, grads = model.loss_and_grads(dataset.inputs(chunk), dataset.labels[chunk])
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
    each, then trains the full head under NewBob+ until it stops or
    max_epochs is reached.
    """
    state = make_state(model, corpus, config)
    log = []

    def run_epoch():
        lr = state.newbob.current_lr
        _, loss, cv = train_epoch(model, corpus, config, state)
        log.append(format_log_line(state.epoch, lr, loss, cv))
        return cv

    if pretrain is not None:
        if pretrain.stage != "subnet":
            raise ValidationError("pretraining must start at the 'subnet' stage")
        while pretrain.stage != "full":
            for _ in range(pretrain.epochs_per_stage):
                run_epoch()
            pretrain_transition(model, pretrain)
            state.velocity = {}
    while state.epoch < config.max_epochs:
        cv = run_epoch()
        if newbob_update(state.newbob, cv) == "stop":
            break
    return log
