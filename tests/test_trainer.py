from math import lcm
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msam.model
import msam.trainer
from msam.checkpoint import save_checkpoint
from msam.dataio import FRAME_SHIFT, Corpus, Signal, Utterance, normalize_global, synth_corpus
from msam.errors import ValidationError
from msam.fbank import FbankConfig
from msam.model import build_fbank_model, build_raw_model, glorot_uniform
from msam.network import cross_entropy_batch
from msam.streams import StreamConfig, desk_scale_config
from msam.trainer import (
    SGD_BLOCK,
    FrameDataset,
    NewBobState,
    PretrainSchedule,
    TrainConfig,
    evaluate_frames,
    make_state,
    newbob_update,
    pretrain_transition,
    sgd_step,
    train_epoch,
    train_model,
)

from conftest import (centered_window, frames_in_buffer, randomize_biases, span_model,
                      tiny_stream_config, traced_peak)


class TestSgdStep:
    def test_vanilla_sgd(self):
        w = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        sgd_step({"w": w}, {"w": g}, {}, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(w, [0.95, 2.05])

    def test_zero_grad_zero_momentum_is_noop(self):
        w = np.array([3.0])
        sgd_step({"w": w}, {"w": np.zeros(1)}, {}, lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(w, [3.0])

    def test_two_momentum_steps_match_hand_recurrence(self):
        # v1 = -lr*g1; w1 = w0 + v1; v2 = mu*v1 - lr*g2; w2 = w1 + v2
        lr, mu = 0.1, 0.9
        w = np.array([1.0])
        velocity = {}
        sgd_step({"w": w}, {"w": np.array([2.0])}, velocity, lr, mu, 0.0)
        sgd_step({"w": w}, {"w": np.array([1.0])}, velocity, lr, mu, 0.0)
        v1 = -lr * 2.0
        v2 = mu * v1 - lr * 1.0
        assert w[0] == pytest.approx(1.0 + v1 + v2)

    def test_weight_decay_shrinks_weights(self):
        w = np.array([2.0])
        lr, lam = 0.1, 0.5
        sgd_step({"w": w}, {"w": np.zeros(1)}, {}, lr, 0.0, lam)
        assert w[0] == pytest.approx(2.0 * (1 - lr * lam))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValidationError):
            sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, {}, 0.1, 0.0, 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_match_the_whole_array_formula_bitwise(self, dtype):
        """Three steps over parameters smaller than, equal to and not a
        multiple of SGD_BLOCK give the bits of the formula applied to whole
        arrays; the updates land in the caller's arrays."""
        rng = np.random.default_rng(3)
        shapes = {"a": (7,), "b": (SGD_BLOCK,), "c": (SGD_BLOCK + 1,),
                  "d": (3, SGD_BLOCK // 2 + 5)}
        params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        expected = {k: p.copy() for k, p in params.items()}
        velocity, expected_velocity = {}, {}
        for _ in range(3):
            grads = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
            sgd_step(params, grads, velocity, 0.02, 0.9, 1e-5)
            for k, w in expected.items():
                v = expected_velocity.get(k, np.zeros_like(w))
                step = w * 1e-5
                step += grads[k]
                step *= 0.02
                v *= 0.9
                v -= step
                expected_velocity[k] = v
                w += v
        for k in shapes:
            assert params[k].tobytes() == expected[k].tobytes(), k
            assert velocity[k].tobytes() == expected_velocity[k].tobytes(), k

    def test_non_contiguous_parameter_raises(self):
        """A flat copy of a strided parameter would take the update and
        leave the parameter as it was."""
        w = np.ones((4, 6))[:, :3]
        with pytest.raises(ValidationError, match="contiguous"):
            sgd_step({"w": w}, {"w": np.ones((4, 3))}, {}, 0.1, 0.0, 0.0)
        with pytest.raises(ValidationError, match="contiguous"):
            sgd_step({"w": np.ones((4, 3))}, {"w": np.ones((4, 3))},
                     {"w": np.zeros((3, 4)).T}, 0.1, 0.0, 0.0)
        np.testing.assert_array_equal(w, 1.0)


class TestNewBob:
    def _state(self):
        return NewBobState(current_lr=0.1)

    def test_trace_from_policy(self):
        state = self._state()
        accuracies = [50.0, 55.0, 59.0, 59.3]  # improvements 5.0, 4.0, 0.3
        decisions = [newbob_update(state, a) for a in accuracies]
        assert decisions == ["continue", "continue", "continue", "decay_lr"]
        assert state.ramping
        assert state.current_lr == pytest.approx(0.05)

    def test_improvement_exactly_at_threshold_continues(self):
        state = self._state()
        newbob_update(state, 50.0)
        assert newbob_update(state, 50.5) == "continue"
        assert not state.ramping

    def test_ramping_small_improvement_stops(self):
        state = self._state()
        state.ramping = True
        newbob_update(state, 60.0)
        assert newbob_update(state, 60.05) == "stop"
        assert state.stopped

    def test_ramping_improvement_exactly_at_stop_threshold_decays(self):
        state = NewBobState(current_lr=0.1, previous_cv_accuracy=0.0, ramping=True)
        assert newbob_update(state, 0.1) == "decay_lr"  # 0.1 - 0.0 == NEWBOB_STOP_THRESHOLD
        assert not state.stopped and state.current_lr == 0.05

    def test_stop_is_absorbing_and_lr_non_increasing(self):
        state = self._state()
        lrs = [state.current_lr]
        for acc in [50.0, 50.1, 50.2, 50.21, 70.0, 90.0]:
            newbob_update(state, acc)
            lrs.append(state.current_lr)
        assert state.stopped
        lr_after_stop = state.current_lr
        assert newbob_update(state, 99.0) == "stop"
        assert state.current_lr == lr_after_stop
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))


class TestPretrainTransitions:
    def _subnet_model(self, num_classes=4):
        return build_raw_model(
            "multi_span",
            [tiny_stream_config(s) for s in (2, 3)],
            num_classes,
            hidden_dims=(),
            seed=3,
        )

    def test_dimension_chains(self):
        model = self._subnet_model()
        schedule = PretrainSchedule(hidden_dim=6, seed=1)
        feature_dim = sum(s.config.projection_dim for s in model.streams)
        assert model.head.num_hidden == 0
        assert model.head.input_dim == feature_dim

        pretrain_transition(model, schedule)
        assert model.head.num_hidden == 2
        assert [w.shape[0] for w in model.head.hidden_weights] == [6, 6]
        assert model.head.output_weight.shape == (4, 6)

        pretrain_transition(model, schedule)
        assert model.head.num_hidden == 4
        assert [w.shape[0] for w in model.head.hidden_weights] == [6, 6, 6, 6]

    def test_untouched_parameters_preserved_bit_identical(self):
        model = self._subnet_model()
        schedule = PretrainSchedule(hidden_dim=6, seed=1)
        stream_params = {
            k: v.copy() for k, v in model.params().items() if k.startswith("stream")
        }
        bias_before = model.head.output_bias.copy()
        pretrain_transition(model, schedule)
        hidden_after_extended = [w.copy() for w in model.head.hidden_weights]
        output_after_extended = model.head.output_weight.copy()
        pretrain_transition(model, schedule)
        for k, v in stream_params.items():
            np.testing.assert_array_equal(model.params()[k], v)
        np.testing.assert_array_equal(model.head.output_bias, bias_before)
        # Extended-stage hidden layers and output weights survive the final
        # transition untouched.
        for before, after in zip(hidden_after_extended, model.head.hidden_weights):
            np.testing.assert_array_equal(before, after)
        np.testing.assert_array_equal(model.head.output_weight, output_after_extended)

    def test_each_transition_draws_from_its_own_key(self):
        """Transition k draws its layers from (seed, k), in insertion order."""
        model = self._subnet_model()
        schedule = PretrainSchedule(hidden_dim=6, seed=1)
        in_dim = model.head.input_dim
        pretrain_transition(model, schedule)
        pretrain_transition(model, schedule)
        first, second = (np.random.default_rng((schedule.seed, k)) for k in (0, 1))
        expected = [glorot_uniform(first, (6, in_dim), np.float32),
                    glorot_uniform(first, (6, 6), np.float32),
                    glorot_uniform(second, (6, 6), np.float32),
                    glorot_uniform(second, (6, 6), np.float32)]
        for got, want in zip(model.head.hidden_weights, expected, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_cannot_advance_past_full(self):
        model = self._subnet_model()
        schedule = PretrainSchedule(hidden_dim=6, seed=1)
        pretrain_transition(model, schedule)
        pretrain_transition(model, schedule)
        with pytest.raises(ValidationError, match="past the 'full'"):
            pretrain_transition(model, schedule)


@pytest.fixture(scope="module")
def small_corpus():
    return normalize_global(synth_corpus(3, 4, 2.0, seed=5))


def _small_model(seed=7):
    return build_raw_model(
        "multi_span",
        [desk_scale_config(s, 50) for s in (4, 9)],
        3,
        hidden_dims=(16,),
        seed=seed,
    )


class TestTrainEpoch:
    def test_zero_lr_leaves_model_unchanged(self, small_corpus):
        model = _small_model()
        before = {k: v.copy() for k, v in model.params().items()}
        config = TrainConfig(learning_rate=1e-30, momentum=0.0, weight_decay=0.0,
                             max_epochs=1, seed=0)
        state = make_state(model, small_corpus, config)
        state.newbob.current_lr = 0.0
        train_epoch(model, config, state)
        for k, v in before.items():
            np.testing.assert_array_equal(model.params()[k], v)

    def test_deterministic_repeat_runs(self, small_corpus):
        results = []
        for _ in range(2):
            model = _small_model(seed=21)
            config = TrainConfig(max_epochs=2, seed=4)
            log = train_model(model, small_corpus, config)
            results.append((log, {k: v.copy() for k, v in model.params().items()}))
        assert results[0][0] == results[1][0]
        for k in results[0][1]:
            np.testing.assert_array_equal(results[0][1][k], results[1][1][k])

    def test_loss_decreases_over_first_steps(self, small_corpus):
        model = _small_model(seed=2)
        config = TrainConfig(learning_rate=0.005, momentum=0.0, weight_decay=0.0,
                             batch_size=100_000, max_epochs=5, seed=0,
                             cv_fraction=0.05)
        state = make_state(model, small_corpus, config)
        losses = [train_epoch(model, config, state)[0] for _ in range(5)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_empty_corpus_rejected(self):
        from msam.dataio import Corpus

        with pytest.raises(ValidationError):
            make_state(_small_model(), Corpus([], 3), TrainConfig())

    def test_frame_count_matches_labels(self, small_corpus):
        model = _small_model()
        state = make_state(model, small_corpus, TrainConfig())
        assert len(state.dataset) == small_corpus.total_frames()
        assert len(state.train_idx) + len(state.cv_idx) == len(state.dataset)


class TestFrameDataset:
    def test_fbank_features_built_without_staging_the_corpus(self):
        """The FBANK buffer holds each utterance's log-Mel rows once, in the
        model dtype, between context_frames // 2 copies of its edge rows:
        (frames + (context - 1) * utterances) x num_filters values.  It is
        built with one utterance's featurize work at a time, never the
        whole corpus in featurize's float64."""
        corpus = normalize_global(synth_corpus(3, 16, 1.0, seed=2))
        model = build_fbank_model(3, hidden_dims=(8,), seed=0)
        _, one_utterance = traced_peak(lambda: model.featurize(corpus.utterances[0].signal))
        dataset, peak = traced_peak(lambda: FrameDataset(model, corpus))
        rows = corpus.total_frames() + (model.context_frames - 1) * len(corpus.utterances)
        assert dataset.buffer.shape == (rows, model.fbank_config.num_filters)
        assert dataset.buffer.dtype == np.float32
        assert peak <= dataset.buffer.nbytes + one_utterance + 2**18

    @pytest.mark.parametrize("labels", [5, 7])
    def test_fbank_label_count_must_match_the_frames(self, labels):
        """960 samples make 6 log-Mel frames; another label count is a
        ValidationError naming the utterance and both counts."""
        model = build_fbank_model(3, FbankConfig(num_filters=4), hidden_dims=(), seed=0)
        rng = np.random.default_rng(0)
        corpus = Corpus([Utterance("short", Signal(rng.normal(size=960)), np.zeros(labels))], 3)
        with pytest.raises(ValidationError, match=f"utterance short: {labels} labels for 6 "):
            FrameDataset(model, corpus)

    def test_asks_the_model_for_frames_and_inputs_only(self):
        """The model builds the buffer and reads each frame's input from it;
        the dataset holds them and the corpus's labels, and nothing else of
        the model."""
        buffer, centers = np.arange(10.0), np.array([3, 5, 8])

        class Stub:
            def frames(self, utterances):
                self.utterances = utterances
                return buffer, centers

            def inputs_at(self, buffer, centers):
                return "inputs", buffer, centers

        utterances = [Utterance("a", Signal(np.zeros(320)), np.array([2, 0])),
                      Utterance("b", Signal(np.zeros(160)), np.array([1]))]
        model = Stub()
        dataset = FrameDataset(model, Corpus(utterances, 3))
        assert model.utterances == utterances
        assert dataset.buffer is buffer and dataset.centers is centers
        np.testing.assert_array_equal(dataset.labels, [2, 0, 1])
        tag, got_buffer, got_centers = dataset.inputs([2, 0])
        assert tag == "inputs" and got_buffer is buffer
        np.testing.assert_array_equal(got_centers, [8, 3])

    @given(
        frames=st.lists(st.integers(1, 14), min_size=1, max_size=4),
        context=st.sampled_from([1, 3, 5, 11]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_fbank_contexts_stay_in_own_utterance(self, frames, context, seed):
        """Each frame's stacked rows are its own utterance's, edge rows
        repeated, as the per-utterance `np.clip` stacking built them; also
        when an utterance is shorter than the context."""
        rng = np.random.default_rng(seed)
        utterances = [Utterance(f"u{i}", Signal(rng.normal(size=FRAME_SHIFT * n)), np.zeros(n, int))
                      for i, n in enumerate(frames)]
        model = build_fbank_model(3, FbankConfig(num_filters=4), context_frames=context,
                                  hidden_dims=(), seed=0)
        dataset = FrameDataset(model, Corpus(utterances, 3))
        half, expected = context // 2, []
        for u in utterances:
            rows = model.featurize(u.signal).astype(np.float32)
            n = len(rows)
            expected.append(rows[np.clip(np.arange(n)[:, None] + np.arange(-half, half + 1),
                                         0, n - 1)].reshape(n, -1))
        order = rng.permutation(len(dataset))
        np.testing.assert_array_equal(dataset.inputs(order), np.concatenate(expected)[order])

    @given(
        lengths=st.lists(st.integers(1, 1200), min_size=1, max_size=4),
        spans=st.lists(st.integers(4, 700), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_centered_window_of_own_utterance(self, lengths, spans, seed):
        rng = np.random.default_rng(seed)
        # Frame counts are drawn apart from lengths, so some centers lie past the samples.
        utterances = [
            Utterance(f"u{i}", Signal(rng.normal(size=n) + 5.0), np.zeros(rng.integers(1, 9)))
            for i, n in enumerate(lengths)
        ]
        dataset = FrameDataset(span_model(spans), Corpus(utterances, 3))
        rows = rng.permutation(len(dataset))
        owners = [(u, 160 * n) for u in utterances for n in range(u.num_frames)]
        for span, windows in zip(spans, dataset.inputs(rows)):
            assert windows.shape == (len(rows), span)
            for row, window in zip(rows, windows):
                u, center = owners[row]
                np.testing.assert_array_equal(
                    window, centered_window(u.signal.samples, center, span)
                )


# (first_map_size, first_num_kernels, second_stride, second_kernel_len,
# second_map_size) of small two-layer geometries; in the last one a conv2
# step is 1.5 conv1 positions.
SMALL_GEOMETRIES = [(16, 2, 8, 8, 4), (16, 2, 4, 8, 7), (12, 4, 8, 16, 5), (12, 4, 6, 16, 6)]
# 7 never shares a conv1 position between frames; 16, 20 divide FRAME_SHIFT;
# 48, 96, 200 share only every 3rd-5th frame.
SMALL_STRIDES = [7, 16, 20, 48, 96, 200]


def small_config(stride, geometry):
    m1, k1, s2, l2, m2 = geometry
    return StreamConfig(first_stride=stride, first_kernel_len=8, first_map_size=m1,
                        first_num_kernels=k1, second_stride=s2, second_kernel_len=l2,
                        second_map_size=m2, second_num_kernels=3, projection_dim=2)


def shares_positions(config):
    """Two frames FRAME_SHIFT apart can read a common conv1 position."""
    return lcm(FRAME_SHIFT, config.first_stride) <= config.first_stride * (config.first_map_size - 1)


def distinct_counts(config, centers):
    """Distinct conv1 sample positions and distinct conv2 windows, each a
    (first conv1 position, kernel offset) pair, over the frames' windows."""
    starts = np.asarray(centers) - (config.input_span + 1) // 2
    positions = starts[:, None] + config.first_stride * np.arange(config.first_map_size)
    flat = config.second_stride * np.arange(config.second_map_size)
    first = starts[:, None] + config.first_stride * (flat // config.first_num_kernels)
    offset = np.broadcast_to(flat % config.first_num_kernels, first.shape)
    windows = np.unique(np.stack([first.ravel(), offset.ravel()]), axis=1)
    return len(np.unique(positions)), windows.shape[1]


def shared_frames(config, centers):
    """Frames that read a conv1 sample position another frame reads."""
    starts = np.asarray(centers) - (config.input_span + 1) // 2
    positions = starts[:, None] + config.first_stride * np.arange(config.first_map_size)
    _, inverse, counts = np.unique(positions, return_inverse=True, return_counts=True)
    return (counts[inverse.reshape(positions.shape)] > 1).any(axis=1)


def conv_batches(model, buffer, centers, compute=True, blocks=False):
    """features_at of the frames, and per stream the lists of (conv1, conv2)
    shapes of the rows it passed to conv1d_forward_batch: (n, M, L) for a
    window path batch of n frames, (rows, L) for the table path.  The
    table path's conv2 blocks are summed into one batch; with blocks=True
    each call is listed.  With compute=False the convolutions return
    zeros, which counts rows without doing the work."""
    shapes = {}
    original = msam.model.conv1d_forward_batch

    def spy(rows, bank):
        calls = shapes.setdefault(id(bank), [])
        if not blocks and calls and rows.ndim == 2 and len(calls[-1]) == 2:
            calls[-1] = (calls[-1][0] + len(rows), bank.kernel_len)
        else:
            calls.append(rows.shape)
        if compute:
            return original(rows, bank)
        return np.zeros((*rows.shape[:-1], bank.num_kernels), dtype=rows.dtype)

    with mock.patch.object(msam.model, "conv1d_forward_batch", spy):
        features = model.features_at(buffer, centers)
    return features, [(shapes[id(s.first_layer)], shapes[id(s.second_layer)])
                      for s in model.streams]


def assert_conv_batches(model, centers, batches):
    """A stream that shares positions convolves each distinct conv1 position
    and conv2 window of its frames that read a common position once, then
    the gathered windows of its other frames; every other stream convolves
    its gathered windows."""
    for stream, (conv1, conv2) in zip(model.streams, batches):
        cfg = stream.config
        shared = shared_frames(cfg, centers) & shares_positions(cfg)
        expected1, expected2 = [], []
        if shared.any():
            rows1, rows2 = distinct_counts(cfg, np.asarray(centers)[shared])
            expected1.append((rows1, cfg.first_kernel_len))
            expected2.append((rows2, cfg.second_kernel_len))
        if not shared.all():
            rest = int((~shared).sum())
            expected1.append((rest, cfg.first_map_size, cfg.first_kernel_len))
            expected2.append((rest, cfg.second_map_size, cfg.second_kernel_len))
        assert (conv1, conv2) == (expected1, expected2)


UTTERANCE_LENGTHS = st.lists(st.integers(1, 6000), min_size=1, max_size=3)
SMALL_STREAMS = st.lists(st.tuples(st.sampled_from(SMALL_STRIDES), st.sampled_from(SMALL_GEOMETRIES)),
                         min_size=1, max_size=2)


def small_dataset(lengths, streams, dtype, seed):
    """A seeded model of small streams and the FrameDataset of random
    utterances of the given lengths; also the rng, for drawing frames."""
    rng = np.random.default_rng(seed)
    configs = [small_config(stride, geometry) for stride, geometry in streams]
    kind = "single_span" if len(configs) == 1 else "multi_span"
    model = build_raw_model(kind, configs, 3, hidden_dims=(4,), seed=seed, dtype=dtype)
    # Frame counts are drawn apart from lengths, so some labels outrun their samples.
    utterances = [
        Utterance(f"u{i}", Signal(rng.normal(size=n)),
                  rng.integers(0, 3, size=rng.integers(1, n // FRAME_SHIFT + 4)))
        for i, n in enumerate(lengths)
    ]
    return model, FrameDataset(model, Corpus(utterances, 3)), rng


PAPER = [StreamConfig(first_stride=s, first_kernel_len=50) for s in (4, 9, 15)]


class TestPathRule:
    """Per stream and batch, the table path runs for exactly the frames that
    read a conv1 position another frame of the batch reads."""

    @staticmethod
    def frames_per_path(configs, centers):
        model = build_raw_model("multi_span", configs, 3, hidden_dims=(4,))
        buffer = np.random.default_rng(0).normal(size=centers[-1] + 2000).astype(np.float32)
        with mock.patch.object(msam.model, "table_outputs_at",
                               wraps=msam.model.table_outputs_at) as table, \
             mock.patch.object(msam.model, "window_outputs_at",
                               wraps=msam.model.window_outputs_at) as window:
            model.loss_and_grads(buffer, centers, np.zeros(len(centers), dtype=int))
        return ([len(c.args[4]) for c in table.call_args_list],
                [len(c.args[1]) for c in window.call_args_list])

    def test_overlapping_frames_take_the_table_path(self):
        """32 consecutive frames: every frame shares a position in each
        paper stream, 9 frames apart at S=9."""
        centers = 2000 + FRAME_SHIFT * np.arange(32)
        assert self.frames_per_path(PAPER, centers) == ([32, 32, 32], [])

    def test_frames_more_than_a_span_apart_take_the_window_path(self):
        centers = 2000 + 3200 * np.arange(8)
        assert max(cfg.input_span for cfg in PAPER) < 3200
        assert self.frames_per_path(PAPER, centers) == ([], [8, 8, 8])
        _, batches = conv_batches(build_raw_model("multi_span", PAPER, 3, hidden_dims=()),
                                  np.zeros(centers[-1] + 2000, dtype=np.float32), centers,
                                  compute=False)
        assert [conv1 for conv1, _ in batches] == [[(8, cfg.first_map_size, cfg.first_kernel_len)]
                                                   for cfg in PAPER]

    def test_frames_that_share_nothing_take_the_window_path(self):
        """Runs of 3 and 10 frames, a span apart.  At S=4 neighbours share;
        at S=9 only frames 9 apart do, and at S=15 frames 3, 6, ... apart."""
        centers = np.concatenate([2000 + FRAME_SHIFT * np.arange(3),
                                  9000 + FRAME_SHIFT * np.arange(10)])
        assert self.frames_per_path(PAPER, centers) == ([13, 2, 10], [11, 3])

    def test_each_path_lays_out_its_own_rows(self):
        """In one step whose S=9 and S=15 streams take both paths, every
        conv call's rows end in its layer's kernel length: the window
        path's are (B, M, L), its B frames first, the table path's 2-D."""
        centers = np.concatenate([2000 + FRAME_SHIFT * np.arange(3),
                                  9000 + FRAME_SHIFT * np.arange(10)])
        model = build_raw_model("multi_span", PAPER, 3, hidden_dims=(4,))
        buffer = np.random.default_rng(0).normal(size=centers[-1] + 2000).astype(np.float32)
        layers = {}  # id(bank) -> (stream, kernel length, window path (B, M))
        for i, (stream, lone) in enumerate(zip(model.streams, (0, 11, 3))):
            cfg = stream.config
            layers[id(stream.first_layer)] = (i, cfg.first_kernel_len, (lone, cfg.first_map_size))
            layers[id(stream.second_layer)] = (i, cfg.second_kernel_len,
                                               (lone, cfg.second_map_size))
        with mock.patch.object(msam.model, "conv1d_forward_batch",
                               wraps=msam.model.conv1d_forward_batch) as fwd, \
             mock.patch.object(msam.model, "conv1d_backward_batch",
                               wraps=msam.model.conv1d_backward_batch) as bwd:
            model.loss_and_grads(buffer, centers, np.zeros(len(centers), dtype=int))
        for spy in (fwd, bwd):
            ndims = {}
            for call in spy.call_args_list:
                rows, bank = call.args[:2]
                stream, kernel_len, window_lead = layers[id(bank)]
                assert rows.shape[-1] == kernel_len
                assert rows.ndim == 2 or rows.shape[:-1] == window_lead
                ndims.setdefault(stream, set()).add(rows.ndim)
            assert ndims == {0: {2}, 1: {2, 3}, 2: {2, 3}}

    def test_desk_streams_take_the_window_path(self):
        centers = 2000 + FRAME_SHIFT * np.arange(32)
        desk = [desk_scale_config(s, 50) for s in (4, 9, 15)]
        assert self.frames_per_path(desk, centers) == ([], [32, 32, 32])

    @given(lengths=UTTERANCE_LENGTHS, streams=SMALL_STREAMS, seed=st.integers(0, 2**16),
           batch_size=st.integers(1, 120))
    @settings(max_examples=80, deadline=None)
    def test_gradients_match_window_path(self, lengths, streams, seed, batch_size):
        """In float64 every parameter gradient of the step equals the window
        path's to 1e-12, over dense runs that cross utterances, sparse sets
        and single frames."""
        model, dataset, rng = small_dataset(lengths, streams, np.float64, seed)
        randomize_biases(model, rng)
        n = len(dataset)
        sparse = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
        chunks = [idxs[i : i + batch_size] for idxs in (np.arange(n), sparse)
                  for i in range(0, len(idxs), batch_size)]
        chunks.append(rng.integers(n, size=1))
        for chunk in chunks:
            args = dataset.buffer, dataset.centers[chunk], dataset.labels[chunk]
            loss, grads = model.loss_and_grads(*args)
            with mock.patch.object(msam.model, "conv_tables", return_value=None):
                expected_loss, expected = model.loss_and_grads(*args)
            assert loss == pytest.approx(expected_loss, rel=1e-12)
            for name, g in expected.items():
                np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12 * np.abs(g).max(),
                                           err_msg=name)


class TestEvaluateFrames:
    def test_conv_rows_are_distinct_positions_at_paper_geometry(self):
        """Over a 1024-frame run at paper geometry conv1 runs once per distinct
        sample position, and per-frame conv MACs stay within those of the
        earlier phase-split path (1.7720M, 3.8206M, 0.7696M); desk-geometry
        streams gather windows."""
        centers = 2000 + FRAME_SHIFT * np.arange(1024)
        buffer = np.zeros(centers[-1] + 2000, dtype=np.float32)
        model = build_raw_model("multi_span", PAPER, 3, hidden_dims=())
        _, batches = conv_batches(model, buffer, centers, compute=False)
        assert_conv_batches(model, centers, batches)
        for cfg, ([conv1], [conv2]), bound in zip(PAPER, batches, (1.7721e6, 3.8207e6, 0.7696e6)):
            assert shares_positions(cfg)
            macs = (conv1[0] * cfg.first_num_kernels * cfg.first_kernel_len
                    + conv2[0] * cfg.second_num_kernels * cfg.second_kernel_len)
            assert macs / len(centers) <= bound
        desk = [desk_scale_config(s, 50) for s in (4, 9, 15)]
        assert not any(shares_positions(cfg) for cfg in desk)
        model = build_raw_model("multi_span", desk, 3, hidden_dims=())
        _, batches = conv_batches(model, buffer, centers, compute=False)
        assert [conv1 for conv1, _ in batches] == [[(1024, cfg.first_map_size, cfg.first_kernel_len)]
                                                   for cfg in desk]

    def test_conv2_windows_are_convolved_in_blocks(self):
        """A chunk of 512 consecutive frames at paper geometry passes no conv2
        batch of more than 1024 rows; the blocks hold each distinct window
        once (S=9 has 5138 in one chunk)."""
        centers = 2000 + FRAME_SHIFT * np.arange(512)
        buffer = np.zeros(centers[-1] + 2000, dtype=np.float32)
        model = build_raw_model("multi_span", PAPER, 3, hidden_dims=())
        _, batches = conv_batches(model, buffer, centers, compute=False, blocks=True)
        for cfg, (_, conv2) in zip(PAPER, batches):
            assert max(rows for rows, _ in conv2) <= 1024
            assert sum(rows for rows, _ in conv2) == distinct_counts(cfg, centers)[1]
        assert len(batches[1][1]) == 6

    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_conv2_blocks_match_one_batch(self, block):
        """Outputs and the step's gradients with conv2 blocks of a few rows
        equal those of one block, in float64, over streams whose frames
        share positions."""
        streams = [(16, SMALL_GEOMETRIES[1]), (48, SMALL_GEOMETRIES[3])]
        model, dataset, _ = small_dataset([6000, 2500], streams, np.float64, seed=5)
        assert all(shares_positions(s.config) for s in model.streams)
        args = dataset.buffer, dataset.centers, dataset.labels
        features = model.features_at(*args[:2])
        loss, grads = model.loss_and_grads(*args)
        with mock.patch.object(msam.model, "CONV2_BLOCK_ROWS", block):
            _, batches = conv_batches(model, *args[:2], blocks=True)
            assert all(max(rows for rows, _ in conv2) == block for _, conv2 in batches)
            np.testing.assert_allclose(model.features_at(*args[:2]), features,
                                       rtol=0, atol=1e-12 * np.abs(features).max())
            blocked_loss, blocked = model.loss_and_grads(*args)
        assert blocked_loss == pytest.approx(loss, rel=1e-12)
        for name, g in grads.items():
            np.testing.assert_allclose(blocked[name], g, rtol=0, atol=1e-12 * np.abs(g).max(),
                                       err_msg=name)

    def test_each_stream_frees_its_tables_before_the_next_builds_its_own(self):
        """forward_at over a 512-frame chunk at paper geometry peaks near the
        largest single stream's `stream_outputs_at` (52 MB at S=9, its
        tables included), not at the 72 MB of every stream's tables held
        at once."""
        model = build_raw_model("multi_span", PAPER, 3, hidden_dims=())
        buffer, centers = frames_in_buffer(np.random.default_rng(0), model, 512)
        buffer = buffer.astype(np.float32)
        stream_peak = max(traced_peak(lambda: msam.model.stream_outputs_at(s, buffer, centers))[1]
                          for s in model.streams)
        _, peak = traced_peak(lambda: model.forward_at(buffer, centers))
        assert peak < 1.25 * stream_peak

    def test_shared_and_gathered_streams_in_one_model(self):
        sharing, gathered = small_config(32, SMALL_GEOMETRIES[0]), small_config(7, SMALL_GEOMETRIES[0])
        assert shares_positions(sharing) and not shares_positions(gathered)
        model = build_raw_model("multi_span", [sharing, gathered], 3, hidden_dims=(), dtype=np.float64)
        rng = np.random.default_rng(0)
        utterances = [Utterance(f"u{i}", Signal(rng.normal(size=n)), np.zeros(n // FRAME_SHIFT, int))
                      for i, n in enumerate((1600, 4000))]
        dataset = FrameDataset(model, Corpus(utterances, 3))
        idxs = np.arange(len(dataset))
        features, batches = conv_batches(model, dataset.buffer, dataset.centers)
        assert_conv_batches(model, dataset.centers, batches)
        assert batches[0][0][0][0] < len(idxs) * sharing.first_map_size
        np.testing.assert_array_equal(features, model.features_batch(dataset.inputs(idxs)))

    @given(
        lengths=UTTERANCE_LENGTHS,
        streams=SMALL_STREAMS,
        dtype=st.sampled_from([np.float64, np.float32]),
        batch_size=st.integers(1, 120),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_window_batch_path(self, lengths, streams, dtype, batch_size, seed):
        model, dataset, rng = small_dataset(lengths, streams, dtype, seed)
        n = len(dataset)
        sparse = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
        tol = 1e-12 if dtype == np.float64 else 1e-6
        for idxs in (np.arange(n), sparse):
            chunks = [idxs[i : i + batch_size] for i in range(0, len(idxs), batch_size)]
            for chunk in chunks:
                features, batches = conv_batches(model, dataset.buffer, dataset.centers[chunk])
                assert_conv_batches(model, dataset.centers[chunk], batches)
                expected = model.features_batch(dataset.inputs(chunk))
                np.testing.assert_allclose(features, expected, rtol=tol,
                                           atol=tol * np.abs(expected).max())
            probs = model.forward_batch(dataset.inputs(idxs))
            labels = dataset.labels[idxs]
            with mock.patch.object(msam.trainer, "EVAL_CHUNK", batch_size):
                loss, accuracy = evaluate_frames(model, dataset, idxs)
            assert loss == pytest.approx(cross_entropy_batch(probs, labels), rel=tol)
            assert accuracy == 100.0 * int((probs.argmax(axis=1) == labels).sum()) / len(idxs)


class TestTrainModel:
    def test_fbank_learns_synthetic_task(self, small_corpus):
        model = build_fbank_model(3, hidden_dims=(32, 32), seed=1)
        config = TrainConfig(max_epochs=10, seed=1)
        log = train_model(model, small_corpus, config)
        final_cv = float(log[-1].split("\t")[3])
        assert final_cv > 90.0

    def test_multispan_pretraining_path_runs(self, small_corpus):
        model = build_raw_model(
            "multi_span", [desk_scale_config(s, 50) for s in (4, 9)], 3,
            hidden_dims=(), seed=1,
        )
        schedule = PretrainSchedule(hidden_dim=16, seed=1)
        config = TrainConfig(max_epochs=6, seed=1)
        log = train_model(model, small_corpus, config, pretrain=schedule)
        assert model.head.num_hidden == 4
        assert 3 <= len(log) <= 6
        # Log lines are tab-separated: epoch, lr, train loss, cv accuracy.
        for line in log:
            fields = line.split("\t")
            assert len(fields) == 4
            int(fields[0])
            float(fields[1]), float(fields[2]), float(fields[3])

    @pytest.mark.parametrize("max_epochs, stage, num_hidden", [(1, "subnet", 0), (2, "extended", 2)])
    def test_max_epochs_caps_pretraining(self, small_corpus, max_epochs, stage, num_hidden):
        """Pretraining stops at max_epochs, after the last epoch's stage and
        without inserting layers that would never be trained."""
        model = build_raw_model(
            "multi_span", [desk_scale_config(s, 50) for s in (4, 9)], 3,
            hidden_dims=(), seed=1,
        )
        schedule = PretrainSchedule(hidden_dim=16, seed=1)
        log = train_model(model, small_corpus, TrainConfig(max_epochs=max_epochs, seed=1),
                          pretrain=schedule)
        assert [int(line.split("\t")[0]) for line in log] == list(range(1, max_epochs + 1))
        assert model.head.num_hidden == num_hidden, f"stopped after the {stage} stage"

    def test_pretrain_must_start_at_subnet(self, small_corpus):
        """Pretraining starts from a head with no hidden layer; the stage is
        the head's depth, so a schedule used by an earlier run trains again."""
        schedule = PretrainSchedule(hidden_dim=16, seed=1)
        with pytest.raises(ValidationError, match="'subnet' stage"):
            train_model(_small_model(), small_corpus, TrainConfig(max_epochs=3),
                        pretrain=schedule)
        logs = []
        for _ in range(2):
            model = build_raw_model("multi_span", [desk_scale_config(s, 50) for s in (4, 9)], 3,
                                    hidden_dims=(), seed=1)
            logs.append(train_model(model, small_corpus, TrainConfig(max_epochs=2, seed=1),
                                    pretrain=schedule))
            assert model.head.num_hidden == 2
        assert logs[0] == logs[1]

    def test_pretraining_never_deepens_a_head_with_hidden_layers(self, small_corpus):
        """A head built with hidden layers (8, 8) was pretrained to six layers,
        widths 8, 8, 16, 16, 16, 16; it is rejected before any epoch runs."""
        model = build_raw_model("multi_span", [desk_scale_config(s, 50) for s in (4, 9)], 3,
                                hidden_dims=(8, 8), seed=1)
        with pytest.raises(ValidationError, match="this head has 2"):
            train_model(model, small_corpus, TrainConfig(max_epochs=6, seed=1),
                        pretrain=PretrainSchedule(hidden_dim=16, seed=1))
        assert [w.shape[0] for w in model.head.hidden_weights] == [8, 8]


def trained_guard_model(kind):
    """Train the tiny model of the bit-identity guard: a multi-span model
    (tiny_stream_config strides 2 and 3, pretraining with hidden_dim 4) or
    an FBANK model (4 filters, hidden (4, 4)), 2 epochs of train_model with
    batches of 16 on a fixed synthetic corpus."""
    corpus = normalize_global(synth_corpus(3, 2, 0.5, seed=11))
    config = TrainConfig(batch_size=16, max_epochs=2, seed=5)
    if kind == "multi_span":
        model = build_raw_model("multi_span", [tiny_stream_config(s) for s in (2, 3)], 3,
                                hidden_dims=(), seed=5)
        train_model(model, corpus, config, pretrain=PretrainSchedule(hidden_dim=4, seed=5))
    else:
        model = build_fbank_model(3, FbankConfig(num_filters=4), hidden_dims=(4, 4), seed=5)
        train_model(model, corpus, config)
    return model


class TestBitIdenticalTraining:
    @pytest.mark.parametrize("kind", ["multi_span", "fbank"])
    def test_retrained_checkpoint_is_byte_identical(self, tmp_path, kind):
        """tests/data/trained_{multi_span,fbank}.ckpt were written by
        `trained_guard_model` with the code that still computed conv1's input
        gradients and ran every bias, ReLU, mask, softmax and SGD pass out of
        place.  Retraining must reproduce them byte for byte: every rewrite
        of the training step keeps the float operations and their order."""
        save_checkpoint(tmp_path / "model.ckpt", trained_guard_model(kind))
        expected = Path(__file__).parent / "data" / f"trained_{kind}.ckpt"
        assert (tmp_path / "model.ckpt").read_bytes() == expected.read_bytes()
