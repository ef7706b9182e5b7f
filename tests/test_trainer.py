from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msam.model
from msam.conv import Signal
from msam.dataio import FRAME_SHIFT, Corpus, Utterance, normalize_global, synth_corpus
from msam.errors import ValidationError
from msam.model import build_fbank_model, build_raw_model, frame_conv_macs, shared_conv_macs
from msam.network import cross_entropy_batch
from msam.streams import StreamConfig, centered_window, desk_scale_config
from msam.trainer import (
    FrameDataset,
    NewBobState,
    PretrainSchedule,
    TrainConfig,
    TrainerState,
    evaluate_frames,
    make_state,
    newbob_update,
    pretrain_transition,
    sgd_step,
    train_epoch,
    train_model,
)

from conftest import span_model, tiny_stream_config


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
        feature_dim = model.feature_dim
        assert model.head.num_hidden == 0
        assert model.head.input_dim == feature_dim

        pretrain_transition(model, schedule)
        assert schedule.stage == "extended"
        assert [w.shape[0] for w in model.head.hidden_weights] == [6, 6]
        assert model.head.output_weight.shape == (4, 6)

        pretrain_transition(model, schedule)
        assert schedule.stage == "full"
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

    def test_cannot_advance_past_full(self):
        model = self._subnet_model()
        schedule = PretrainSchedule(stage="full")
        with pytest.raises(ValidationError):
            pretrain_transition(model, schedule)

    def test_invalid_stage_rejected(self):
        with pytest.raises(ValidationError):
            PretrainSchedule(stage="warmup")


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
        train_epoch(model, small_corpus, config, state)
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
        losses = [train_epoch(model, small_corpus, config, state)[1] for _ in range(5)]
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
# step is 1.5 conv1 positions, which the shared path cannot take.
SMALL_GEOMETRIES = [(16, 2, 8, 8, 4), (16, 2, 4, 8, 7), (12, 4, 8, 16, 5), (12, 4, 6, 16, 6)]
# 7 never shares; 16, 20 divide FRAME_SHIFT; 48, 96, 200 need 3-5 conv1 phases.
SMALL_STRIDES = [7, 16, 20, 48, 96, 200]


def small_config(stride, geometry):
    m1, k1, s2, l2, m2 = geometry
    return StreamConfig(first_stride=stride, first_kernel_len=8, first_map_size=m1,
                        first_num_kernels=k1, second_stride=s2, second_kernel_len=l2,
                        second_map_size=m2, second_num_kernels=3, projection_dim=2)


def shares(config, num_frames):
    return shared_conv_macs(config, num_frames) < num_frames * frame_conv_macs(config)


def shared_calls(model, dataset, idxs):
    """features_at of the frames, and the (stream, first centre, run length)
    of every run it sent down the shared path."""
    calls = []
    original = msam.model.shared_stream_outputs

    def spy(stream, buffer, first_center, num_frames):
        index = next(i for i, s in enumerate(model.streams) if s is stream)
        calls.append((index, int(first_center), num_frames))
        return original(stream, buffer, first_center, num_frames)

    with mock.patch.object(msam.model, "shared_stream_outputs", spy):
        features = model.features_at(dataset.buffer, dataset.centers[idxs])
    return features, calls


def predicted_calls(model, centers):
    """The runs the closed-form cost rule sends down the shared path."""
    bounds = [0, *(np.flatnonzero(np.diff(centers) != FRAME_SHIFT) + 1), len(centers)]
    return [(i, int(centers[lo]), hi - lo)
            for i, stream in enumerate(model.streams)
            for lo, hi in zip(bounds, bounds[1:]) if shares(stream.config, hi - lo)]


class TestEvaluateFrames:
    def test_cost_rule_at_paper_and_desk_geometry(self):
        """Per-frame conv MACs over a 1024-frame run: the shared path wins at
        paper geometry for every flagship stride and loses at desk geometry."""
        for stride, shared_mmacs in ((4, 1.77), (9, 3.82), (15, 0.77)):
            paper = StreamConfig(first_stride=stride, first_kernel_len=50)
            assert frame_conv_macs(paper) == 4_244_480
            assert shared_conv_macs(paper, 1024) / 1024 / 1e6 == pytest.approx(shared_mmacs, abs=0.005)
            desk = desk_scale_config(stride, 50)
            ratio = shared_conv_macs(desk, 1024) / (1024 * frame_conv_macs(desk))
            assert 3.7 <= ratio <= 19
            assert shares(paper, 1024) and not shares(paper, 1)
            assert not any(shares(desk, n) for n in (1, 2, 10, 100, 1024))

    def test_shared_and_gathered_streams_in_one_model(self):
        sharing, gathered = small_config(32, SMALL_GEOMETRIES[0]), small_config(7, SMALL_GEOMETRIES[0])
        assert shares(sharing, 2) and not any(shares(gathered, n) for n in range(1, 1000))
        model = build_raw_model("multi_span", [sharing, gathered], 3, hidden_dims=(), dtype=np.float64)
        rng = np.random.default_rng(0)
        utterances = [Utterance(f"u{i}", Signal(rng.normal(size=n)), np.zeros(n // FRAME_SHIFT, int))
                      for i, n in enumerate((1600, 4000))]
        dataset = FrameDataset(model, Corpus(utterances, 3))
        idxs = np.arange(len(dataset))
        features, calls = shared_calls(model, dataset, idxs)
        assert calls == [(0, int(dataset.centers[0]), 10), (0, int(dataset.centers[10]), 25)]
        np.testing.assert_array_equal(features, model.features_batch(dataset.inputs(idxs)))

    @given(
        lengths=st.lists(st.integers(1, 6000), min_size=1, max_size=3),
        streams=st.lists(st.tuples(st.sampled_from(SMALL_STRIDES), st.sampled_from(SMALL_GEOMETRIES)),
                         min_size=1, max_size=2),
        dtype=st.sampled_from([np.float64, np.float32]),
        batch_size=st.integers(1, 120),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_window_batch_path(self, lengths, streams, dtype, batch_size, seed):
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
        dataset = FrameDataset(model, Corpus(utterances, 3))
        n = len(dataset)
        sparse = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
        tol = 1e-12 if dtype == np.float64 else 1e-6
        for idxs in (np.arange(n), sparse):
            chunks = [idxs[i : i + batch_size] for i in range(0, len(idxs), batch_size)]
            for chunk in chunks:
                features, calls = shared_calls(model, dataset, chunk)
                assert calls == predicted_calls(model, dataset.centers[chunk])
                expected = model.features_batch(dataset.inputs(chunk))
                np.testing.assert_allclose(features, expected, rtol=tol,
                                           atol=tol * np.abs(expected).max())
            probs = model.forward_batch(dataset.inputs(idxs))
            labels = dataset.labels[idxs]
            loss, accuracy = evaluate_frames(model, dataset, idxs, batch_size=batch_size)
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
        assert schedule.stage == "full"
        assert model.head.num_hidden == 4
        assert 3 <= len(log) <= 6
        # Log lines are tab-separated: epoch, lr, train loss, cv accuracy.
        for line in log:
            fields = line.split("\t")
            assert len(fields) == 4
            int(fields[0])
            float(fields[1]), float(fields[2]), float(fields[3])

    def test_pretrain_must_start_at_subnet(self, small_corpus):
        model = _small_model()
        with pytest.raises(ValidationError):
            train_model(model, small_corpus, TrainConfig(max_epochs=3),
                        pretrain=PretrainSchedule(stage="extended"))
