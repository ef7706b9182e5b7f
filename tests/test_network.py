import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msam.checkpoint import load_checkpoint, save_checkpoint
from msam.errors import FormatError
from msam.model import (
    build_fbank_model,
    build_raw_model,
    head_loss_and_grads,
)
from msam.network import (
    DnnHead,
    cross_entropy_batch,
    head_forward_batch,
    init_head,
    softmax,
)

from conftest import (
    finite_difference_grads,
    max_relative_error,
    randomize_biases,
    tiny_stream_config,
)


class TestDnnForward:
    """head_forward_batch: class probabilities for a (B, D) batch."""

    def test_probabilities_sum_to_one(self, rng):
        head = init_head(6, (4, 4), 5, rng, dtype=np.float64)
        probs, _ = head_forward_batch(head, rng.normal(size=(3, 6)))
        assert probs.shape == (3, 5)
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_weights_give_uniform(self):
        head = DnnHead(
            hidden_weights=[np.zeros((3, 4))],
            hidden_biases=[np.zeros(3)],
            output_weight=np.zeros((5, 3)),
            output_bias=np.zeros(5),
        )
        probs, _ = head_forward_batch(head, np.ones((2, 4)))
        np.testing.assert_allclose(probs, np.full((2, 5), 0.2))

    def test_matches_matrix_oracle(self, rng):
        head = init_head(4, (3, 3), 2, rng, dtype=np.float64)
        x = rng.normal(size=(3, 4))
        probs, _ = head_forward_batch(head, x)
        for row, h in zip(probs, x):
            for w, b in zip(head.hidden_weights, head.hidden_biases):
                h = np.maximum(w @ h + b, 0)
            logits = head.output_weight @ h + head.output_bias
            expected = np.exp(logits) / np.exp(logits).sum()
            np.testing.assert_allclose(row, expected, atol=1e-9)

    def test_dim_mismatch_raises(self, rng):
        head = init_head(4, (3,), 2, rng)
        with pytest.raises(ValueError):
            head_forward_batch(head, np.zeros((2, 5)))

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_softmax_normalized_for_bounded_logits(self, seed):
        logits = np.random.default_rng(seed).uniform(-50, 50, size=(3, 7))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestCrossEntropy:
    """cross_entropy_batch: mean CE over probability rows."""

    def test_certain_prediction_costs_nothing(self):
        probs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert cross_entropy_batch(probs, np.array([1, 0])) == 0.0

    def test_uniform_costs_log_c(self):
        probs = np.full((2, 8), 1 / 8)
        assert abs(cross_entropy_batch(probs, np.array([3, 5])) - np.log(8)) < 1e-12

    def test_matches_direct_formula(self, rng):
        probs = rng.dirichlet(np.ones(5), size=5)
        labels = np.arange(5)
        expected = -np.mean(np.log(probs[labels, labels]))
        assert cross_entropy_batch(probs, labels) == pytest.approx(expected)

    def test_invalid_label_raises(self):
        with pytest.raises(IndexError):
            cross_entropy_batch(np.array([[0.5, 0.5]]), np.array([2]))


def _tiny_multi_span(rng):
    model = build_raw_model(
        "multi_span",
        [tiny_stream_config(s) for s in (2, 3, 4)],
        3,
        hidden_dims=(2,),
        seed=11,
        dtype=np.float64,
    )
    randomize_biases(model, rng)
    return model


def _tiny_single_span(rng):
    model = build_raw_model(
        "single_span", [tiny_stream_config(3)], 3, hidden_dims=(2,), seed=12,
        dtype=np.float64,
    )
    randomize_biases(model, rng)
    return model


class TestModelBackward:
    def test_softmax_ce_logit_gradient_identity(self, rng):
        head = init_head(5, (), 4, rng, dtype=np.float64)
        x = rng.normal(size=(1, 5))
        # With no hidden layer, the output-bias gradient is dCE/dlogits.
        _, grads, _ = head_loss_and_grads(head, x, np.array([2]))
        one_hot = np.zeros(4)
        one_hot[2] = 1.0
        # Numerical gradient of CE w.r.t. logits.
        h = 1e-6
        numeric = np.zeros(4)
        for j in range(4):
            bump = np.zeros(4)
            bump[j] = h
            logits = x[0] @ head.output_weight.T + head.output_bias
            plus = -np.log(softmax(logits + bump))[2]
            minus = -np.log(softmax(logits - bump))[2]
            numeric[j] = (plus - minus) / (2 * h)
        np.testing.assert_allclose(grads["head.output.bias"], numeric, atol=1e-6)
        probs, _ = head_forward_batch(head, x)
        np.testing.assert_allclose(probs[0] - one_hot, numeric, atol=1e-6)

    def test_one_hot_optimum_gives_near_zero_grads(self, rng):
        model = _tiny_single_span(rng)
        windows = [rng.normal(size=(1, model.spans[0]))]
        # Drive the output layer to near-certainty for the label.
        model.head.output_weight *= 0.0
        model.head.output_bias[...] = np.array([50.0, -50.0, -50.0])
        _, grads = model.loss_and_grads(windows, np.array([0]))
        assert max(float(np.max(np.abs(g))) for g in grads.values()) < 1e-12

    @pytest.mark.parametrize("builder", [_tiny_single_span, _tiny_multi_span])
    def test_finite_difference_end_to_end(self, rng, builder):
        model = builder(rng)
        windows = [rng.uniform(-1, 1, size=(2, span)) for span in model.spans]
        labels = np.array([0, 2])
        _, analytic = model.loss_and_grads(windows, labels)

        def loss():
            return model.loss_and_grads(windows, labels)[0]

        numeric = finite_difference_grads(loss, model.params(), step=1e-5)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_fbank_head_finite_difference(self, rng):
        from msam.fbank import FbankConfig

        model = build_fbank_model(
            3, FbankConfig(num_filters=4), context_frames=3, hidden_dims=(3,),
            seed=5, dtype=np.float64,
        )
        randomize_biases(model, rng)
        feats = rng.uniform(-1, 1, size=(2, model.feature_dim))
        labels = np.array([1, 2])
        _, analytic = model.loss_and_grads(feats, labels)

        def loss():
            return model.loss_and_grads(feats, labels)[0]

        numeric = finite_difference_grads(loss, model.params(), step=1e-5)
        assert max_relative_error(analytic, numeric) < 1e-4


class TestCheckpoint:
    def _forward(self, model, rng, n=5):
        windows = [
            rng.normal(size=(n, span)).astype(np.float32) for span in model.spans
        ]
        return windows, model.forward_batch(windows)

    def test_round_trip_bit_identical_forward(self, rng, tmp_path):
        model = build_raw_model(
            "multi_span", [tiny_stream_config(s) for s in (2, 3)], 4,
            hidden_dims=(3, 3), seed=9,
        )
        windows, before = self._forward(model, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        restored = load_checkpoint(path)
        after = restored.forward_batch(windows)
        np.testing.assert_array_equal(before, after)

    def test_fbank_round_trip(self, rng, tmp_path):
        model = build_fbank_model(3, hidden_dims=(4,), seed=2)
        feats = rng.normal(size=(6, model.feature_dim)).astype(np.float32)
        before = model.forward_batch(feats)
        save_checkpoint(tmp_path / "m.ckpt", model)
        after = load_checkpoint(tmp_path / "m.ckpt").forward_batch(feats)
        np.testing.assert_array_equal(before, after)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @staticmethod
    def _first_name_offset(blob: bytes) -> int:
        """Offset of the first tensor record's name-length field."""
        config_len = int.from_bytes(blob[40:44], "little")
        return 44 + config_len + 4

    def _saved_blob(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, build_fbank_model(3, hidden_dims=(4,), seed=2))
        return path, bytearray(path.read_bytes())

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path, blob = self._saved_blob(tmp_path)
        blob[self._first_name_offset(blob) + 4] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="not UTF-8"):
            load_checkpoint(path)

    def test_name_shorter_than_stated_length_rejected(self, tmp_path):
        path, blob = self._saved_blob(tmp_path)
        at = self._first_name_offset(blob)
        blob[at : at + 4] = len(blob).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="name: truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self._saved_blob(tmp_path)
        path.write_bytes(bytes(blob) + b"\x00")
        with pytest.raises(FormatError, match="trailing data: 1 bytes"):
            load_checkpoint(path)

    def test_tampered_config_rejected(self, rng, tmp_path):
        model = build_fbank_model(3, hidden_dims=(4,), seed=2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xFF  # inside the config JSON
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)
