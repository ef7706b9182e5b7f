import errno
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msam.model
from msam.checkpoint import load_checkpoint, save_checkpoint
from msam.cli import EXIT_IO, main
from msam.errors import FormatError
from msam.fbank import FbankConfig, stack_context
from msam.model import (
    build_fbank_model,
    build_raw_model,
    head_loss_and_grads,
    param_shapes,
)
from msam.network import (
    DnnHead,
    cross_entropy_batch,
    head_backward_batch,
    head_forward_batch,
    head_params,
    softmax,
)
from msam.streams import StreamConfig, desk_scale_config
from msam.trainer import PretrainSchedule, pretrain_transition

from conftest import (
    BYTE_OPS,
    DATA,
    cpu_has_avx2,
    finite_difference_grads,
    frames_in_buffer,
    max_relative_error,
    mutate,
    randomize_biases,
    tiny_stream_config,
    with_config,
    write_new,
)


def seeded_head(input_dim, hidden_dims, num_classes, dtype=np.float64):
    """The seeded head of an FBANK model with `input_dim` filters and one
    context frame."""
    return build_fbank_model(num_classes, FbankConfig(num_filters=input_dim), context_frames=1,
                             hidden_dims=hidden_dims, seed=7, dtype=dtype).head


class TestDnnForward:
    """head_forward_batch: class probabilities for a (B, D) batch."""

    def test_probabilities_sum_to_one(self, rng):
        head = seeded_head(6, (4, 4), 5)
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
        head = seeded_head(4, (3, 3), 2)
        x = rng.normal(size=(3, 4))
        probs, _ = head_forward_batch(head, x)
        for row, h in zip(probs, x):
            for w, b in zip(head.hidden_weights, head.hidden_biases):
                h = np.maximum(w @ h + b, 0)
            logits = head.output_weight @ h + head.output_bias
            expected = np.exp(logits) / np.exp(logits).sum()
            np.testing.assert_allclose(row, expected, atol=1e-9)

    def test_dim_mismatch_raises(self):
        head = seeded_head(4, (3,), 2, dtype=np.float32)
        with pytest.raises(ValueError):
            head_forward_batch(head, np.zeros((2, 5)))

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_softmax_normalized_for_bounded_logits(self, seed):
        logits = np.random.default_rng(seed).uniform(-50, 50, size=(3, 7))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_and_head_forward_leave_arguments_unchanged(self, rng):
        head = seeded_head(6, (4, 4), 5, dtype=np.float32)
        x = rng.normal(size=(3, 6)).astype(np.float32)
        logits = rng.normal(size=(3, 5)).astype(np.float32)
        arrays = [x, logits, *head_params(head).values()]
        before = [a.copy() for a in arrays]
        softmax(logits)
        head_forward_batch(head, x)
        for after, old in zip(arrays, before):
            np.testing.assert_array_equal(after, old)


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


def _sharing_multi_span(rng):
    """One stream whose frames FRAME_SHIFT apart read common conv1
    positions, so the step takes the table path, and one that never does."""
    sharing = StreamConfig(first_stride=16, first_kernel_len=8, first_map_size=16,
                           first_num_kernels=2, second_stride=8, second_kernel_len=8,
                           second_map_size=4, second_num_kernels=3, projection_dim=2)
    model = build_raw_model("multi_span", [sharing, tiny_stream_config(3)], 3,
                            hidden_dims=(2,), seed=13, dtype=np.float64)
    randomize_biases(model, rng)
    return model


class TestModelBackward:
    def test_softmax_ce_logit_gradient_identity(self, rng):
        head = seeded_head(5, (), 4)
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
        buffer, centers = frames_in_buffer(rng, model, 1)
        # Drive the output layer to near-certainty for the label.
        model.head.output_weight *= 0.0
        model.head.output_bias[...] = np.array([50.0, -50.0, -50.0])
        _, grads = model.loss_and_grads(buffer, centers, np.array([0]))
        assert max(float(np.max(np.abs(g))) for g in grads.values()) < 1e-12

    def test_saturated_head_gradients_hold_no_subnormal(self, rng):
        """Classes 90-100 nats behind get subnormal float32 probabilities,
        and subnormal operands slow a matmul by orders of magnitude.  Below
        CE_PROB_FLOOR a probability enters the backward as zero, so no
        gradient holds a subnormal value."""
        head = seeded_head(6, (5,), 4, dtype=np.float32)
        head.output_weight *= 0.01
        head.output_bias[...] = [0.0, 0.0, -90.0, -100.0]
        x = rng.uniform(0.0, 1.0, size=(8, 6)).astype(np.float32)
        probs, _ = head_forward_batch(head, x)
        assert np.all((probs[:, 2:] > 0) & (probs[:, 2:] < np.finfo(np.float32).tiny))
        _, grads, dfeat = head_loss_and_grads(head, x, np.array([0, 0, 0, 0, 0, 0, 1, 1]))
        for name, g in {**grads, "features": dfeat}.items():
            assert not np.any((g != 0) & (np.abs(g) < np.finfo(np.float32).tiny)), name

    @pytest.mark.parametrize("builder", [_tiny_single_span, _tiny_multi_span,
                                         _sharing_multi_span])
    def test_finite_difference_end_to_end(self, rng, builder):
        model = builder(rng)
        buffer, centers = frames_in_buffer(rng, model, 2)
        labels = np.array([0, 2])
        _, analytic = model.loss_and_grads(buffer, centers, labels)

        def loss():
            return model.loss_and_grads(buffer, centers, labels)[0]

        numeric = finite_difference_grads(loss, model.params(), step=1e-5)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_fbank_head_finite_difference(self, rng):
        model = build_fbank_model(
            3, FbankConfig(num_filters=4), context_frames=3, hidden_dims=(3,),
            seed=5, dtype=np.float64,
        )
        randomize_biases(model, rng)
        rows, centers = rng.uniform(-1, 1, size=(4, 4)), np.array([1, 2])
        labels = np.array([1, 2])
        _, analytic = model.loss_and_grads(rows, centers, labels)

        def loss():
            return model.loss_and_grads(rows, centers, labels)[0]

        numeric = finite_difference_grads(loss, model.params(), step=1e-5)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_fbank_step_skips_the_feature_gradient(self, rng):
        """FBANK features are data, yet the step computed their gradient (the
        first hidden layer's dh @ W0) and discarded it."""
        model = build_fbank_model(3, FbankConfig(num_filters=4), context_frames=3,
                                  hidden_dims=(5, 4), seed=5)
        randomize_biases(model, rng)
        rows = rng.uniform(-1, 1, size=(8, 4)).astype(np.float32)
        centers, labels = np.arange(1, 7), np.array([0, 1, 2, 0, 1, 2])
        feature_grads = []

        def recording(*args, **kwargs):
            result = head_backward_batch(*args, **kwargs)
            feature_grads.append(result[1])
            return result

        with mock.patch.object(msam.model, "head_backward_batch", recording):
            loss, grads = model.loss_and_grads(rows, centers, labels)
        assert len(feature_grads) == 1 and feature_grads[0] is None
        feats = stack_context(rows, centers, 3)
        full_loss, full_grads, dfeat = head_loss_and_grads(model.head, feats, labels)
        assert dfeat.shape == feats.shape
        assert loss == full_loss and grads.keys() == full_grads.keys()
        for name, g in grads.items():
            assert g.tobytes() == full_grads[name].tobytes(), name


# A paper-geometry step and eval chunk in a child process on one BLAS thread:
# every stream sends the step's 24 consecutive frames down the table path and
# its 8 frames 25 apart down the window path.  It prints the OpenBLAS core
# and the sha256 of the gradients, in params() order, then the probabilities.
PAPER_PIN_RUN = """
import hashlib
import numpy as np
from msam import openblas
from msam.dataio import normalize_global, synth_corpus
from msam.model import build_raw_model, conv_tables
from msam.streams import StreamConfig, window_starts
from msam.trainer import FrameDataset

configs = [StreamConfig(first_stride=s, first_kernel_len=50) for s in (4, 9, 15)]
model = build_raw_model("multi_span", configs, 8, hidden_dims=(16,))
dataset = FrameDataset(model, normalize_global(synth_corpus(3, 2, 2.0, seed=5)))
rows = np.concatenate([np.arange(40, 64), 100 + 25 * np.arange(8)])
centers = dataset.centers[rows]
for cfg in configs:
    shared = conv_tables(cfg, window_starts(dataset.buffer, centers, cfg.input_span))[0]
    assert shared.tolist() == [True] * 24 + [False] * 8
_, grads = model.loss_and_grads(dataset.buffer, centers, dataset.labels[rows])
probs = model.forward_at(dataset.buffer, dataset.centers[:128])
digest = hashlib.sha256()
for name in model.params():
    digest.update(grads[name].tobytes())
digest.update(probs.tobytes())
print(openblas().get_corename().decode(), digest.hexdigest())
"""
# Per OpenBLAS core; the float32 sums differ between kernels and between 1
# and 2 BLAS threads.
PAPER_PIN = {
    "SkylakeX": "aa8720f6e16b3c1f4885afb737fc6a48041fde0489ec972d3efc86cc679a0f01",
    "Haswell": "21b96bc6f988aed553fcd49868864976d774b3ea64155abeb778cdada967e495",
}


class TestPaperGeometryPin:
    @pytest.mark.parametrize("coretype", [None, "Haswell"], ids=["host-kernel", "Haswell"])
    def test_step_and_eval_bytes(self, coretype):
        """A seeded float32 M_4,9,15^50,50,50 at paper geometry, 8 classes
        and one hidden layer of 16, on `normalize_global(synth_corpus(3, 2,
        2.0, seed=5))`: one `loss_and_grads` over both stream paths and
        `forward_at` over the first 128 frames give the pinned bytes."""
        if coretype == "Haswell" and not cpu_has_avx2():
            pytest.skip("/proc/cpuinfo lists no avx2, which OpenBLAS's Haswell kernels need")
        src = str(Path(msam.model.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "MSAM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        child = subprocess.run([sys.executable, "-c", PAPER_PIN_RUN], env=env,
                               capture_output=True, text=True, check=True)
        core, digest = child.stdout.split()
        if core not in PAPER_PIN:
            pytest.skip(f"no digest is recorded for OpenBLAS core {core}")
        assert digest == PAPER_PIN[core]


class TestParamShapes:
    """`param_shapes(model.to_config())` names each of `params()`, in order,
    with its shape."""

    @staticmethod
    def _check(model):
        shapes = param_shapes(model.to_config())
        assert list(shapes.items()) == [(name, p.shape) for name, p in model.params().items()]

    @pytest.mark.parametrize("build", [
        lambda: build_raw_model("single_span", [desk_scale_config(15, 50)], 3, hidden_dims=(8, 6)),
        lambda: build_raw_model("multi_span", [tiny_stream_config(s) for s in (2, 3, 4)], 5,
                                hidden_dims=(3,)),
        lambda: build_fbank_model(4, FbankConfig(num_filters=6), context_frames=5,
                                  hidden_dims=(7, 2)),
    ], ids=["single_span", "multi_span", "fbank"])
    def test_matches_params(self, build):
        self._check(build())

    def test_matches_params_after_each_pretraining_transition(self):
        model = build_raw_model("multi_span", [tiny_stream_config(s) for s in (2, 3)], 3,
                                hidden_dims=())
        self._check(model)
        for _ in range(2):
            pretrain_transition(model, PretrainSchedule(hidden_dim=6, seed=1))
            self._check(model)


class TestCheckpoint:
    def _forward(self, model, rng, n=5):
        windows = [
            rng.normal(size=(n, span)).astype(np.float32) for span in model.spans
        ]
        return windows, model.forward_batch(windows)

    def test_round_trip_bit_identical_forward(self, rng, tmp_path):
        """A loaded single-span model must still write "single_span", which
        param_shapes holds to one stream and no projection tensor."""
        for kind, spans in (("single_span", (3,)), ("multi_span", (2, 3))):
            model = build_raw_model(
                kind, [tiny_stream_config(s) for s in spans], 4,
                hidden_dims=(3, 3), seed=9,
            )
            windows, before = self._forward(model, rng)
            path = tmp_path / f"{kind}.ckpt"
            save_checkpoint(path, model)
            restored = load_checkpoint(path)
            after = restored.forward_batch(windows)
            np.testing.assert_array_equal(before, after)
            assert restored.to_config() == model.to_config()

    def test_fbank_round_trip(self, rng, tmp_path):
        model = build_fbank_model(3, hidden_dims=(4,), seed=2)
        rows, centers = rng.normal(size=(16, 40)).astype(np.float32), np.arange(5, 11)
        before = model.forward_at(rows, centers)
        save_checkpoint(tmp_path / "m.ckpt", model)
        after = load_checkpoint(tmp_path / "m.ckpt").forward_at(rows, centers)
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

    def test_config_edited_without_its_digest_rejected(self, tmp_path):
        """A tab for the space after the config's first comma leaves the
        same model in the same bytes of JSON, but not the same digest."""
        path, blob = self._saved_blob(tmp_path)
        at = blob.index(b", ", 44)
        blob[at + 1] = ord("\t")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="config_digest"):
            load_checkpoint(path)

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

    @staticmethod
    def _saved_with_config(tmp_path, kind, edit):
        """Save a small model of `kind`, then rewrite its config JSON with
        `edit` and recompute the digest; returns the checkpoint path."""
        if kind == "fbank":
            model = build_fbank_model(3, hidden_dims=(4,), seed=2)
        else:
            model = build_raw_model("multi_span", [tiny_stream_config(s) for s in (2, 3)], 4,
                                    hidden_dims=(3,), seed=9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model)
        path.write_bytes(with_config(path.read_bytes(), edit))
        return path

    @pytest.mark.parametrize("kind, edit, tensor", [
        ("fbank", lambda c: c.update(hidden_dims=[2**36, 2**36]), "head.hidden1.weight absent"),
        ("fbank", lambda c: c.update(num_classes=2**40), "head.output.weight (3, 4)"),
        ("multi_span", lambda c: c["streams"][0].update(first_kernel_len=2**40),
         "stream0.conv1.weights (2, 5)"),
    ], ids=["hidden_dims", "num_classes", "conv1"])
    def test_config_asking_for_terabytes_rejected(self, tmp_path, kind, edit, tensor):
        """The loader built the config's model before it compared any shape,
        so these configs asked for terabytes.  Now the file's tensors are
        checked against the config's shapes, and the loader holds no more
        than those tensors, one payload being read and a few kB of parsing."""
        path = self._saved_with_config(tmp_path, kind, edit)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=re.escape(tensor)):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size + 2**15
        assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == EXIT_IO

    @pytest.mark.parametrize("config_bytes", [b'{"kind": "fbank_dnn",', b'{"kind": "\xff"}'],
                             ids=["not-json", "not-utf8"])
    def test_config_not_utf8_json_rejected(self, tmp_path, capsys, config_bytes):
        """Both exited 1 with a bare JSON or codec message."""
        path = self._saved_with_config(tmp_path, "fbank", lambda c: config_bytes)
        with pytest.raises(FormatError, match="config: "):
            load_checkpoint(path)
        assert main(["eval", str(path), "--synth", "classes=3,utterances=1,duration=0.5"]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: config: ")

    @pytest.mark.parametrize("kind, edit", [
        ("fbank", lambda c: c.update(fbank=[400, 40, 512])),
        ("multi_span", lambda c: c.update(kind="single_span", streams=[])),
        ("fbank", lambda c: c.update(hidden_dims=[0, 0])),
        ("multi_span", lambda c: c["streams"][0].update(first_stride=2.5)),
        ("fbank", lambda c: c["fbank"].update(frame_size=400.5)),
    ], ids=["fbank-list", "no-streams", "zero-widths", "float-stride", "float-frame-size"])
    def test_config_of_the_wrong_shape_rejected(self, tmp_path, kind, edit):
        """A list for the fbank object was an AttributeError traceback, a
        single-span config with no stream an IndexError and two zero widths a
        ZeroDivisionError.  A fractional stride or frame size loaded, then
        `msam eval` died with a TypeError."""
        path = self._saved_with_config(tmp_path, kind, edit)
        with pytest.raises(FormatError, match="config: "):
            load_checkpoint(path)
        synth = "classes=3,utterances=1,duration=0.5"
        assert main(["eval", str(path), "--synth", synth]) == EXIT_IO

    @pytest.mark.parametrize("kind, drop, key", [
        ("fbank", lambda c: c.pop("context_frames"), "context_frames"),
        ("multi_span", lambda c: c["streams"][1].pop("first_stride"), "first_stride"),
    ])
    def test_config_missing_key_rejected(self, tmp_path, kind, drop, key):
        path = self._saved_with_config(tmp_path, kind, drop)
        with pytest.raises(FormatError, match=key):
            load_checkpoint(path)
        assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == EXIT_IO

    @pytest.mark.parametrize("kind, key, value", [
        ("multi_span", "sample_rate", 8000),
        ("fbank", "frame_shift", 80),
        ("fbank", "sample_rate", 8000),
        ("fbank", "num_filters", 0),
        ("multi_span", "first_map_size", 0),
        ("fbank", "context_frames", 10),  # loaded, then `msam eval` exited 1
    ])
    def test_config_value_off_the_grid_or_out_of_range_rejected(self, tmp_path, kind, key, value):
        def edit(config):
            if key == "first_map_size":
                config["streams"][0][key] = value
            elif key == "context_frames":  # 44 filters x 10 frames keep the 440-wide head
                config.update(context_frames=value)
                config["fbank"]["num_filters"] = 44
            elif kind == "fbank":
                config["fbank"][key] = value
            else:
                config[key] = value

        path = self._saved_with_config(tmp_path, kind, edit)
        with pytest.raises(FormatError, match=key):
            load_checkpoint(path)
        synth = "classes=3,utterances=1,duration=0.5"
        assert main(["eval", str(path), "--synth", synth]) == EXIT_IO

    def test_infinite_conv1_tap_rejected(self, tmp_path):
        """`msam analyze` wrote inf spectra rows and exited 0."""
        model = load_checkpoint(DATA / "trained_multi_span.ckpt")
        model.params()["stream1.conv1.weights"][0, 3] = np.inf
        path = save_checkpoint(tmp_path / "m.ckpt", model)
        with pytest.raises(FormatError, match="tensor stream1.conv1.weights: non-finite"):
            load_checkpoint(path)
        assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == EXIT_IO
        assert not (tmp_path / "a").exists()

    def test_nan_output_bias_rejected(self, tmp_path):
        """`msam eval` exited 3 with "non-finite evaluation loss"."""
        blob = (DATA / "trained_multi_span.ckpt").read_bytes()
        path = tmp_path / "m.ckpt"
        path.write_bytes(blob[:-4] + struct.pack("<f", np.nan))
        with pytest.raises(FormatError, match="tensor head.output.bias: non-finite"):
            load_checkpoint(path)
        synth = "classes=3,utterances=1,duration=0.5"
        assert main(["eval", str(path), "--synth", synth]) == EXIT_IO

    @pytest.mark.parametrize("name", ["tiny_multi_span", "tiny_fbank"])
    def test_committed_v1_checkpoint_loads_and_resaves_identically(self, tmp_path, name):
        """tests/data holds format-v1 checkpoints written when the sample rate
        and frame shift were still model fields: a multi-span model
        (tiny_stream_config strides 1 and 2, hidden (4, 4), seed 5) and an
        FBANK model (4 filters, 3 context frames, hidden (4,), seed 6), both
        with randomized biases.  tiny_reference.npz holds the input signal,
        the multi-span frame centres and both models' float32 probabilities."""
        reference = np.load(DATA / "tiny_reference.npz")
        model = load_checkpoint(DATA / f"{name}.ckpt")
        save_checkpoint(tmp_path / "again.ckpt", model)
        assert (tmp_path / "again.ckpt").read_bytes() == (DATA / f"{name}.ckpt").read_bytes()
        signal = reference["signal"]
        if name == "tiny_fbank":
            assert model.fbank_config == FbankConfig(num_filters=4)
            half = model.context_frames // 2
            rows = np.pad(model.featurize(signal), ((half, half), (0, 0)), mode="edge")
            probs = model.forward_at(rows, half + np.arange(len(rows) - 2 * half))
            expected = reference["fbank_probs"]
        else:
            probs = model.forward_batch(model.inputs_at(signal, reference["centers"]))
            expected = reference["multi_span_probs"]
        np.testing.assert_array_equal(probs, expected)

    @pytest.mark.parametrize("name", ["trained_multi_span", "tiny_fbank", "trained_fbank",
                                      "tiny_multi_span"])
    def test_load_draws_no_random_weights(self, tmp_path, name):
        """The loader drew a Glorot-initialized model, then overwrote it."""
        with mock.patch.object(msam.model, "glorot_uniform", side_effect=AssertionError):
            model = load_checkpoint(DATA / f"{name}.ckpt")
        save_checkpoint(tmp_path / "again.ckpt", model)
        assert (tmp_path / "again.ckpt").read_bytes() == (DATA / f"{name}.ckpt").read_bytes()

    def test_payload_larger_than_file_rejected_before_reading(self, tmp_path):
        path, blob = self._saved_blob(tmp_path)
        at = self._first_name_offset(blob)
        rank_at = at + 4 + int.from_bytes(blob[at : at + 4], "little")
        # 4 * (2**32 - 1)**3 bytes: reading it would overflow, allocating it would fail.
        huge = struct.pack("<4I", 3, 2**32 - 1, 2**32 - 1, 2**32 - 1)
        path.write_bytes(bytes(blob[:rank_at]) + huge + bytes(blob[rank_at:]))
        with pytest.raises(FormatError, match="payload: truncated"):
            load_checkpoint(path)

    def test_rank_numpy_cannot_hold_rejected(self, tmp_path):
        """A 65-dimensional tensor of one element escaped as NumPy's
        ValueError, so `msam eval` exited 1 instead of 2."""
        path, blob = self._saved_blob(tmp_path)
        at = self._first_name_offset(blob)
        rank_at = at + 4 + int.from_bytes(blob[at : at + 4], "little")
        rank = int.from_bytes(blob[rank_at : rank_at + 4], "little")
        dims = struct.pack("<66I", 65, *[1] * 65)
        path.write_bytes(bytes(blob[:rank_at]) + dims + bytes(blob[rank_at + 4 + 4 * rank :]))
        with pytest.raises(FormatError, match="tensor head.hidden0.weight: "):
            load_checkpoint(path)
        assert main(["eval", str(path), "--synth", "classes=3,utterances=1,duration=0.5"]) == EXIT_IO

    def test_load_holds_each_tensor_once(self, tmp_path):
        """The loader read each payload into a bytes object and copied it into
        its array, so it held the largest tensor twice: here a peak of 2.1x
        the file."""
        model = build_fbank_model(3006, hidden_dims=(512,), seed=0)
        path = save_checkpoint(tmp_path / "m.ckpt", model)
        size = path.stat().st_size
        assert model.head.output_weight.nbytes > size / 2
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * size

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


class TestCheckpointWrite:
    """`save_checkpoint` writes a new file and puts it in place once it is
    complete; it used to truncate the old file and write over it."""

    @staticmethod
    def _model(seed):
        return build_fbank_model(3, FbankConfig(num_filters=4), hidden_dims=(4,), seed=seed)

    def test_reader_of_the_old_file_keeps_its_bytes(self, tmp_path):
        """A reader that had the old checkpoint open read the new one, or
        half of it."""
        path = save_checkpoint(tmp_path / "m.ckpt", self._model(1))
        old = path.read_bytes()
        with open(path, "rb") as fh:
            save_checkpoint(path, self._model(2))
            assert fh.read() == old
        save_checkpoint(tmp_path / "fresh.ckpt", self._model(2))
        assert path.read_bytes() == (tmp_path / "fresh.ckpt").read_bytes() != old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.ckpt", "m.ckpt"]

    def test_failed_save_leaves_the_old_checkpoint(self, tmp_path, monkeypatch):
        """The save fails after the header and every tensor but the last are
        written; writing over the old checkpoint had already truncated it."""
        path = save_checkpoint(tmp_path / "m.ckpt", self._model(1))
        old = path.read_bytes()
        model = self._model(2)
        params = model.params()

        class FullDisk:
            """The last tensor; writing it fails as on a full disk."""
            ndim, shape = params["head.output.bias"].ndim, params["head.output.bias"].shape

            def __array__(self, dtype=None, copy=None):
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(model, "params", lambda: {**params, "head.output.bias": FullDisk()})
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, model)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_save_to_a_directory_leaves_no_temporary_file(self, tmp_path):
        (tmp_path / "m.ckpt").mkdir()
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "m.ckpt", self._model(1))
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
        assert not any((tmp_path / "m.ckpt").iterdir())


# JSON edits of a checkpoint config: set or delete any value, or add a key
# to an object or an item to a list.  Numbers stay small, so no model built
# from an edited config allocates more than a few MB.
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 48), st.floats(-2, 64),
    st.sampled_from([float("nan"), float("inf"), 0.5, 1.0, 2.5, 400.5, "", "fbank_dnn",
                     "single_span", "multi_span"]),
    st.text(max_size=4), st.lists(st.integers(0, 8), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 4), max_size=2),
)
_KEYS = st.one_of(st.sampled_from(["sample_rate", "frame_shift", "kind", "streams",
                                   "context_frames", "first_stride"]), st.text(max_size=4))
_CONFIG_OPS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.integers(0, 255), _JSON_VALUES),
    st.tuples(st.just("delete"), st.integers(0, 255)),
    st.tuples(st.just("add"), st.integers(0, 255), _KEYS, _JSON_VALUES),
), min_size=1, max_size=3)


def _paths(node, path=()):
    """The path of every value in a JSON tree, the root's () first."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    return [path] + [p for key, child in children for p in _paths(child, path + (key,))]


def _edit(config: dict, ops) -> None:
    for op in ops:
        path = _paths(config)[op[1] % len(_paths(config))]
        node = config
        for key in path[:-1]:
            node = node[key]
        if op[0] == "add":
            target = node[path[-1]] if path else node
            if isinstance(target, dict):
                target[op[2]] = op[3]
            elif isinstance(target, list):
                target.append(op[3])
        elif path and op[0] == "set":
            node[path[-1]] = op[2]
        elif path:
            del node[path[-1]]


@pytest.fixture(scope="module")
def fuzz_checkpoints(tmp_path_factory):
    """A small checkpoint of each model family, as bytes, and a directory."""
    folder = tmp_path_factory.mktemp("ckpt_fuzz")
    models = {
        "fbank": build_fbank_model(3, FbankConfig(num_filters=4), context_frames=3,
                                   hidden_dims=(4,), seed=0),
        "multi_span": build_raw_model("multi_span", [tiny_stream_config(s) for s in (2, 3)], 3,
                                      hidden_dims=(3,), seed=0),
    }
    blobs = {}
    for kind, model in models.items():
        save_checkpoint(folder / "clean.ckpt", model)
        blobs[kind] = (folder / "clean.ckpt").read_bytes()
    return blobs, folder


class TestCheckpointFuzz:
    """Every mutated checkpoint loads or is a FormatError, never another
    exception; `msam eval` and `msam analyze` exit 2 on those that do not
    load, and never with a traceback."""

    @staticmethod
    def _check(folder, blob):
        from contextlib import redirect_stderr
        from io import StringIO

        path = folder / "m.ckpt"
        write_new(path, blob)
        try:
            load_checkpoint(path)
            loaded = True
        except FormatError:
            loaded = False
        for argv in (["eval", str(path), "--synth", "classes=3,utterances=1,duration=0.5"],
                     ["analyze", str(path), "--out", str(folder / "analysis")]):
            err = StringIO()
            with redirect_stderr(err):
                code = main(argv)
            if not loaded:
                assert code == EXIT_IO and err.getvalue().startswith("error: ")

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["fbank", "multi_span"]), ops=BYTE_OPS)
    def test_byte_mutations(self, fuzz_checkpoints, kind, ops):
        blobs, folder = fuzz_checkpoints
        self._check(folder, mutate(blobs[kind], ops))

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["fbank", "multi_span"]), ops=_CONFIG_OPS)
    def test_config_edits_with_digest_recomputed(self, fuzz_checkpoints, kind, ops):
        blobs, folder = fuzz_checkpoints
        self._check(folder, with_config(blobs[kind], lambda config: _edit(config, ops)))
