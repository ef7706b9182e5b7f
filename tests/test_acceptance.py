"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import time

import numpy as np

from msam.analysis import effective_lengths, kernel_spectra
from msam.checkpoint import load_checkpoint, save_checkpoint
from msam.conv import KernelBank, conv1d_forward_batch, output_map_size, required_span
from msam.dataio import normalize_global, synth_corpus
from msam.model import build_fbank_model, build_raw_model
from msam.streams import StreamConfig, desk_scale_config
from msam.trainer import (
    NewBobState,
    PretrainSchedule,
    TrainConfig,
    newbob_update,
    pretrain_transition,
    train_model,
)

from conftest import (
    finite_difference_grads,
    frames_in_buffer,
    max_relative_error,
    randomize_biases,
    tiny_stream_config,
)
from test_analysis import (
    cosine_bank,
    direct_dft_magnitudes,
    exhaustive_effective_length,
    exported_rows,
)
from test_conv import naive_conv


def report(criterion: str, passed: bool):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}")
    assert passed, criterion


class TestAcceptance:
    def test_01_span_arithmetic_table(self):
        started = time.time()
        table = {
            (10, 400): (2390, 149), (10, 100): (2090, 131), (10, 50): (2040, 128),
            (10, 25): (2015, 125), (4, 50): (846, 53), (9, 50): (1841, 115),
            (15, 50): (3035, 190), (20, 50): (4030, 252),
        }
        ok = True
        for (stride, kernel_len), (samples, ms) in table.items():
            span = required_span(200, stride, kernel_len)
            ok &= span == samples
            ok &= abs(span / 16.0 - ms) <= 1.0
        ok &= time.time() - started < 1.0
        report("criterion 1: span arithmetic reproduces all table geometries", ok)

    def test_02_architecture_dimension_chain(self):
        started = time.time()
        cfg = StreamConfig(first_stride=10, first_kernel_len=50)
        flat = cfg.first_map_size * cfg.first_num_kernels
        ok = flat == 12800
        ok &= output_map_size(flat, cfg.second_kernel_len, cfg.second_stride) == 11
        ok &= cfg.output_dim == 1408
        ok &= cfg.projection_dim == 150
        ok &= 3 * cfg.projection_dim == 450
        ok &= time.time() - started < 1.0
        report("criterion 2: default dimension chain 12800/11/1408/150/450", ok)

    def test_03_convolution_oracle_suite(self):
        started = time.time()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            l = int(rng.integers(1, 16))
            s = int(rng.integers(1, 8))
            t = l + int(rng.integers(0, 48))
            weights = rng.normal(size=(k, l))
            biases = rng.normal(size=k)
            x = rng.normal(size=(2, t))
            got = conv1d_forward_batch(x, KernelBank(weights, biases, s))
            for row, segment in zip(got, x):
                expected = naive_conv(segment, weights, biases, s)
                worst = max(worst, float(np.max(np.abs(row.T - expected))))
        elapsed = time.time() - started
        report(
            f"criterion 3: 1000 random conv batches (B=2) vs oracle "
            f"(max abs err {worst:.2e}, {elapsed:.1f}s)",
            worst < 1e-9 and elapsed < 30.0,
        )

    def test_04_gradient_suite(self):
        started = time.time()
        rng = np.random.default_rng(7)
        worst = 0.0
        for kind, strides in (("single_span", (3,)), ("multi_span", (2, 3, 4))):
            model = build_raw_model(
                kind, [tiny_stream_config(s) for s in strides], 3,
                hidden_dims=(2, 2), seed=31, dtype=np.float64,
            )
            randomize_biases(model, rng)
            buffer, centers = frames_in_buffer(rng, model, 2)
            labels = np.array([0, 2])
            _, analytic = model.loss_and_grads(buffer, centers, labels)

            def loss(m=model, b=buffer, c=centers, y=labels):
                return m.loss_and_grads(b, c, y)[0]

            numeric = finite_difference_grads(loss, model.params(), step=1e-5)
            worst = max(worst, max_relative_error(analytic, numeric))
        elapsed = time.time() - started
        report(
            f"criterion 4: end-to-end finite-difference gradients "
            f"(max rel err {worst:.2e}, {elapsed:.0f}s)",
            worst < 1e-4 and elapsed < 120.0,
        )

    def test_05_desk_scale_learning(self):
        started = time.time()
        # 3 classes, 12 utterances x 5 s = 60 s of audio, seed-fixed.
        corpus = normalize_global(synth_corpus(3, 12, 5.0, seed=7))
        config = TrainConfig(learning_rate=0.02, momentum=0.9, weight_decay=1e-5,
                             batch_size=256, max_epochs=20, seed=3)
        # M_4,9,15^50,50,50 with reduced per-stream map sizes for speed.
        multispan = build_raw_model(
            "multi_span", [desk_scale_config(s, 50) for s in (4, 9, 15)], 3,
            hidden_dims=(), seed=3,
        )
        log = train_model(multispan, corpus, config, pretrain=PretrainSchedule(seed=3))
        multispan_cv = float(log[-1].split("\t")[3])

        fbank = build_fbank_model(3, seed=3)
        fbank_log = train_model(fbank, corpus, config)
        fbank_cv = float(fbank_log[-1].split("\t")[3])
        elapsed = time.time() - started
        report(
            f"criterion 5: desk-scale learning (multi-span CV {multispan_cv:.1f}%, "
            f"FBANK CV {fbank_cv:.1f}%, {elapsed:.0f}s)",
            multispan_cv > 90.0 and fbank_cv > 90.0
            and len(log) <= 20 and len(fbank_log) <= 20 and elapsed < 600.0,
        )

    def test_06_pretraining_topology(self):
        num_classes = 5
        model = build_raw_model(
            "multi_span",
            [StreamConfig(first_stride=s, first_kernel_len=50) for s in (4, 9, 15)],
            num_classes, hidden_dims=(), seed=1,
        )
        schedule = PretrainSchedule(hidden_dim=512, seed=1)
        ok = sum(s.config.projection_dim for s in model.streams) == 450
        ok &= model.head.num_hidden == 0 and model.head.input_dim == 450
        frozen = {k: v.copy() for k, v in model.params().items() if k.startswith("stream")}
        output_bias = model.head.output_bias.copy()

        pretrain_transition(model, schedule)
        dims = [450] + [w.shape[0] for w in model.head.hidden_weights] + [num_classes]
        ok &= dims == [450, 512, 512, num_classes]
        extended_hidden = [w.copy() for w in model.head.hidden_weights]
        extended_output = model.head.output_weight.copy()

        pretrain_transition(model, schedule)
        dims = [450] + [w.shape[0] for w in model.head.hidden_weights] + [num_classes]
        ok &= dims == [450, 512, 512, 512, 512, num_classes]
        for k, v in frozen.items():
            ok &= np.array_equal(model.params()[k], v)
        ok &= np.array_equal(model.head.output_bias, output_bias)
        for before, after in zip(extended_hidden, model.head.hidden_weights):
            ok &= np.array_equal(before, after)
        ok &= np.array_equal(model.head.output_weight, extended_output)
        report("criterion 6: pretraining dimension chains with preserved parameters", ok)

    def test_07_scheduler_state_machine(self):
        ok = True
        state = NewBobState(current_lr=0.08)
        decisions = [newbob_update(state, a) for a in (50.0, 55.0, 59.0, 59.3)]
        ok &= decisions == ["continue", "continue", "continue", "decay_lr"]
        state2 = NewBobState(current_lr=0.08)
        newbob_update(state2, 60.0)
        ok &= newbob_update(state2, 60.5) == "continue"  # exactly at threshold
        state3 = NewBobState(current_lr=0.08, ramping=True)
        newbob_update(state3, 60.0)
        ok &= newbob_update(state3, 60.05) == "stop"
        # Non-increasing lr and absorbing stop.
        state4 = NewBobState(current_lr=0.08)
        lrs = [state4.current_lr]
        for acc in (10.0, 10.2, 10.25, 10.26, 50.0):
            newbob_update(state4, acc)
            lrs.append(state4.current_lr)
        ok &= all(b <= a for a, b in zip(lrs, lrs[1:]))
        ok &= state4.stopped and newbob_update(state4, 99.0) == "stop"
        ok &= state4.current_lr == lrs[-1]
        report("criterion 7: NewBob+ trace examples and state machine", ok)

    def test_08_analysis_suite(self, tmp_path):
        rng = np.random.default_rng(99)
        bank = rng.normal(size=(20, 50))
        magnitudes, _ = kernel_spectra(bank)
        worst = max(float(np.max(np.abs(got - direct_dft_magnitudes(kernel, 512))))
                    for kernel, got in zip(bank, magnitudes))
        ok = worst < 1e-9

        for _ in range(100):
            bank = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 40))))
            ok &= effective_lengths(bank).tolist() == [
                exhaustive_effective_length(kernel) for kernel in bank
            ]

        order, _ = exported_rows(tmp_path, cosine_bank([5000.0, 250.0, 2000.0, 1000.0]))
        ok &= order == [1, 3, 2, 0]
        report("criterion 8: analysis suite vs DFT and sub-window oracles", ok)

    def test_09_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        model = build_raw_model(
            "multi_span", [desk_scale_config(s, 50) for s in (4, 9)], 3,
            hidden_dims=(8, 8), seed=13,
        )
        windows = [
            rng.normal(size=(100, span)).astype(np.float32) for span in model.spans
        ]
        before = model.forward_batch(windows)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model)
        after = load_checkpoint(path).forward_batch(windows)
        report(
            "criterion 9: checkpoint round-trip is bit-identical on 100 inputs",
            np.array_equal(before, after),
        )
