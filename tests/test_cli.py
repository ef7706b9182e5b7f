import numpy as np
import pytest

from msam.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    format_model_spec,
    main,
    parse_model_spec,
    parse_synth_spec,
)
from msam.errors import ValidationError

SYNTH = "classes=3,utterances=3,duration=1.0,seed=5,snr_db=30"

DESK_MODEL_INI = """
[model]
scale = desk
hidden_dims = 16,16

[train]
learning_rate = 0.02
max_epochs = 3
seed = 1
"""


class TestModelSpecs:
    def test_multi_span_table_row(self):
        parsed = parse_model_spec("M_4,9,15^50,50,50")
        assert parsed == {
            "kind": "multi_span", "strides": [4, 9, 15], "kernel_lens": [50, 50, 50]
        }

    def test_braced_form_accepted(self):
        assert parse_model_spec("M_{4,9,15}^{50,50,50}") == parse_model_spec(
            "M_4,9,15^50,50,50"
        )

    def test_single_span_row(self):
        parsed = parse_model_spec("I_15^50")
        assert parsed == {"kind": "single_span", "strides": [15], "kernel_lens": [50]}

    def test_fbank_baseline(self):
        parsed = parse_model_spec("F_160^400")
        assert parsed == {"kind": "fbank_dnn", "frame_shift": 160, "frame_size": 400}

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            parse_model_spec("M_4,9^50,50,50")

    def test_garbage_rejected(self):
        for bad in ("X_1^2", "I_15", "M^50", "I_a^b", ""):
            with pytest.raises(ValidationError):
                parse_model_spec(bad)

    @pytest.mark.parametrize(
        "spec", ["I_15^50", "M_4,9,15^50,50,50", "F_160^400", "M_{4,9}^{50,100}"]
    )
    def test_parse_format_parse_fixed_point(self, spec):
        parsed = parse_model_spec(spec)
        formatted = format_model_spec(parsed)
        assert parse_model_spec(formatted) == parsed
        assert format_model_spec(parse_model_spec(formatted)) == formatted

    def test_synth_spec(self):
        parsed = parse_synth_spec(SYNTH)
        assert parsed == {
            "num_classes": 3, "num_utterances": 3, "duration": 1.0,
            "seed": 5, "snr_db": 30.0,
        }

    def test_synth_spec_missing_field(self):
        with pytest.raises(ValidationError):
            parse_synth_spec("classes=3")


@pytest.fixture(scope="module")
def desk_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "desk.ini"
    path.write_text(DESK_MODEL_INI)
    return str(path)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, desk_config):
    out = tmp_path_factory.mktemp("run")
    code = main([
        "train", "--config", desk_config, "--model", "M_4,9^50,50",
        "--synth", SYNTH, "--out", str(out),
    ])
    assert code == EXIT_OK
    return out


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, trained_run):
        assert (trained_run / "model.ckpt").exists()
        log_lines = (trained_run / "train.log").read_text().splitlines()
        assert log_lines
        for line in log_lines:
            assert len(line.split("\t")) == 4

    def test_validation_error_exit_code(self, tmp_path):
        assert main(["train", "--model", "M_4^50", "--synth", SYNTH,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_missing_corpus_exit_code(self, tmp_path):
        assert main(["train", "--model", "I_15^50", "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_negative_label_manifest_is_io_error(self, tmp_path):
        from msam.conv import Signal
        from msam.dataio import write_wav

        write_wav(tmp_path / "u.wav", Signal(np.full(320, 0.1)))
        (tmp_path / "u.labels").write_text("1\n-1\n")
        (tmp_path / "c.tsv").write_text("u.wav\tu.labels\tm0\n")
        assert main(["train", "--model", "I_15^50", "--corpus", str(tmp_path / "c.tsv"),
                     "--out", str(tmp_path / "run")]) == EXIT_IO

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.ini"),
                     "--model", "I_15^50", "--synth", SYNTH]) == EXIT_IO

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_is_numerical_error_without_outputs(self, tmp_path, capsys):
        config = tmp_path / "diverge.ini"
        config.write_text("[model]\nscale = desk\n\n[train]\nlearning_rate = 1e6\n"
                          "max_epochs = 3\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--model", "I_15^50",
                     "--synth", "classes=3,utterances=2,duration=0.5,seed=1",
                     "--out", str(out)]) == EXIT_NUMERICAL
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists() and not (out / "train.log").exists()

    def test_one_frame_corpus_is_validation_error(self, tmp_path, capsys):
        from msam.conv import Signal
        from msam.dataio import write_wav

        write_wav(tmp_path / "u.wav", Signal(np.linspace(-0.1, 0.1, 160)))
        (tmp_path / "u.labels").write_text("1\n")
        (tmp_path / "c.tsv").write_text("u.wav\tu.labels\tm0\n")
        assert main(["train", "--model", "I_15^50", "--corpus", str(tmp_path / "c.tsv"),
                     "--out", str(tmp_path / "run")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "1 frame" in err and "cv_fraction 0.1" in err


class TestConfigFile:
    @staticmethod
    def _train(tmp_path, ini):
        config = tmp_path / "run.ini"
        config.write_text(ini)
        return main(["train", "--config", str(config), "--model", "I_15^50",
                     "--synth", SYNTH, "--out", str(tmp_path / "run")])

    def test_unknown_section_rejected(self, tmp_path, capsys):
        ini = DESK_MODEL_INI.replace("[train]", "[training]")
        assert self._train(tmp_path, ini) == EXIT_VALIDATION
        assert "unknown section(s) ['training']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key", [
        ("train", "learnig_rate"), ("model", "hidden_dim"), ("data", "normalisation"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, section, key):
        ini = DESK_MODEL_INI + "\n[data]\nnormalization = global\n"
        ini = ini.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
        assert self._train(tmp_path, ini) == EXIT_VALIDATION
        assert f"config [{section}]: unknown key(s) ['{key}']" in capsys.readouterr().err

    def test_every_documented_key_accepted(self, tmp_path):
        from types import SimpleNamespace

        from msam.cli import load_run_config

        config = tmp_path / "full.ini"
        config.write_text(
            "[model]\nspec = M_4,9^50,50\nscale = desk\nhidden_dims = 8,8\nnum_classes = 3\n"
            "first_map_size = 25\nfirst_num_kernels = 16\nsecond_stride = 48\n"
            "second_kernel_len = 160\nsecond_map_size = 6\nsecond_num_kernels = 32\n"
            "projection_dim = 50\n\n[train]\nlearning_rate = 0.02\nmomentum = 0.9\n"
            "weight_decay = 1e-5\nbatch_size = 256\ncv_fraction = 0.1\nmax_epochs = 2\n"
            "seed = 0\n\n[data]\nsynth = " + SYNTH + "\nnormalization = global\n"
        )
        args = SimpleNamespace(config=str(config), model=None, corpus=None, synth=None,
                               out=None, seed=None, epochs=None)
        run = load_run_config(args)
        assert run.model["kind"] == "multi_span" and run.train.max_epochs == 2
        assert run.stream_overrides["projection_dim"] == 50


class TestEvalCommand:
    def test_eval_matches_logged_cv_path(self, trained_run, capsys):
        code = main(["eval", str(trained_run / "model.ckpt"), "--synth", SYNTH])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        metrics = dict(line.split("\t") for line in out.strip().splitlines())
        assert int(metrics["frames"]) == 3 * 100 * 1  # 3 utts x 1s x 100 frames
        assert 0.0 <= float(metrics["frame_accuracy"]) <= 100.0
        assert float(metrics["mean_ce_loss"]) >= 0.0

    def test_random_model_near_chance_on_balanced_corpus(self, tmp_path, capsys):
        from msam.checkpoint import save_checkpoint
        from msam.model import build_fbank_model

        model = build_fbank_model(4, hidden_dims=(8,), seed=123)
        path = tmp_path / "random.ckpt"
        save_checkpoint(path, model)
        synth = "classes=4,utterances=4,duration=2.0,seed=9"
        assert main(["eval", str(path), "--synth", synth]) == EXIT_OK
        out = capsys.readouterr().out
        metrics = dict(line.split("\t") for line in out.strip().splitlines())
        n = int(metrics["frames"])
        accuracy = float(metrics["frame_accuracy"]) / 100.0
        # Binomial bound: a random net should sit near 1/C. Freshly
        # initialized nets are not exactly label-independent, so allow a
        # generous but still chance-level band.
        p = 1.0 / 4.0
        se = np.sqrt(p * (1 - p) / n)
        assert abs(accuracy - p) < max(3 * se, 0.15)

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        assert main(["eval", str(tmp_path / "none.ckpt"), "--synth", SYNTH]) == EXIT_IO

    def test_class_count_mismatch_rejected(self, trained_run):
        synth = "classes=5,utterances=2,duration=1.0,seed=2"
        assert main(["eval", str(trained_run / "model.ckpt"),
                     "--synth", synth]) == EXIT_VALIDATION


class TestAnalyzeCommand:
    def test_analyze_writes_csvs(self, trained_run, tmp_path):
        out = tmp_path / "analysis"
        assert main(["analyze", str(trained_run / "model.ckpt"),
                     "--out", str(out)]) == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "effective_lengths_stream0.csv", "effective_lengths_stream1.csv",
            "mel_reference.csv", "spectra_stream0.csv", "spectra_stream1.csv",
        ]

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "none.ckpt"),
                     "--out", str(tmp_path)]) == EXIT_IO

    def test_fbank_checkpoint_rejected(self, tmp_path):
        from msam.checkpoint import save_checkpoint
        from msam.model import build_fbank_model

        path = tmp_path / "f.ckpt"
        save_checkpoint(path, build_fbank_model(3, hidden_dims=(4,), seed=0))
        assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == EXIT_VALIDATION
