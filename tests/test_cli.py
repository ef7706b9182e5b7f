import argparse
import re
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msam.cli
import msam.trainer
from msam.cli import (
    _CONFIG_KEYS,
    _NORMALIZATIONS,
    _SCALES,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    RunConfig,
    build_parser,
    load_run_config,
    main,
    parse_model_spec,
    parse_synth_spec,
)
from msam.checkpoint import load_checkpoint
from msam.errors import FormatError, ValidationError
from msam.streams import StreamConfig, desk_scale_config

from conftest import BYTE_OPS, DATA, line_ops, mutate, with_config, write_wav

README = Path(__file__).parents[1] / "README.md"


def readme_ini_block() -> str:
    return re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)

SYNTH = "classes=3,utterances=3,duration=1.0,seed=5,snr_db=30"

DESK_MODEL_INI = """
[model]
scale = desk
hidden_dims = 16,16,16,16

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
        assert parsed == {"kind": "fbank_dnn", "frame_size": 400}

    @pytest.mark.parametrize("spec", ["F_80^400", "F_320^400"])
    def test_fbank_shift_off_the_frame_grid_rejected(self, tmp_path, capsys, spec):
        with pytest.raises(ValidationError, match="F_160"):
            parse_model_spec(spec)
        assert main(["train", "--model", spec, "--synth", SYNTH,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "160-sample label grid" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_fbank_frame_longer_than_the_fft_names_the_limit(self, tmp_path, capsys):
        """F_160^600 said "frame_size must not exceed fft_size", a setting no
        flag or key sets."""
        assert main(["train", "--model", "F_160^600", "--synth", SYNTH,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "frame_size 600 exceeds the 512-sample FFT" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            parse_model_spec("M_4,9^50,50,50")

    def test_garbage_rejected(self):
        for bad in ("X_1^2", "I_15", "M^50", "I_a^b", ""):
            with pytest.raises(ValidationError):
                parse_model_spec(bad)

    @pytest.mark.parametrize("spec", ["M_4,,9^50,,50", "M_,4,9,^50,50,", "I_15,^50",
                                      "M_{4,9^50,50}", "M_4,9}^{50,50"])
    def test_empty_field_or_unbalanced_brace_rejected(self, tmp_path, capsys, spec):
        """These parsed as if the empty fields and stray braces were not there."""
        with pytest.raises(ValidationError, match="malformed model spec"):
            parse_model_spec(spec)
        assert main(["train", "--model", spec, "--synth", SYNTH,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "malformed model spec" in capsys.readouterr().err

    def test_synth_spec(self):
        parsed = parse_synth_spec(SYNTH)
        assert parsed == {
            "num_classes": 3, "num_utterances": 3, "duration": 1.0,
            "seed": 5, "snr_db": 30.0,
        }

    def test_synth_spec_missing_field(self):
        with pytest.raises(ValidationError):
            parse_synth_spec("classes=3")

    def test_synth_spec_passes_only_the_keys_given(self):
        """synth_corpus holds the seed and snr_db defaults; the parser kept
        copies of them."""
        assert parse_synth_spec("classes=3,utterances=2,duration=1.5") == {
            "num_classes": 3, "num_utterances": 2, "duration": 1.5,
        }

    @pytest.mark.parametrize("key", ["snr", "sed"])
    def test_unknown_synth_key_is_validation_error(self, tmp_path, capsys, key):
        """`snr=5,sed=9` trained silently at seed 0 and 30 dB."""
        out = tmp_path / "run"
        assert main(["train", "--model", "I_15^50", "--synth",
                     f"classes=3,utterances=1,duration=1,{key}=5",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["classes", "seed"])
    def test_repeated_synth_key_is_validation_error(self, tmp_path, capsys, key):
        """The last of a repeated key silently won: `classes=3,...,classes=5`
        gave 5 classes."""
        out = tmp_path / "run"
        assert main(["train", "--model", "I_15^50", "--synth",
                     f"classes=3,utterances=1,duration=1,seed=2,{key}=5",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"key '{key}' given twice" in capsys.readouterr().err
        assert not out.exists()


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

    def test_rerun_replaces_the_files_a_reader_has_open(self, tmp_path, desk_config):
        """A second run into the same directory truncated model.ckpt and
        train.log and wrote over them, so a reader that had either open read
        the second run's bytes, or part of them."""
        def train(out, seed):
            assert main(["train", "--config", desk_config, "--model", "I_15^50",
                         "--synth", SYNTH, "--out", str(out), "--epochs", "1",
                         "--seed", seed]) == EXIT_OK

        run, names = tmp_path / "run", ["model.ckpt", "train.log"]
        train(run, "1")
        old = [(run / name).read_bytes() for name in names]
        with open(run / names[0], "rb") as ckpt, open(run / names[1], "rb") as log:
            train(run, "2")
            assert [ckpt.read(), log.read()] == old
        train(tmp_path / "fresh", "2")
        new = [(run / name).read_bytes() for name in names]
        assert new == [(tmp_path / "fresh" / name).read_bytes() for name in names]
        assert all(n != o for n, o in zip(new, old))
        assert sorted(p.name for p in run.iterdir()) == names

    def test_validation_error_exit_code(self, tmp_path):
        assert main(["train", "--model", "M_4^50", "--synth", SYNTH,
                     "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_missing_corpus_exit_code(self, tmp_path):
        assert main(["train", "--model", "I_15^50", "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_negative_label_manifest_is_io_error(self, tmp_path):
        from msam.dataio import Signal

        write_wav(tmp_path / "u.wav", Signal(np.full(320, 0.1)))
        (tmp_path / "u.labels").write_text("1\n-1\n")
        (tmp_path / "c.tsv").write_text("u.wav\tu.labels\tm0\n")
        assert main(["train", "--model", "I_15^50", "--corpus", str(tmp_path / "c.tsv"),
                     "--out", str(tmp_path / "run")]) == EXIT_IO

    @pytest.mark.parametrize("name, data, message", [
        ("u.wav", b"", "manifest line 1: header: "),
        ("u.labels", b"0\nx\n", "manifest line 1: labels: "),
        ("u.labels", b"0\n\xff\n", "u.labels line 2: not UTF-8"),
    ])
    def test_malformed_corpus_file_is_io_error(self, tmp_path, capsys, name, data, message):
        """A 0-byte WAV escaped main as an EOFError traceback; a non-integer
        or non-UTF-8 label file exited 1 with a NumPy or codec message."""
        from msam.dataio import Signal

        write_wav(tmp_path / "u.wav", Signal(np.full(320, 0.1)))
        (tmp_path / "u.labels").write_text("0\n1\n")
        (tmp_path / name).write_bytes(data)
        (tmp_path / "c.tsv").write_text("u.wav\tu.labels\tm0\n")
        assert main(["train", "--model", "I_15^50", "--corpus", str(tmp_path / "c.tsv"),
                     "--out", str(tmp_path / "run")]) == EXIT_IO
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "nan"), ("momentum", "inf"), ("weight_decay", "nan"),
        ("learning_rate", "0"),
    ])
    def test_non_finite_or_zero_training_setting_rejected(self, tmp_path, capsys, key, value):
        """NaN or infinite settings trained a full epoch, then exited 3 with
        non-finite parameters; learning_rate = 0 named an internal field."""
        config = tmp_path / "run.ini"
        config.write_text(f"[model]\nscale = desk\n\n[train]\n{key} = {value}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--model", "I_15^50",
                     "--synth", SYNTH, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {key} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("synth, field", [
        ("classes=3,utterances=1,duration=inf", "duration"),
        ("classes=3,utterances=1,duration=nan", "duration"),
        ("classes=3,utterances=1,duration=0.5,snr_db=nan", "snr_db"),
        ("classes=3,utterances=2,duration=1,snr_db=-inf", "snr_db"),
    ])
    def test_non_finite_synth_spec_is_validation_error(self, tmp_path, capsys, synth, field):
        """An infinite duration overflowed in synth_corpus with a traceback,
        and a NaN or -inf snr_db silently meant no noise (only snr_db=inf
        means that)."""
        out = tmp_path / "run"
        assert main(["train", "--model", "I_15^50", "--synth", synth,
                     "--out", str(out)]) == EXIT_VALIDATION
        assert f"synth {field}" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_synth_duration_under_one_frame_is_validation_error(self, tmp_path, capsys):
        """A duration shorter than one 160-sample frame failed as an empty
        Signal ("samples must be a non-empty 1-D array"), naming no field."""
        out = tmp_path / "run"
        assert main(["train", "--model", "I_15^50", "--synth",
                     "classes=3,utterances=1,duration=0.005", "--out", str(out)]) == EXIT_VALIDATION
        assert "synth duration" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    def test_synth_duration_too_large_for_memory_is_validation_error(self, tmp_path, capsys):
        """Each utterance's samples escaped main as a MemoryError traceback
        ("Unable to allocate 114. PiB")."""
        out = tmp_path / "run"
        assert main(["train", "--model", "I_15^50", "--synth",
                     "classes=3,utterances=1,duration=1e12", "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: a synth duration of 1000000000000.0 s is "
                              "16000000000000000 samples per utterance")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_one_frame_corpus_is_validation_error(self, tmp_path, capsys):
        from msam.dataio import Signal

        write_wav(tmp_path / "u.wav", Signal(np.linspace(-0.1, 0.1, 160)))
        (tmp_path / "u.labels").write_text("1\n")
        (tmp_path / "c.tsv").write_text("u.wav\tu.labels\tm0\n")
        assert main(["train", "--model", "I_15^50", "--corpus", str(tmp_path / "c.tsv"),
                     "--out", str(tmp_path / "run")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "1 frame" in err and "cv_fraction 0.1" in err

    @pytest.mark.parametrize("stride", [2**40, 2**63])
    def test_span_too_large_for_memory_is_validation_error(self, tmp_path, capsys, stride):
        """The padded corpus buffer escaped main as a MemoryError traceback
        ("Unable to allocate 796. TiB") at a 2**40 stride, and as an
        OverflowError at 2**63."""
        out = tmp_path / "run"
        assert main(["train", "--model", f"I_{stride}^50", "--synth",
                     "classes=3,utterances=1,duration=0.5", "--out", str(out)]) == EXIT_VALIDATION
        span = StreamConfig(stride, 50).input_span
        assert capsys.readouterr().err.startswith(f"error: a span of {span} samples pads ")
        assert not out.exists()


class TestConfigFile:
    @staticmethod
    def _train(tmp_path, ini, model="I_15^50"):
        config = tmp_path / "run.ini"
        config.write_text(ini)
        return main(["train", "--config", str(config), "--model", model,
                     "--synth", SYNTH, "--out", str(tmp_path / "run")])

    @staticmethod
    def _hidden_dims(dims):
        return DESK_MODEL_INI.replace("hidden_dims = 16,16,16,16", f"hidden_dims = {dims}")

    @pytest.mark.parametrize("hidden_dims", ["64,32", "16,16", "8,8,8,4", "8,8,8,8,8"])
    def test_multi_span_hidden_dims_must_be_four_equal_widths(self, tmp_path, capsys,
                                                              hidden_dims):
        assert self._train(tmp_path, self._hidden_dims(hidden_dims),
                           model="M_4,9^50,50") == EXIT_VALIDATION
        assert "four equal widths" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("model, hidden_dims", [
        ("M_4,9^50,50", "0,0,0,0"), ("I_15^50", "16,0"), ("F_160^400", "-4"),
    ])
    def test_zero_or_negative_hidden_width_rejected(self, tmp_path, capsys, model, hidden_dims):
        assert self._train(tmp_path, self._hidden_dims(hidden_dims), model=model) == EXIT_VALIDATION
        assert "hidden_dims must be positive widths" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["I_15^50", "F_160^400"])
    def test_other_models_keep_any_hidden_dims(self, tmp_path, model):
        from msam.checkpoint import load_checkpoint

        ini = self._hidden_dims("12,6").replace("max_epochs = 3", "max_epochs = 1")
        assert self._train(tmp_path, ini, model=model) == EXIT_OK
        head = load_checkpoint(tmp_path / "run" / "model.ckpt").head
        assert [w.shape[0] for w in head.hidden_weights] == [12, 6]

    def test_unknown_section_rejected(self, tmp_path, capsys):
        ini = DESK_MODEL_INI.replace("[train]", "[training]")
        assert self._train(tmp_path, ini) == EXIT_VALIDATION
        assert "unknown section(s) ['training']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key", [
        ("train", "learnig_rate"), ("model", "hidden_dim"), ("data", "normalisation"),
        ("model", "projection_dim"),
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
            "\n[train]\nlearning_rate = 0.02\nmomentum = 0.9\n"
            "weight_decay = 1e-5\nbatch_size = 256\ncv_fraction = 0.1\nmax_epochs = 2\n"
            "seed = 0\n\n[data]\nsynth = " + SYNTH + "\nnormalization = global\n"
        )
        args = SimpleNamespace(config=str(config), model=None, corpus=None, synth=None,
                               out=None, seed=None, epochs=None)
        run = load_run_config(args)
        assert run.model["kind"] == "multi_span" and run.train.max_epochs == 2
        assert run.stream_configs() == [desk_scale_config(4, 50), desk_scale_config(9, 50)]

    @pytest.mark.parametrize("ini, line, message", [
        ("spec = I_15^50\n", 1, "no [section] header above it"),
        ("[model]\nspec = I_15^50\n\n[model]\nscale = desk\n", 4, "section 'model' already exists"),
        ("[model]\nspec = I_15^50\nspec = I_15^50\n", 3,
         "option 'spec' in section 'model' already exists"),
        ("[model]\nspec = I_15^50\nseed\n", 3, "not a [section] header or key = value"),
        ("[model]\nspec = I_15^50\n[train]\nseed = \xff\n", 4, "not UTF-8 text"),
    ], ids=["no-header", "repeated-section", "repeated-key", "bare-word", "not-utf8"])
    def test_malformed_ini_is_format_error(self, tmp_path, capsys, ini, line, message):
        """The first four escaped main as configparser tracebacks; a file that
        is not UTF-8 exited 1 with a codec message."""
        config = tmp_path / "run.ini"
        config.write_bytes(ini.encode("latin-1"))
        assert main(["train", "--config", str(config), "--synth", SYNTH,
                     "--out", str(tmp_path / "run")]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {config} line {line}: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_percent_in_a_value_is_literal(self, tmp_path):
        """A corpus path holding `%` raised InterpolationSyntaxError."""
        config = tmp_path / "run.ini"
        config.write_text("[data]\ncorpus = 100%/c.tsv\n")
        run = load_run_config(build_parser().parse_args(["eval", "m.ckpt", "--config", str(config)]),
                              require_model=False)
        assert run.corpus_path == "100%/c.tsv"

    @pytest.mark.parametrize("section, key, value", [
        ("train", "batch_size", "1.5"), ("train", "momentum", ""),
        ("model", "num_classes", "x"), ("model", "hidden_dims", "8,,8"),
    ])
    def test_uncastable_value_names_its_key(self, tmp_path, capsys, section, key, value):
        ini = DESK_MODEL_INI + "\n[data]\nnormalization = global\n"
        ini = ini.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        ini = ini.replace("hidden_dims = 16,16,16,16\n", "") if key == "hidden_dims" else ini
        assert self._train(tmp_path, ini) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: config: {key} = {value!r}: ")

    def test_readme_block_loads(self, tmp_path):
        """The README's block, with its `;` comments after values, is a valid
        config; the `;` used to become part of the value."""
        (tmp_path / "run.ini").write_text(readme_ini_block())
        run = load_run_config(build_parser().parse_args(["train", "--config",
                                                         str(tmp_path / "run.ini")]))
        assert (run.scale, run.hidden_dims, run.normalization) == ("desk", (512,) * 4, "global")
        assert run.corpus_path == "corpus.tsv" and run.synth is None
        assert run.model == parse_model_spec("M_4,9,15^50,50,50")

    @settings(max_examples=300, deadline=None)
    @given(ops=st.one_of(line_ops([
        b"", b"=", b"[model]", b"[train]", b"[data]", b"[DEFAULT]", b"[", b"spec", b"seed",
        b"synth", b"%", b"%(x)s", b";", b"nan", b"inf", b"-1", b"0", b"1.5", b"1e400",
        b"99999999999999999999", b"x", b"I_15^50", b"F_160^400", b"desk", b"\xff", b"\t",
        b"classes=3,utterances=1,duration=1", b"classes=3,snr=5",
    ]), BYTE_OPS))
    def test_load_run_config_fuzz(self, tmp_path_factory, ops):
        """Line, token and byte mutations of the README block give a
        RunConfig, a ValidationError or a FormatError, never another
        exception."""
        config = tmp_path_factory.mktemp("ini") / "run.ini"
        config.write_bytes(mutate(readme_ini_block().encode(), ops, sep=b" "))
        try:
            run = load_run_config(build_parser().parse_args(["train", "--config", str(config)]))
        except (ValidationError, FormatError):
            return
        assert isinstance(run, RunConfig) and run.model is not None

    def test_readme_documents_exactly_the_parsed_keys(self):
        """Each `key = value` or `; key = value` line under a `[section]` of
        the README's ini block is one documented key; they must be the keys
        load_run_config accepts, section by section."""
        documented, section = {}, None
        for line in readme_ini_block().splitlines():
            if header := re.fullmatch(r"\[(\w+)\]", line.strip()):
                section = header.group(1)
                documented[section] = set()
            elif key := re.match(r";?\s*(\w+)\s*=", line.strip()):
                documented[section].add(key.group(1))
        assert documented == _CONFIG_KEYS

    @pytest.mark.parametrize("key,table", [("scale", _SCALES), ("normalization", _NORMALIZATIONS)])
    def test_readme_lists_exactly_the_values_of_each_table(self, key, table):
        """The `a | b` list that opens the comment after `key = ...` in the
        README's ini block names exactly the values the parser's table
        takes; a stale `| none` went unnoticed."""
        comment = re.search(rf"^{key} = [^;]*; (.*)$", readme_ini_block(), re.M).group(1)
        listed = re.match(r"\w+(?:\s*\|\s*\w+)*", comment).group()
        assert {value.strip() for value in listed.split("|")} == set(table)


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

    def test_corpus_is_dropped_before_evaluation(self, trained_run):
        """Evaluation reads the dataset's buffer; the corpus's float64
        samples are gone by then."""
        prepared, evaluated = [], []
        original = msam.cli.prepare_corpus

        def prepare(run):
            corpus = original(run)
            prepared.append(weakref.ref(corpus))
            return corpus

        def evaluate(*args, **kwargs):
            evaluated.append(prepared[0]() is None)
            return msam.trainer.evaluate_frames(*args, **kwargs)

        with mock.patch.object(msam.cli, "prepare_corpus", prepare), \
             mock.patch.object(msam.cli, "evaluate_frames", evaluate):
            assert main(["eval", str(trained_run / "model.ckpt"), "--synth", SYNTH]) == EXIT_OK
        assert evaluated == [True]

    @pytest.mark.parametrize("flag, value", [("--out", "DIR"), ("--seed", "99"),
                                             ("--epochs", "7")])
    def test_training_flags_rejected(self, trained_run, tmp_path, capsys, flag, value):
        """eval accepted these, read none of them and exited 0."""
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(trained_run / "model.ckpt"), "--synth", SYNTH,
                  flag, str(tmp_path / value)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / value).exists()

    def test_class_count_mismatch_rejected(self, trained_run):
        synth = "classes=5,utterances=2,duration=1.0,seed=2"
        assert main(["eval", str(trained_run / "model.ckpt"),
                     "--synth", synth]) == EXIT_VALIDATION

    def test_span_too_large_for_memory_in_a_checkpoint_is_validation_error(self, tmp_path,
                                                                           capsys):
        """No tensor shape depends on a stride, so a digest-consistent
        checkpoint with a 2**40 stride loads; `msam eval` then died with a
        MemoryError traceback."""
        path = tmp_path / "m.ckpt"
        path.write_bytes(with_config((DATA / "trained_multi_span.ckpt").read_bytes(),
                                     lambda c: c["streams"][0].update(first_stride=2**40)))
        assert load_checkpoint(path).streams[0].config.first_stride == 2**40
        assert main(["eval", str(path), "--synth", SYNTH]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: a span of ")


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


def test_readme_lists_each_commands_flags():
    """Each `- `msam COMMAND ...`: flags` line of the README lists exactly
    that subcommand's options."""
    documented = {m.group(1): set(re.findall(r"--[a-z-]+", m.group(2)))
                  for m in re.finditer(r"^- `msam (\w+)[^`]*`: (.*)$", README.read_text(), re.M)}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
              for name, p in commands.items()}
    assert documented == parsed
