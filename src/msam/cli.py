"""Command-line entry point: corpus preparation, training, evaluation and
learned-filter analysis.

Model specs follow the experiment naming convention:

    I_S^L             single-span model, first-layer stride S, kernel length L
    M_S1,S2,S3^L1,L2,L3   multi-span model (braces accepted: M_{4,9,15}^{50,50,50})
    F_160^400         FBANK-DNN baseline (frame shift 160, frame size 400);
                      the shift is always the 160-sample frame grid

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numerical failure.
"""

import argparse
import configparser
import inspect
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional

import numpy as np

from .analysis import export_analysis
from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import (
    FRAME_SHIFT,
    Corpus,
    load_manifest,
    new_file,
    normalize_global,
    normalize_utterance_meeting,
    read_text,
    synth_corpus,
)
from .errors import FormatError, MsamError, ValidationError
from .fbank import FbankConfig
from .model import build_fbank_model, build_raw_model
from .network import HIDDEN_DIMS
from .streams import StreamConfig, desk_scale_config
from .trainer import (PRETRAINED_DEPTH, FrameDataset, PretrainSchedule, TrainConfig,
                      evaluate_frames, train_model)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

# Each list is decimal values joined by commas, optionally inside one pair of braces.
_SPEC_RE = re.compile(r"([IMF])_(\{)?([0-9]+(?:,[0-9]+)*)(?(2)\})"
                      r"\^(\{)?([0-9]+(?:,[0-9]+)*)(?(4)\})")


def parse_model_spec(spec: str) -> dict:
    """Parse an I/M/F model spec string into kind, strides and kernel sizes."""
    match = _SPEC_RE.fullmatch(spec.strip())
    if not match:
        raise ValidationError(f"malformed model spec {spec!r}")
    family, _, strides_s, _, lens_s = match.groups()
    strides = [int(v) for v in strides_s.split(",")]
    lens = [int(v) for v in lens_s.split(",")]
    if len(strides) != len(lens):
        raise ValidationError(
            f"model spec {spec!r}: {len(strides)} strides but {len(lens)} kernel sizes"
        )
    if any(v < 1 for v in strides + lens):
        raise ValidationError(f"model spec {spec!r}: values must be >= 1")
    if family == "F":
        if len(strides) != 1:
            raise ValidationError(f"model spec {spec!r}: FBANK takes one shift and one size")
        if strides[0] != FRAME_SHIFT:
            raise ValidationError(
                f"model spec {spec!r}: the FBANK frame shift must be the "
                f"{FRAME_SHIFT}-sample label grid, F_{FRAME_SHIFT}^L"
            )
        return {"kind": "fbank_dnn", "frame_size": lens[0]}
    if family == "I":
        if len(strides) != 1:
            raise ValidationError(f"model spec {spec!r}: single-span takes exactly one stream")
        return {"kind": "single_span", "strides": strides, "kernel_lens": lens}
    if len(strides) < 2:
        raise ValidationError(f"model spec {spec!r}: multi-span requires >= 2 streams")
    return {"kind": "multi_span", "strides": strides, "kernel_lens": lens}


# Synth spec key -> the synth_corpus parameter it sets, whose annotation
# types the value and whose default, if any, holds when the key is absent.
_SYNTH_KEYS = {"classes": "num_classes", "utterances": "num_utterances",
               "duration": "duration", "seed": "seed", "snr_db": "snr_db"}


def parse_synth_spec(spec: str) -> dict:
    """Parse "classes=3,utterances=12,duration=5.0[,seed=1][,snr_db=30]" into
    synth_corpus arguments; only the keys given are passed."""
    params = inspect.signature(synth_corpus).parameters
    kwargs = {}
    for item in spec.split(","):
        key, _, value = (part.strip() for part in item.partition("="))
        if key not in _SYNTH_KEYS:
            raise ValidationError(f"synth spec: unknown key {key!r}; expected {list(_SYNTH_KEYS)}")
        if _SYNTH_KEYS[key] in kwargs:
            raise ValidationError(f"synth spec: key {key!r} given twice")
        try:
            kwargs[_SYNTH_KEYS[key]] = params[_SYNTH_KEYS[key]].annotation(value)
        except ValueError as exc:
            raise ValidationError(f"synth spec: {key} = {value!r}: {exc}") from exc
    for key, name in _SYNTH_KEYS.items():
        if name not in kwargs and params[name].default is params[name].empty:
            raise ValidationError(f"synth spec missing field {key!r}")
    return kwargs


# Each scale builds a stream from the spec's first-layer stride and kernel
# length; each normalization maps a corpus to the corpus training sees.
_SCALES = {"paper": StreamConfig, "desk": desk_scale_config}
_NORMALIZATIONS = {"global": normalize_global, "utterance_meeting": normalize_utterance_meeting}


@dataclass
class RunConfig:
    model: Optional[dict]
    train: TrainConfig = field(default_factory=TrainConfig)
    corpus_path: Optional[str] = None
    synth: Optional[dict] = None
    out_dir: str = "out"
    num_classes: Optional[int] = None
    normalization: str = "global"
    scale: str = "paper"
    hidden_dims: tuple = HIDDEN_DIMS

    def __post_init__(self):
        if self.synth is None and self.corpus_path is None:
            raise ValidationError("either a corpus manifest or a synth spec is required")
        for name, table in (("scale", _SCALES), ("normalization", _NORMALIZATIONS)):
            value = getattr(self, name)
            if value not in table:
                raise ValidationError(f"unknown {name} {value!r}; expected one of {sorted(table)}")
        if min(self.hidden_dims, default=1) < 1:
            raise ValidationError(
                f"hidden_dims must be positive widths, got {list(self.hidden_dims)}"
            )

    def stream_configs(self) -> List[StreamConfig]:
        return [_SCALES[self.scale](s, l)
                for s, l in zip(self.model["strides"], self.model["kernel_lens"])]


# How each INI value that is not a string is read; the [train] keys and
# their types are read off TrainConfig.
_TRAIN_KEYS = {f.name: f.type for f in fields(TrainConfig)}
_CASTS = {**_TRAIN_KEYS, "num_classes": int,
          "hidden_dims": lambda value: tuple(int(v) for v in value.split(","))}
# Every INI section and key load_run_config reads; anything else is rejected.
_CONFIG_KEYS = {
    "model": {"spec", "scale", "hidden_dims", "num_classes"},
    "train": set(_TRAIN_KEYS),
    "data": {"corpus", "synth", "normalization"},
}


def _read_ini(path) -> configparser.ConfigParser:
    """The parsed INI file; text that is not UTF-8 INI is a FormatError
    naming the file and line.  `;` starts a comment, also after a value
    and whitespace; `%` is literal."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(read_text(path), source=str(path))
    except (configparser.DuplicateSectionError, configparser.DuplicateOptionError) as exc:
        # "While reading from 'f.ini' [line  3]: section 'model' already exists"
        raise FormatError(f"{path} line {exc.lineno}: {exc.message.split(']: ', 1)[1]}") from exc
    except configparser.MissingSectionHeaderError as exc:
        raise FormatError(f"{path} line {exc.lineno}: no [section] header above it") from exc
    except configparser.ParsingError as exc:
        raise FormatError(
            f"{path} line {exc.errors[0][0]}: not a [section] header or key = value"
        ) from exc
    return parser


def load_run_config(args, require_model: bool = True) -> RunConfig:
    """Assemble the run configuration from the INI file plus CLI overrides."""
    sections = {name: {} for name in _CONFIG_KEYS}
    if args.config:
        parser = _read_ini(args.config)
        unknown = sorted(set(parser.sections()) - set(_CONFIG_KEYS))
        if unknown:
            raise ValidationError(
                f"config: unknown section(s) {unknown}; expected {sorted(_CONFIG_KEYS)}"
            )
        for name, known in _CONFIG_KEYS.items():
            if parser.has_section(name):
                sections[name] = dict(parser.items(name))
                unknown = sorted(set(sections[name]) - known)
                if unknown:
                    raise ValidationError(f"config [{name}]: unknown key(s) {unknown}")
            for key, value in sections[name].items():
                try:
                    sections[name][key] = _CASTS.get(key, str)(value)
                except ValueError as exc:
                    raise ValidationError(f"config: {key} = {value!r}: {exc}") from exc
    model, data, train = sections["model"], sections["data"], sections["train"]
    spec = getattr(args, "model", None) or model.get("spec")
    if require_model and not spec:
        raise ValidationError("no model spec given (--model or [model] spec)")
    # msam eval has no --seed, --epochs or --out.
    for key, value in (("seed", getattr(args, "seed", None)),
                       ("max_epochs", getattr(args, "epochs", None))):
        if value is not None:
            train[key] = value
    synth = args.synth or data.get("synth")
    settings = {
        "corpus_path": args.corpus or data.get("corpus"),
        "synth": parse_synth_spec(synth) if synth else None,
        "out_dir": getattr(args, "out", None),
        "num_classes": model.get("num_classes"),
        "normalization": data.get("normalization"),
        "scale": model.get("scale"),
        "hidden_dims": model.get("hidden_dims"),
    }
    # A setting that neither the file nor a flag gives keeps RunConfig's default.
    return RunConfig(model=parse_model_spec(spec) if spec else None, train=TrainConfig(**train),
                     **{key: value for key, value in settings.items() if value is not None})


def prepare_corpus(run: RunConfig) -> Corpus:
    """The run's corpus, normalised in place: nothing else holds it."""
    if run.synth is not None:
        corpus = synth_corpus(**run.synth)
    else:
        corpus = load_manifest(run.corpus_path, num_classes=run.num_classes)
    return _NORMALIZATIONS[run.normalization](corpus)


def cmd_train(run: RunConfig) -> int:
    corpus = prepare_corpus(run)
    num_classes = run.num_classes or corpus.num_classes
    seed = run.train.seed
    pretrain = None
    if run.model["kind"] == "fbank_dnn":
        model = build_fbank_model(num_classes, FbankConfig(frame_size=run.model["frame_size"]),
                                  hidden_dims=run.hidden_dims, seed=seed)
    else:
        hidden_dims = run.hidden_dims
        if run.model["kind"] == "multi_span":
            # Multi-span starts at the subnet pretraining stage (no hidden layer),
            # and each of its two transitions inserts two hidden_dim-wide layers.
            if len(hidden_dims) != PRETRAINED_DEPTH or len(set(hidden_dims)) != 1:
                raise ValidationError(
                    f"multi-span hidden_dims must be four equal widths, since pretraining "
                    f"inserts two pairs of equal-width layers; got {list(hidden_dims)}"
                )
            pretrain = PretrainSchedule(hidden_dim=hidden_dims[0], seed=seed)
            hidden_dims = ()
        model = build_raw_model(run.model["kind"], run.stream_configs(), num_classes,
                                hidden_dims=hidden_dims, seed=seed)
    log = train_model(model, corpus, run.train, pretrain=pretrain)
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "model.ckpt"
    save_checkpoint(checkpoint_path, model)
    with new_file(out_dir / "train.log", "w") as fh:
        fh.write("\n".join(log) + "\n")
    for line in log:
        print(line)
    print(f"checkpoint\t{checkpoint_path}")
    return EXIT_OK


def cmd_eval(checkpoint_path: str, run: RunConfig) -> int:
    model = load_checkpoint(checkpoint_path)
    corpus = prepare_corpus(run)
    if corpus.num_classes > model.num_classes:
        raise ValidationError(
            f"corpus has {corpus.num_classes} classes but the model outputs "
            f"{model.num_classes}"
        )
    dataset = FrameDataset(model, corpus)
    del corpus  # the dataset holds what evaluation reads, in the model dtype
    loss, accuracy = evaluate_frames(model, dataset, np.arange(len(dataset)))
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite evaluation loss")
    print(f"frames\t{len(dataset)}")
    print(f"frame_accuracy\t{accuracy:.4f}")
    print(f"mean_ce_loss\t{loss:.6f}")
    return EXIT_OK


def cmd_analyze(checkpoint_path: str, out_dir: str) -> int:
    model = load_checkpoint(checkpoint_path)
    for path in export_analysis(model, out_dir):
        print(f"wrote\t{path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msam", description="Multi-span raw-waveform acoustic front-end."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train_p = sub.add_parser("train", help="train a model")
    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    eval_p.add_argument("checkpoint")
    for p in (train_p, eval_p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--corpus", help="corpus manifest path")
        p.add_argument("--synth", help="synthetic corpus spec, e.g. classes=3,utterances=12,duration=5,seed=1")
    train_p.add_argument("--model", help="model spec, e.g. I_15^50 or M_4,9,15^50,50,50")
    train_p.add_argument("--out", help="output directory")
    train_p.add_argument("--seed", type=int)
    train_p.add_argument("--epochs", type=int)
    analyze_p = sub.add_parser("analyze", help="export learned-filter diagnostics")
    analyze_p.add_argument("checkpoint")
    analyze_p.add_argument("--out", default="analysis")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(load_run_config(args))
        if args.command == "eval":
            run = load_run_config(args, require_model=False)
            return cmd_eval(args.checkpoint, run)
        return cmd_analyze(args.checkpoint, args.out)
    except (MsamError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (OSError, FormatError)):
            return EXIT_IO
        if isinstance(exc, FloatingPointError):
            return EXIT_NUMERICAL
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
