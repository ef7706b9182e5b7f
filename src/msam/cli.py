"""Command-line entry point: corpus preparation, training, evaluation and
learned-filter analysis.

Model specs follow the experiment naming convention:

    I_S^L             single-span model, first-layer stride S, kernel length L
    M_S1,S2,S3^L1,L2,L3   multi-span model (braces accepted: M_{4,9,15}^{50,50,50})
    F_160^400         FBANK-DNN baseline (frame shift 160, frame size 400)

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numerical failure.
"""

import argparse
import configparser
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .analysis import export_analysis
from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import Corpus, load_manifest, normalize_global, normalize_utterance_meeting, synth_corpus
from .errors import FormatError, MsamError, ValidationError
from .fbank import FbankConfig
from .model import build_fbank_model, build_raw_model
from .streams import StreamConfig, desk_scale_config
from .trainer import FrameDataset, PretrainSchedule, TrainConfig, evaluate_frames, train_model

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

_SPEC_RE = re.compile(r"^([IMF])_\{?([0-9,]+)\}?\^\{?([0-9,]+)\}?$")


def parse_model_spec(spec: str) -> dict:
    """Parse an I/M/F model spec string into kind, strides and kernel sizes."""
    match = _SPEC_RE.match(spec.strip())
    if not match:
        raise ValidationError(f"malformed model spec {spec!r}")
    family, strides_s, lens_s = match.groups()
    strides = [int(v) for v in strides_s.split(",") if v]
    lens = [int(v) for v in lens_s.split(",") if v]
    if len(strides) != len(lens):
        raise ValidationError(
            f"model spec {spec!r}: {len(strides)} strides but {len(lens)} kernel sizes"
        )
    if any(v < 1 for v in strides + lens):
        raise ValidationError(f"model spec {spec!r}: values must be >= 1")
    if family == "F":
        if len(strides) != 1:
            raise ValidationError(f"model spec {spec!r}: FBANK takes one shift and one size")
        return {"kind": "fbank_dnn", "frame_shift": strides[0], "frame_size": lens[0]}
    if family == "I":
        if len(strides) != 1:
            raise ValidationError(f"model spec {spec!r}: single-span takes exactly one stream")
        return {"kind": "single_span", "strides": strides, "kernel_lens": lens}
    if len(strides) < 2:
        raise ValidationError(f"model spec {spec!r}: multi-span requires >= 2 streams")
    return {"kind": "multi_span", "strides": strides, "kernel_lens": lens}


def format_model_spec(parsed: dict) -> str:
    if parsed["kind"] == "fbank_dnn":
        return f"F_{parsed['frame_shift']}^{parsed['frame_size']}"
    family = "I" if parsed["kind"] == "single_span" else "M"
    strides = ",".join(str(v) for v in parsed["strides"])
    lens = ",".join(str(v) for v in parsed["kernel_lens"])
    return f"{family}_{strides}^{lens}"


def parse_synth_spec(spec: str) -> dict:
    """Parse "classes=3,utterances=12,duration=5.0,seed=1[,snr_db=30]"."""
    fields = {}
    for item in spec.split(","):
        if "=" not in item:
            raise ValidationError(f"synth spec item {item!r} is not key=value")
        key, value = item.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        return {
            "num_classes": int(fields["classes"]),
            "num_utterances": int(fields["utterances"]),
            "duration": float(fields["duration"]),
            "seed": int(fields.get("seed", 0)),
            "snr_db": float(fields.get("snr_db", 30.0)),
        }
    except KeyError as exc:
        raise ValidationError(f"synth spec missing field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ValidationError(f"synth spec: {exc}") from exc


@dataclass
class RunConfig:
    model: Optional[dict]
    train: TrainConfig = field(default_factory=TrainConfig)
    corpus_path: Optional[str] = None
    synth: Optional[dict] = None
    out_dir: str = "out"
    num_classes: Optional[int] = None
    normalization: str = "global"
    scale: str = "paper"  # or "desk"
    hidden_dims: tuple = (512, 512, 512, 512)
    stream_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model and self.model["kind"] == "multi_span" and len(self.model.get("strides", [])) < 2:
            raise ValidationError("multi_span requires at least two streams")
        if self.synth is None and self.corpus_path is None:
            raise ValidationError("either a corpus manifest or a synth spec is required")
        if self.scale not in ("paper", "desk"):
            raise ValidationError(f"unknown scale {self.scale!r}")
        if self.normalization not in ("global", "utterance_meeting", "none"):
            raise ValidationError(f"unknown normalization {self.normalization!r}")

    def stream_configs(self) -> List[StreamConfig]:
        configs = []
        for s, l in zip(self.model["strides"], self.model["kernel_lens"]):
            if self.scale == "desk":
                base = desk_scale_config(s, l)
                merged = {**base.__dict__, **self.stream_overrides}
                configs.append(StreamConfig(**merged))
            else:
                configs.append(StreamConfig(first_stride=s, first_kernel_len=l,
                                            **self.stream_overrides))
        return configs


_TRAIN_KEYS = {
    "learning_rate": float, "momentum": float, "weight_decay": float,
    "batch_size": int, "cv_fraction": float, "max_epochs": int, "seed": int,
}
_STREAM_KEYS = {
    "first_map_size": int, "first_num_kernels": int, "second_stride": int,
    "second_kernel_len": int, "second_map_size": int, "second_num_kernels": int,
    "projection_dim": int,
}
# Every INI section and key load_run_config reads; anything else is rejected.
_CONFIG_KEYS = {
    "model": {"spec", "scale", "hidden_dims", "num_classes", *_STREAM_KEYS},
    "train": set(_TRAIN_KEYS),
    "data": {"corpus", "synth", "normalization"},
}


def load_run_config(args, require_model: bool = True) -> RunConfig:
    """Assemble the run configuration from the INI file plus CLI overrides."""
    parser = configparser.ConfigParser()
    sections = {name: {} for name in _CONFIG_KEYS}
    if args.config:
        read = parser.read(args.config)
        if not read:
            raise FileNotFoundError(f"config file not found: {args.config}")
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
    model_spec = getattr(args, "model", None) or sections["model"].get("spec")
    if require_model and not model_spec:
        raise ValidationError("no model spec given (--model or [model] spec)")
    train_kwargs = {
        key: cast(sections["train"][key])
        for key, cast in _TRAIN_KEYS.items()
        if key in sections["train"]
    }
    if args.seed is not None:
        train_kwargs["seed"] = args.seed
    if args.epochs is not None:
        train_kwargs["max_epochs"] = args.epochs
    stream_overrides = {
        key: cast(sections["model"][key])
        for key, cast in _STREAM_KEYS.items()
        if key in sections["model"]
    }
    hidden_dims = tuple(
        int(v) for v in sections["model"].get("hidden_dims", "512,512,512,512").split(",")
    )
    num_classes = sections["model"].get("num_classes")
    synth = args.synth or sections["data"].get("synth")
    return RunConfig(
        model=parse_model_spec(model_spec) if model_spec else None,
        train=TrainConfig(**train_kwargs),
        corpus_path=args.corpus or sections["data"].get("corpus"),
        synth=parse_synth_spec(synth) if synth else None,
        out_dir=args.out or "out",
        num_classes=int(num_classes) if num_classes else None,
        normalization=sections["data"].get("normalization", "global"),
        scale=sections["model"].get("scale", "paper"),
        hidden_dims=hidden_dims,
        stream_overrides=stream_overrides,
    )


def prepare_corpus(run: RunConfig) -> Corpus:
    if run.synth is not None:
        corpus = synth_corpus(**run.synth)
    else:
        corpus = load_manifest(run.corpus_path, num_classes=run.num_classes)
    if run.normalization == "global":
        corpus = normalize_global(corpus)
    elif run.normalization == "utterance_meeting":
        corpus = normalize_utterance_meeting(corpus)
    return corpus


def cmd_train(run: RunConfig) -> int:
    corpus = prepare_corpus(run)
    num_classes = run.num_classes or corpus.num_classes
    seed = run.train.seed
    pretrain = None
    if run.model["kind"] == "fbank_dnn":
        fbank_config = FbankConfig(frame_shift=run.model["frame_shift"],
                                   frame_size=run.model["frame_size"])
        model = build_fbank_model(num_classes, fbank_config,
                                  hidden_dims=run.hidden_dims, seed=seed)
    elif run.model["kind"] == "single_span":
        model = build_raw_model("single_span", run.stream_configs(), num_classes,
                                hidden_dims=run.hidden_dims, seed=seed)
    else:
        # Multi-span starts at the subnet pretraining stage (no hidden layer).
        model = build_raw_model("multi_span", run.stream_configs(), num_classes,
                                hidden_dims=(), seed=seed)
        pretrain = PretrainSchedule(hidden_dim=run.hidden_dims[0], seed=seed)
    log = train_model(model, corpus, run.train, pretrain=pretrain)
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "model.ckpt"
    save_checkpoint(checkpoint_path, model)
    (out_dir / "train.log").write_text("\n".join(log) + "\n")
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

    def add_common(p, with_model=True):
        p.add_argument("--config", help="INI config file")
        if with_model:
            p.add_argument("--model", help="model spec, e.g. I_15^50 or M_4,9,15^50,50,50")
        p.add_argument("--corpus", help="corpus manifest path")
        p.add_argument("--synth", help="synthetic corpus spec, e.g. classes=3,utterances=12,duration=5,seed=1")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", type=int)

    add_common(sub.add_parser("train", help="train a model"))
    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    eval_p.add_argument("checkpoint")
    add_common(eval_p, with_model=False)
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
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MsamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
