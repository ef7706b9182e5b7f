#!/usr/bin/env python3
"""Desk-scale experiment: train the reduced multi-span model and the
FBANK-DNN baseline on the synthetic corpus, then export filter diagnostics.

Usage: python scripts/run_desk_scale.py [out_dir]
"""

import sys
from pathlib import Path

from msam.analysis import export_analysis
from msam.checkpoint import save_checkpoint
from msam.dataio import normalize_global, synth_corpus
from msam.model import build_fbank_model, build_raw_model
from msam.streams import desk_scale_config
from msam.trainer import PretrainSchedule, TrainConfig, train_model


def main():
    out_dir = Path(sys.argv[1] if len(sys.argv) > 1 else "desk_scale_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = normalize_global(synth_corpus(3, 12, 5.0, seed=7))
    config = TrainConfig(seed=3)

    print("# multi-span M_4,9,15^50,50,50 (reduced geometry)")
    multispan = build_raw_model(
        "multi_span", [desk_scale_config(s, 50) for s in (4, 9, 15)], 3,
        hidden_dims=(), seed=3,
    )
    for line in train_model(multispan, corpus, config, pretrain=PretrainSchedule(seed=3)):
        print(line)
    save_checkpoint(out_dir / "multispan.ckpt", multispan)
    for path in export_analysis(multispan, out_dir / "analysis"):
        print(f"wrote\t{path}")

    print("# FBANK-DNN baseline F_160^400")
    fbank = build_fbank_model(3, seed=3)
    for line in train_model(fbank, corpus, config):
        print(line)
    save_checkpoint(out_dir / "fbank.ckpt", fbank)


if __name__ == "__main__":
    main()
