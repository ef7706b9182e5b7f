#!/usr/bin/env python3
"""msam benchmark: training throughput, eval real-time factor, per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload paper-multispan --seed 1 --seconds 40 --trace 0

Each invocation is one workload in one fresh process, a closed loop of
mini-batches driven through the same library calls as `msam train` and
`msam eval`:

  setup  corpus generation and normalization, model build and the training
         FrameDataset; repeated SETUP_REPS times, the median is reported.
  train  `train_model`: the trainer's epoch loop with CV evaluation and, for
         multi-span models, the layer-by-layer pretraining transitions.
  eval   `save_checkpoint`, `load_checkpoint`, a FrameDataset over held-out
         audio generated from a second seed, and `evaluate_frames`.

Train and eval alternate as (train, eval) pairs until the next pair would
overrun --seconds; each pair starts from the same freshly built model, so
quality figures repeat exactly for one seed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced pairs and prints the per-layer metrics; the span hooks live in
spans.py and touch the library only from outside.

Every run checks its outputs: all losses finite, a bit-exact checkpoint
round trip with identical probabilities, and forward probabilities of
sampled frames against the float64 reference in reference.py.  A failed
check sets "correct" to false and the exit code to 1.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Run artefacts (checkpoint, spans, provenance) are
written to perfbench/out/.
"""

import argparse
import copy
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Cap BLAS at the cores this process may use; msam reads MSAM_THREADS at
# import and must be imported after this line.
NPROC = len(os.sched_getaffinity(0))
os.environ["MSAM_THREADS"] = str(NPROC)

SETUP_REPS = 5
MODEL_SEED = 3  # model init and SGD shuffling
# Training audio is the test-05 corpus seed for every run, so every run
# trains along the same trajectory: a dozen SGD steps at paper geometry
# land on losses that differ by 10-60% between training sets, which would
# drown the quality guards.  --seed drives the held-out eval audio, whose
# corpus seed is a multiple of a prime above 7, so it never equals TRAIN_SEED.
TRAIN_SEED = 7
EVAL_SEED_PRIME = 1_000_003
EVAL_LABEL_NOISE = 0.1  # see make_corpus
REF_FRAMES = 4
WARM_UP_S = 1.5
# float32 forward vs float64 reference: |p - p64| <= REF_ATOL + REF_RTOL * p64
REF_ATOL = 1e-7
REF_RTOL = 1e-4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json says why each exists."""

    kind: str  # "multi_span" or "fbank_dnn"
    scale: str  # stream geometry: "paper", "desk" or "tiny"
    num_classes: int
    audio_classes: int  # distinct synthetic sound classes
    train_corpus: tuple  # (utterances, seconds each)
    eval_corpus: tuple
    max_epochs: int
    label_noise: float = 0.0  # training frames relabelled uniformly over all classes
    hidden_dim: int = 512
    strides: tuple = (4, 9, 15)


WORKLOADS = {
    "paper-multispan": Workload(
        kind="multi_span", scale="paper", num_classes=3006, audio_classes=1,
        train_corpus=(1, 8.0), eval_corpus=(4, 5.0), max_epochs=3, label_noise=0.1,
    ),
    "desk-multispan": Workload(
        kind="multi_span", scale="desk", num_classes=3, audio_classes=3,
        train_corpus=(12, 5.0), eval_corpus=(96, 5.0), max_epochs=20,
    ),
    "paper-fbank": Workload(
        kind="fbank_dnn", scale="paper", num_classes=3006, audio_classes=8,
        train_corpus=(8, 6.0), eval_corpus=(16, 5.0), max_epochs=4, label_noise=0.1,
    ),
    # tests/conftest.py tiny geometry; used by perfbench/tests only.
    "smoke": Workload(
        kind="multi_span", scale="tiny", num_classes=3, audio_classes=3,
        train_corpus=(2, 0.5), eval_corpus=(2, 0.5), max_epochs=3, hidden_dim=4, strides=(2, 3, 4),
    ),
}


def import_msam():
    """Import msam from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "msam" / "__init__.py").is_file():
        raise SystemExit(f"error: no msam sources under {src}")
    sys.path.insert(0, str(src))
    import msam
    import msam.checkpoint
    import msam.dataio
    import msam.model
    import msam.trainer

    if Path(msam.__file__).resolve().parent != src / "msam":
        raise SystemExit(f"error: imported msam from {msam.__file__}, expected {src}")
    return msam


def stream_configs(w):
    from msam.streams import StreamConfig, desk_scale_config

    if w.scale == "desk":
        return [desk_scale_config(s, 50) for s in w.strides]
    if w.scale == "tiny":
        return [StreamConfig(first_stride=s, first_kernel_len=5, first_map_size=4,
                             first_num_kernels=2, second_stride=2, second_kernel_len=4,
                             second_map_size=3, second_num_kernels=3, projection_dim=2)
                for s in w.strides]
    return [StreamConfig(first_stride=s, first_kernel_len=50) for s in w.strides]


def make_corpus(msam, w, shape, seed, label_noise, tracer):
    """Synthetic corpus for one seed, then global normalization.

    A label_noise share of each utterance's frames, an exact count, is
    relabelled with classes drawn uniformly from all num_classes.  In
    training this makes every output class occur and keeps a floor under
    the loss: a 3006-class head trained on a few labels drives its
    gradients subnormal as the loss goes to zero.  In eval it makes the CE
    loss an average over many noisy frames; without it a handful of frames
    at segment boundaries carry 40% of the loss and the figure swings by
    25-55% between eval seeds.  The count is exact because a confident
    model's loss is almost all in the noisy frames, so a binomial count
    would move it by 7% between seeds.
    """
    import numpy as np

    with tracer.span("dataio.synth"):
        corpus = msam.dataio.synth_corpus(w.audio_classes, shape[0], shape[1], seed=seed)
        rng = np.random.default_rng((seed, w.num_classes))
        for u in corpus.utterances:
            noisy = rng.choice(u.num_frames, round(label_noise * u.num_frames), replace=False)
            u.labels[noisy] = rng.integers(w.num_classes, size=len(noisy))
        corpus.num_classes = w.num_classes
    with tracer.span("dataio.normalize"):
        return msam.dataio.normalize_global(corpus)


class NullTracer:
    def span(self, name):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def bind(self, model):
        pass


NULL_TRACER = NullTracer()


@dataclass
class Setup:
    train_corpus: object
    eval_corpus: object
    model: object
    dataset: object
    config: object


def setup(msam, w, seed, tracer):
    from msam.model import build_fbank_model, build_raw_model
    from msam.trainer import TrainConfig

    train_corpus = make_corpus(msam, w, w.train_corpus, TRAIN_SEED, w.label_noise, tracer)
    eval_corpus = make_corpus(msam, w, w.eval_corpus, (seed + 1) * EVAL_SEED_PRIME,
                              EVAL_LABEL_NOISE, tracer)
    if w.kind == "fbank_dnn":
        model = build_fbank_model(w.num_classes, hidden_dims=(w.hidden_dim,) * 4, seed=MODEL_SEED)
    else:
        # Multi-span starts at the subnet pretraining stage, as `msam train` does.
        model = build_raw_model(w.kind, stream_configs(w), w.num_classes,
                                hidden_dims=(), seed=MODEL_SEED)
    dataset = msam.trainer.FrameDataset(model, train_corpus)
    config = TrainConfig(learning_rate=0.02, momentum=0.9, weight_decay=1e-5,
                         batch_size=256, max_epochs=w.max_epochs, seed=MODEL_SEED)
    return Setup(train_corpus, eval_corpus, model, dataset, config)


def train_trial(msam, w, s, tracer):
    from msam.trainer import PretrainSchedule

    model = copy.deepcopy(s.model)
    tracer.bind(model)
    pretrain = None
    if w.kind == "multi_span":
        pretrain = PretrainSchedule(hidden_dim=w.hidden_dim, seed=MODEL_SEED)
    start = time.perf_counter()
    log = msam.trainer.train_model(model, s.train_corpus, s.config, pretrain=pretrain)
    return model, log, time.perf_counter() - start


def eval_trial(msam, model, s, tracer, path):
    import numpy as np

    start = time.perf_counter()
    msam.checkpoint.save_checkpoint(path, model)
    loaded = msam.checkpoint.load_checkpoint(path)
    tracer.bind(loaded)
    dataset = msam.trainer.FrameDataset(loaded, s.eval_corpus)
    loss, accuracy = msam.trainer.evaluate_frames(loaded, dataset, np.arange(len(dataset)))
    return loaded, dataset, loss, accuracy, time.perf_counter() - start


class Checks:
    """Correctness checks; each is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def check_losses(log, eval_loss, checks):
    for line in log:
        epoch, _, train_loss, cv_accuracy = line.split("\t")
        checks.check(f"epoch {epoch} train loss finite", math.isfinite(float(train_loss)), line)
        checks.check(f"epoch {epoch} CV accuracy finite", math.isfinite(float(cv_accuracy)), line)
    checks.check("eval loss finite", math.isfinite(eval_loss), repr(eval_loss))


def check_outputs(trained, loaded, dataset, checks):
    """Checkpoint round trip and float64 reference; returns the worst
    reference error as a share of its tolerance."""
    import numpy as np
    from reference import reference_probs

    before, after = trained.params(), loaded.params()
    same = set(before) == set(after) and all(
        before[k].dtype == np.float32 and after[k].dtype == np.float32
        and before[k].tobytes() == after[k].tobytes() for k in before
    )
    checks.check("checkpoint round trip: bit-identical float32 parameters", same)

    rows = np.unique(np.linspace(0, len(dataset) - 1, REF_FRAMES).astype(int))
    inputs = dataset.inputs(rows)
    probs = loaded.forward_batch(inputs)
    checks.check("checkpoint round trip: identical probabilities",
                 np.array_equal(probs, trained.forward_batch(inputs)))
    worst = 0.0
    for i in range(len(rows)):
        ref = reference_probs(loaded, inputs, i)
        share = float(np.max(np.abs(probs[i] - ref) / (REF_ATOL + REF_RTOL * ref)))
        worst = max(worst, share)
        checks.check(f"frame {rows[i]} probabilities vs float64 reference", share <= 1.0,
                     f"error is {share:.3g} x tolerance")
    return worst


def split_sizes(s):
    """(train, CV) frame counts of the training corpus, as make_state splits it."""
    n = len(s.dataset)
    n_cv = max(1, int(round(s.config.cv_fraction * n)))
    return n - n_cv, n_cv


def op_count(s, pair):
    """Train steps and eval batches one (train, eval) pair ran."""
    n_train, n_cv = split_sizes(s)
    per_epoch = math.ceil(n_train / s.config.batch_size) + math.ceil(n_cv / 1024)
    return len(pair["log"]) * per_epoch + math.ceil(pair["eval_frames"] / 1024)


def train_frames(s, log):
    return len(log) * split_sizes(s)[0]


def audio_seconds(corpus):
    return sum(len(u.signal.samples) / u.signal.sample_rate for u in corpus.utterances)


def blas_provenance():
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                break
    return info


def provenance():
    return {
        "nproc": NPROC,
        "MSAM_THREADS": os.environ.get("MSAM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **blas_provenance(),
    }


def warm_up(seconds=WARM_UP_S):
    """Spin BLAS before timing: on this class of VM the first second of
    matrix work runs up to 8x slower while threads and clocks come up."""
    import numpy as np

    a = np.ones((256, 512), dtype=np.float32)
    b = np.ones((512, 512), dtype=np.float32)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        a @ b


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pairs(msam, w, s, seconds, started, path, tracers, checks):
    """Alternate (train, eval) pairs, cycling through `tracers`, until the
    next round would end after `seconds`; at least one pair per tracer.
    The first pair's outputs are verified; no pair's models are kept, so
    peak RSS does not grow with the number of pairs."""
    pairs = []
    while True:
        tracer = tracers[len(pairs) % len(tracers)]
        with tracer:
            model, log, t_train = train_trial(msam, w, s, tracer)
            loaded, dataset, loss, acc, t_eval = eval_trial(msam, model, s, tracer, path)
        pairs.append(dict(traced=tracer is not NULL_TRACER, log=log, t_train=t_train,
                          eval_frames=len(dataset), loss=loss, accuracy=acc, t_eval=t_eval,
                          ckpt_bytes=path.stat().st_size))
        check_losses(log, loss, checks)
        if len(pairs) == 1:
            pairs[0]["ref_error"] = check_outputs(model, loaded, dataset, checks)
        del model, loaded, dataset
        if tracer is not NULL_TRACER:
            pairs[-1].update(totals=tracer.totals(), counters=dict(tracer.counters),
                             spans=list(tracer.spans), absent=list(tracer.absent))
        last = pairs[-len(tracers):]
        next_cost = sum(p["t_train"] + p["t_eval"] for p in last) / len(last)
        if len(pairs) >= len(tracers) and len(pairs) % len(tracers) == 0 \
                and time.perf_counter() - started + len(tracers) * next_cost > seconds:
            return pairs


def per_layer_metrics(w, s, setup_records, traced, untraced):
    """Per-layer figures for one unit of work: one setup (median over the
    traced set-ups) plus one (train, eval) pair (mean over traced pairs)."""
    from reference import conv1_recomputed

    def total(name, column, key="totals"):
        def pick(record):
            value = record[key].get(name)
            if value is None:
                return 0.0
            return value if key == "counters" else value[column]

        return (statistics.median(pick(r) for r in setup_records)
                + statistics.fmean(pick(p) for p in traced))

    def incl(name):
        return total(name, 0)

    def counter(name):
        return total(name, None, key="counters")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "dataio.synth.s": (incl("dataio.synth"), "s"),
        "dataio.normalize.s": (incl("dataio.normalize"), "s"),
        "trainer.dataset_init.s": (incl("trainer.dataset_init"), "s"),
        "trainer.inputs.s": (incl("trainer.inputs"), "s"),
        "trainer.inputs.calls": (total("trainer.inputs", 2), "count"),
        "trainer.inputs.frames": (counter("trainer.inputs.frames"), "count"),
        "trainer.sgd_step.s": (incl("trainer.sgd_step"), "s"),
        "trainer.sgd_step.bytes": (counter("trainer.sgd_step.bytes"), "bytes"),
        "trainer.evaluate_frames.s": (incl("trainer.evaluate_frames"), "s"),
        "trainer.pretrain_transition.s": (incl("trainer.pretrain_transition"), "s"),
    }
    for layer in ("conv1", "conv2"):
        for direction in ("fwd", "bwd"):
            name = f"conv.{layer}_{direction}"
            seconds, gflop = incl(name), counter(f"{name}.gflop")
            m[f"{name}.s"] = (seconds, "s")
            m[f"{name}.gflop"] = (gflop, "GFLOP")
            m[f"{name}.gflop_per_s"] = (ratio(gflop, seconds), "GFLOP/s")
    m["conv.conv1_bwd.discarded_frac"] = (
        ratio(counter("conv.conv1_bwd.input_grad_gflop"), counter("conv.conv1_bwd.gflop")), "frac")
    repeated, positions = 0, 0
    if w.kind != "fbank_dnn":
        repeated, positions = conv1_recomputed(
            [st.config for st in s.model.streams],
            [u.num_frames for u in s.eval_corpus.utterances])
    m["conv.conv1_fwd.recomputed_frac"] = (ratio(repeated, positions), "frac")
    m["model.features_batch.self_s"] = (total("model.features_batch", 1), "s")
    m["model.loss_and_grads.self_s"] = (total("model.loss_and_grads", 1), "s")
    for direction in ("fwd", "bwd"):
        name = f"network.head_{direction}"
        seconds, gflop = incl(name), counter(f"{name}.gflop")
        m[f"{name}.s"] = (seconds, "s")
        m[f"{name}.gflop"] = (gflop, "GFLOP")
        m[f"{name}.gflop_per_s"] = (ratio(gflop, seconds), "GFLOP/s")
    m["network.cross_entropy.s"] = (incl("network.cross_entropy"), "s")
    m["fbank.featurize.s"] = (incl("fbank.featurize"), "s")
    m["fbank.featurize.frames"] = (counter("fbank.featurize.frames"), "count")
    m["checkpoint.save.s"] = (incl("checkpoint.save"), "s")
    m["checkpoint.load.s"] = (incl("checkpoint.load"), "s")
    m["checkpoint.bytes"] = (statistics.fmean(p["ckpt_bytes"] for p in traced), "bytes")
    m["model.grad_subnormal_frac"] = (
        ratio(counter("grad.subnormal"), counter("grad.nonzero")), "frac")
    m["trace.overhead_frac"] = (
        statistics.median(p["t_train"] + p["t_eval"] for p in traced)
        / statistics.median(p["t_train"] + p["t_eval"] for p in untraced) - 1.0, "frac")
    m["trace.absent_hooks"] = (len(traced[-1]["absent"]), "count")
    return m


def write_spans(path, pair):
    """Spans of the last traced pair: name, start and end (seconds from its
    first span) and parent index (-1 for a root)."""
    t0 = pair["spans"][0][1] if pair["spans"] else 0.0
    path.write_text(json.dumps({
        "absent_hooks": pair["absent"],
        "spans": [[n, round(a - t0, 7), round(b - t0, 7), parent]
                  for n, a, b, parent in pair["spans"]],
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    msam = import_msam()
    sys.path.insert(0, str(HERE))
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ckpt_path = OUT / f"{stem}.ckpt"
    prov = provenance()
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")

    warm_up()
    started = time.perf_counter()
    tracer = Tracer(msam) if args.trace else NULL_TRACER
    setup_times, setup_records = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        with tracer:
            s = setup(msam, w, args.seed, tracer)
        setup_times.append(time.perf_counter() - t0)
        if args.trace:
            setup_records.append(dict(totals=tracer.totals(), counters=dict(tracer.counters)))

    checks = Checks()
    pairs = run_pairs(msam, w, s, args.seconds, started, ckpt_path,
                      [NULL_TRACER, tracer] if args.trace else [NULL_TRACER], checks)
    first = pairs[0]
    attempted = checks.attempted + sum(op_count(s, p) for p in pairs)
    failed = len(checks.failures)

    untraced = [p for p in pairs if not p["traced"]]
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "train_frames_per_s": (statistics.median(
                train_frames(s, p["log"]) / p["t_train"] for p in untraced), "frames/s"),
            "eval_rtf": (statistics.median(p["t_eval"] for p in untraced)
                         / audio_seconds(s.eval_corpus), "ratio"),
            "eval_ce_loss": (first["loss"], "nats"),
            "eval_accuracy_pct": (first["accuracy"], "%"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        traced = [p for p in pairs if p["traced"]]
        metrics = per_layer_metrics(w, s, setup_records, traced, untraced)
        write_spans(OUT / f"{stem}-spans.json", traced[-1])

    print(f"# pairs {len(pairs)}, epochs per trial {len(first['log'])}, "
          f"train frames per trial {train_frames(s, first['log'])}, "
          f"eval audio {audio_seconds(s.eval_corpus):.1f} s, "
          f"setup reps {[round(t, 4) for t in setup_times]}")
    for phase in ("t_train", "t_eval"):
        times = [p[phase] for p in pairs]
        print(f"# {phase[2:]} s per pair: median {statistics.median(times):.4g}, "
              f"min {min(times):.4g}, max {max(times):.4g}")
    print(f"# float64 reference: worst error {first['ref_error']:.3g} x tolerance "
          f"({REF_ATOL:g} + {REF_RTOL:g} * p)")
    print(f"# failed_ops_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for failure in checks.failures:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "workload": args.workload, "seed": args.seed,
         "metrics": metrics, "failures": checks.failures}, indent=1, sort_keys=True))
    ckpt_path.unlink(missing_ok=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
