"""In-memory span tracer that hooks msam's layer boundaries from outside.

The tracer wraps public functions and methods at the names where
`msam.model`, `msam.trainer` and `msam.checkpoint` look them up at call
time, so the library itself carries no tracing code.  A hook whose target
no longer exists (renamed or removed by a later change) is reported as
absent and skipped; it never fails the run.

Work counts recorded at the hooks are closed-form: FLOPs come from the
stream geometry (`StreamConfig`) and head shapes, bytes from array sizes.
They are labelled as computed, not measured.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

F32_TINY = np.finfo(np.float32).tiny


class Tracer:
    """Records (name, start, end, parent) spans and named counters.

    Used as a context manager: entering clears the record and installs the
    hooks, leaving restores the original functions.
    """

    def __init__(self, msam):
        self.msam = msam
        self.spans = []  # [name, start, end, parent_index]
        self.stack = []
        self.counters = defaultdict(float)
        self.banks = {}  # id(KernelBank) -> (layer name, StreamConfig, bank)
        self.absent = []
        self._patches = []

    # -- spans ------------------------------------------------------------
    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, call count).

        Self time is a span's duration minus the time its child spans
        cover; spans nest strictly on one thread, so children never
        overlap each other.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += end - start
            entry[1] += end - start - child_time[i]
            entry[2] += 1
        return out

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    # -- model geometry ---------------------------------------------------
    def bind(self, model):
        """Learn which kernel bank is conv1 and which is conv2 of a model."""
        for stream in getattr(model, "streams", ()):
            self.banks[id(stream.first_layer)] = ("conv1", stream.config, stream.first_layer)
            self.banks[id(stream.second_layer)] = ("conv2", stream.config, stream.second_layer)

    def conv_layer(self, bank):
        entry = self.banks.get(id(bank))
        if entry is None:
            return "conv_other", 0
        layer, cfg, _ = entry
        if layer == "conv1":
            macs = cfg.first_map_size * cfg.first_num_kernels * cfg.first_kernel_len
        else:
            macs = cfg.second_map_size * cfg.second_num_kernels * cfg.second_kernel_len
        return layer, macs

    # -- hooks ------------------------------------------------------------
    def patch(self, module, path, make_wrapper):
        """Wrap `module.path` ("func" or "Class.method") in place."""
        *owner_path, attr = path.split(".")
        owner = module
        for name in owner_path:
            owner = getattr(owner, name, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.absent.append(f"{module.__name__}.{path}")
            return
        setattr(owner, attr, make_wrapper(original))
        self._patches.append((owner, attr, original))

    def unpatch(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def timed(self, name, count=None):
        """Wrapper factory: one span per call; `count(tracer, args, result)`
        runs after the span closes, so counting is not charged to the layer."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
                if count is not None:
                    count(tracer, args, result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def install(self, msam):
        """Hook every layer boundary the benchmark reports."""
        model_mod, trainer_mod, ckpt_mod = msam.model, msam.trainer, msam.checkpoint
        tracer = self
        self.absent = []

        def conv_wrapper(direction):
            def make(fn):
                def wrapper(segments, bank, *rest, **kwargs):
                    layer, macs = tracer.conv_layer(bank)
                    name = f"conv.{layer}_{direction}"
                    index = tracer.begin(name)
                    try:
                        result = fn(segments, bank, *rest, **kwargs)
                    finally:
                        tracer.end(index)
                    batch = np.shape(segments)[0]
                    flop = 2.0 * batch * macs
                    if direction == "bwd":
                        # weight gradients always; input gradients only if returned
                        input_grads = result[2] if len(result) > 2 else None
                        input_flop = flop if input_grads is not None else 0.0
                        tracer.counters[f"{name}.input_grad_gflop"] += input_flop / 1e9
                        flop += input_flop
                    tracer.counters[f"{name}.gflop"] += flop / 1e9
                    return result

                wrapper.__wrapped__ = fn
                return wrapper

            return make

        def count_inputs(t, args, result):
            t.counters["trainer.inputs.frames"] += len(args[1])

        def count_sgd(t, args, result):
            params, grads = args[0], args[1]
            t.counters["trainer.sgd_step.bytes"] += 5 * sum(p.nbytes for p in params.values())
            index = t.begin("trace.subnormal_count")
            for g in grads.values():
                g = np.asarray(g)
                if g.dtype != np.float32:
                    continue
                small = int(np.count_nonzero(np.abs(g) < F32_TINY))
                zeros = g.size - int(np.count_nonzero(g))
                t.counters["grad.nonzero"] += g.size - zeros
                t.counters["grad.subnormal"] += small - zeros
            t.end(index)

        def count_head(direction):
            def count(t, args, result):
                head = args[0]
                batch = len(args[2] if direction == "bwd" else args[1])
                dims = [w.shape for w in head.hidden_weights] + [head.output_weight.shape]
                macs = sum(o * i for o, i in dims)
                factor = 2 if direction == "bwd" else 1  # weight grads + input grads
                t.counters[f"network.head_{direction}.gflop"] += 2.0 * factor * batch * macs / 1e9

            return count

        def count_featurize(t, args, result):
            t.counters["fbank.featurize.frames"] += len(result)

        self.patch(model_mod, "conv1d_forward_batch", conv_wrapper("fwd"))
        self.patch(model_mod, "conv1d_backward_batch", conv_wrapper("bwd"))
        self.patch(model_mod, "head_forward_batch", self.timed("network.head_fwd", count_head("fwd")))
        self.patch(model_mod, "head_backward_batch", self.timed("network.head_bwd", count_head("bwd")))
        self.patch(model_mod, "cross_entropy_batch", self.timed("network.cross_entropy"))
        self.patch(trainer_mod, "cross_entropy_batch", self.timed("network.cross_entropy"))
        self.patch(trainer_mod, "sgd_step", self.timed("trainer.sgd_step", count_sgd))
        self.patch(trainer_mod, "evaluate_frames", self.timed("trainer.evaluate_frames"))
        self.patch(trainer_mod, "pretrain_transition", self.timed("trainer.pretrain_transition"))
        self.patch(trainer_mod, "FrameDataset.__init__", self.timed("trainer.dataset_init"))
        self.patch(trainer_mod, "FrameDataset.inputs", self.timed("trainer.inputs", count_inputs))
        self.patch(model_mod, "RawWaveformModel.features_batch", self.timed("model.features_batch"))
        self.patch(model_mod, "RawWaveformModel.loss_and_grads", self.timed("model.loss_and_grads"))
        self.patch(model_mod, "FbankDnnModel.featurize", self.timed("fbank.featurize", count_featurize))
        self.patch(ckpt_mod, "save_checkpoint", self.timed("checkpoint.save"))
        self.patch(ckpt_mod, "load_checkpoint", self.timed("checkpoint.load"))

    def __enter__(self):
        self.reset()
        self.install(self.msam)
        return self

    def __exit__(self, *exc):
        self.unpatch()
