#!/usr/bin/env python3
"""Mutation campaign: which plausible one-line bugs does tier-1 miss?

Each mutant replaces one piece of text in one module of src/msam with a
plausible bug.  The tree is copied once under the system temp directory;
each mutant is applied to the copy, tier-1 runs on it with -x, and the
module is restored.  Per mutant it prints "killed" with the first failing
test, or "survived"; the exit status is 1 if any mutant survived.

    python3 scripts/mutants.py            # every mutant, ~10 minutes

A mutant's old text must occur exactly once in its module;
tests/test_scripts.py checks that without running the campaign.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # a mutant that hangs tier-1 this long counts as killed
# The check of this list fails on any applied mutant, so it kills none.
LIST_CHECK = "tests/test_scripts.py::test_each_mutant_names_text_its_module_holds_once"

# (module, old text, new text, reason)
MUTANTS = [
    ("trainer.py", "if improvement < NEWBOB_STOP_THRESHOLD:",
     "if improvement <= NEWBOB_STOP_THRESHOLD:",
     "NewBob stops on an improvement exactly at the stop threshold"),
    ("trainer.py", "np.random.default_rng((schedule.seed, index))",
     "np.random.default_rng((schedule.seed, 0))",
     "every pretraining transition draws from the first one's key"),
    ("trainer.py", "step = np.multiply(wb, weight_decay,", "step = np.multiply(wb, -weight_decay,",
     "weight decay pushes weights away from zero"),
    ("model.py", "if stream.projection is not None:\n                params[",
     "if stream.projection is None:\n                params[",
     "params() lists a projection only for streams that have none"),
    ("model.py", '"single_span" if self.streams[0].projection is None else "multi_span"',
     '"multi_span" if self.streams[0].projection is None else "single_span"',
     "to_config() names the kind the other way round"),
    ("model.py", "return o if stream.projection is None else o @ stream.projection.T",
     "return o", "multi-span features skip their projection"),
    ("model.py", "probs *= probs >= CE_PROB_FLOOR", "probs *= probs >= 0 * CE_PROB_FLOOR",
     "subnormal probabilities reach the head's backward matmuls"),
    ("model.py", "do *= o > 0", "do *= o >= 0",
     "gradients flow through conv2 outputs the ReLU zeroed"),
    ("model.py", "sharing[1:] |= new[1:] < m1", "sharing[1:] |= new[1:] <= m1",
     "conv_tables sends frames that share nothing down the table path"),
    ("model.py", "do2[index[:, i]] += do[:, i]", "do2[index[:, i]] = do[:, i]",
     "the table path keeps one frame's gradient per shared conv2 window, not their sum"),
    ("model.py", "(step % s == 0) & (step > 0)", "(step % s == 0)",
     "a repeated frame shares its copy's table rows, so one copy's gradient is dropped"),
    ("conv.py", "maps += bank.biases", "maps -= bank.biases",
     "conv layers subtract their biases"),
    ("conv.py", "grads.sum(axis=0)", "grads.mean(axis=0)",
     "conv bias gradients are averaged over the rows, not summed"),
    ("conv.py", "if num_samples < kernel_len:", "if num_samples <= kernel_len:",
     "an input exactly one kernel long is rejected"),
    ("streams.py", "starts = np.asarray(centers) - (span + 1) // 2",
     "starts = np.asarray(centers) - span // 2",
     "an odd span takes its extra sample from the future"),
    ("streams.py", "starts.max() + span > len(buffer)", "starts.max() + span >= len(buffer)",
     "a window that ends at the buffer's last sample is rejected"),
    ("streams.py", "if m2 != self.second_map_size:", "if m2 < self.second_map_size:",
     "a second layer with more positions than its map size is accepted"),
    ("network.py", "probs = logits - logits.max(axis=-1, keepdims=True)",
     "probs = logits - logits.min(axis=-1, keepdims=True)",
     "softmax subtracts the smallest logit, so a large logit overflows"),
    ("network.py", "dh *= activations[j + 1] > 0", "dh *= activations[j + 1] >= 0",
     "gradients flow through hidden units the ReLU zeroed"),
    ("network.py", "np.maximum(picked, CE_PROB_FLOOR)).mean()",
     "np.maximum(picked, CE_PROB_FLOOR)).sum()",
     "the loss sums over the batch instead of averaging"),
    ("analysis.py", "np.argmax(best >= ENERGY_FRACTION * total, axis=0)",
     "np.argmax(best > ENERGY_FRACTION * total, axis=0)",
     "an effective length needs more than ENERGY_FRACTION of the energy, not as much"),
    ("analysis.py", "np.argsort(peak_hz, kind=\"stable\")",
     "np.argsort(-peak_hz, kind=\"stable\")",
     "spectra rows are sorted by falling peak frequency"),
    ("analysis.py", "1 << (kernels.shape[1] - 1).bit_length()",
     "1 << kernels.shape[1].bit_length()",
     "a kernel of a power-of-two length gets twice the FFT it needs"),
    ("__init__.py", "_blas.set_num_threads(int(_cap))", "_blas.set_num_threads(int(_cap) + 1)",
     "OpenBLAS runs one thread more than MSAM_THREADS once NumPy has started it"),
    ("__init__.py", "_blas = openblas() if _cap.isdigit() else None", "_blas = None",
     "MSAM_THREADS sets only the environment, too late for an OpenBLAS already loaded"),
    ("checkpoint.py", "if hashlib.sha256(config_json).digest() != digest:", "if False:",
     "the config digest is never checked"),
    ("checkpoint.py", "if size != end:", "if size < end:",
     "trailing bytes after the last tensor are accepted"),
    ("dataio.py", "if reader.getsampwidth() != 2:", "if reader.getsampwidth() > 2:",
     "8-bit WAV files are read as 16-bit"),
    ("dataio.py", "if len(raw) != 2 * frames:", "if len(raw) > 2 * frames:",
     "a WAV data chunk shorter than its header declares is accepted"),
    ("dataio.py", "if u.labels.max() >= num_classes:", "if u.labels.max() > num_classes:",
     "a label equal to num_classes is accepted"),
    ("dataio.py", "var = m2 / n", "var = m2 / (n - 1)",
     "global normalisation divides by the unbiased variance"),
    ("dataio.py", "m2 = m2 + m2_u + delta * delta * (n * n_u / total)", "m2 = m2 + m2_u",
     "the global variance drops the spread between utterance means"),
    ("dataio.py", "shift = np.float64(corpus.utterances[0].signal.samples[0])",
     "shift = np.float64(0.0)",
     "moments about zero keep few digits of utterance means near a large offset"),
    ("dataio.py", "var = float(squares[meeting] / count)",
     "var = float(squares[meeting] / (count - 1))",
     "a meeting's variance divides by one sample fewer than it holds"),
    ("dataio.py", "and holders[id(a)] == 1", "and holders[id(a)] >= 1",
     "an array two utterances hold is normalised in place twice"),
    ("dataio.py", "a.flags.writeable and a.flags.owndata", "a.flags.writeable",
     "a view of another utterance's array is normalised in place with it"),
    ("dataio.py", "if np.isnan(snr_db) or snr_db == -np.inf:", "if np.isnan(snr_db):",
     "snr_db=-inf builds a noiseless corpus"),
    ("dataio.py", "if total == 0:", "if total < 0:",
     "a synth duration under one frame fails without naming the field"),
    ("fbank.py", "np.asarray(f, dtype=np.float64) / 700.0", "np.asarray(f, dtype=np.float64) / 800.0",
     "the Mel scale's corner frequency is wrong in one direction only"),
    ("fbank.py", "centers.max() + half >= len(rows)", "centers.max() + half > len(rows)",
     "a context that runs one row past the end is gathered"),
    ("cli.py", "if isinstance(exc, (OSError, FormatError)):", "if isinstance(exc, OSError):",
     "a malformed input file exits 1 instead of 2"),
    ("cli.py", "if isinstance(exc, FloatingPointError):\n            return EXIT_NUMERICAL",
     "if isinstance(exc, FloatingPointError):\n            return EXIT_VALIDATION",
     "a numerical failure exits 1 instead of 3"),
]


def first_failure(output: str) -> str:
    """The first FAILED or ERROR test that pytest's short summary names."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]  # a test id may hold spaces
    return "(no test named)"


def run(mutant, tree: Path) -> str:
    """Apply `mutant` to the copy at `tree`, run tier-1 there, restore the
    module; the verdict and the killing test, as one line."""
    module, old, new, _ = mutant
    path = tree / "src" / "msam" / module
    source = path.read_text()
    if source.count(old) != 1:
        raise SystemExit(f"{module}: the old text occurs {source.count(old)} times: {old!r}")
    path.write_text(source.replace(old, new))
    # No bytecode cache: a mutant of the module's size written within the
    # same second would leave a .pyc that the restored module still matches.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    try:
        child = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                "--deselect", LIST_CHECK],
                               cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"killed\ttimeout after {TIMEOUT_S} s"
    finally:
        path.write_text(source)
    if child.returncode == 0:
        return "survived"
    return f"killed\t{first_failure(child.stdout)}"


def main():
    killed = 0
    with tempfile.TemporaryDirectory(prefix="msam-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "out"))
        for mutant in MUTANTS:
            verdict = run(mutant, tree)
            killed += verdict.startswith("killed")
            print(f"{mutant[0]}\t{mutant[3]}\t{verdict}", flush=True)
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
