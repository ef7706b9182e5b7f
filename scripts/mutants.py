#!/usr/bin/env python3
"""Mutation campaign: which plausible one-line bugs does tier-1 miss?

Each mutant replaces one piece of text in one module of src/msam with a
plausible bug.  The tree is copied once under the system temp directory;
each mutant is applied to the copy, tier-1 runs on it with -x, and the
module is restored.  Per mutant it prints "killed" with the first failing
test, or "survived"; the exit status is 1 if any mutant survived.

    python3 scripts/mutants.py            # every mutant, a few minutes

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
    ("model.py", "np.add.at(do2.reshape(-1), (k2 * index[..., None] + np.arange(k2)).reshape(-1),\n"
                 "                  do.reshape(-1))",
     "do2.reshape(-1)[(k2 * index[..., None] + np.arange(k2)).reshape(-1)] = do.reshape(-1)",
     "the table path keeps one frame's gradient per shared conv2 window, not their sum"),
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
    ("dataio.py", "var = pooled.sum() / len(pooled)", "var = pooled.sum() / (len(pooled) - 1)",
     "global normalisation divides by the unbiased variance"),
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
