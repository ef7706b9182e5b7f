"""The 16 kHz / 10 ms frame grid, waveform ingestion, normalization,
frame/label alignment, a synthetic corpus generator used as a desk-scale
substitute for real speech data, and the writer of every output file."""

import os
import re
import wave
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from .errors import DegenerateInputError, FormatError, ValidationError

# The frame grid every model reads: 16 kHz audio, one label per 10 ms frame.
SAMPLE_RATE = 16000
FRAME_SHIFT = 160
SEGMENT_LEN = SAMPLE_RATE // 2  # synthetic class segments: 0.5 s, a whole number of frames


@dataclass
class Signal:
    """A mono waveform sampled at SAMPLE_RATE."""

    samples: np.ndarray
    sample_rate: ClassVar[int] = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1 or len(self.samples) < 1:
            raise ValueError("samples must be a non-empty 1-D array")

    def __len__(self):
        return len(self.samples)


@dataclass
class Utterance:
    id: str
    signal: Signal
    labels: np.ndarray  # one class index per 10 ms frame
    meeting_id: Optional[str] = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def num_frames(self) -> int:
        return len(self.labels)


@dataclass
class Corpus:
    utterances: List[Utterance]
    num_classes: int
    normalization: dict = field(default_factory=dict)

    def total_frames(self) -> int:
        return sum(u.num_frames for u in self.utterances)


def load_wav(path) -> Signal:
    """Read a 16-bit PCM mono 16 kHz RIFF/WAVE file, scaled to [-1, 1)."""
    try:
        reader = wave.open(str(path), "rb")
    except (wave.Error, EOFError, RuntimeError) as exc:
        reason = str(exc) or "a chunk is cut short or overruns its parent"
        raise FormatError(f"header: not a RIFF/WAVE file: {reason}") from exc
    with reader:
        if reader.getnchannels() != 1:
            raise FormatError(f"channels: expected mono, got {reader.getnchannels()}")
        if reader.getsampwidth() != 2:
            raise FormatError(
                f"sample_width: expected 16-bit PCM, got {8 * reader.getsampwidth()}-bit"
            )
        if reader.getcomptype() != "NONE":
            raise FormatError(f"compression: expected PCM, got {reader.getcomptype()}")
        if reader.getframerate() != SAMPLE_RATE:
            raise FormatError(f"sample_rate: expected {SAMPLE_RATE}, got {reader.getframerate()}")
        frames = reader.getnframes()
        raw = reader.readframes(frames)
    if frames == 0:
        raise FormatError("data: the data chunk holds no samples")
    if len(raw) != 2 * frames:
        raise FormatError(f"data: {len(raw)} bytes where the header declares {frames} samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return Signal(samples)


def _moments(samples, shift) -> Tuple[int, np.float64, np.float64]:
    """An utterance's sample count, and the float64 mean and sum of squared
    deviations of its samples less `shift`, from NumPy's pairwise sums over
    one float64 array changed in place."""
    deviations = np.subtract(samples, shift, dtype=np.float64)
    mean = deviations.mean()
    deviations -= mean
    np.multiply(deviations, deviations, out=deviations)
    return len(samples), mean, deviations.sum()


def _normalized(corpus: Corpus, shifts, scales, normalization: dict) -> Corpus:
    """The corpus with each utterance's samples `(x - shift) / scale`, by
    `x -= shift` then `x /= scale`, under `normalization`.

    A writeable float64 array that owns its memory and that no other
    utterance holds is changed in place.  Every other utterance gets a copy,
    and all copies are made before any array changes, since an array changed
    in place may be the base of another utterance's view.
    """
    arrays = [u.signal.samples for u in corpus.utterances]
    holders = Counter(map(id, arrays))
    in_place = [a.dtype == np.float64 and a.flags.writeable and a.flags.owndata
                and holders[id(a)] == 1 for a in arrays]
    arrays = [a if own else np.subtract(a, shift) for a, own, shift in zip(arrays, in_place, shifts)]
    for a, own, shift, scale in zip(arrays, in_place, shifts, scales):
        if own:
            a -= shift
        a /= scale
    utterances = [Utterance(u.id, Signal(a), u.labels, u.meeting_id)
                  for u, a in zip(corpus.utterances, arrays)]
    return Corpus(utterances, corpus.num_classes, normalization)


def normalize_global(corpus: Corpus) -> Corpus:
    """Zero mean and unit variance pooled over all samples of all utterances.

    One pass takes each utterance's moments and merges them in utterance
    order (Chan, Golub & LeVeque, "Updating formulae and a pairwise
    algorithm for computing sample variances", 1979); then each utterance
    is normalised, in place where `_normalized` allows.  The input's arrays
    may be changed: the caller gives the corpus up.
    """
    # Moments about one of the corpus's samples: utterance means near a large
    # offset would keep few digits of the differences the merge weighs.
    shift = np.float64(corpus.utterances[0].signal.samples[0])
    n, mean, m2 = 0, 0.0, 0.0
    for u in corpus.utterances:
        n_u, mean_u, m2_u = _moments(u.signal.samples, shift)
        total = n + n_u
        delta = mean_u - mean
        mean = mean + delta * (n_u / total)
        m2 = m2 + m2_u + delta * delta * (n * n_u / total)
        n = total
    mean = shift + mean
    var = m2 / n
    if var <= 0:
        raise DegenerateInputError("corpus has zero sample variance")
    std = np.sqrt(var)
    count = len(corpus.utterances)
    return _normalized(corpus, [mean] * count, [std] * count,
                       {"scheme": "global", "mean": float(mean), "variance": float(var)})


def normalize_utterance_meeting(corpus: Corpus) -> Corpus:
    """Per-utterance zero mean, then per-meeting unit pooled variance.

    One pass takes each utterance's moments; a meeting's variance is its
    utterances' summed squared deviations over their summed counts, meetings
    in order of first appearance.  Then each utterance is normalised, in
    place where `_normalized` allows.  The input's arrays may be changed:
    the caller gives the corpus up.
    """
    for u in corpus.utterances:
        if u.meeting_id is None:
            raise FormatError(f"meeting_id: missing for utterance {u.id}")
    moments = [_moments(u.signal.samples, 0.0) for u in corpus.utterances]
    counts, squares = {}, {}
    for u, (n_u, _, m2_u) in zip(corpus.utterances, moments):
        counts[u.meeting_id] = counts.get(u.meeting_id, 0) + n_u
        squares[u.meeting_id] = squares.get(u.meeting_id, 0.0) + m2_u
    meeting_var = {}
    for meeting, count in counts.items():
        var = float(squares[meeting] / count)
        if var <= 0:
            raise DegenerateInputError(f"meeting {meeting} has zero variance")
        meeting_var[meeting] = var
    return _normalized(corpus, [mean_u for _, mean_u, _ in moments],
                       [np.sqrt(meeting_var[u.meeting_id]) for u in corpus.utterances],
                       {"scheme": "utterance_meeting", "meeting_variances": meeting_var})


def class_frequency_triplet(class_index: int) -> Tuple[float, float, float]:
    """Distinct sinusoid frequencies for one synthetic class, below Nyquist."""
    f0 = 400.0 + 350.0 * class_index
    nyquist = SAMPLE_RATE / 2.0
    return tuple(min(f0 * k, nyquist * 0.95) for k in (1.0, 2.0, 3.0))


def synth_corpus(
    num_classes: int,
    num_utterances: int,
    duration: float,
    seed: int = 0,
    snr_db: float = 30.0,
) -> Corpus:
    """Deterministic synthetic corpus of labelled sinusoid mixtures.

    Each utterance is a sequence of SEGMENT_LEN-sample segments; each carries
    a class drawn uniformly and its class-specific frequency triplet with a
    random phase, plus white noise at the requested SNR (snr_db=inf for none).
    `duration` is seconds per utterance.
    """
    if num_classes < 1 or num_utterances < 1 or duration <= 0:
        raise ValueError("num_classes, num_utterances and duration must be positive")
    if not np.isfinite(duration):
        raise ValidationError(f"synth duration must be finite seconds, got {duration}")
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValidationError(f"synth snr_db must be a number of dB, or inf for no noise; "
                              f"got {snr_db}")
    rng = np.random.default_rng(seed)
    total = int(round(duration * SAMPLE_RATE))
    total -= total % FRAME_SHIFT
    if total == 0:
        raise ValidationError(f"synth duration of {duration} s is shorter than one "
                              f"{FRAME_SHIFT}-sample frame")
    utterances = []
    for u in range(num_utterances):
        try:
            samples = np.zeros(total)
        except (MemoryError, ValueError) as exc:
            raise ValidationError(f"a synth duration of {duration} s is {total} samples per "
                                  f"utterance, which cannot be allocated ({exc})") from exc
        labels = np.zeros(total // FRAME_SHIFT, dtype=np.int64)
        pos = 0
        while pos < total:
            length = min(SEGMENT_LEN, total - pos)
            cls = int(rng.integers(num_classes))
            t = np.arange(length) / SAMPLE_RATE
            seg = np.zeros(length)
            for f in class_frequency_triplet(cls):
                seg += np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
            seg /= 3.0
            if np.isfinite(snr_db):
                noise_power = np.mean(seg**2) / (10.0 ** (snr_db / 10.0))
                seg = seg + rng.normal(0.0, np.sqrt(noise_power), size=length)
            samples[pos : pos + length] = seg
            labels[pos // FRAME_SHIFT : (pos + length) // FRAME_SHIFT] = cls
            pos += length
        utterances.append(
            Utterance(f"synth{u:04d}", Signal(samples), labels, meeting_id=f"meeting{u % 2}")
        )
    return Corpus(utterances, num_classes)


@contextmanager
def new_file(path, mode="wb", **open_kwargs):
    """An open file whose contents replace `path` when the block succeeds.

    The bytes go to a sibling `<name>.<pid>.tmp`, created with `open(...,
    "x")`.  On success `path` is unlinked, if it exists, and the temporary
    file is renamed to it.  On any exception the temporary file is removed
    and `path` is left as it was.  A symlink at `path` is replaced by a
    regular file, not followed.  Nothing is fsynced, so the new contents may
    not survive a power loss.

    Truncating the old file, or renaming over it, waits for its blocks to
    be written back or released: 0.2-0.9 s for a 17 MB checkpoint on ext4
    mounted with `discard`, against ~3 ms after an unlink.
    """
    path = Path(path)
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    fh = open(temp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        path.unlink(missing_ok=True)
        temp.rename(path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def read_text(path) -> str:
    """A UTF-8 text file's contents; any other byte sequence is a FormatError."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path} line {line_no}: not UTF-8 text") from exc


def _read_labels(path) -> np.ndarray:
    """One integer class index per non-blank line."""
    labels = []
    for line_no, line in enumerate(read_text(path).splitlines(), 1):
        token = line.strip()
        if token and not re.fullmatch(r"[+-]?[0-9]{1,18}", token):  # always fits int64
            raise FormatError(
                f"labels: {path} line {line_no}: {token!r} is not an integer class index"
            )
        if token:
            labels.append(int(token))
    return np.array(labels, dtype=np.int64)


def load_manifest(path, num_classes: Optional[int] = None) -> Corpus:
    """Corpus from a tab-separated manifest: wav path, label path, meeting id.

    Label files carry one integer per line, one per 10 ms frame.  A missing
    or malformed file that a line names is a FormatError naming that line.
    """
    path = Path(path)
    utterances = []
    for line_no, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(
                f"manifest line {line_no}: expected 3 tab-separated fields, got {len(fields)}"
            )
        wav_path, label_path, meeting_id = fields
        try:
            signal = load_wav(path.parent / wav_path)
            labels = _read_labels(path.parent / label_path)
        except (FormatError, OSError, ValueError) as exc:  # ValueError: a NUL in a path
            raise FormatError(f"manifest line {line_no}: {exc}") from exc
        expected = len(signal) // FRAME_SHIFT
        if expected == 0:
            raise FormatError(f"manifest line {line_no}: {wav_path} has {len(signal)} samples, "
                              f"fewer than one {FRAME_SHIFT}-sample frame")
        if len(labels) != expected:
            raise FormatError(
                f"labels: {label_path} has {len(labels)} entries, expected {expected} "
                f"for {len(signal)} samples"
            )
        utterances.append(Utterance(Path(wav_path).stem, signal, labels, meeting_id))
    if not utterances:
        raise FormatError("manifest: no utterances listed")
    if num_classes is None:
        num_classes = int(max(u.labels.max() for u in utterances)) + 1
    for u in utterances:
        if u.labels.min() < 0:
            raise FormatError(f"labels: utterance {u.id} has a negative label")
        if u.labels.max() >= num_classes:
            raise FormatError(f"labels: utterance {u.id} has label >= {num_classes}")
    return Corpus(utterances, num_classes)
