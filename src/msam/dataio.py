"""Waveform ingestion, normalization, frame/label alignment and a synthetic
corpus generator used as a desk-scale substitute for real speech data."""

import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .conv import Signal
from .errors import DegenerateInputError, FormatError

FRAME_SHIFT = 160  # 10 ms at 16 kHz


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
    except wave.Error as exc:
        raise FormatError(f"not a RIFF/WAVE file: {exc}") from exc
    with reader:
        if reader.getnchannels() != 1:
            raise FormatError(f"channels: expected mono, got {reader.getnchannels()}")
        if reader.getsampwidth() != 2:
            raise FormatError(
                f"sample_width: expected 16-bit PCM, got {8 * reader.getsampwidth()}-bit"
            )
        if reader.getcomptype() != "NONE":
            raise FormatError(f"compression: expected PCM, got {reader.getcomptype()}")
        if reader.getframerate() != 16000:
            raise FormatError(f"sample_rate: expected 16000, got {reader.getframerate()}")
        raw = reader.readframes(reader.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Signal(samples, 16000)


def write_wav(path, signal: Signal):
    """Write a Signal as 16-bit PCM mono, clipping to the int16 range."""
    samples = np.clip(np.asarray(signal.samples) * 32768.0, -32768, 32767)
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(signal.sample_rate)
        writer.writeframes(samples.astype("<i2").tobytes())


def normalize_global(corpus: Corpus) -> Corpus:
    """Zero mean and unit variance pooled over all samples of all utterances."""
    pooled = np.concatenate([u.signal.samples for u in corpus.utterances])
    mean = pooled.mean()
    var = pooled.var()
    if var <= 0:
        raise DegenerateInputError("corpus has zero sample variance")
    std = np.sqrt(var)
    utterances = [
        Utterance(u.id, Signal((u.signal.samples - mean) / std, u.signal.sample_rate),
                  u.labels, u.meeting_id)
        for u in corpus.utterances
    ]
    return Corpus(utterances, corpus.num_classes,
                  {"scheme": "global", "mean": float(mean), "variance": float(var)})


def normalize_utterance_meeting(corpus: Corpus) -> Corpus:
    """Per-utterance zero mean, then per-meeting unit pooled variance."""
    for u in corpus.utterances:
        if u.meeting_id is None:
            raise FormatError(f"meeting_id: missing for utterance {u.id}")
    centered = [u.signal.samples - u.signal.samples.mean() for u in corpus.utterances]
    meeting_var = {}
    for meeting in {u.meeting_id for u in corpus.utterances}:
        pooled = np.concatenate(
            [c for c, u in zip(centered, corpus.utterances) if u.meeting_id == meeting]
        )
        var = float(np.mean(pooled**2))
        if var <= 0:
            raise DegenerateInputError(f"meeting {meeting} has zero variance")
        meeting_var[meeting] = var
    utterances = [
        Utterance(
            u.id,
            Signal(c / np.sqrt(meeting_var[u.meeting_id]), u.signal.sample_rate),
            u.labels,
            u.meeting_id,
        )
        for c, u in zip(centered, corpus.utterances)
    ]
    return Corpus(utterances, corpus.num_classes,
                  {"scheme": "utterance_meeting", "meeting_variances": meeting_var})


def class_frequency_triplet(class_index: int, sample_rate: int = 16000) -> Tuple[float, float, float]:
    """Distinct sinusoid frequencies for one synthetic class, below Nyquist."""
    f0 = 400.0 + 350.0 * class_index
    nyquist = sample_rate / 2.0
    return tuple(min(f0 * k, nyquist * 0.95) for k in (1.0, 2.0, 3.0))


def synth_corpus(
    num_classes: int,
    num_utterances: int,
    duration: float,
    seed: int,
    snr_db: float = 30.0,
    sample_rate: int = 16000,
    segment_seconds: float = 0.5,
) -> Corpus:
    """Deterministic synthetic corpus of labelled sinusoid mixtures.

    Each utterance is a sequence of segments; each segment carries a class
    drawn uniformly and its class-specific frequency triplet with a random
    phase, plus white noise at the requested SNR (snr_db=inf for none).
    `duration` is seconds per utterance.
    """
    if num_classes < 1 or num_utterances < 1 or duration <= 0:
        raise ValueError("num_classes, num_utterances and duration must be positive")
    rng = np.random.default_rng(seed)
    seg_len = int(round(segment_seconds * sample_rate))
    seg_len -= seg_len % FRAME_SHIFT  # keep segments label-aligned
    seg_len = max(seg_len, FRAME_SHIFT)
    total = int(round(duration * sample_rate))
    total -= total % FRAME_SHIFT
    utterances = []
    for u in range(num_utterances):
        samples = np.zeros(total)
        labels = np.zeros(total // FRAME_SHIFT, dtype=np.int64)
        pos = 0
        while pos < total:
            length = min(seg_len, total - pos)
            cls = int(rng.integers(num_classes))
            t = np.arange(length) / sample_rate
            seg = np.zeros(length)
            for f in class_frequency_triplet(cls, sample_rate):
                seg += np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
            seg /= 3.0
            if np.isfinite(snr_db):
                noise_power = np.mean(seg**2) / (10.0 ** (snr_db / 10.0))
                seg = seg + rng.normal(0.0, np.sqrt(noise_power), size=length)
            samples[pos : pos + length] = seg
            labels[pos // FRAME_SHIFT : (pos + length) // FRAME_SHIFT] = cls
            pos += length
        utterances.append(
            Utterance(f"synth{u:04d}", Signal(samples, sample_rate), labels,
                      meeting_id=f"meeting{u % 2}")
        )
    return Corpus(utterances, num_classes)


def load_manifest(path, num_classes: Optional[int] = None) -> Corpus:
    """Corpus from a tab-separated manifest: wav path, label path, meeting id.

    Label files carry one integer per line, one per 10 ms frame.
    """
    path = Path(path)
    utterances = []
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(
                f"manifest line {line_no}: expected 3 tab-separated fields, got {len(fields)}"
            )
        wav_path, label_path, meeting_id = fields
        signal = load_wav(path.parent / wav_path)
        labels = np.loadtxt(path.parent / label_path, dtype=np.int64, ndmin=1)
        expected = len(signal) // FRAME_SHIFT
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
