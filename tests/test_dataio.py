import wave

import numpy as np
import pytest

from msam.dataio import (
    Corpus,
    Signal,
    Utterance,
    load_manifest,
    load_wav,
    normalize_global,
    normalize_utterance_meeting,
    synth_corpus,
)
from msam.errors import DegenerateInputError, FormatError
from msam.fbank import compute_fbank
from msam.trainer import FrameDataset

from conftest import span_model, write_wav


def _write_raw_wav(path, samples_int16, channels=1, rate=16000, width=2):
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(channels)
        writer.setsampwidth(width)
        writer.setframerate(rate)
        writer.writeframes(np.asarray(samples_int16, dtype="<i2").tobytes())


class TestLoadWav:
    def test_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        _write_raw_wav(path, [16384, -32768, 0])
        signal = load_wav(path)
        np.testing.assert_allclose(signal.samples, [0.5, -1.0, 0.0])
        assert signal.sample_rate == 16000

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        _write_raw_wav(path, [0, 0, 0, 0], channels=2)
        with pytest.raises(FormatError, match="channels"):
            load_wav(path)

    def test_wrong_rate_names_field(self, tmp_path):
        path = tmp_path / "slow.wav"
        _write_raw_wav(path, [0, 0], rate=8000)
        with pytest.raises(FormatError, match="sample_rate"):
            load_wav(path)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "w.wav"
        _write_raw_wav(path, np.zeros(4, dtype="<i2"), width=1)
        with pytest.raises(FormatError, match="sample_width"):
            load_wav(path)

    def test_non_wav_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(FormatError):
            load_wav(path)

    def test_round_trip_through_write_wav(self, tmp_path, rng):
        samples = (rng.integers(-32768, 32768, size=320)).astype(np.int16)
        signal = Signal(samples / 32768.0)
        write_wav(tmp_path / "r.wav", signal)
        np.testing.assert_allclose(load_wav(tmp_path / "r.wav").samples, signal.samples)


def _toy_corpus():
    u1 = Utterance("u1", Signal(np.array([1.0, 3.0] * 160)), np.zeros(2), "m0")
    u2 = Utterance("u2", Signal(np.array([-2.0, 0.0] * 160)), np.ones(2), "m1")
    return Corpus([u1, u2], 2)


class TestNormalizeGlobal:
    def test_pooled_moments(self, rng):
        corpus = Corpus(
            [
                Utterance(f"u{i}", Signal(rng.normal(2.0, 3.0, size=480)),
                          np.zeros(3), "m0")
                for i in range(3)
            ],
            1,
        )
        normalized = normalize_global(corpus)
        pooled = np.concatenate([u.signal.samples for u in normalized.utterances])
        assert abs(pooled.mean()) < 1e-9
        assert abs(pooled.var() - 1.0) < 1e-6

    def test_matches_hand_computed_statistics(self):
        corpus = _toy_corpus()
        pooled = np.concatenate([u.signal.samples for u in corpus.utterances])
        mean, std = pooled.mean(), pooled.std()
        normalized = normalize_global(corpus)
        np.testing.assert_allclose(
            normalized.utterances[0].signal.samples,
            (corpus.utterances[0].signal.samples - mean) / std,
        )

    def test_constant_corpus_rejected(self):
        corpus = Corpus([Utterance("u", Signal(np.ones(320)), np.zeros(2))], 1)
        with pytest.raises(DegenerateInputError):
            normalize_global(corpus)

    def test_idempotent(self, rng):
        corpus = Corpus(
            [Utterance("u", Signal(rng.normal(size=480)), np.zeros(3), "m0")], 1
        )
        once = normalize_global(corpus)
        twice = normalize_global(once)
        np.testing.assert_allclose(
            once.utterances[0].signal.samples,
            twice.utterances[0].signal.samples,
            atol=1e-9,
        )


class TestNormalizeUtteranceMeeting:
    def _corpus(self, rng):
        utterances = [
            Utterance(
                f"u{m}{i}",
                Signal(rng.normal(float(i), 2.0 + m, size=480)),
                np.zeros(3),
                f"meeting{m}",
            )
            for m in range(2)
            for i in range(2)
        ]
        return Corpus(utterances, 1)

    def test_utterance_means_zero(self, rng):
        normalized = normalize_utterance_meeting(self._corpus(rng))
        for u in normalized.utterances:
            assert abs(u.signal.samples.mean()) < 1e-9

    def test_meeting_variance_one(self, rng):
        normalized = normalize_utterance_meeting(self._corpus(rng))
        for meeting in ("meeting0", "meeting1"):
            pooled = np.concatenate(
                [u.signal.samples for u in normalized.utterances
                 if u.meeting_id == meeting]
            )
            assert abs(np.mean(pooled**2) - 1.0) < 1e-6

    def test_matches_hand_computation(self):
        corpus = _toy_corpus()
        normalized = normalize_utterance_meeting(corpus)
        raw = corpus.utterances[0].signal.samples
        centered = raw - raw.mean()
        expected = centered / np.sqrt(np.mean(centered**2))
        np.testing.assert_allclose(normalized.utterances[0].signal.samples, expected)

    def test_missing_meeting_rejected(self, rng):
        corpus = Corpus(
            [Utterance("u", Signal(rng.normal(size=320)), np.zeros(2), None)], 1
        )
        with pytest.raises(FormatError, match="meeting_id"):
            normalize_utterance_meeting(corpus)


def frame_windows(utterances, span):
    """FrameDataset.inputs rows, one per 10 ms frame, for a one-stream model."""
    dataset = FrameDataset(span_model([span]), Corpus(utterances, 3))
    return dataset.inputs(np.arange(len(dataset)))[0]


class TestFrameWindows:
    """Windows gathered by FrameDataset.inputs; edges are zero-padded."""

    def test_window_count_equals_labels(self, rng):
        utterance = Utterance("u", Signal(rng.normal(size=1600)), np.arange(10) % 3)
        assert frame_windows([utterance], 301).shape == (10, 301)

    def test_first_window_of_long_span_zero_padded(self, rng):
        utterance = Utterance("u", Signal(rng.normal(size=1600)), np.zeros(10))
        window = frame_windows([utterance], 801)[0]
        assert not window[:401].any()  # everything before sample 0
        assert window[401:].all()

    def test_equals_slice_of_padded_signal(self, rng):
        samples = rng.normal(size=800)
        utterance = Utterance("u", Signal(samples), np.arange(5))
        span = 333
        pad = span
        padded = np.concatenate([np.zeros(pad), samples, np.zeros(pad)])
        for n, window in enumerate(frame_windows([utterance], span)):
            start = 160 * n - (span + 1) // 2 + pad
            np.testing.assert_array_equal(window, padded[start : start + span])

    def test_padding_is_exactly_zero(self, rng):
        utterances = [
            Utterance(u, Signal(rng.normal(size=320) + 10.0), np.zeros(2)) for u in "ab"
        ]
        for window in frame_windows(utterances, 1001)[[0, 2]]:
            assert (window[:501] == 0).all()
            assert (window[501 + 320 :] == 0).all()  # not the neighbouring utterance
            assert (np.abs(window[501 : 501 + 320]) > 0).all()  # samples sit near +10


class TestSynthCorpus:
    def test_deterministic_under_seed(self):
        a = synth_corpus(3, 2, 1.0, seed=42)
        b = synth_corpus(3, 2, 1.0, seed=42)
        for ua, ub in zip(a.utterances, b.utterances):
            np.testing.assert_array_equal(ua.signal.samples, ub.signal.samples)
            np.testing.assert_array_equal(ua.labels, ub.labels)

    def test_single_class_labels_all_zero(self):
        corpus = synth_corpus(1, 2, 1.0, seed=0)
        for u in corpus.utterances:
            assert not u.labels.any()

    def test_label_count_matches_frame_positions(self):
        corpus = synth_corpus(3, 2, 1.3, seed=0)
        for u in corpus.utterances:
            assert u.num_frames == len(u.signal.samples) // 160

    def test_noiseless_classes_separable_by_nearest_centroid(self):
        corpus = synth_corpus(3, 6, 2.0, seed=11, snr_db=np.inf)
        feats, labels = [], []
        for u in corpus.utterances:
            f = compute_fbank(u.signal.samples)
            n = min(len(f), u.num_frames)
            feats.append(f[:n])
            labels.append(u.labels[:n])
        feats = np.concatenate(feats)
        labels = np.concatenate(labels)
        half = len(feats) // 2
        centroids = np.stack(
            [feats[:half][labels[:half] == c].mean(axis=0) for c in range(3)]
        )
        distances = ((feats[half:, None, :] - centroids[None]) ** 2).sum(axis=2)
        accuracy = (distances.argmin(axis=1) == labels[half:]).mean()
        assert accuracy > 0.95


class TestManifest:
    def test_round_trip(self, tmp_path, rng):
        corpus = synth_corpus(2, 2, 1.0, seed=3)
        lines = []
        for u in corpus.utterances:
            write_wav(tmp_path / f"{u.id}.wav", u.signal)
            label_path = tmp_path / f"{u.id}.labels"
            label_path.write_text("\n".join(str(v) for v in u.labels) + "\n")
            lines.append(f"{u.id}.wav\t{u.id}.labels\t{u.meeting_id}")
        manifest = tmp_path / "corpus.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        loaded = load_manifest(manifest)
        assert loaded.num_classes == 2
        assert len(loaded.utterances) == 2
        for original, restored in zip(corpus.utterances, loaded.utterances):
            np.testing.assert_array_equal(original.labels, restored.labels)
            assert restored.meeting_id == original.meeting_id

    def test_wrong_field_count_rejected(self, tmp_path):
        manifest = tmp_path / "bad.tsv"
        manifest.write_text("only_one_field\n")
        with pytest.raises(FormatError):
            load_manifest(manifest)

    def test_label_count_mismatch_rejected(self, tmp_path):
        corpus = synth_corpus(2, 1, 1.0, seed=3)
        u = corpus.utterances[0]
        write_wav(tmp_path / "u.wav", u.signal)
        (tmp_path / "u.labels").write_text("0\n1\n")
        manifest = tmp_path / "c.tsv"
        manifest.write_text("u.wav\tu.labels\tm0\n")
        with pytest.raises(FormatError, match="labels"):
            load_manifest(manifest)

    def test_same_stem_in_different_directories_keeps_audio(self, tmp_path, rng):
        signals = [Signal(rng.normal(size=320)), Signal(3.0 * rng.normal(size=320))]
        lines = []
        for folder, signal in zip("ab", signals):
            (tmp_path / folder).mkdir()
            write_wav(tmp_path / folder / "x.wav", signal)
            (tmp_path / folder / "x.labels").write_text("0\n1\n")
            lines.append(f"{folder}/x.wav\t{folder}/x.labels\tm0")
        manifest = tmp_path / "c.tsv"
        manifest.write_text("\n".join(lines) + "\n")
        loaded = load_manifest(manifest)
        centered = [u.signal.samples - u.signal.samples.mean() for u in loaded.utterances]
        scale = np.sqrt(np.mean(np.concatenate(centered) ** 2))
        normalized = normalize_utterance_meeting(loaded)
        for expected, u in zip(centered, normalized.utterances):
            np.testing.assert_allclose(u.signal.samples, expected / scale)

    def test_negative_label_rejected(self, tmp_path):
        write_wav(tmp_path / "u.wav", Signal(np.zeros(320)))
        (tmp_path / "u.labels").write_text("0\n-1\n")
        manifest = tmp_path / "c.tsv"
        manifest.write_text("u.wav\tu.labels\tm0\n")
        with pytest.raises(FormatError, match="utterance u .*negative"):
            load_manifest(manifest, num_classes=3)
