import re
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import BYTE_OPS, line_ops, mutate, span_model, traced_peak, write_new, write_wav


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

    def test_holds_one_float_array(self, tmp_path):
        """The file's bytes and one float64 array of its samples, scaled in
        place.  One second keeps the array below the 256 KB above which
        NumPy may reuse a temporary by itself."""
        path = tmp_path / "one_second.wav"
        _write_raw_wav(path, np.arange(16000) - 8000)
        signal, peak = traced_peak(lambda: load_wav(path))
        assert signal.samples[0] == -8000 / 32768.0
        assert peak <= (2 + 8) * 16000 + 2**12

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

    @pytest.mark.parametrize("size", [0, 30])
    def test_truncated_header_names_field(self, tmp_path, size):
        """A 0-byte file or a header cut short escaped as wave's EOFError."""
        path = tmp_path / "cut.wav"
        _write_raw_wav(path, np.zeros(1600))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(FormatError, match="header: .* cut short"):
            load_wav(path)

    def test_chunk_overrunning_the_riff_chunk_names_field(self, tmp_path):
        """Found by the WAV fuzz: a fmt chunk size past the RIFF chunk's end
        escaped as wave's bare RuntimeError."""
        path = tmp_path / "overrun.wav"
        _write_raw_wav(path, np.zeros(1600))
        data = bytearray(path.read_bytes())
        data[16:20] = (1 << 20).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="header: .* overruns"):
            load_wav(path)

    @pytest.mark.parametrize("data_bytes", [601, 600, 0])
    def test_data_chunk_shorter_than_header_rejected(self, tmp_path, data_bytes):
        """The header declares 1600 samples.  An odd byte count failed in
        NumPy's frombuffer, 600 bytes loaded 300 samples silently and 0
        bytes failed as an empty Signal."""
        path = tmp_path / "short.wav"
        _write_raw_wav(path, np.zeros(1600))
        path.write_bytes(path.read_bytes()[: 44 + data_bytes])
        with pytest.raises(FormatError,
                           match=f"data: {data_bytes} bytes where the header declares 1600"):
            load_wav(path)

    def test_zero_samples_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        _write_raw_wav(path, [])
        with pytest.raises(FormatError, match="data: .* no samples"):
            load_wav(path)


def _toy_corpus():
    u1 = Utterance("u1", Signal(np.array([1.0, 3.0] * 160)), np.zeros(2), "m0")
    u2 = Utterance("u2", Signal(np.array([-2.0, 0.0] * 160)), np.ones(2), "m1")
    return Corpus([u1, u2], 2)


@pytest.mark.parametrize("normalize", [normalize_global, normalize_utterance_meeting])
def test_normalization_stages_one_copy(normalize):
    """Normalisation peaks at no more than the corpus plus two utterances,
    its result included, and leaves its input as it was."""
    corpus = synth_corpus(3, 16, 1.0, seed=4)
    before = [u.signal.samples.copy() for u in corpus.utterances]
    _, peak = traced_peak(lambda: normalize(corpus))
    utterance_bytes = corpus.utterances[0].signal.samples.nbytes
    assert peak <= (len(corpus.utterances) + 2) * utterance_bytes
    for samples, u in zip(before, corpus.utterances):
        np.testing.assert_array_equal(u.signal.samples, samples)


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

    @staticmethod
    def _one_utterance(tmp_path, labels: bytes, num_samples=320):
        write_wav(tmp_path / "u.wav", Signal(np.full(num_samples, 0.1)))
        (tmp_path / "u.labels").write_bytes(labels)
        manifest = tmp_path / "c.tsv"
        manifest.write_text("u.wav\tu.labels\tm0\n")
        return manifest

    @pytest.mark.parametrize("token", ["x", "1.5"])
    def test_non_integer_label_names_file_and_line(self, tmp_path, token):
        """Failed with NumPy's "could not convert string" ValueError."""
        manifest = self._one_utterance(tmp_path, f"0\n{token}\n".encode())
        with pytest.raises(FormatError, match=rf"manifest line 1: labels: .*u\.labels line 2: "
                                              rf"'{re.escape(token)}' is not an integer"):
            load_manifest(manifest)

    def test_non_utf8_label_file_names_file_and_line(self, tmp_path):
        manifest = self._one_utterance(tmp_path, b"0\n\xff\n")
        with pytest.raises(FormatError, match=r"manifest line 1: .*u\.labels line 2: not UTF-8"):
            load_manifest(manifest)

    def test_non_utf8_manifest_names_line(self, tmp_path):
        manifest = self._one_utterance(tmp_path, b"0\n1\n")
        manifest.write_bytes(b"u.wav\tu.labels\tm0\nu.wav\tu.labels\tm\xe9\n")
        with pytest.raises(FormatError, match=r"c\.tsv line 2: not UTF-8"):
            load_manifest(manifest)

    def test_wav_shorter_than_one_frame_rejected(self, tmp_path):
        """100 samples and an empty label file: loadtxt warned, then the
        label maximum of an empty array raised."""
        manifest = self._one_utterance(tmp_path, b"", num_samples=100)
        with pytest.raises(FormatError, match="manifest line 1: u.wav has 100 samples, "
                                              "fewer than one 160-sample frame"):
            load_manifest(manifest)

    @pytest.mark.parametrize("wav_path", ["nope.wav", "u\x00.wav"])
    def test_unopenable_path_names_manifest_line(self, tmp_path, wav_path):
        """Found by the manifest fuzz: a NUL byte in a path escaped as
        open()'s ValueError (exit 1), and a missing file as a bare
        FileNotFoundError that did not say which manifest line named it."""
        manifest = self._one_utterance(tmp_path, b"0\n1\n")
        manifest.write_text(f"u.wav\tu.labels\tm0\n{wav_path}\tu.labels\tm0\n")
        with pytest.raises(FormatError, match="manifest line 2: "):
            load_manifest(manifest)

    def test_negative_label_rejected(self, tmp_path):
        write_wav(tmp_path / "u.wav", Signal(np.zeros(320)))
        (tmp_path / "u.labels").write_text("0\n-1\n")
        manifest = tmp_path / "c.tsv"
        manifest.write_text("u.wav\tu.labels\tm0\n")
        with pytest.raises(FormatError, match="utterance u .*negative"):
            load_manifest(manifest, num_classes=3)

    def test_label_equal_to_num_classes_rejected(self, tmp_path):
        write_wav(tmp_path / "u.wav", Signal(np.zeros(320)))
        (tmp_path / "u.labels").write_text("0\n3\n")
        manifest = tmp_path / "c.tsv"
        manifest.write_text("u.wav\tu.labels\tm0\n")
        with pytest.raises(FormatError, match="utterance u has label >= 3"):
            load_manifest(manifest, num_classes=3)


# Line and token mutations of a manifest or label file.
_LINE_OPS = line_ops([
    b"", b"x", b"1.5", b"-1", b"7", b"1e3", b"99999999999999999999", b" 2 ", b"0\t1",
    b"u1.wav", b"u0.labels", b"nope.wav", b"\xff", b"\xc3", b"\r",
])


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """A valid two-utterance corpus as bytes per file name, a directory to
    write mutated copies into, and an FBANK checkpoint to evaluate them with."""
    from msam.checkpoint import save_checkpoint
    from msam.fbank import FbankConfig
    from msam.model import build_fbank_model

    folder = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    files = {}
    for u, labels in enumerate(["0\n1\n2\n", "1\n0\n"]):
        write_wav(folder / "clean.wav", Signal(rng.uniform(-0.5, 0.5, 160 * len(labels) - u)))
        files[f"u{u}.wav"] = (folder / "clean.wav").read_bytes()
        files[f"u{u}.labels"] = labels.encode()
    files["c.tsv"] = b"u0.wav\tu0.labels\tm0\nu1.wav\tu1.labels\tm1\n"
    checkpoint = folder / "model.ckpt"
    save_checkpoint(checkpoint, build_fbank_model(3, FbankConfig(num_filters=4),
                                                  hidden_dims=(4,), seed=0))
    return files, folder, checkpoint


class TestLoaderFuzz:
    """Every mutated input either loads or is a FormatError, never another
    exception: through `msam eval` it exits 2 with a one-line error."""

    @settings(max_examples=150, deadline=None)
    @given(ops=BYTE_OPS)
    def test_load_wav_loads_or_raises_format_error(self, fuzz_corpus, ops):
        files, folder, _ = fuzz_corpus
        data = mutate(files["u0.wav"], ops)
        write_new(folder / "m.wav", data)
        try:
            signal = load_wav(folder / "m.wav")
        except FormatError:
            return
        assert 1 <= len(signal) and 2 * len(signal) <= len(data)
        assert np.all(np.abs(signal.samples) <= 1.0)

    @settings(max_examples=150, deadline=None)
    @given(target=st.sampled_from(["c.tsv", "u0.labels", "u1.labels", "u0.wav"]),
           ops=st.one_of(_LINE_OPS, BYTE_OPS))
    def test_manifest_loads_or_raises_format_error(self, fuzz_corpus, target, ops):
        from contextlib import redirect_stderr
        from io import StringIO

        from msam.cli import EXIT_IO, main

        files, folder, checkpoint = fuzz_corpus
        for name, data in files.items():
            write_new(folder / name, mutate(data, ops) if name == target else data)
        try:
            corpus = load_manifest(folder / "c.tsv")
        except FormatError:
            corpus = None
        else:
            for u in corpus.utterances:
                assert len(u.labels) == len(u.signal) // 160 >= 1
                assert 0 <= u.labels.min() and u.labels.max() < corpus.num_classes
        err = StringIO()
        with redirect_stderr(err):
            code = main(["eval", str(checkpoint), "--corpus", str(folder / "c.tsv")])
        assert "Traceback" not in err.getvalue()
        if corpus is None:
            assert code == EXIT_IO and err.getvalue().startswith("error: ")
