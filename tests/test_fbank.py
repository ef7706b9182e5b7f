import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msam
from msam.conv import output_map_size
from msam.dataio import FRAME_SHIFT, SAMPLE_RATE, Corpus, Signal, Utterance
from msam.errors import GeometryError
from msam.fbank import (
    LOG_FLOOR,
    FbankConfig,
    band_sums,
    compute_fbank,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    stack_context,
)
from msam.model import build_fbank_model
from msam.trainer import FrameDataset

from conftest import cpu_has_avx2

class TestMelFilterbank:
    def test_rows_sum_positive(self):
        weights = mel_filterbank(FbankConfig())
        assert weights.shape == (40, 257)
        assert (weights >= 0).all()
        assert (weights.sum(axis=1) > 0).all()

    def test_center_frequencies_monotone(self):
        peaks = mel_filterbank(FbankConfig()).argmax(axis=1)
        assert (np.diff(peaks) > 0).all()

    def test_centers_match_direct_formula(self):
        # Independent re-evaluation of the Mel spacing formula: each
        # triangle peaks at one of the two FFT bins around its centre.
        cfg = FbankConfig()
        mel_max = 2595.0 * np.log10(1.0 + 8000.0 / 700.0)
        expected = 700.0 * (
            10.0 ** (np.arange(1, 41) * mel_max / 41.0 / 2595.0) - 1.0
        )
        center_bins = expected * cfg.fft_size / 16000.0
        peaks = mel_filterbank(cfg).argmax(axis=1)
        assert ((peaks == np.floor(center_bins)) | (peaks == np.ceil(center_bins))).all()

    def test_single_contiguous_support(self):
        for row in mel_filterbank(FbankConfig()):
            support = np.flatnonzero(row)
            assert len(support) > 0
            assert np.array_equal(support, np.arange(support[0], support[-1] + 1))

    def test_support_starts_strictly_increase(self):
        starts = [np.flatnonzero(row)[0] for row in mel_filterbank(FbankConfig())]
        assert all(b > a for a, b in zip(starts, starts[1:]))

    def test_mel_scale_round_trip(self):
        f = np.linspace(0, 8000, 100)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-9)


class TestComputeFbank:
    def test_frame_count(self, rng):
        feats = compute_fbank(rng.normal(size=2000), FbankConfig())
        assert feats.shape == (11, 40)
        assert feats.shape[0] == output_map_size(2000, 400, 160)

    def test_pure_tone_hits_matching_filter(self):
        cfg = FbankConfig()
        t = np.arange(4000) / SAMPLE_RATE
        feats = compute_fbank(np.sin(2 * np.pi * 1000.0 * t), cfg)
        winning = int(np.argmax(feats.mean(axis=0)))
        # The filter whose passband contains 1 kHz, located from the
        # filterbank construction itself.
        weights = mel_filterbank(cfg)
        bin_1khz = round(1000.0 * cfg.fft_size / SAMPLE_RATE)
        candidates = np.flatnonzero(weights[:, bin_1khz] > 0)
        assert winning in candidates

    def test_zero_signal_hits_log_floor(self):
        feats = compute_fbank(np.zeros(800), FbankConfig())
        np.testing.assert_allclose(feats, np.log(LOG_FLOOR))

    def test_finite_for_any_input(self, rng):
        feats = compute_fbank(rng.normal(size=1200) * 1e-12, FbankConfig())
        assert np.isfinite(feats).all()

    def test_frame_shorter_than_frame_shift_rejected(self):
        with pytest.raises(ValueError, match="160-sample frame shift"):
            FbankConfig(frame_size=100)

    def test_too_short_signal_raises(self):
        with pytest.raises(GeometryError):
            compute_fbank(np.zeros(399), FbankConfig())


def numpy_uses_openblas() -> bool:
    try:
        return "openblas" in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"].lower()
    except (AttributeError, KeyError, TypeError):
        return False


class TestBlasIndependence:
    @pytest.mark.parametrize("num_filters", [4, 40, 128])
    def test_band_sums_equal_the_matrix_product(self, rng, num_filters):
        """128 filters over 257 bins leave some bands a single bin wide."""
        filters = mel_filterbank(FbankConfig(num_filters=num_filters))
        spectra = rng.uniform(0, 10, size=(filters.shape[1], 30))
        np.testing.assert_allclose(band_sums(spectra, filters), filters @ spectra, rtol=1e-13)

    @pytest.mark.skipif(not numpy_uses_openblas(),
                        reason="NumPy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE selects nothing")
    @pytest.mark.skipif(not cpu_has_avx2(),
                        reason="/proc/cpuinfo lists no avx2, which OpenBLAS's Haswell kernels need")
    def test_features_are_identical_under_the_haswell_kernel(self, rng, tmp_path):
        """A child process whose OpenBLAS runs its Haswell (AVX2) kernels
        computes the same feature bytes as this process; the float64 dgemm
        that projected spectra onto the filters differed in its last bits."""
        signal = rng.normal(size=16000)
        np.save(tmp_path / "signal.npy", signal)
        src = str(Path(msam.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, numpy as np; from msam.fbank import compute_fbank; "
                "sys.stdout.buffer.write(compute_fbank(np.load(sys.argv[1])).tobytes())")
        child = subprocess.run([sys.executable, "-c", code, str(tmp_path / "signal.npy")],
                               env=env, capture_output=True, check=True)
        assert child.stdout == compute_fbank(signal).tobytes()


class TestStackContext:
    def test_eleven_frames_of_40d(self, rng):
        stacked = stack_context(rng.normal(size=(30, 40)), np.arange(5, 25), 11)
        assert stacked.shape == (20, 440)

    def test_single_frame_is_identity(self, rng):
        feats = rng.normal(size=(7, 5))
        np.testing.assert_array_equal(stack_context(feats, np.arange(7), 1), feats)

    def test_left_edge_replicates_first_frame(self, rng):
        """The edge copies are stored: a one-utterance FBANK dataset's first
        and last frames repeat the utterance's first and last rows."""
        model = build_fbank_model(3, FbankConfig(num_filters=3), context_frames=5,
                                  hidden_dims=(), dtype=np.float64)
        signal = Signal(rng.normal(size=6 * FRAME_SHIFT))
        dataset = FrameDataset(model, Corpus([Utterance("u", signal, np.zeros(6, int))], 3))
        feats = model.featurize(signal)
        first, last = dataset.inputs([0, 5]).reshape(2, 5, 3)
        np.testing.assert_array_equal(first, feats[[0, 0, 0, 1, 2]])
        np.testing.assert_array_equal(last, feats[[3, 4, 5, 5, 5]])

    def test_even_context_rejected(self, rng):
        with pytest.raises(ValueError):
            stack_context(rng.normal(size=(4, 2)), [2], 4)

    @pytest.mark.parametrize("centers, num_frames", [([0], 3), ([1, 5], 3), ([-1], 1), ([6], 1)])
    def test_centre_outside_rows_raises(self, rng, centers, num_frames):
        """A context that reaches past either end of the rows is an error,
        not a wrapped or clipped index."""
        with pytest.raises(GeometryError):
            stack_context(rng.normal(size=(6, 2)), centers, num_frames)
