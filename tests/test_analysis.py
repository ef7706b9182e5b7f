import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msam.analysis import (
    KernelSpectrum,
    effective_kernel_length,
    export_analysis,
    kernel_spectrum,
    sort_by_peak,
)
from msam.errors import ValidationError
from msam.model import build_fbank_model, build_raw_model
from msam.streams import desk_scale_config


def direct_dft_magnitudes(kernel, fft_size):
    """O(N^2) direct-summation DFT oracle, non-negative frequencies only."""
    padded = np.zeros(fft_size, dtype=np.complex128)
    padded[: len(kernel)] = kernel
    n = np.arange(fft_size)
    out = np.empty(fft_size // 2 + 1)
    for k in range(fft_size // 2 + 1):
        out[k] = abs(np.sum(padded * np.exp(-2j * np.pi * k * n / fft_size)))
    return out


class TestKernelSpectrum:
    def test_delta_kernel_flat_spectrum(self):
        spectrum = kernel_spectrum(np.array([1.0, 0, 0, 0, 0]), fft_size=64)
        np.testing.assert_allclose(spectrum.magnitudes, 1.0, atol=1e-12)

    def test_bin_aligned_cosine_single_peak(self):
        fft_size = 128
        bin_index = 16
        n = np.arange(fft_size)
        kernel = np.cos(2 * np.pi * bin_index * n / fft_size)
        spectrum = kernel_spectrum(kernel, fft_size=fft_size)
        assert int(np.argmax(spectrum.magnitudes)) == bin_index
        assert spectrum.peak_frequency == pytest.approx(16000.0 * bin_index / fft_size)

    def test_matches_direct_summation_oracle(self, rng):
        kernel = rng.normal(size=50)
        spectrum = kernel_spectrum(kernel, fft_size=128)
        assert np.max(np.abs(spectrum.magnitudes - direct_dft_magnitudes(kernel, 128))) < 1e-9

    def test_time_reversed_kernel_same_magnitudes(self, rng):
        kernel = rng.normal(size=33)
        forward = kernel_spectrum(kernel, fft_size=256).magnitudes
        reverse = kernel_spectrum(kernel[::-1], fft_size=256).magnitudes
        np.testing.assert_allclose(forward, reverse, atol=1e-9)

    def test_fft_size_too_small_rejected(self):
        with pytest.raises(ValueError):
            kernel_spectrum(np.ones(50), fft_size=32)


class TestSortByPeak:
    def _spectra(self, frequencies):
        return [
            KernelSpectrum(i, np.zeros(3), f) for i, f in enumerate(frequencies)
        ]

    def test_sorted_input_identity(self):
        assert sort_by_peak(self._spectra([100, 200, 300])) == [0, 1, 2]

    def test_reversed_input_reversed(self):
        assert sort_by_peak(self._spectra([300, 200, 100])) == [2, 1, 0]

    def test_matches_reference_sort(self, rng):
        freqs = rng.uniform(0, 8000, size=40)
        expected = [int(i) for i in np.argsort(freqs, kind="stable")]
        assert sort_by_peak(self._spectra(freqs)) == expected

    def test_ties_broken_by_index(self):
        assert sort_by_peak(self._spectra([5.0, 5.0, 1.0])) == [2, 0, 1]

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_output_is_permutation(self, seed):
        rng = np.random.default_rng(seed)
        order = sort_by_peak(self._spectra(rng.uniform(0, 8000, size=17)))
        assert sorted(order) == list(range(17))


class TestEffectiveKernelLength:
    def test_single_tap(self):
        kernel = np.zeros(20)
        kernel[7] = 2.0
        assert effective_kernel_length(kernel) == 1

    def test_uniform_kernel_cannot_shorten(self):
        assert effective_kernel_length(np.ones(50), 0.99) == 50

    def test_concentrated_block(self):
        kernel = np.zeros(50)
        kernel[10:20] = 3.0
        total = np.sum(kernel**2)
        block = np.sum(kernel[10:20] ** 2)
        assert effective_kernel_length(kernel, block / total) == 10

    def test_matches_exhaustive_scan(self, rng):
        def exhaustive(kernel, fraction):
            energy = kernel**2
            target = fraction * energy.sum()
            for length in range(1, len(kernel) + 1):
                for start in range(len(kernel) - length + 1):
                    if energy[start : start + length].sum() >= target:
                        return length
            return len(kernel)

        for _ in range(100):
            kernel = rng.normal(size=int(rng.integers(1, 40)))
            fraction = float(rng.uniform(0.3, 1.0))
            assert effective_kernel_length(kernel, fraction) == exhaustive(kernel, fraction)

    def test_monotone_in_energy_fraction(self, rng):
        kernel = rng.normal(size=60)
        fractions = np.linspace(0.1, 1.0, 10)
        lengths = [effective_kernel_length(kernel, f) for f in fractions]
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))

    def test_all_zero_kernel_rejected(self):
        with pytest.raises(ValueError):
            effective_kernel_length(np.zeros(10))


class TestExportAnalysis:
    def _model(self):
        return build_raw_model(
            "multi_span", [desk_scale_config(s, 50) for s in (4, 9, 15)], 3,
            hidden_dims=(8,), seed=6,
        )

    def test_file_count_and_rows(self, tmp_path):
        model = self._model()
        paths = export_analysis(model, tmp_path)
        assert len(paths) == 7  # 3 spectra + 3 length files + mel reference
        for i in range(3):
            spectra = (tmp_path / f"spectra_stream{i}.csv").read_text().splitlines()
            lengths = (tmp_path / f"effective_lengths_stream{i}.csv").read_text().splitlines()
            assert len(spectra) == model.streams[i].config.first_num_kernels
            assert len(lengths) == model.streams[i].config.first_num_kernels

    def test_reexport_byte_identical(self, tmp_path):
        model = self._model()
        export_analysis(model, tmp_path / "a")
        export_analysis(model, tmp_path / "b")
        for name in [p.name for p in (tmp_path / "a").iterdir()]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_spectra_rows_sorted_by_peak(self, tmp_path):
        model = self._model()
        export_analysis(model, tmp_path)
        rows = (tmp_path / "spectra_stream0.csv").read_text().splitlines()
        peaks = [float(r.split(",")[1]) for r in rows]
        assert all(b >= a for a, b in zip(peaks, peaks[1:]))

    def test_known_kernel_bank_sorts_into_known_order(self, tmp_path):
        fft_size = 512
        n = np.arange(50)
        freqs_hz = [3000.0, 500.0, 1500.0]
        spectra = [
            kernel_spectrum(np.cos(2 * np.pi * f / 16000.0 * n), fft_size, i)
            for i, f in enumerate(freqs_hz)
        ]
        assert sort_by_peak(spectra) == [1, 2, 0]

    def test_fbank_model_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no waveform kernels"):
            export_analysis(build_fbank_model(3, hidden_dims=(4,), seed=0), tmp_path)
