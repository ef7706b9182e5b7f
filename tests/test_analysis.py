import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msam.analysis import ENERGY_FRACTION, effective_lengths, export_analysis, kernel_spectra
from msam.checkpoint import load_checkpoint, save_checkpoint
from msam.cli import EXIT_OK, main
from msam.errors import ValidationError
from msam.model import build_fbank_model, build_raw_model
from msam.streams import StreamConfig, desk_scale_config

from conftest import DATA


def direct_dft_magnitudes(kernel, fft_size):
    """O(N^2) direct-summation DFT oracle, non-negative frequencies only."""
    padded = np.zeros(fft_size, dtype=np.complex128)
    padded[: len(kernel)] = kernel
    n = np.arange(fft_size)
    out = np.empty(fft_size // 2 + 1)
    for k in range(fft_size // 2 + 1):
        out[k] = abs(np.sum(padded * np.exp(-2j * np.pi * k * n / fft_size)))
    return out


def exhaustive_effective_length(kernel):
    """Oracle: try every sub-window, shortest first."""
    energy = kernel**2
    target = ENERGY_FRACTION * energy.sum()
    for length in range(1, len(kernel) + 1):
        for start in range(len(kernel) - length + 1):
            if energy[start : start + length].sum() >= target:
                return length
    return len(kernel)


def cosine_bank(freqs_hz, length=50):
    n = np.arange(length)
    return np.cos(2 * np.pi * np.asarray(freqs_hz)[:, None] / 16000.0 * n)


def exported_rows(out_dir, kernels):
    """export_analysis's spectra rows for a single-span model whose first
    layer is `kernels`: the kernel indices and peak frequencies, in file order."""
    kernels = np.asarray(kernels)
    config = StreamConfig(7, kernels.shape[1], first_map_size=2, first_num_kernels=len(kernels),
                          second_stride=1, second_kernel_len=2 * len(kernels), second_map_size=1,
                          second_num_kernels=2, projection_dim=2)
    model = build_raw_model("single_span", [config], 3, hidden_dims=(4,), seed=0)
    model.streams[0].first_layer.weights[...] = kernels
    export_analysis(model, out_dir)
    rows = [r.split(",") for r in (Path(out_dir) / "spectra_stream0.csv").read_text().splitlines()]
    return [int(r[0]) for r in rows], [float(r[1]) for r in rows]


class TestKernelSpectrum:
    def test_delta_kernel_flat_spectrum(self):
        magnitudes, _ = kernel_spectra([[1.0, 0, 0, 0, 0]])
        assert magnitudes.shape == (1, 257)
        np.testing.assert_allclose(magnitudes, 1.0, atol=1e-12)

    def test_bin_aligned_cosine_single_peak(self):
        bins = np.array([16, 64, 200])
        bank = np.cos(2 * np.pi * bins[:, None] * np.arange(512) / 512)
        magnitudes, peak_hz = kernel_spectra(bank)
        np.testing.assert_array_equal(np.argmax(magnitudes, axis=1), bins)
        np.testing.assert_allclose(peak_hz, 16000.0 * bins / 512)

    def test_matches_direct_summation_oracle(self, rng):
        bank = rng.normal(size=(4, 50))
        magnitudes, _ = kernel_spectra(bank)
        for kernel, got in zip(bank, magnitudes):
            assert np.max(np.abs(got - direct_dft_magnitudes(kernel, 512))) < 1e-9

    def test_time_reversed_kernel_same_magnitudes(self, rng):
        bank = rng.normal(size=(3, 33))
        forward, _ = kernel_spectra(bank)
        reverse, _ = kernel_spectra(bank[:, ::-1])
        np.testing.assert_allclose(forward, reverse, atol=1e-9)

    @pytest.mark.parametrize("length, bins", [(5, 257), (512, 257), (513, 513), (600, 513),
                                              (1025, 1025)])
    def test_fft_size_grows_to_next_power_of_two(self, length, bins):
        magnitudes, _ = kernel_spectra(np.ones((2, length)))
        assert magnitudes.shape == (2, bins)


class TestSortByPeak:
    """export_analysis writes each stream's spectra rows in ascending peak
    order, ties by kernel index."""

    def test_sorted_input_identity(self, tmp_path):
        order, peaks = exported_rows(tmp_path, cosine_bank(300.0 + 450.0 * np.arange(16)))
        assert order == list(range(16))
        assert all(b > a for a, b in zip(peaks, peaks[1:]))

    def test_reversed_input_reversed(self, tmp_path):
        order, _ = exported_rows(tmp_path, cosine_bank(7050.0 - 450.0 * np.arange(16)))
        assert order == list(range(15, -1, -1))

    def test_matches_reference_sort(self, tmp_path, rng):
        bank = rng.normal(size=(40, 30))
        _, peak_hz = kernel_spectra(bank.astype(np.float32))
        order, peaks = exported_rows(tmp_path, bank)
        assert order == sorted(range(40), key=lambda j: (peak_hz[j], j))
        assert peaks == [float(f"{peak_hz[j]:.6f}") for j in order]

    def test_ties_broken_by_index(self, tmp_path):
        # kernel j is a cosine at [3000, 500, 1500][j % 3] Hz
        order, _ = exported_rows(tmp_path, cosine_bank([3000.0, 500.0, 1500.0] * 4))
        assert order == [1, 4, 7, 10, 2, 5, 8, 11, 0, 3, 6, 9]

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_output_is_permutation(self, seed):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as out_dir:
            order, _ = exported_rows(out_dir, rng.normal(size=(17, 20)))
        assert sorted(order) == list(range(17))


class TestEffectiveKernelLength:
    def test_single_tap(self):
        kernel = np.zeros((1, 20))
        kernel[0, 7] = 2.0
        assert effective_lengths(kernel).tolist() == [1]

    def test_uniform_kernel_cannot_shorten(self):
        assert effective_lengths(np.ones((2, 50))).tolist() == [50, 50]

    def test_concentrated_block(self):
        kernel = np.zeros((1, 50))
        kernel[0, 10:20] = 3.0
        kernel[0, 40] = 0.5  # 0.25 of 90.25: under 1% of the energy
        assert effective_lengths(kernel).tolist() == [10]

    def test_window_of_exactly_the_energy_fraction_counts(self):
        """Taps 3, 9, 3 hold 99 of the kernel's 100 units of energy: exactly
        ENERGY_FRACTION, which is enough."""
        assert ENERGY_FRACTION * 100 == 99
        assert effective_lengths(np.array([[1.0, 0, 0, 3, 9, 3]])).tolist() == [3]

    def test_matches_exhaustive_scan(self, rng):
        for _ in range(100):
            bank = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 40))))
            assert effective_lengths(bank).tolist() == [
                exhaustive_effective_length(kernel) for kernel in bank
            ]

    def test_all_zero_kernel_has_length_zero(self, rng):
        """A dead kernel raised ValueError, which stopped `msam analyze`."""
        bank = rng.normal(size=(3, 10))
        lengths = effective_lengths(bank)
        bank[1] = 0.0
        assert effective_lengths(bank).tolist() == [lengths[0], 0, lengths[2]]


# sha256 of each CSV export_analysis writes for three models.
MEL_REFERENCE = "758fa6a54ef5aed5eac4d82f16cf8454a5b6d4906d3032687a377189567c2861"
PINNED_DIGESTS = {
    "trained_multi_span.ckpt": {
        "effective_lengths_stream0.csv":
            "0c8541a5d72699dd896ffb4051f65f4a5b5953043f58cced0aad58349c950f82",
        "effective_lengths_stream1.csv":
            "97983d0736c158177d67f5d724282316f2cbf76b9d48c39549c292aa79b75a24",
        "spectra_stream0.csv":
            "ec7a57b0ae1f0fad9385b0ce7a2c683a6681ddd01b72334add3a28775360b420",
        "spectra_stream1.csv":
            "5f31785558bb813540732d21178505c5fcf30ed810772e95c96cd9d6d0a3d0d9",
    },
    "desk M_4,9,15^50,50,50": {
        "effective_lengths_stream0.csv":
            "3279f0892ed90cb6e7467ad058a04ca7947c20b6db8a248c8c1d6686dd60330f",
        "effective_lengths_stream1.csv":
            "c5934524c646c8cc170e96079976a740885cd87549925489099d4eb077674ca2",
        "effective_lengths_stream2.csv":
            "754745787b459a55becfa6f5f06049270f787f97d3800a57bf80babb3de3a0ed",
        "spectra_stream0.csv":
            "d3320e262ea41e6abc97f12121cfdad7f0f1cdc7f54c7a2c82665ea6bfe34ec1",
        "spectra_stream1.csv":
            "8905be0371b80b81f62240ca2993c4cb1de360fa4ffc445f4dff4d9508fbf25a",
        "spectra_stream2.csv":
            "be4c2a73b02dd42e6c5f75798cf10a29a8260cf4c49c478f5fced0ae9c519c69",
    },
    "paper I_10^400": {
        "effective_lengths_stream0.csv":
            "91cf306a9769d475c1d95b98509450781dfcaaa44bb6517d2ca172a88340b48f",
        "spectra_stream0.csv":
            "3ca7049e8894aa559ba98dd4b96219cf99ea1190f2f15e9137b3499ac23b7a15",
    },
}


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

    def test_reexport_replaces_the_file_a_reader_has_open(self, tmp_path):
        """Each CSV was truncated and written over, so a reader that had the
        old one open read the new rows, or part of them."""
        export_analysis(load_checkpoint(DATA / "trained_multi_span.ckpt"), tmp_path / "a")
        path = tmp_path / "a" / "spectra_stream0.csv"
        old = path.read_bytes()
        with open(path, "rb") as fh:
            export_analysis(self._model(), tmp_path / "a")
            assert fh.read() == old
        export_analysis(self._model(), tmp_path / "b")
        for other in (tmp_path / "b").iterdir():
            assert (tmp_path / "a" / other.name).read_bytes() == other.read_bytes()
        assert path.read_bytes() != old
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(
            p.name for p in (tmp_path / "b").iterdir())

    def test_spectra_rows_sorted_by_peak(self, tmp_path):
        model = self._model()
        export_analysis(model, tmp_path)
        rows = (tmp_path / "spectra_stream0.csv").read_text().splitlines()
        peaks = [float(r.split(",")[1]) for r in rows]
        assert all(b >= a for a, b in zip(peaks, peaks[1:]))

    def test_known_kernel_bank_sorts_into_known_order(self, tmp_path):
        order, _ = exported_rows(tmp_path, cosine_bank([3000.0, 500.0, 1500.0]))
        assert order == [1, 2, 0]

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_csv_digests_pinned(self, tmp_path, name):
        """Every CSV is byte-identical to the per-kernel implementation's."""
        if name == "trained_multi_span.ckpt":
            model = load_checkpoint(DATA / name)
        elif name.startswith("desk"):
            model = self._model()
        else:
            model = build_raw_model("single_span", [StreamConfig(10, 400)], 3,
                                    hidden_dims=(8,), seed=0)
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in export_analysis(model, tmp_path)}
        assert digests == {**PINNED_DIGESTS[name], "mel_reference.csv": MEL_REFERENCE}

    def test_kernel_longer_than_512_gets_a_1024_point_fft(self, tmp_path):
        """An I_10^600 checkpoint trains, so `msam analyze` must read it too."""
        model = build_raw_model("single_span", [StreamConfig(10, 600)], 3,
                                hidden_dims=(8,), seed=1)
        save_checkpoint(tmp_path / "model.ckpt", model)
        assert main(["analyze", str(tmp_path / "model.ckpt"), "--out", str(tmp_path)]) == EXIT_OK
        rows = [r.split(",") for r in (tmp_path / "spectra_stream0.csv").read_text().splitlines()]
        kernels = model.streams[0].first_layer.weights
        assert len(rows) == len(kernels)
        assert {len(row) for row in rows} == {2 + 513}
        for row in rows[::4]:
            direct = direct_dft_magnitudes(kernels[int(row[0])], 1024)
            assert float(row[1]) == np.argmax(direct) * 16000 / 1024

    def test_dead_kernel_analyzed(self, tmp_path):
        """One all-zero conv1 kernel made `msam analyze` exit 1 after writing
        three of its five CSVs.  Now its effective length reads 0, and every
        other row is the undamaged checkpoint's."""
        model = load_checkpoint(DATA / "trained_multi_span.ckpt")
        model.params()["stream1.conv1.weights"][1] = 0.0
        dead = save_checkpoint(tmp_path / "dead.ckpt", model)
        assert main(["analyze", str(DATA / "trained_multi_span.ckpt"),
                     "--out", str(tmp_path / "clean")]) == EXIT_OK
        assert main(["analyze", str(dead), "--out", str(tmp_path / "dead")]) == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "clean").iterdir())
        assert sorted(p.name for p in (tmp_path / "dead").iterdir()) == names
        for name in names:
            clean_rows, dead_rows = ((tmp_path / side / name).read_text().splitlines()
                                     for side in ("clean", "dead"))
            if name.endswith("stream1.csv"):
                # rows by kernel index; a spectra file is in peak order
                clean_rows = {r.split(",", 1)[0]: r for r in clean_rows}
                dead_rows = {r.split(",", 1)[0]: r for r in dead_rows}
                del clean_rows["1"]
                if name.startswith("effective"):
                    assert dead_rows.pop("1") == "1,0"
                else:
                    dead_rows.pop("1")
            assert dead_rows == clean_rows

    def test_fbank_model_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="no waveform kernels"):
            export_analysis(build_fbank_model(3, hidden_dims=(4,), seed=0), tmp_path)
