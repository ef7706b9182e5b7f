import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msam.conv import (
    KernelBank,
    conv1d_backward_batch,
    conv1d_forward_batch,
    output_map_size,
    required_span,
)
from msam.errors import GeometryError, GradientShapeError

from conftest import finite_difference_grads, max_relative_error


def naive_conv(segment, weights, biases, stride):
    """Oracle: enumerate every window and compute an explicit dot product."""
    k, l = weights.shape
    m = (len(segment) - l) // stride + 1
    out = np.empty((k, m))
    for ki in range(k):
        for mi in range(m):
            window = segment[mi * stride : mi * stride + l]
            out[ki, mi] = biases[ki] + float(np.dot(window, weights[ki]))
    return out


def random_bank(rng, k, l, s):
    return KernelBank(rng.normal(size=(k, l)), rng.normal(size=k), s)


class TestSpanArithmetic:
    def test_figure_geometries(self):
        assert output_map_size(7, 5, 1) == 3
        assert output_map_size(13, 5, 4) == 3

    def test_single_window_regardless_of_stride(self):
        assert output_map_size(5, 5, 9) == 1

    def test_too_short_input_raises(self):
        with pytest.raises(GeometryError):
            output_map_size(4, 5, 1)

    @pytest.mark.parametrize(
        "m,s,l,expected", [(200, 10, 400, 2390), (200, 15, 50, 3035), (1, 7, 5, 5)]
    )
    def test_required_span(self, m, s, l, expected):
        assert required_span(m, s, l) == expected

    def test_span_in_milliseconds(self):
        assert round(required_span(200, 10, 400) / 16.0) == 149
        assert round(required_span(200, 15, 50) / 16.0) == 190

    @given(
        s=st.integers(1, 32), l=st.integers(1, 32), m=st.integers(1, 16)
    )
    def test_round_trip(self, s, l, m):
        assert output_map_size(required_span(m, s, l), l, s) == m


class TestForward:
    """conv1d_forward_batch: (B, T) segments -> frame-major (B, M, K) maps."""

    def test_delta_kernel_picks_aligned_samples(self):
        bank = KernelBank([[1, 0, 0, 0, 0]], [0.0], 1)
        x = np.array([[1.0, 0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0, 0]])
        maps = conv1d_forward_batch(x, bank)
        np.testing.assert_array_equal(maps, [[[1.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]]])

    def test_figure_geometry_map_size(self, rng):
        bank = random_bank(rng, 1, 5, 4)
        assert conv1d_forward_batch(rng.normal(size=(2, 13)), bank).shape == (2, 3, 1)

    def test_matches_oracle(self, rng):
        bank = random_bank(rng, 2, 5, 3)
        x = rng.normal(size=(3, 32))
        maps = conv1d_forward_batch(x, bank)
        for row, segment in zip(maps, x):
            expected = naive_conv(segment, bank.weights, bank.biases, 3)
            np.testing.assert_allclose(row.T, expected, atol=1e-12)

    def test_too_short_segment_raises(self, rng):
        with pytest.raises(GeometryError):
            conv1d_forward_batch(rng.normal(size=(2, 3)), random_bank(rng, 1, 5, 1))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence_randomized(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        l = int(rng.integers(1, 12))
        s = int(rng.integers(1, 6))
        t = l + int(rng.integers(0, 40))
        b = int(rng.integers(2, 5))
        bank = random_bank(rng, k, l, s)
        x = rng.normal(size=(b, t))
        maps = conv1d_forward_batch(x, bank)
        for row, segment in zip(maps, x):
            expected = naive_conv(segment, bank.weights, bank.biases, s)
            assert np.max(np.abs(row.T - expected)) < 1e-9

    def test_linearity(self, rng):
        bank = KernelBank(rng.normal(size=(3, 7)), np.zeros(3), 2)
        x, z = rng.normal(size=(2, 25)), rng.normal(size=(2, 25))
        a, b = 1.7, -0.3
        combined = conv1d_forward_batch(a * x + b * z, bank)
        separate = a * conv1d_forward_batch(x, bank) + b * conv1d_forward_batch(z, bank)
        np.testing.assert_allclose(combined, separate, atol=1e-9)

    def test_stride_one_full_span_is_valid_correlation(self, rng):
        kernel = rng.normal(size=9)
        x = rng.normal(size=(3, 40))
        bank = KernelBank(kernel[None, :], [0.0], 1)
        maps = conv1d_forward_batch(x, bank)
        for row, segment in zip(maps, x):
            np.testing.assert_allclose(
                row[:, 0], np.correlate(segment, kernel, mode="valid"), atol=1e-12
            )


class TestExtractFrame:
    """Frame m of a layer output is maps[:, m - 1]: all K kernel responses."""

    def test_column_extraction(self):
        bank = KernelBank([[1.0], [10.0]], [0.0, 0.0], 1)
        maps = conv1d_forward_batch(np.array([[1.0, 2, 3]]), bank)
        np.testing.assert_array_equal(maps[0, 1], [2.0, 20.0])

    def test_delta_example_first_frame(self):
        bank = KernelBank([[1, 0, 0, 0, 0]], [0.0], 1)
        maps = conv1d_forward_batch(np.array([[1.0, 0, 0, 0, 0, 0, 0]]), bank)
        np.testing.assert_array_equal(maps[0, 0], [1.0])

    def test_matches_window_dot_product(self, rng):
        bank = random_bank(rng, 2, 5, 3)
        x = rng.normal(size=(2, 32))
        maps = conv1d_forward_batch(x, bank)
        for b in range(2):
            for m in range(maps.shape[1]):
                window = x[b, m * 3 : m * 3 + 5]
                expected = bank.weights @ window + bank.biases
                np.testing.assert_allclose(maps[b, m], expected, atol=1e-12)


class TestCnnLayerForward:
    """A layer's flat frame-major output, reshape(B, M*K), as the next layer sees it."""

    def test_identity_kernel_gives_strided_subsamples(self, rng):
        x = rng.normal(size=(2, 20))
        bank = KernelBank([[1.0]], [0.0], 3)
        np.testing.assert_allclose(conv1d_forward_batch(x, bank).reshape(2, -1), x[:, ::3])

    def test_relu_zeroes_negative_outputs(self):
        bank = KernelBank([[1.0]], [0.0], 1)
        x = np.array([[-1.0, 2.0, -3.0]])
        flat = np.maximum(conv1d_forward_batch(x, bank), 0).reshape(1, -1)
        np.testing.assert_array_equal(flat, [[0, 2, 0]])

    def test_matches_composition_oracle(self, rng):
        bank = random_bank(rng, 3, 4, 2)
        x = rng.normal(size=(2, 21))
        flat = conv1d_forward_batch(x, bank).reshape(2, -1)
        for row, segment in zip(flat, x):
            expected = naive_conv(segment, bank.weights, bank.biases, 2).T.reshape(-1)
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_flatten_round_trip(self, rng):
        maps = conv1d_forward_batch(rng.normal(size=(3, 17)), random_bank(rng, 4, 2, 3))
        flat = maps.reshape(3, -1)
        assert np.shares_memory(flat, maps)
        np.testing.assert_array_equal(flat.reshape(maps.shape), maps)
        np.testing.assert_array_equal(flat[:, 4:8], maps[:, 1])


class TestBackward:
    """conv1d_backward_batch: (B, M, K) upstream, batch-summed parameter grads."""

    def test_zero_upstream_gives_zero_grads(self, rng):
        bank = random_bank(rng, 2, 5, 3)
        x = rng.normal(size=(2, 20))
        dw, db, dx = conv1d_backward_batch(x, bank, np.zeros((2, 6, 2)))
        assert not dw.any() and not db.any() and not dx.any()

    def test_single_window_weight_grad_is_scaled_input(self, rng):
        bank = random_bank(rng, 1, 5, 1)
        x = rng.normal(size=(2, 5))
        upstream = np.array([[[2.5]], [[-1.0]]])
        dw, db, dx = conv1d_backward_batch(x, bank, upstream)
        np.testing.assert_allclose(dw, (2.5 * x[0] - x[1])[None, :])
        np.testing.assert_allclose(db, [1.5])
        np.testing.assert_allclose(dx, [2.5 * bank.weights[0], -bank.weights[0]])

    def test_shape_mismatch_raises(self, rng):
        bank = random_bank(rng, 2, 5, 3)
        x = rng.normal(size=(2, 20))
        for shape in ((2, 5, 2), (2, 2, 6)):  # wrong M; kernel-major (B, K, M)
            with pytest.raises(GradientShapeError):
                conv1d_backward_batch(x, bank, np.zeros(shape))

    def test_matches_finite_differences(self, rng):
        bank = KernelBank(
            rng.uniform(-1, 1, size=(2, 4)), rng.uniform(-1, 1, size=2), 2
        )
        x = rng.uniform(-1, 1, size=(3, 13))
        upstream = rng.uniform(-1, 1, size=(3, 5, 2))

        def loss():
            return float(np.sum(conv1d_forward_batch(x, bank) * upstream))

        analytic = dict(
            zip(("w", "b", "x"), conv1d_backward_batch(x, bank, upstream))
        )
        numeric = finite_difference_grads(
            loss, {"w": bank.weights, "b": bank.biases, "x": x}
        )
        assert max_relative_error(analytic, numeric) < 1e-4
