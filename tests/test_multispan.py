import numpy as np
import pytest

from msam.conv import output_map_size
from msam.errors import GeometryError, ValidationError
from msam.model import RawWaveformModel
from msam.network import init_head
from msam.streams import (
    StreamConfig,
    centered_window,
    init_stream,
    stream_input_span,
)

from conftest import tiny_stream_config

DEFAULT_SPANS = {4: 846, 9: 1841, 15: 3035, 20: 4030}


class TestStreamGeometry:
    @pytest.mark.parametrize("stride,span", sorted(DEFAULT_SPANS.items()))
    def test_input_span_table_rows(self, stride, span):
        cfg = StreamConfig(first_stride=stride, first_kernel_len=50)
        assert stream_input_span(cfg) == span

    def test_span_milliseconds(self):
        assert round(stream_input_span(StreamConfig(4, 50)) / 16.0) == 53
        assert round(stream_input_span(StreamConfig(9, 50)) / 16.0) == 115
        assert round(stream_input_span(StreamConfig(20, 50)) / 16.0) == 252

    def test_default_dimension_chain(self):
        cfg = StreamConfig(first_stride=10, first_kernel_len=50)
        flat = cfg.first_map_size * cfg.first_num_kernels
        assert flat == 12800
        assert output_map_size(flat, cfg.second_kernel_len, cfg.second_stride) == 11
        assert cfg.output_dim == 1408
        assert cfg.projection_dim == 150

    def test_inconsistent_second_layer_rejected(self):
        with pytest.raises(GeometryError):
            StreamConfig(first_stride=10, first_kernel_len=50, second_map_size=12)


class TestCenteredWindow:
    def test_even_span_symmetric(self):
        x = np.arange(10.0)
        np.testing.assert_array_equal(centered_window(x, 5, 4), [3, 4, 5, 6])

    def test_odd_span_extra_past_sample(self):
        x = np.arange(10.0)
        # ceil(5/2)=3 past samples including none of center: window [2, 7)
        np.testing.assert_array_equal(centered_window(x, 5, 5), [2, 3, 4, 5, 6])

    def test_out_of_range_zero_padded(self):
        x = np.array([1.0, 2.0])
        window = centered_window(x, 0, 6)
        np.testing.assert_array_equal(window, [0, 0, 0, 1, 2, 0])

    def test_equals_slice_of_padded_copy(self, rng):
        x = rng.normal(size=50)
        span = 17
        pad = span
        padded = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
        for center in (0, 3, 25, 49):
            start = center - (span + 1) // 2 + pad
            np.testing.assert_array_equal(
                centered_window(x, center, span), padded[start : start + span]
            )


def raw_model(streams, rng, kind="multi_span"):
    dim = sum(
        s.config.projection_dim if kind == "multi_span" else s.config.output_dim
        for s in streams
    )
    return RawWaveformModel(kind, streams, init_head(dim, (), 2, rng, dtype=np.float64))


def centered_batches(model, x, centers):
    """Per-stream window batches of `x` at `centers`, by the centering rule."""
    return [
        np.stack([centered_window(x, c, span) for c in centers]) for span in model.spans
    ]


class TestStreamForward:
    """One stream's stack, as RawWaveformModel.features_batch runs it."""

    def test_output_length(self, rng):
        cfg = tiny_stream_config(3)
        model = raw_model([init_stream(cfg, rng, dtype=np.float64)], rng, "single_span")
        o = model.features_batch([rng.normal(size=(3, cfg.input_span))])
        assert o.shape == (3, cfg.output_dim)

    def test_zero_window_zero_biases_gives_zero(self, rng):
        cfg = tiny_stream_config(2)
        model = raw_model([init_stream(cfg, rng, dtype=np.float64)], rng, "single_span")
        o = model.features_batch([np.zeros((2, cfg.input_span))])
        assert not o.any()

    def test_window_length_mismatch_raises(self, rng):
        cfg = tiny_stream_config(2)
        model = raw_model([init_stream(cfg, rng, dtype=np.float64)], rng, "single_span")
        with pytest.raises(GeometryError):
            model.features_batch([np.zeros((2, cfg.input_span + 1))])


class TestMultiSpanForward:
    def _streams(self, rng, strides=(2, 3, 4)):
        return [
            init_stream(tiny_stream_config(s), rng, dtype=np.float64) for s in strides
        ]

    def _features(self, streams, x, centers, rng):
        model = raw_model(streams, rng)
        return model.features_batch(centered_batches(model, x, centers))

    def test_concatenated_dimension(self, rng):
        streams = self._streams(rng)
        p = self._features(streams, rng.normal(size=200), [100, 0], rng)
        assert p.shape == (2, sum(s.config.projection_dim for s in streams))

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_dimension_for_any_stream_count(self, rng, count):
        streams = self._streams(rng, strides=range(2, 2 + count))
        if count == 1:
            with pytest.raises(ValidationError):
                raw_model(streams, rng)
            return
        p = self._features(streams, rng.normal(size=200), [100], rng)
        assert p.shape == (1, 2 * count)

    def test_zero_projections_give_zero_vector(self, rng):
        streams = self._streams(rng)
        for s in streams:
            s.projection[...] = 0.0
        p = self._features(streams, rng.normal(size=200), [100, 160], rng)
        assert not p.any()

    def test_stream_independence(self, rng):
        streams = self._streams(rng)
        x = rng.normal(size=200)
        before = self._features(streams, x, [100], rng)[0]
        streams[1].first_layer.weights += rng.normal(size=streams[1].first_layer.weights.shape)
        streams[1].projection += rng.normal(size=streams[1].projection.shape)
        after = self._features(streams, x, [100], rng)[0]
        dim = streams[0].config.projection_dim
        np.testing.assert_array_equal(before[:dim], after[:dim])
        np.testing.assert_array_equal(before[2 * dim :], after[2 * dim :])
        assert np.any(before[dim : 2 * dim] != after[dim : 2 * dim])

    def test_determinism(self, rng):
        model = raw_model(self._streams(rng), rng)
        windows = centered_batches(model, rng.normal(size=200), [64, 0, 199])
        np.testing.assert_array_equal(model.features_batch(windows), model.features_batch(windows))


class TestSingleSpanForward:
    def test_paper_scale_dimensions(self):
        cfg = StreamConfig(first_stride=10, first_kernel_len=50)
        assert stream_input_span(cfg) == 2040
        assert cfg.output_dim == 1408

    def test_zero_input_zero_output(self, rng):
        cfg = tiny_stream_config(3)
        stream = init_stream(cfg, rng, with_projection=False, dtype=np.float64)
        model = raw_model([stream], rng, "single_span")
        assert not model.features_batch(centered_batches(model, np.zeros(100), [50, 0])).any()

    def test_equals_unprojected_stream_path(self, rng):
        streams = [init_stream(tiny_stream_config(s), rng, dtype=np.float64) for s in (3, 2)]
        single = raw_model(streams[:1], rng, "single_span")
        multi = raw_model(streams, rng)
        x = rng.normal(size=120)
        o = single.features_batch(centered_batches(single, x, [60, 100]))
        p = multi.features_batch(centered_batches(multi, x, [60, 100]))
        dim = streams[0].config.projection_dim
        np.testing.assert_allclose(p[:, :dim], o @ streams[0].projection.T, atol=1e-12)
