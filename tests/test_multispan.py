from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import msam.model
from msam.conv import conv1d_backward_batch, output_map_size
from msam.errors import GeometryError, ValidationError
from msam.model import build_raw_model, window_outputs_at
from msam.streams import StreamConfig, window_starts

from conftest import centered_window, tiny_stream_config

DEFAULT_SPANS = {4: 846, 9: 1841, 15: 3035, 20: 4030}


class TestStreamGeometry:
    @pytest.mark.parametrize("stride,span", sorted(DEFAULT_SPANS.items()))
    def test_input_span_table_rows(self, stride, span):
        cfg = StreamConfig(first_stride=stride, first_kernel_len=50)
        assert cfg.input_span == span

    def test_span_milliseconds(self):
        assert round(StreamConfig(4, 50).input_span / 16.0) == 53
        assert round(StreamConfig(9, 50).input_span / 16.0) == 115
        assert round(StreamConfig(20, 50).input_span / 16.0) == 252

    def test_default_dimension_chain(self):
        cfg = StreamConfig(first_stride=10, first_kernel_len=50)
        flat = cfg.first_map_size * cfg.first_num_kernels
        assert flat == 12800
        assert output_map_size(flat, cfg.second_kernel_len, cfg.second_stride) == 11
        assert cfg.output_dim == 1408
        assert cfg.projection_dim == 150

    def test_inconsistent_second_layer_rejected(self):
        """The second layer yields 11 positions; a map size above or below is wrong."""
        for size in (10, 12):
            with pytest.raises(GeometryError):
                StreamConfig(first_stride=10, first_kernel_len=50, second_map_size=size)

    def test_windows_may_touch_either_end_of_the_buffer(self):
        """Span-5 windows [c - 3, c + 2) from sample 0 and to the buffer's last
        sample are inside it; one sample further out either way is not."""
        buffer = np.zeros(10)
        assert window_starts(buffer, [3, 8], 5).tolist() == [0, 5]
        for center in (2, 9):
            with pytest.raises(GeometryError, match="reaches outside the buffer"):
                window_starts(buffer, [center], 5)


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


def raw_model(strides, kind="multi_span"):
    """A seeded float64 model of tiny streams, one per stride, and a head
    with no hidden layer."""
    configs = [tiny_stream_config(s) for s in strides]
    return build_raw_model(kind, configs, 2, hidden_dims=(), seed=4, dtype=np.float64)


def centered_batches(model, x, centers):
    """Per-stream window batches of `x` at `centers`, by the centering rule."""
    return [
        np.stack([centered_window(x, c, span) for c in centers]) for span in model.spans
    ]


class TestStreamForward:
    """One stream's stack, as RawWaveformModel.features_batch runs it."""

    def test_output_length(self, rng):
        cfg = tiny_stream_config(3)
        model = raw_model([3], "single_span")
        o = model.features_batch([rng.normal(size=(3, cfg.input_span))])
        assert o.shape == (3, cfg.output_dim)

    def test_zero_window_zero_biases_gives_zero(self):
        cfg = tiny_stream_config(2)
        model = raw_model([2], "single_span")
        o = model.features_batch([np.zeros((2, cfg.input_span))])
        assert not o.any()

    def test_window_length_mismatch_raises(self):
        cfg = tiny_stream_config(2)
        model = raw_model([2], "single_span")
        with pytest.raises(GeometryError):
            model.features_batch([np.zeros((2, cfg.input_span + 1))])


class TestWindowPathBackward:
    """The window path scatters conv2's input gradients itself and hands
    them, ReLU-masked, to conv1's parameter backward."""

    @staticmethod
    def conv1_upstream(stream, windows, do):
        """The gradient conv1's backward receives from the window path's
        backward of `do`, and the four parameter gradients it returns."""
        with mock.patch.object(msam.model, "conv1d_backward_batch",
                               wraps=conv1d_backward_batch) as spy:
            grads = window_outputs_at(stream, windows)[1](do)
        (conv1,) = [c for c in spy.call_args_list if c.args[1] is stream.first_layer]
        return conv1.args[2], grads

    def test_zero_upstream_gives_zero_grads(self, rng):
        stream = raw_model([3], "single_span").streams[0]
        cfg = stream.config
        do = np.zeros((2, cfg.second_map_size, cfg.second_num_kernels))
        dy, grads = self.conv1_upstream(stream, rng.normal(size=(2, cfg.input_span)), do)
        assert not dy.any() and not any(g.any() for g in grads)

    def test_single_window_input_grad_is_scaled_kernel(self, rng):
        """With one conv2 window per frame and every conv1 unit active,
        conv1 receives each frame's upstream times conv2's kernel."""
        cfg = StreamConfig(first_stride=1, first_kernel_len=5, first_map_size=4,
                           first_num_kernels=2, second_stride=1, second_kernel_len=8,
                           second_map_size=1, second_num_kernels=1, projection_dim=1)
        stream = build_raw_model("single_span", [cfg], 2, hidden_dims=(),
                                 dtype=np.float64).streams[0]
        stream.first_layer.biases[:] = 100.0  # above any |w . x| of these windows
        windows = rng.uniform(-1, 1, size=(2, cfg.input_span))
        dy, _ = self.conv1_upstream(stream, windows, np.array([[[2.5]], [[-1.0]]]))
        kernel = stream.second_layer.weights[0]
        np.testing.assert_allclose(dy.reshape(2, -1), [2.5 * kernel, -kernel])


class TestMultiSpanForward:
    @staticmethod
    def _features(model, x, centers):
        return model.features_batch(centered_batches(model, x, centers))

    def test_concatenated_dimension(self, rng):
        model = raw_model([2, 3, 4])
        p = self._features(model, rng.normal(size=200), [100, 0])
        assert p.shape == (2, sum(s.config.projection_dim for s in model.streams))

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_dimension_for_any_stream_count(self, rng, count):
        strides = range(2, 2 + count)
        if count == 1:
            with pytest.raises(ValidationError, match="at least two streams"):
                raw_model(strides)
            return
        p = self._features(raw_model(strides), rng.normal(size=200), [100])
        assert p.shape == (1, 2 * count)

    def test_zero_projections_give_zero_vector(self, rng):
        model = raw_model([2, 3, 4])
        for s in model.streams:
            s.projection[...] = 0.0
        p = self._features(model, rng.normal(size=200), [100, 160])
        assert not p.any()

    def test_stream_independence(self, rng):
        model = raw_model([2, 3, 4])
        streams = model.streams
        x = rng.normal(size=200)
        before = self._features(model, x, [100])[0]
        streams[1].first_layer.weights += rng.normal(size=streams[1].first_layer.weights.shape)
        streams[1].projection += rng.normal(size=streams[1].projection.shape)
        after = self._features(model, x, [100])[0]
        dim = streams[0].config.projection_dim
        np.testing.assert_array_equal(before[:dim], after[:dim])
        np.testing.assert_array_equal(before[2 * dim :], after[2 * dim :])
        assert np.any(before[dim : 2 * dim] != after[dim : 2 * dim])

    def test_determinism(self, rng):
        model = raw_model([2, 3, 4])
        windows = centered_batches(model, rng.normal(size=200), [64, 0, 199])
        np.testing.assert_array_equal(model.features_batch(windows), model.features_batch(windows))


class TestSingleSpanForward:
    def test_paper_scale_dimensions(self):
        cfg = StreamConfig(first_stride=10, first_kernel_len=50)
        assert cfg.input_span == 2040
        assert cfg.output_dim == 1408

    def test_zero_input_zero_output(self):
        model = raw_model([3], "single_span")
        assert not model.features_batch(centered_batches(model, np.zeros(100), [50, 0])).any()

    def test_equals_unprojected_stream_path(self, rng):
        multi = raw_model([3, 2])
        single = raw_model([3], "single_span")
        single.streams[0] = replace(multi.streams[0], projection=None)
        x = rng.normal(size=120)
        o = single.features_batch(centered_batches(single, x, [60, 100]))
        p = multi.features_batch(centered_batches(multi, x, [60, 100]))
        dim = multi.streams[0].config.projection_dim
        np.testing.assert_allclose(p[:, :dim], o @ multi.streams[0].projection.T, atol=1e-12)
