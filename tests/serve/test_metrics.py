"""Counters, gauges, histograms and the two renderers."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounterGauge:
    def test_counter_total_and_labels(self):
        c = Counter("responses_total")
        c.inc(label="200")
        c.inc(label="200")
        c.inc(label="429")
        assert c.value == 3
        assert c.labels() == {"200": 2, "429": 1}

    def test_gauge_set_inc_dec(self):
        g = Gauge("queue_depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3

    def test_gauge_labels_track_last_value_per_label(self):
        g = Gauge("quality_cut_edges")
        g.set(12, label="grid4x4")
        g.set(7, label="hq4")
        g.set(9, label="grid4x4")  # overwrite, not accumulate
        assert g.value == 9
        assert g.labels() == {"grid4x4": 9, "hq4": 7}


class TestHistogram:
    def test_exact_stats(self):
        h = Histogram("lat", bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(6.05)
        assert h.min == 0.05 and h.max == 5.0
        assert h.bucket_counts == [1, 2, 1, 0]

    def test_overflow_bucket(self):
        h = Histogram("lat", bounds=(1.0,))
        h.observe(100.0)
        assert h.bucket_counts == [0, 1]
        assert h.percentile(0.5) == 100.0  # clamped to observed max

    def test_percentiles_bracket_the_data(self):
        h = Histogram("lat")
        for i in range(1, 101):
            h.observe(i / 100.0)  # 10ms .. 1s, uniform
        p50, p95 = h.percentile(0.50), h.percentile(0.95)
        assert 0.3 <= p50 <= 0.7
        assert 0.8 <= p95 <= 1.0
        assert h.percentile(0.0) <= p50 <= p95 <= h.percentile(1.0)

    def test_empty_and_validation(self):
        h = Histogram("lat")
        assert h.percentile(0.5) == 0.0
        assert h.snapshot()["count"] == 0
        with pytest.raises(ConfigurationError):
            h.percentile(1.5)
        with pytest.raises(ConfigurationError):
            Histogram("bad", bounds=(2.0, 1.0))

    def test_empty_every_quantile_is_zero(self):
        h = Histogram("lat")
        for q in (0.0, 0.5, 1.0):
            assert h.percentile(q) == 0.0

    def test_boundary_quantiles_are_exact_min_and_max(self):
        h = Histogram("lat", bounds=(0.1, 1.0, 10.0))
        for v in (0.07, 0.4, 0.4, 3.0):
            h.observe(v)
        assert h.percentile(0.0) == 0.07  # exact min, never interpolated
        assert h.percentile(1.0) == 3.0   # exact max, never interpolated

    def test_single_observation_is_every_quantile(self):
        # One sample exactly on a bucket boundary: interpolation would
        # report a fraction of the bucket width; the sample itself is
        # the only honest answer at every q.
        h = Histogram("lat", bounds=(0.1, 1.0))
        h.observe(0.1)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.percentile(q) == 0.1

    def test_single_observation_in_overflow_bucket(self):
        h = Histogram("lat", bounds=(1.0,))
        h.observe(42.0)
        assert h.percentile(0.0) == 42.0
        assert h.percentile(0.5) == 42.0
        assert h.percentile(1.0) == 42.0

    def test_quantiles_stay_monotone_and_clamped(self):
        h = Histogram("lat", bounds=(0.1, 0.2, 0.4, 0.8))
        for v in (0.1, 0.1, 0.2, 0.2, 0.8):
            h.observe(v)
        qs = [h.percentile(q) for q in (0.0, 0.1, 0.5, 0.9, 1.0)]
        assert qs == sorted(qs)
        assert all(h.min <= v <= h.max for v in qs)


class TestRegistry:
    def test_idempotent_and_type_checked(self):
        m = MetricsRegistry()
        c1 = m.counter("requests_total")
        c1.inc()
        assert m.counter("requests_total") is c1
        with pytest.raises(TypeError):
            m.gauge("requests_total")

    def test_render_json_schema(self):
        m = MetricsRegistry()
        m.counter("requests_total").inc(3)
        m.counter("responses_total").inc(label="200")
        m.gauge("queue_depth").set(2)
        h = m.histogram("queue_seconds")
        h.observe(0.01)
        out = m.render_json(extra={"labelings_computed": 1})
        assert out["requests_total"] == 3
        assert out["responses_total"] == {"total": 1, "200": 1}
        assert out["queue_depth"] == 2
        assert out["queue_seconds"]["count"] == 1
        assert set(out["queue_seconds"]) >= {"p50", "p95", "p99", "mean"}
        assert out["labelings_computed"] == 1
        assert out["uptime_seconds"] >= 0

    def test_render_prometheus_text(self):
        m = MetricsRegistry()
        m.counter("requests_total", "admitted").inc(2)
        m.counter("responses_total").inc(label="200")
        h = m.histogram("lat", bounds=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = m.render_prometheus(extra={"cache_sessions_size": 2})
        assert "# HELP repro_serve_requests_total admitted" in text
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 2" in text
        assert 'repro_serve_responses_total{label="200"} 1' in text
        # histogram buckets are cumulative and end with +Inf == count
        assert 'repro_serve_lat_bucket{le="0.1"} 1' in text
        assert 'repro_serve_lat_bucket{le="1"} 2' in text
        assert 'repro_serve_lat_bucket{le="+Inf"} 2' in text
        assert "repro_serve_lat_count 2" in text
        assert "repro_serve_cache_sessions_size 2" in text
        assert text.endswith("\n")
