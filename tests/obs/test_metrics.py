"""Counters, gauges, histograms and the Prometheus text exposition."""

from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    DURATION_BOUNDS,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)


class TestRegistry:
    def test_counters_accumulate_per_label_series(self):
        registry = MetricsRegistry()
        registry.inc("cache.hit")
        registry.inc("cache.hit", 2)
        registry.inc("retry.attempt", what="broker")
        registry.inc("retry.attempt", what="cache")
        registry.inc("retry.attempt", what="broker")
        counters = {(entry["name"],
                     tuple(sorted(entry.get("labels", {}).items()))):
                    entry["value"]
                    for entry in registry.to_dict()["counters"]}
        assert counters[("cache.hit", ())] == 3
        assert counters[("retry.attempt", (("what", "broker"),))] == 2
        assert counters[("retry.attempt", (("what", "cache"),))] == 1

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("queue.depth", 7)
        registry.set_gauge("queue.depth", 3)
        [entry] = registry.to_dict()["gauges"]
        assert entry == {"name": "queue.depth", "value": 3}

    def test_histogram_buckets_sum_and_overflow(self):
        histogram = Histogram(bounds=(1, 2, 4))
        for value in (0.5, 1, 2, 3, 100):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1, 1]   # last slot is +Inf
        assert histogram.count == 5
        assert histogram.total == 106.5
        data = histogram.to_dict()
        assert data["bounds"] == [1, 2, 4]
        assert data["counts"] == [2, 1, 1, 1]

    def test_observe_picks_bounds_at_first_observation(self):
        registry = MetricsRegistry()
        registry.observe("point.duration", 0.02, bounds=DURATION_BOUNDS)
        registry.observe("engine.ddt_chain_length", 3)
        series = {entry["name"]: entry["value"]
                  for entry in registry.to_dict()["histograms"]}
        assert series["point.duration"]["bounds"] == list(DURATION_BOUNDS)
        assert series["engine.ddt_chain_length"]["bounds"] \
            == list(DEFAULT_BOUNDS)

    def test_len_counts_every_series(self):
        registry = MetricsRegistry()
        assert len(registry) == 0
        registry.inc("a")
        registry.inc("a", reason="x")      # distinct label set
        registry.set_gauge("b", 1)
        registry.observe("c", 1)
        assert len(registry) == 4


class TestMerge:
    def test_merge_adds_counters_and_histograms(self):
        """The close-time fold: worker snapshots add into the run totals."""
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.inc("cache.hit", 2)
        worker.inc("cache.hit", 3)
        worker.inc("queue.requeue")
        parent.set_gauge("queue.depth", 9)
        worker.set_gauge("queue.depth", 1)
        parent.observe("chain", 1, bounds=(1, 2))
        worker.observe("chain", 2, bounds=(1, 2))
        worker.observe("chain", 50, bounds=(1, 2))

        parent.merge(worker.to_dict())
        merged = parent.to_dict()
        counters = {entry["name"]: entry["value"]
                    for entry in merged["counters"]}
        assert counters == {"cache.hit": 5, "queue.requeue": 1}
        [gauge] = merged["gauges"]
        assert gauge["value"] == 1            # last write (the snapshot) wins
        [histogram] = merged["histograms"]
        assert histogram["value"]["counts"] == [1, 1, 1]
        assert histogram["value"]["count"] == 3
        assert histogram["value"]["sum"] == 53

    def test_merge_round_trips_into_empty_registry(self):
        source = MetricsRegistry()
        source.inc("n", 4, kind="a")
        source.set_gauge("g", 2.5)
        source.observe("h", 7)
        target = MetricsRegistry()
        target.merge(source.to_dict())
        assert target.to_dict() == source.to_dict()

    def test_merge_tolerates_mismatched_bounds(self):
        """A shard recorded with different bucket bounds replaces rather
        than corrupts the series (bounds changed between versions)."""
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.observe("h", 1, bounds=(1, 2))
        worker.observe("h", 1, bounds=(10, 20))
        parent.merge(worker.to_dict())
        [histogram] = parent.to_dict()["histograms"]
        assert histogram["value"]["bounds"] == [10, 20]
        assert histogram["value"]["count"] == 1


class TestPrometheus:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.inc("cache.hit", 3)
        registry.inc("retry.attempt", what="broker")
        registry.set_gauge("queue.depth", 2)
        registry.observe("lease.age", 1.5, bounds=(1, 2))
        text = render_prometheus(registry)

        assert "# TYPE repro_cache_hit counter" in text
        assert "repro_cache_hit 3" in text
        assert 'repro_retry_attempt{what="broker"} 1' in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 2" in text
        # Histogram buckets are cumulative and end at +Inf == count.
        assert 'repro_lease_age_bucket{le="1"} 0' in text
        assert 'repro_lease_age_bucket{le="2"} 1' in text
        assert 'repro_lease_age_bucket{le="+Inf"} 1' in text
        assert "repro_lease_age_sum 1.5" in text
        assert "repro_lease_age_count 1" in text
        assert text.endswith("\n")

    def test_metric_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.inc("trace-store.cold", **{"bench mark": "li"})
        text = render_prometheus(registry)
        assert 'repro_trace_store_cold{bench_mark="li"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
