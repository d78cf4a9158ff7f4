// Metrics registry: instrument semantics, deterministic export, and the
// zero-overhead-when-off guarantee (an instrumented-but-disabled cluster run
// is numerically identical to one without observability).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"

namespace kosha {
namespace {

TEST(Histogram, TracksCountSumExtremes) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  h.record(3.0);
  h.record(7.0);
  h.record(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 110.0);
  EXPECT_EQ(h.min(), 3.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.mean(), 110.0 / 3.0, 1e-9);
}

TEST(Histogram, PercentilesInterpolateWithinObservedRange) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  // Linear-interpolated estimates must stay inside the observed range and
  // be monotone in p.
  const double p50 = h.percentile(50.0);
  const double p95 = h.percentile(95.0);
  const double p99 = h.percentile(99.0);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // p50 of 1..100 should land near the middle, not at a bucket edge.
  EXPECT_GT(p50, 30.0);
  EXPECT_LT(p50, 70.0);
}

TEST(Histogram, SingleSampleCollapsesAllPercentiles) {
  Histogram h({1.0, 10.0, 100.0});
  h.record(42.0);
  EXPECT_EQ(h.percentile(1.0), 42.0);
  EXPECT_EQ(h.percentile(50.0), 42.0);
  EXPECT_EQ(h.percentile(99.0), 42.0);
}

TEST(MetricsRegistry, PointersAreStableAndNamed) {
  MetricsRegistry reg;
  Counter* c = reg.counter("a.ops");
  c->inc();
  // Registering more instruments must not invalidate earlier pointers.
  for (int i = 0; i < 100; ++i) (void)reg.counter(std::string("c").append(std::to_string(i)));
  c->inc(2);
  EXPECT_EQ(reg.counter("a.ops"), c);
  EXPECT_EQ(reg.find_counter("a.ops")->value(), 3u);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
}

TEST(MetricsRegistry, ExportsParseAndAreDeterministic) {
  const auto fill = [](MetricsRegistry& reg) {
    reg.counter("z.last")->inc(5);
    reg.counter("a.first")->inc();
    reg.gauge("g.load")->set(0.25);
    Histogram* h = reg.histogram("lat.us");
    h->record(10.0);
    h->record(200.0);
  };
  MetricsRegistry one;
  MetricsRegistry two;
  fill(one);
  fill(two);
  EXPECT_EQ(one.to_json(), two.to_json());
  EXPECT_EQ(one.to_csv(), two.to_csv());

  const auto parsed = parse_json(one.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const JsonValue* counters = parsed.value().find("counters");
  ASSERT_NE(counters, nullptr);
  // Sorted-map export: "a.first" precedes "z.last".
  ASSERT_EQ(counters->members().size(), 2u);
  EXPECT_EQ(counters->members()[0].first, "a.first");
  const JsonValue* hist = parsed.value().find("histograms")->find("lat.us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->number_or("count", 0), 2.0);
  EXPECT_EQ(hist->number_or("min", 0), 10.0);
  EXPECT_EQ(hist->number_or("max", 0), 200.0);

  EXPECT_EQ(one.to_csv().substr(0, 22), "type,name,field,value\n");
}

/// Drive the same mixed workload against a cluster; returns the final
/// virtual time so callers can compare runs.
SimDuration run_workload(KoshaCluster& cluster) {
  KoshaMount mount(&cluster.daemon(0));
  Rng rng(7);
  for (int i = 0; i < 32; ++i) {
    const std::string dir = "/d" + std::to_string(rng.next_below(4));
    const std::string file = dir + "/f" + std::to_string(i);
    EXPECT_TRUE(mount.mkdir_p(dir).ok());
    EXPECT_TRUE(mount.write_file(file, rng.next_name(24)).ok());
    EXPECT_TRUE(mount.read_file(file).ok());
    EXPECT_TRUE(mount.stat(file).ok());
  }
  return cluster.clock().now();
}

TEST(Observability, DisabledInstrumentationIsNumericallyInvisible) {
  ClusterConfig config;
  config.nodes = 6;
  config.kosha.replicas = 2;
  config.seed = 11;
  KoshaCluster plain(config);

  config.observability.metrics = true;
  config.observability.tracing = true;
  KoshaCluster observed(config);

  // Identical virtual end time and identical network accounting: recording
  // never advances the clock and never consumes RNG.
  EXPECT_EQ(run_workload(plain), run_workload(observed));
  EXPECT_EQ(plain.network().stats(), observed.network().stats());
  EXPECT_GT(observed.tracer().spans().size(), 0u);
  EXPECT_EQ(plain.tracer().spans().size(), 0u);
}

TEST(Observability, DisabledClusterStillExportsDerivedGauges) {
  ClusterConfig config;
  config.nodes = 4;
  config.seed = 3;
  KoshaCluster cluster(config);  // observability off
  (void)run_workload(cluster);

  const auto parsed = parse_json(cluster.export_metrics_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  // Hot-path instruments never fired...
  EXPECT_TRUE(parsed.value().find("counters")->members().empty());
  EXPECT_TRUE(parsed.value().find("histograms")->members().empty());
  // ...but the gauges mirrored from NetStats/server/koshad still carry the
  // run's numbers.
  const JsonValue* gauges = parsed.value().find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_GT(gauges->number_or("net.messages", 0), 0.0);
  EXPECT_GT(gauges->number_or("net.proc.WRITE.messages", 0), 0.0);
  EXPECT_GT(gauges->number_or("node.0.server.rpcs", 0), 0.0);
}

TEST(Observability, EnabledClusterRecordsHotPathInstruments) {
  ClusterConfig config;
  config.nodes = 6;
  config.kosha.replicas = 2;
  config.seed = 11;
  config.observability.metrics = true;
  KoshaCluster cluster(config);
  (void)run_workload(cluster);

  const MetricsRegistry& reg = cluster.metrics();
  ASSERT_NE(reg.find_counter("nfs.client.WRITE.ok"), nullptr);
  EXPECT_GT(reg.find_counter("nfs.client.WRITE.ok")->value(), 0u);
  ASSERT_NE(reg.find_histogram("mount.write_file.latency_us"), nullptr);
  EXPECT_EQ(reg.find_histogram("mount.write_file.latency_us")->count(), 32u);
  ASSERT_NE(reg.find_counter("replica.mirror.ops"), nullptr);
  EXPECT_GT(reg.find_counter("replica.mirror.ops")->value(), 0u);
  ASSERT_NE(reg.find_histogram("koshad.overlay.route_hops"), nullptr);
  EXPECT_GT(reg.find_histogram("koshad.overlay.route_hops")->count(), 0u);
}

/// The `histograms` section of a cluster's exported snapshot.
JsonValue exported_histograms(KoshaCluster& cluster) {
  const auto parsed = parse_json(cluster.export_metrics_json());
  EXPECT_TRUE(parsed.ok()) << parsed.error();
  const JsonValue* histograms = parsed.ok() ? parsed.value().find("histograms") : nullptr;
  return histograms == nullptr ? JsonValue{} : *histograms;
}

ClusterConfig small_metrics_config(bool metrics) {
  ClusterConfig config;
  config.nodes = 4;
  config.seed = 5;
  config.observability.metrics = metrics;
  return config;
}

TEST(Observability, MountExportsOnlyTheOpsItRan) {
  KoshaCluster cluster(small_metrics_config(true));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.write_file("/a", "one").ok());
  ASSERT_TRUE(mount.write_file("/a", "two").ok());

  const JsonValue histograms = exported_histograms(cluster);
  const JsonValue* writes = histograms.find("mount.write_file.latency_us");
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(writes->number_or("count", 0), 2.0);
  EXPECT_EQ(histograms.find("mount.read_file.latency_us"), nullptr);
  EXPECT_EQ(histograms.find("mount.stat.latency_us"), nullptr);
}

TEST(Observability, MountsOnOneDaemonRecordIntoOneHistogram) {
  KoshaCluster cluster(small_metrics_config(true));
  KoshaMount first(&cluster.daemon(0));
  KoshaMount second(&cluster.daemon(0));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(first.write_file("/f" + std::to_string(i), "x").ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(second.write_file("/g" + std::to_string(i), "y").ok());
  ASSERT_TRUE(second.read_file("/f0").ok());

  const MetricsRegistry& reg = cluster.metrics();
  ASSERT_NE(reg.find_histogram("mount.write_file.latency_us"), nullptr);
  EXPECT_EQ(reg.find_histogram("mount.write_file.latency_us")->count(), 5u);
  ASSERT_NE(reg.find_histogram("mount.read_file.latency_us"), nullptr);
  EXPECT_EQ(reg.find_histogram("mount.read_file.latency_us")->count(), 1u);
}

TEST(Observability, MetricsOffMountCreatesNoHistogram) {
  KoshaCluster cluster(small_metrics_config(false));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/d").ok());
  ASSERT_TRUE(mount.write_file("/d/a", "one").ok());
  ASSERT_TRUE(mount.read_file("/d/a").ok());
  ASSERT_TRUE(mount.stat("/d/a").ok());

  EXPECT_EQ(cluster.metrics().find_histogram("mount.write_file.latency_us"), nullptr);
  EXPECT_TRUE(exported_histograms(cluster).members().empty());
}

}  // namespace
}  // namespace kosha
