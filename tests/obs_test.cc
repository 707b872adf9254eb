// obs layer tests: counter exactness under concurrent adders, histogram
// quantiles and exact moments, deterministic exposition output, labeled
// names, the scrape-time SLO burn gauges, and the trace ring's
// deterministic slot assignment under concurrent publishers and
// scrapers. The TSan CI job rebuilds this
// binary, so the lock-free claims in obs/metrics.h are machine-checked.

#include "obs/metrics.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace pmw {
namespace obs {
namespace {

TEST(CounterTest, ExactUnderConcurrentAdders) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
}

TEST(CounterTest, NegativeDeltaAndReadsDuringWrites) {
  Counter counter;
  counter.Add(10);
  counter.Add(-3);
  EXPECT_EQ(counter.Value(), 7);

  // Scrapes racing increments must always read a torn-free total.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 50000; ++i) counter.Add(1);
    stop.store(true);
  });
  long long last = 0;
  while (!stop.load()) {
    const long long now = counter.Value();
    EXPECT_GE(now, last);  // monotone while only positive deltas land
    last = now;
  }
  writer.join();
  EXPECT_EQ(counter.Value(), 7 + 50000);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
  gauge.Set(-17.125);
  EXPECT_EQ(gauge.Value(), -17.125);
}

TEST(HistogramTest, BucketsMomentsAndQuantiles) {
  Histogram histogram({1.0, 2.0, 4.0, 8.0});
  for (int i = 1; i <= 8; ++i) histogram.Observe(static_cast<double>(i));
  const Histogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 8);
  EXPECT_DOUBLE_EQ(snap.sum, 36.0);
  EXPECT_DOUBLE_EQ(snap.sumsq, 204.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 8.0);
  ASSERT_EQ(snap.buckets.size(), 5u);
  EXPECT_EQ(snap.buckets[0], 1);  // <= 1
  EXPECT_EQ(snap.buckets[1], 1);  // (1, 2]
  EXPECT_EQ(snap.buckets[2], 2);  // (2, 4]
  EXPECT_EQ(snap.buckets[3], 4);  // (4, 8]
  EXPECT_EQ(snap.buckets[4], 0);  // +Inf

  // Quantiles are clamped to the observed extrema and monotone in q.
  EXPECT_GE(snap.Quantile(0.0), snap.min);
  EXPECT_LE(snap.Quantile(1.0), snap.max);
  EXPECT_LE(snap.Quantile(0.5), snap.Quantile(0.99));
  EXPECT_LE(snap.Quantile(0.99), snap.Quantile(0.999));
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram histogram(Histogram::LogBuckets(0.01, 2.0, 24));
  const Histogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.Quantile(0.99), 0.0);
}

TEST(HistogramTest, LogBucketsAreStrictlyIncreasing) {
  const std::vector<double> buckets = Histogram::LogBuckets(0.5, 2.0, 10);
  ASSERT_EQ(buckets.size(), 10u);
  EXPECT_DOUBLE_EQ(buckets[0], 0.5);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GT(buckets[i], buckets[i - 1]);
    EXPECT_DOUBLE_EQ(buckets[i], buckets[i - 1] * 2.0);
  }
}

TEST(RegistryTest, HandlesAreStableAndIdempotent) {
  Registry registry;
  Counter* a = registry.GetCounter("pmw_test_total");
  Counter* b = registry.GetCounter("pmw_test_total");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(registry.CounterValue("pmw_test_total"), 3);
  EXPECT_EQ(registry.CounterValue("pmw_absent_total"), 0);

  Histogram* h1 =
      registry.GetHistogram("pmw_test_ms", {1.0, 2.0});
  Histogram* h2 =
      registry.GetHistogram("pmw_test_ms", {99.0});  // first wins
  EXPECT_EQ(h1, h2);
  h1->Observe(1.5);
  EXPECT_EQ(registry.HistogramSnap("pmw_test_ms").count, 1);
  EXPECT_EQ(registry.HistogramSnap("pmw_absent_ms").count, 0);
}

TEST(RegistryTest, LabeledNameEscapesTheValue) {
  EXPECT_EQ(Registry::LabeledName("pmw_x_total", "analyst", "alice"),
            "pmw_x_total{analyst=\"alice\"}");
  EXPECT_EQ(Registry::LabeledName("pmw_x_total", "analyst", "a\"b\\c"),
            "pmw_x_total{analyst=\"a\\\"b\\\\c\"}");
}

TEST(RegistryTest, ExpositionsAreDeterministicForFixedValues) {
  const auto build = [] {
    Registry registry;
    registry.GetCounter("pmw_b_total")->Add(2);
    registry.GetCounter("pmw_a_total")->Add(1);
    registry.GetGauge("pmw_g")->Set(0.5);
    registry.GetHistogram("pmw_h_ms", {1.0, 10.0})->Observe(3.0);
    return std::make_pair(registry.TextExposition(), registry.JsonDump());
  };
  const auto [text1, json1] = build();
  const auto [text2, json2] = build();
  EXPECT_EQ(text1, text2);
  EXPECT_EQ(json1, json2);
  // Sorted by name: pmw_a before pmw_b, counters before gauges.
  EXPECT_LT(text1.find("pmw_a_total 1"), text1.find("pmw_b_total 2"));
  EXPECT_NE(text1.find("# TYPE pmw_h_ms histogram"), std::string::npos);
  EXPECT_NE(json1.find("\"counters\""), std::string::npos);
  EXPECT_NE(json1.find("\"p99\""), std::string::npos);
}

TEST(RegistryTest, ScrapesNeverBlockConcurrentWriters) {
  Registry registry;
  Counter* counter = registry.GetCounter("pmw_w_total");
  Histogram* histogram =
      registry.GetHistogram("pmw_w_ms", Histogram::LogBuckets(0.1, 2.0, 16));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 30000; ++i) {
      counter->Add(1);
      histogram->Observe(0.1 * (i % 100));
    }
    stop.store(true);
  });
  std::thread scraper([&] {
    while (!stop.load()) {
      const std::string text = registry.TextExposition();
      EXPECT_FALSE(text.empty());
      registry.JsonDump();
    }
  });
  writer.join();
  scraper.join();
  EXPECT_EQ(registry.CounterValue("pmw_w_total"), 30000);
  EXPECT_EQ(registry.HistogramSnap("pmw_w_ms").count, 30000);
}

TEST(SloBurnTest, GaugesFollowTheirSpecs) {
  Registry registry;
  // Constant samples pin every quantile to the sample (quantiles clamp
  // to the observed [min, max]), so each burn is exact.
  Histogram* latency = registry.GetHistogram("pmw_test_latency_us",
                                             Histogram::LogBuckets(1, 2, 8));
  Histogram* goodput = registry.GetHistogram("pmw_test_goodput_qps",
                                             Histogram::LogBuckets(1, 2, 8));
  registry.GetHistogram("pmw_test_empty_us", Histogram::LogBuckets(1, 2, 8));
  for (int i = 0; i < 10; ++i) {
    latency->Observe(30.0);
    goodput->Observe(50.0);
  }
  UpdateSloBurnGauges(
      &registry,
      {{"latency", "pmw_test_latency_us", 0.99, 20.0, false},
       {"goodput", "pmw_test_goodput_qps", 0.5, 100.0, true},
       {"empty", "pmw_test_empty_us", 0.99, 5.0, false},
       {"unset", "pmw_test_latency_us", 0.99, 0.0, false},
       {"negative", "pmw_test_latency_us", 0.99, -1.0, false}});
  const auto burn = [&registry](const std::string& endpoint) {
    return registry
        .GetGauge(Registry::LabeledName("pmw_slo_burn_ratio", "endpoint",
                                        endpoint))
        ->Value();
  };
  EXPECT_DOUBLE_EQ(burn("latency"), 30.0 / 20.0);   // observed / target
  EXPECT_DOUBLE_EQ(burn("goodput"), 100.0 / 50.0);  // target / observed
  EXPECT_EQ(burn("empty"), 0.0);
  // A target <= 0 is an objective not configured: no gauge at all.
  const std::string exposition = registry.TextExposition();
  EXPECT_EQ(exposition.find("endpoint=\"unset\""), std::string::npos);
  EXPECT_EQ(exposition.find("endpoint=\"negative\""), std::string::npos);
}

RequestTrace MakeTrace(uint64_t id, uint64_t total_us) {
  RequestTrace trace;
  trace.trace_id = id;
  trace.analyst = "analyst-" + std::to_string(id % 3);
  trace.query = "q/" + std::to_string(id);
  trace.total_us = total_us;
  trace.spans.push_back({"queue", 0, total_us / 4, -1});
  trace.spans.push_back({"commit", total_us / 4, total_us / 2, -1});
  return trace;
}

TEST(TraceRecorderTest, SlotAssignmentIsDeterministic) {
  TraceRecorder recorder(4);
  EXPECT_EQ(recorder.capacity(), 4u);
  // ids 1..9: id 5 overwrites slot 1 (id 1), id 9 overwrites id 5 — the
  // ring keeps exactly the latest trace per slot, independent of timing.
  for (uint64_t id = 1; id <= 9; ++id) {
    recorder.Publish(MakeTrace(id, 100 * id));
  }
  EXPECT_EQ(recorder.published(), 9);
  const std::vector<RequestTrace> slow = recorder.SlowRequests(0, 16);
  ASSERT_EQ(slow.size(), 4u);
  // Sorted by total_us descending; survivors are ids 9, 8, 7, 6.
  EXPECT_EQ(slow[0].trace_id, 9u);
  EXPECT_EQ(slow[1].trace_id, 8u);
  EXPECT_EQ(slow[2].trace_id, 7u);
  EXPECT_EQ(slow[3].trace_id, 6u);
}

TEST(TraceRecorderTest, ThresholdAndLimitFilter) {
  TraceRecorder recorder(8);
  for (uint64_t id = 0; id < 8; ++id) {
    recorder.Publish(MakeTrace(id, 100 * (id + 1)));
  }
  EXPECT_EQ(recorder.SlowRequests(501, 16).size(), 3u);  // 600, 700, 800
  EXPECT_EQ(recorder.SlowRequests(0, 2).size(), 2u);
  EXPECT_TRUE(recorder.SlowRequests(10000, 16).empty());
}

TEST(TraceRecorderTest, FormatRendersAnIndentedSpanTree) {
  TraceRecorder recorder(4);
  recorder.Publish(MakeTrace(7, 400));
  const std::string rendered =
      TraceRecorder::Format(recorder.SlowRequests(0, 1));
  EXPECT_NE(rendered.find("trace 7"), std::string::npos);
  EXPECT_NE(rendered.find("queue"), std::string::npos);
  EXPECT_NE(rendered.find("commit"), std::string::npos);
  EXPECT_EQ(TraceRecorder::Format({}), "(no traces over threshold)\n");
}

TEST(TraceRecorderTest, ConcurrentPublishAndScrape) {
  TraceRecorder recorder(16);
  std::atomic<bool> stop{false};
  std::vector<std::thread> publishers;
  for (int t = 0; t < 4; ++t) {
    publishers.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < 2000; ++i) {
        recorder.Publish(
            MakeTrace(static_cast<uint64_t>(t) * 10000 + i, i + 1));
      }
    });
  }
  std::thread scraper([&] {
    while (!stop.load()) {
      const std::vector<RequestTrace> slow = recorder.SlowRequests(0, 8);
      EXPECT_LE(slow.size(), 8u);
      for (size_t i = 1; i < slow.size(); ++i) {
        EXPECT_GE(slow[i - 1].total_us, slow[i].total_us);
      }
      TraceRecorder::Format(slow);
    }
  });
  for (std::thread& publisher : publishers) publisher.join();
  stop.store(true);
  scraper.join();
  EXPECT_EQ(recorder.published(), 4 * 2000);
}

}  // namespace
}  // namespace obs
}  // namespace pmw
