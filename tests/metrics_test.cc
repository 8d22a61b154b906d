// Tests for the vdmetrics observability layer (src/obs/): instrument
// semantics, registry identity and snapshot determinism, the trace span
// plumbing through the request dispatcher, the slow-query log, and —
// the load-bearing property for the CI scrape comparison — EXACT
// counter totals under a 16-thread increment storm (run under TSan by
// the tsan ctest lane).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/json.h"
#include "server/session.h"

namespace vadalog {
namespace {

constexpr const char* kReachProgram =
    "t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z). "
    "e(a, b). e(b, c). ?(X) :- t(a, X).";

std::string LoadLine(const std::string& session) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("LOAD_PROGRAM"));
  request.Set("session", JsonValue::String(session));
  request.Set("program", JsonValue::String(kReachProgram));
  return request.Dump();
}

/// Finds one sample by name plus an optional single label constraint.
const obs::Sample* FindSample(const std::vector<obs::Sample>& samples,
                              const std::string& name,
                              const std::string& label_key = "",
                              const std::string& label_value = "") {
  for (const obs::Sample& sample : samples) {
    if (sample.name != name) continue;
    if (label_key.empty()) return &sample;
    for (const auto& [key, value] : sample.labels) {
      if (key == label_key && value == label_value) return &sample;
    }
  }
  return nullptr;
}

// --- instruments ---

TEST(MetricsTest, CounterAddsAndSums) {
  obs::Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
}

// The registry totals must be EXACT under concurrent increments — the
// CI scrape diffs them against client-side totals, so "close" is a
// failure. 16 threads (the daemon's worker scale) hammer one counter.
TEST(MetricsTest, CounterIsExactUnderConcurrentIncrements) {
  obs::Counter counter;
  constexpr int kThreads = 16;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(MetricsTest, GaugeSetsAddsAndGoesNegative) {
  obs::Gauge gauge;
  gauge.Set(10);
  gauge.Add(-15);
  EXPECT_EQ(gauge.Value(), -5);
  gauge.Set(0);
  EXPECT_EQ(gauge.Value(), 0);
}

// Bucket i holds observations <= 2^i; the bounds are inclusive and the
// last bucket is +inf.
TEST(MetricsTest, HistogramBucketBoundariesAreInclusivePowersOfTwo) {
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(obs::Histogram::BucketIndex(5), 3u);
  EXPECT_EQ(obs::Histogram::BucketIndex(uint64_t{1} << 26),
            obs::kHistogramBuckets - 2);
  EXPECT_EQ(obs::Histogram::BucketIndex((uint64_t{1} << 26) + 1),
            obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(~uint64_t{0}),
            obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::Histogram::BucketBound(3), 8u);
}

TEST(MetricsTest, HistogramObserveTracksCountSumAndBuckets) {
  obs::Histogram histogram;
  histogram.Observe(1);
  histogram.Observe(2);
  histogram.Observe(1000);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum(), 1003u);
  EXPECT_EQ(histogram.bucket(0), 1u);
  EXPECT_EQ(histogram.bucket(1), 1u);
  EXPECT_EQ(histogram.bucket(obs::Histogram::BucketIndex(1000)), 1u);
}

// --- registry ---

TEST(MetricsTest, RegistryDedupesByNameAndLabels) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("c", {{"k", "1"}}, "help");
  obs::Counter* same = registry.GetCounter("c", {{"k", "1"}});
  obs::Counter* other = registry.GetCounter("c", {{"k", "2"}});
  EXPECT_EQ(a, same);
  EXPECT_NE(a, other);
  a->Add(5);
  other->Add(7);
  std::vector<obs::Sample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 2u);
  // Sorted by (name, labels): k=1 before k=2.
  EXPECT_EQ(samples[0].value, 5);
  EXPECT_EQ(samples[1].value, 7);
  EXPECT_EQ(samples[0].help, "help");
}

TEST(MetricsTest, SnapshotRendersCumulativeHistogramBuckets) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram = registry.GetHistogram("h", {}, "a histogram");
  histogram->Observe(1);
  histogram->Observe(1);
  histogram->Observe(3);
  std::vector<obs::Sample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  const obs::Sample& sample = samples[0];
  EXPECT_EQ(sample.type, obs::MetricType::kHistogram);
  ASSERT_EQ(sample.buckets.size(), obs::kHistogramBuckets);
  EXPECT_EQ(sample.buckets[0], 2u);  // <= 1
  EXPECT_EQ(sample.buckets[1], 2u);  // <= 2 (cumulative)
  EXPECT_EQ(sample.buckets[2], 3u);  // <= 4
  EXPECT_EQ(sample.buckets.back(), 3u);  // +inf == count
  EXPECT_EQ(sample.count, 3u);
  EXPECT_EQ(sample.sum, 5u);
}

TEST(MetricsTest, EngineCountersFlushNullSafely) {
  // A default EngineCounters (all null) must be a no-op sink — the
  // engines call RecordSearch unconditionally when options.metrics is
  // set, and partial wiring must not crash.
  obs::EngineCounters counters;
  counters.RecordSearch(10, 2, 3, true);
  obs::MetricsRegistry registry;
  obs::EngineCounters wired =
      obs::MakeEngineCounters(&registry, {{"session", "s"}});
  wired.RecordSearch(10, 2, 3, true);
  wired.RecordSearch(5, 0, 0, false);
  std::vector<obs::Sample> samples = registry.Snapshot();
  const obs::Sample* searches =
      FindSample(samples, "vadalog_search_total");
  const obs::Sample* expanded =
      FindSample(samples, "vadalog_search_states_expanded_total");
  const obs::Sample* exhausted =
      FindSample(samples, "vadalog_search_budget_exhausted_total");
  ASSERT_NE(searches, nullptr);
  ASSERT_NE(expanded, nullptr);
  ASSERT_NE(exhausted, nullptr);
  EXPECT_EQ(searches->value, 2);
  EXPECT_EQ(expanded->value, 15);
  EXPECT_EQ(exhausted->value, 1);
}

// --- log level plumbing ---

TEST(MetricsTest, LogLevelNamesRoundTrip) {
  obs::LogLevel level;
  EXPECT_TRUE(obs::LogLevelFromName("debug", &level));
  EXPECT_EQ(level, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::LogLevelFromName("off", &level));
  EXPECT_FALSE(obs::LogLevelFromName("verbose", &level));
}

// --- dispatcher integration ---

// The decisive concurrency property: N threads driving the dispatcher
// concurrently must leave the registry totals EXACTLY equal to the sum
// of per-thread served counts. This is what lets CI diff a METRICS
// scrape against client-side totals with == instead of >=.
TEST(MetricsTest, RegistryTotalsExactlyMatchPerThreadCounts) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("storm")).GetBool("ok"));
  constexpr int kThreads = 16;
  constexpr int kPerThread = 25;
  std::atomic<uint64_t> client_total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &client_total] {
      uint64_t ok = 0;
      for (int i = 0; i < kPerThread; ++i) {
        JsonValue response = registry.HandleLine(
            R"({"cmd":"QUERY","session":"storm","query_index":0})");
        if (response.GetBool("ok")) ++ok;
      }
      client_total.fetch_add(ok);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(client_total.load(), uint64_t{kThreads} * kPerThread);
  std::vector<obs::Sample> samples = registry.metrics()->Snapshot();
  const obs::Sample* queries = FindSample(
      samples, "vadalog_session_queries_total", "session", "storm");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(queries->value), client_total.load());
  // The dispatcher-level total counts the LOAD_PROGRAM too.
  const obs::Sample* requests =
      FindSample(samples, "vadalog_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(requests->value),
            client_total.load() + 1);
  const obs::Sample* latency =
      FindSample(samples, "vadalog_query_us", "session", "storm");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, client_total.load());
}

TEST(MetricsTest, TracedQueryCarriesEverySpan) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("traced")).GetBool("ok"));
  JsonValue response = registry.HandleLine(
      R"({"cmd":"QUERY","session":"traced","query_index":0,"trace":true})");
  ASSERT_TRUE(response.GetBool("ok")) << response.Dump();
  const JsonValue* trace = response.Find("trace");
  ASSERT_NE(trace, nullptr);
  for (const char* key : {"queue_wait_us", "parse_us", "lock_wait_us",
                          "search_us", "encode_us", "total_us"}) {
    const JsonValue* span = trace->Find(key);
    ASSERT_NE(span, nullptr) << key;
    EXPECT_TRUE(span->is_number()) << key;
  }
  // Untraced responses must not pay for the rendering.
  JsonValue plain = registry.HandleLine(
      R"({"cmd":"QUERY","session":"traced","query_index":0})");
  ASSERT_TRUE(plain.GetBool("ok"));
  EXPECT_EQ(plain.Find("trace"), nullptr);
}

TEST(MetricsTest, MetricsCommandDumpsRegistry) {
  SessionRegistry registry{SessionOptions{}};
  ASSERT_TRUE(registry.HandleLine(LoadLine("dump")).GetBool("ok"));
  registry.HandleLine(R"({"cmd":"QUERY","session":"dump","query_index":0})");
  JsonValue response = registry.HandleLine(R"({"cmd":"METRICS"})");
  ASSERT_TRUE(response.GetBool("ok")) << response.Dump();
  const JsonValue* metrics = response.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  bool saw_queries = false;
  for (const JsonValue& metric : metrics->Items()) {
    if (metric.GetString("name") != "vadalog_session_queries_total") {
      continue;
    }
    saw_queries = true;
    EXPECT_EQ(metric.GetString("type"), "counter");
    EXPECT_EQ(metric.GetUint("value"), 1u);
    const JsonValue* labels = metric.Find("labels");
    ASSERT_NE(labels, nullptr);
    EXPECT_EQ(labels->GetString("session"), "dump");
  }
  EXPECT_TRUE(saw_queries);
}

TEST(MetricsTest, SlowQueryLogFiresAtThreshold) {
  std::string path =
      testing::TempDir() + "/vadalog_slow_query_test.jsonl";
  std::remove(path.c_str());
  obs::SlowQueryLog slow_log;
  std::string error;
  ASSERT_TRUE(slow_log.Open(path, &error)) << error;
  SessionOptions options;
  options.slow_log = &slow_log;
  options.slow_query_micros = 1;  // everything is slow
  SessionRegistry registry{options};
  ASSERT_TRUE(registry.HandleLine(LoadLine("slow")).GetBool("ok"));
  ASSERT_TRUE(
      registry
          .HandleLine(R"({"cmd":"QUERY","session":"slow","query_index":0})")
          .GetBool("ok"));
  EXPECT_GE(slow_log.lines_written(), 1u);
  std::ifstream file(path);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  std::optional<JsonValue> record = JsonValue::Parse(line, &error);
  ASSERT_TRUE(record.has_value()) << error;
  EXPECT_EQ(record->GetString("session"), "slow");
  EXPECT_EQ(record->GetString("cmd"), "QUERY");
  const JsonValue* spans = record->Find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_NE(spans->Find("total_us"), nullptr);
  std::remove(path.c_str());
}

TEST(MetricsTest, RenderMetricsSnapshotShapesHistograms) {
  obs::MetricsRegistry registry;
  registry.GetHistogram("h_us", {}, "latency")->Observe(3);
  JsonValue rendered = RenderMetricsSnapshot(registry);
  ASSERT_TRUE(rendered.is_array());
  ASSERT_EQ(rendered.Items().size(), 1u);
  const JsonValue& metric = rendered.Items()[0];
  EXPECT_EQ(metric.GetString("type"), "histogram");
  const JsonValue* bounds = metric.Find("bounds");
  const JsonValue* buckets = metric.Find("buckets");
  ASSERT_NE(bounds, nullptr);
  ASSERT_NE(buckets, nullptr);
  EXPECT_EQ(bounds->Items().size(), obs::kHistogramBuckets - 1);
  EXPECT_EQ(buckets->Items().size(), obs::kHistogramBuckets);
  EXPECT_EQ(metric.GetUint("count"), 1u);
  EXPECT_EQ(metric.GetUint("sum"), 3u);
}

}  // namespace
}  // namespace vadalog
