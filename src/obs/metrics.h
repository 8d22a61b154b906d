// vdmetrics: the process metrics registry behind vadalogd's METRICS
// command and the Prometheus scraper (`vadalog_client --metrics`).
//
// Three instrument kinds, chosen for hot-path cost:
//
//   * Counter — monotonic, sharded across cache lines: Add() is one
//     relaxed fetch_add on a thread-affine shard, no lock, no contention
//     between threads that stick to their shard. Value() sums the shards
//     (monotonic but not a point-in-time snapshot while writers run —
//     exactly the Prometheus counter contract).
//   * Gauge — one atomic int64 (Set/Add); for levels that go both ways:
//     in-flight requests, open connections, queue depth, cache bytes.
//   * Histogram — log2-bucketed (bucket i counts observations <= 2^i,
//     microsecond-scaled by convention): Observe() is two relaxed
//     fetch_adds and a bit scan. 28 buckets cover 1us..~67s plus +inf.
//
// The registry is instantiable, NOT a process-global singleton: tests
// and benches run several Servers in one process, and each owns its own
// registry (the daemon has exactly one). Registration takes a mutex and
// returns stable handles; instruments are registered once (session
// construction, server start) and handed out as plain pointers, so the
// increment paths never touch the registry again. Handles live as long
// as the registry: a metric is never unregistered (an unloaded session's
// series simply stops moving — the Prometheus model).
//
// This module is standard-library-only by design: it sits BELOW engine
// and server in the dependency order, so the proof searches and the
// worker pool can carry handles. JSON rendering of a Snapshot() lives in
// the server layer (server/session.h), keeping obs/ free of the JSON
// dependency.

#ifndef VADALOG_OBS_METRICS_H_
#define VADALOG_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace vadalog {
namespace obs {

/// Shard count for Counter. Increments come from the daemon's request
/// workers (default workers=4; proof searches run no helper threads),
/// so 4 shards of one cache line each keep them off each other's lines
/// at a 256-byte per-counter footprint. More threads stay exact; they
/// just share shards.
inline constexpr size_t kCounterShards = 4;

/// Histogram buckets: observation v lands in the first bucket with
/// v <= 2^i (i = 0..kHistogramBuckets-2); the last bucket is +inf.
/// 2^26 us ~ 67 s, past any request latency worth bucketing finely.
inline constexpr size_t kHistogramBuckets = 28;

class Counter {
 public:
  /// Lock-free, wait-free on x86: one relaxed fetch_add on the calling
  /// thread's shard.
  void Add(uint64_t n = 1) noexcept {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over shards; monotonic, not a point-in-time cut while writers
  /// are active (the Prometheus counter contract).
  uint64_t Value() const noexcept {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// Threads are assigned shards round-robin at first touch; a thread
  /// keeps its shard for life, so steady-state increments never bounce
  /// cache lines between threads.
  static size_t ShardIndex() noexcept {
    static std::atomic<size_t> next{0};
    thread_local const size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
    return shard;
  }

  std::array<Shard, kCounterShards> shards_;
};

class Gauge {
 public:
  void Set(int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> value_{0};
};

class Histogram {
 public:
  /// Two relaxed fetch_adds plus a bit scan; no locks.
  void Observe(uint64_t value) noexcept {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Non-cumulative per-bucket count (the snapshot layer renders the
  /// cumulative Prometheus form).
  uint64_t bucket(size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// The inclusive upper bound of bucket i (2^i); the last bucket is
  /// +inf and has no finite bound.
  static uint64_t BucketBound(size_t i) noexcept { return uint64_t{1} << i; }

  static size_t BucketIndex(uint64_t value) noexcept {
    if (value <= 1) return 0;
    // First i with value <= 2^i, i.e. ceil(log2(value)).
    size_t index = 64 - static_cast<size_t>(std::countl_zero(value - 1));
    return index < kHistogramBuckets - 1 ? index : kHistogramBuckets - 1;
  }

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

/// Label pairs, ordered as registered (order is part of the identity:
/// register with a consistent order, which every call site here does).
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// One metric's point-in-time reading, as Snapshot() returns it.
struct Sample {
  std::string name;
  MetricType type = MetricType::kCounter;
  LabelSet labels;
  std::string help;
  /// Counter total or gauge level (gauges may be negative).
  int64_t value = 0;
  /// Histogram only: CUMULATIVE bucket counts (bucket i = observations
  /// <= 2^i, last = +inf = count), plus sum and count.
  std::vector<uint64_t> buckets;
  uint64_t sum = 0;
  uint64_t count = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the instrument with this (name, labels) identity.
  /// Handles are stable for the registry's lifetime. Registration is
  /// mutex-guarded (rare: session creation / server start); the returned
  /// handle's increment path never locks.
  Counter* GetCounter(const std::string& name, const LabelSet& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const LabelSet& labels = {},
                          const std::string& help = "");

  /// Every registered metric's current reading, sorted by (name, labels)
  /// so dumps are deterministic for a deterministic registration set.
  std::vector<Sample> Snapshot() const;

 private:
  struct Entry {
    std::string name;
    LabelSet labels;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const LabelSet& labels,
                      const std::string& help, MetricType type);

  /// Orders entries by identity (name, labels, type). Transparent, so a
  /// lookup compares against the caller's arguments without building an
  /// Entry.
  struct ByIdentity {
    using is_transparent = void;
    using Key = std::tuple<const std::string&, const LabelSet&, MetricType>;
    static Key Of(const Key& key) { return key; }
    static Key Of(const std::unique_ptr<Entry>& entry) {
      return {entry->name, entry->labels, entry->type};
    }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const { return Of(a) < Of(b); }
  };

  mutable base::Mutex mutex_;
  /// Ordered by identity, so a registration is one logarithmic lookup (a
  /// daemon registers a couple of dozen instruments per session; a linear
  /// scan made loading N sessions quadratic) and the set's order is
  /// Snapshot's (name, labels) order. Never erased, and an Entry's fields
  /// are immutable once inserted, so Snapshot may read them through
  /// copied pointers after dropping the lock (only the set itself needs
  /// the capability).
  std::set<std::unique_ptr<Entry>, ByIdentity> entries_ GUARDED_BY(mutex_);
};

/// The per-(session, engine) proof-search counters, plumbed to the
/// engines through ProofSearchOptions::metrics. A search flushes its
/// ProofSearchResult totals here ONCE at completion — the search hot
/// loops never touch these.
struct EngineCounters {
  Counter* searches = nullptr;
  Counter* states_expanded = nullptr;
  Counter* cache_hits = nullptr;
  Counter* subsumed_discarded = nullptr;
  Counter* budget_exhausted = nullptr;

  void RecordSearch(uint64_t expanded, uint64_t hits, uint64_t subsumed,
                    bool exhausted) const {
    if (searches != nullptr) searches->Add(1);
    if (states_expanded != nullptr) states_expanded->Add(expanded);
    if (cache_hits != nullptr) cache_hits->Add(hits);
    if (subsumed_discarded != nullptr) subsumed_discarded->Add(subsumed);
    if (exhausted && budget_exhausted != nullptr) budget_exhausted->Add(1);
  }
};

/// Registers the standard vadalog_search_* counter family under `labels`
/// (conventionally {{"session", ...}, {"engine", "linear"|"alternating"}}).
EngineCounters MakeEngineCounters(MetricsRegistry* registry,
                                  const LabelSet& labels);

}  // namespace obs
}  // namespace vadalog

#endif  // VADALOG_OBS_METRICS_H_
