#include "obs/metrics.h"

namespace vadalog {
namespace obs {

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(const std::string& name,
                                                      const LabelSet& labels,
                                                      const std::string& help,
                                                      MetricType type) {
  base::MutexLock lock(&mutex_);
  auto found = entries_.find(ByIdentity::Key{name, labels, type});
  if (found != entries_.end()) return found->get();
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->help = help;
  entry->type = type;
  switch (type) {
    case MetricType::kCounter:
      entry->counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      entry->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      entry->histogram = std::make_unique<Histogram>();
      break;
  }
  return entries_.insert(std::move(entry)).first->get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelSet& labels,
                                     const std::string& help) {
  return FindOrCreate(name, labels, help, MetricType::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelSet& labels,
                                 const std::string& help) {
  return FindOrCreate(name, labels, help, MetricType::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const LabelSet& labels,
                                         const std::string& help) {
  return FindOrCreate(name, labels, help, MetricType::kHistogram)
      ->histogram.get();
}

std::vector<Sample> MetricsRegistry::Snapshot() const {
  std::vector<const Entry*> ordered;
  {
    base::MutexLock lock(&mutex_);
    ordered.reserve(entries_.size());
    for (const std::unique_ptr<Entry>& entry : entries_) {
      ordered.push_back(entry.get());
    }
  }
  std::vector<Sample> samples;
  samples.reserve(ordered.size());
  for (const Entry* entry : ordered) {
    Sample sample;
    sample.name = entry->name;
    sample.type = entry->type;
    sample.labels = entry->labels;
    sample.help = entry->help;
    switch (entry->type) {
      case MetricType::kCounter:
        sample.value = static_cast<int64_t>(entry->counter->Value());
        break;
      case MetricType::kGauge:
        sample.value = entry->gauge->Value();
        break;
      case MetricType::kHistogram: {
        // Rendered cumulative (Prometheus "le" semantics); the final
        // +inf bucket then equals the count by construction.
        sample.buckets.resize(kHistogramBuckets);
        uint64_t running = 0;
        for (size_t i = 0; i < kHistogramBuckets; ++i) {
          running += entry->histogram->bucket(i);
          sample.buckets[i] = running;
        }
        sample.sum = entry->histogram->sum();
        sample.count = entry->histogram->count();
        break;
      }
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

EngineCounters MakeEngineCounters(MetricsRegistry* registry,
                                  const LabelSet& labels) {
  EngineCounters counters;
  if (registry == nullptr) return counters;
  counters.searches = registry->GetCounter(
      "vadalog_search_total", labels, "proof searches completed");
  counters.states_expanded = registry->GetCounter(
      "vadalog_search_states_expanded_total", labels,
      "proof-search states expanded");
  counters.cache_hits = registry->GetCounter(
      "vadalog_search_cache_hits_total", labels,
      "sub-searches answered by the shared proof cache");
  counters.subsumed_discarded = registry->GetCounter(
      "vadalog_search_subsumed_total", labels,
      "states discarded by subsumption pruning");
  counters.budget_exhausted = registry->GetCounter(
      "vadalog_search_budget_exhausted_total", labels,
      "searches that gave up on a state or time budget");
  return counters;
}

}  // namespace obs
}  // namespace vadalog
