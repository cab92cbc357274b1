#include "support/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "support/strings.hpp"

namespace mv::metrics {

void Histogram::record(double x) {
  ++count_;
  sum_ += x;
  min_ = count_ == 1 ? x : std::min(min_, x);
  max_ = count_ == 1 ? x : std::max(max_, x);

  // Deterministic reservoir: admit every stride-th sample; on overflow keep
  // every other retained sample and double the stride.
  if (++skipped_ < stride_) return;
  skipped_ = 0;
  if (samples_.size() >= kReservoirCap) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < samples_.size(); r += 2) {
      samples_[w++] = samples_[r];
    }
    samples_.resize(w);
    stride_ *= 2;
  }
  samples_.push_back(x);
}

double Histogram::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank =
      p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void Histogram::reset() {
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  samples_.clear();
  stride_ = 1;
  skipped_ = 0;
}

Registry& Registry::instance() noexcept {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return *counters_[it->second].second;
  counters_.emplace_back(name, std::make_unique<Counter>());
  counter_index_.emplace(name, counters_.size() - 1);
  return *counters_.back().second;
}

Histogram& Registry::histogram(const std::string& name) {
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return *histograms_[it->second].second;
  histograms_.emplace_back(name, std::make_unique<Histogram>());
  histogram_index_.emplace(name, histograms_.size() - 1);
  return *histograms_.back().second;
}

Counter* Registry::find_counter(const std::string& name) {
  auto it = counter_index_.find(name);
  return it == counter_index_.end() ? nullptr : counters_[it->second].second.get();
}

Histogram* Registry::find_histogram(const std::string& name) {
  auto it = histogram_index_.find(name);
  return it == histogram_index_.end() ? nullptr
                                      : histograms_[it->second].second.get();
}

namespace {

// lower_bound walk over a sorted name->index map: visit exactly the keys
// that start with `prefix` (an empty prefix visits everything, still in
// name order).
template <typename Map, typename Fn>
void for_each_with_prefix(const Map& index, const std::string& prefix, Fn fn) {
  for (auto it = index.lower_bound(prefix); it != index.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    fn(it->first, it->second);
  }
}

}  // namespace

std::vector<std::pair<std::string, const Counter*>>
Registry::counters_with_prefix(const std::string& prefix) const {
  std::vector<std::pair<std::string, const Counter*>> out;
  for_each_with_prefix(counter_index_, prefix,
                       [&](const std::string& n, std::size_t i) {
                         out.emplace_back(n, counters_[i].second.get());
                       });
  return out;
}

std::vector<std::pair<std::string, const Histogram*>>
Registry::histograms_with_prefix(const std::string& prefix) const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  for_each_with_prefix(histogram_index_, prefix,
                       [&](const std::string& n, std::size_t i) {
                         out.emplace_back(n, histograms_[i].second.get());
                       });
  return out;
}

std::string Registry::to_text() const {
  std::string out;
  for (const auto& [name, i] : counter_index_) {
    out += strfmt("counter %s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(
                      counters_[i].second->value()));
  }
  for (const auto& [name, i] : histogram_index_) {
    const Histogram* h = histograms_[i].second.get();
    out += strfmt(
        "histogram %s count=%llu mean=%.1f p50=%.1f p90=%.1f p99=%.1f "
        "max=%.1f\n",
        name.c_str(), static_cast<unsigned long long>(h->count()), h->mean(),
        h->percentile(50), h->percentile(90), h->percentile(99), h->max());
  }
  return out;
}

std::string Registry::to_json(int tenant) const {
  std::string out = "{\"instruments\":[";
  bool first = true;
  const auto emit = [&](const std::string& body) {
    if (!first) out += ',';
    first = false;
    out += body;
  };
  for (const auto& [name, i] : counter_index_) {
    emit(strfmt("{\"kind\":\"counter\",\"tenant\":%d,\"name\":\"%s\","
                "\"value\":%llu}",
                tenant, name.c_str(),
                static_cast<unsigned long long>(
                    counters_[i].second->value())));
  }
  for (const auto& [name, i] : histogram_index_) {
    const Histogram* h = histograms_[i].second.get();
    emit(strfmt("{\"kind\":\"histogram\",\"tenant\":%d,\"name\":\"%s\","
                "\"count\":%llu,\"mean\":%.1f,\"p50\":%.1f,\"p90\":%.1f,"
                "\"p99\":%.1f,\"max\":%.1f}",
                tenant, name.c_str(),
                static_cast<unsigned long long>(h->count()), h->mean(),
                h->percentile(50), h->percentile(90), h->percentile(99),
                h->max()));
  }
  out += "]}";
  return out;
}

std::string Registry::to_prometheus(int tenant) const {
  std::string out;
  for (const auto& [name, i] : counter_index_) {
    out += strfmt("mv_counter{name=\"%s\",tenant=\"%d\"} %llu\n",
                  name.c_str(), tenant,
                  static_cast<unsigned long long>(
                      counters_[i].second->value()));
  }
  for (const auto& [name, i] : histogram_index_) {
    const Histogram* h = histograms_[i].second.get();
    const auto count = static_cast<unsigned long long>(h->count());
    out += strfmt("mv_histogram_count{name=\"%s\",tenant=\"%d\"} %llu\n",
                  name.c_str(), tenant, count);
    out += strfmt("mv_histogram_mean{name=\"%s\",tenant=\"%d\"} %.1f\n",
                  name.c_str(), tenant, h->mean());
    out += strfmt("mv_histogram_p50{name=\"%s\",tenant=\"%d\"} %.1f\n",
                  name.c_str(), tenant, h->percentile(50));
    out += strfmt("mv_histogram_p90{name=\"%s\",tenant=\"%d\"} %.1f\n",
                  name.c_str(), tenant, h->percentile(90));
    out += strfmt("mv_histogram_p99{name=\"%s\",tenant=\"%d\"} %.1f\n",
                  name.c_str(), tenant, h->percentile(99));
    out += strfmt("mv_histogram_max{name=\"%s\",tenant=\"%d\"} %.1f\n",
                  name.c_str(), tenant, h->max());
  }
  return out;
}

void Registry::reset() {
  for (auto& [n, c] : counters_) c->reset();
  for (auto& [n, h] : histograms_) h->reset();
}

void Registry::reindex() {
  counter_index_.clear();
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counter_index_.emplace(counters_[i].first, i);
  }
  histogram_index_.clear();
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    histogram_index_.emplace(histograms_[i].first, i);
  }
}

void Registry::truncate_instruments(std::size_t counters,
                                    std::size_t histograms) {
  bool changed = false;
  if (counters < counters_.size()) {
    counters_.resize(counters);
    changed = true;
  }
  if (histograms < histograms_.size()) {
    histograms_.resize(histograms);
    changed = true;
  }
  if (changed) reindex();
}

}  // namespace mv::metrics
