#include "common/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace hyperfile {
namespace {

/// Exported floats use max_digits10 so a dump parsed back yields the exact
/// stored value (same rule as bench_util's BENCH JSON writer).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct ExportRow {
  std::string name;
  std::string value;  // already formatted (integer or double text)
};

}  // namespace

std::uint64_t Histogram::quantile_bound(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Nearest-rank: the smallest sample index covering fraction q of the
  // population (truncating q*(n-1) instead would report p99 of five
  // samples as the 4th smallest, not the max).
  const double scaled = q * static_cast<double>(n);
  auto rank = static_cast<std::uint64_t>(scaled);
  if (rank > 0 && static_cast<double>(rank) == scaled) --rank;
  if (rank >= n) rank = n - 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (seen > rank) return upper_bound(b);
  }
  return upper_bound(kBuckets - 1);
}

std::uint64_t Histogram::upper_bound(std::size_t b) {
  const std::size_t e = b / kSubBuckets;
  const std::uint64_t next = kSubBuckets + b % kSubBuckets + 1;  // 5..8
  // Below 4 a bucket holds the single value (next - 1) >> (2 - e).
  if (e < 2) return ((next - 1) >> (2 - e)) + 1;
  if (b + 1 == kBuckets) return UINT64_MAX;  // 2^64 does not fit
  return next << (e - 2);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never destroyed
  return *instance;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::int64_t MetricsRegistry::gauge_value(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second->value();
}

std::vector<std::string> MetricsRegistry::names() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, c] : counters_) out.push_back(name);
  for (const auto& [name, g] : gauges_) out.push_back(name);
  for (const auto& [name, h] : histograms_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// Collect every instrument as (name, formatted value) rows. Histograms
/// expand into .count/.sum/.mean/.p50/.p99 derived rows. Rows come out
/// sorted because the maps iterate in name order and a final merge keeps it.
std::vector<ExportRow> collect_rows(
    const std::map<std::string, std::unique_ptr<Counter>>& counters,
    const std::map<std::string, std::unique_ptr<Gauge>>& gauges,
    const std::map<std::string, std::unique_ptr<Histogram>>& histograms) {
  std::vector<ExportRow> rows;
  for (const auto& [name, c] : counters) {
    rows.push_back({name, std::to_string(c->value())});
  }
  for (const auto& [name, g] : gauges) {
    rows.push_back({name, std::to_string(g->value())});
  }
  for (const auto& [name, h] : histograms) {
    rows.push_back({name + ".count", std::to_string(h->count())});
    rows.push_back({name + ".sum", std::to_string(h->sum())});
    rows.push_back({name + ".mean", format_double(h->mean())});
    rows.push_back({name + ".p50", std::to_string(h->quantile_bound(0.50))});
    rows.push_back({name + ".p99", std::to_string(h->quantile_bound(0.99))});
  }
  std::sort(rows.begin(), rows.end(),
            [](const ExportRow& a, const ExportRow& b) { return a.name < b.name; });
  return rows;
}

std::string json_escape_name(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::to_text() const {
  MutexLock lock(mu_);
  const auto rows = collect_rows(counters_, gauges_, histograms_);
  std::string out;
  for (const auto& row : rows) {
    out += row.name;
    out += " ";
    out += row.value;
    out += "\n";
  }
  return out;
}

std::string MetricsRegistry::to_json_fields() const {
  MutexLock lock(mu_);
  const auto rows = collect_rows(counters_, gauges_, histograms_);
  std::string out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + json_escape_name(rows[i].name) + "\": " + rows[i].value;
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  return "{" + to_json_fields() + "}";
}

}  // namespace hyperfile
