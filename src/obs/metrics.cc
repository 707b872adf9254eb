#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "common/check.h"

namespace pmw {
namespace obs {
namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits;
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double value;
  __builtin_memcpy(&value, &bits, sizeof(value));
  return value;
}

/// CAS-add on an atomic double stored as bits. Uncontended in the
/// steady state (one logical writer per histogram), so the loop almost
/// always succeeds first try.
void AtomicAdd(std::atomic<uint64_t>* bits, double delta) {
  uint64_t observed = bits->load(std::memory_order_relaxed);
  while (!bits->compare_exchange_weak(
      observed, DoubleBits(BitsDouble(observed) + delta),
      std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<uint64_t>* bits, double value) {
  uint64_t observed = bits->load(std::memory_order_relaxed);
  while (value < BitsDouble(observed) &&
         !bits->compare_exchange_weak(observed, DoubleBits(value),
                                      std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* bits, double value) {
  uint64_t observed = bits->load(std::memory_order_relaxed);
  while (value > BitsDouble(observed) &&
         !bits->compare_exchange_weak(observed, DoubleBits(value),
                                      std::memory_order_relaxed)) {
  }
}

/// Shortest-round-trip double formatting ("%.17g" trimmed via "%g"
/// upgrade): deterministic for a fixed value on every libc this repo
/// builds against, which is what keeps dumps diffable.
std::string FmtDouble(double value) {
  if (std::isnan(value)) return "null";
  if (std::isinf(value)) return value > 0 ? "1e999" : "-1e999";
  char buffer[64];
  // Try increasing precision until the value round-trips.
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// The metric name without its label block: 'a{b="c"}' -> 'a'.
std::string BaseName(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

}  // namespace

size_t Counter::CellIndex() {
  // One hashed cell index per thread, shared by every counter: the hash
  // is computed once, and distinct threads land on distinct cells with
  // probability (kCells - 1) / kCells per pair.
  static thread_local const size_t cell =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kCells;
  return cell;
}

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      buckets_(new std::atomic<long long>[boundaries_.size() + 1]),
      min_bits_(DoubleBits(0.0)),
      max_bits_(DoubleBits(0.0)) {
  for (size_t i = 0; i + 1 < boundaries_.size(); ++i) {
    PMW_CHECK_MSG(boundaries_[i] < boundaries_[i + 1],
                  "histogram boundaries must be strictly increasing");
  }
  for (size_t i = 0; i <= boundaries_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<double> Histogram::LogBuckets(double start, double factor,
                                          int count) {
  PMW_CHECK_GT(start, 0.0);
  PMW_CHECK_GT(factor, 1.0);
  std::vector<double> boundaries;
  boundaries.reserve(static_cast<size_t>(count));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    boundaries.push_back(edge);
    edge *= factor;
  }
  return boundaries;
}

void Histogram::Observe(double value) {
  // lower_bound, not upper_bound: a value equal to a boundary belongs
  // in that boundary's bucket (the Prometheus le="x" contract the text
  // exposition renders).
  const size_t bucket =
      static_cast<size_t>(std::lower_bound(boundaries_.begin(),
                                           boundaries_.end(), value) -
                          boundaries_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  // First observation seeds min/max: publish count AFTER the extrema so
  // a racing Snap with count >= 1 sees seeded (not zero-default) bits.
  if (count_.load(std::memory_order_acquire) == 0) {
    // Benign race: two "first" observers both seed; AtomicMin/Max below
    // reconcile to the true extrema either way.
    min_bits_.store(DoubleBits(value), std::memory_order_relaxed);
    max_bits_.store(DoubleBits(value), std::memory_order_relaxed);
  }
  AtomicMin(&min_bits_, value);
  AtomicMax(&max_bits_, value);
  AtomicAdd(&sum_bits_, value);
  AtomicAdd(&sumsq_bits_, value * value);
  count_.fetch_add(1, std::memory_order_release);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.boundaries = boundaries_;
  snap.buckets.resize(boundaries_.size() + 1);
  for (size_t i = 0; i <= boundaries_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_acquire);
  snap.sum = BitsDouble(sum_bits_.load(std::memory_order_relaxed));
  snap.sumsq = BitsDouble(sumsq_bits_.load(std::memory_order_relaxed));
  snap.min = BitsDouble(min_bits_.load(std::memory_order_relaxed));
  snap.max = BitsDouble(max_bits_.load(std::memory_order_relaxed));
  return snap;
}

double Histogram::Snapshot::Quantile(double q) const {
  long long total = 0;
  for (long long n : buckets) total += n;
  if (total <= 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  long long seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double below = static_cast<double>(seen);
    seen += buckets[i];
    if (static_cast<double>(seen) < rank) continue;
    // The rank lands in bucket i: interpolate linearly across its span.
    const double lower =
        i == 0 ? min : boundaries[i - 1];
    const double upper =
        i < boundaries.size() ? boundaries[i] : max;
    const double fraction =
        buckets[i] > 0
            ? (rank - below) / static_cast<double>(buckets[i])
            : 0.0;
    const double value = lower + (upper - lower) * fraction;
    return std::clamp(value, min, max);
  }
  return max;
}

RunningStats Histogram::Snapshot::Moments() const {
  return RunningStats::FromMoments(count, sum, sumsq, min, max);
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  std::vector<double> boundaries) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(boundaries));
  }
  return slot.get();
}

std::string Registry::LabeledName(const std::string& base,
                                  const std::string& key,
                                  const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') escaped.push_back('\\');
    escaped.push_back(c);
  }
  return base + "{" + key + "=\"" + escaped + "\"}";
}

long long Registry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

Histogram::Snapshot Registry::HistogramSnap(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram::Snapshot{} : it->second->Snap();
}

void Registry::ForEachCounter(
    const std::string& prefix,
    const std::function<void(const std::string&, long long)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = counters_.lower_bound(prefix); it != counters_.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    fn(it->first, it->second->Value());
  }
}

std::string Registry::TextExposition() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string last_typed;
  for (const auto& [name, counter] : counters_) {
    const std::string base = BaseName(name);
    if (base != last_typed) {
      out += "# TYPE " + base + " counter\n";
      last_typed = base;
    }
    out += name + " " + std::to_string(counter->Value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += "# TYPE " + BaseName(name) + " gauge\n";
    out += name + " " + FmtDouble(gauge->Value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->Snap();
    out += "# TYPE " + name + " histogram\n";
    long long cumulative = 0;
    for (size_t i = 0; i < snap.buckets.size(); ++i) {
      cumulative += snap.buckets[i];
      const std::string le =
          i < snap.boundaries.size() ? FmtDouble(snap.boundaries[i])
                                     : "+Inf";
      out += name + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_sum " + FmtDouble(snap.sum) + "\n";
    out += name + "_count " + std::to_string(snap.count) + "\n";
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"0.5", 0.5},
          {"0.99", 0.99},
          {"0.999", 0.999}}) {
      out += name + "_q{q=\"" + label + "\"} " +
             FmtDouble(snap.Quantile(q)) + "\n";
    }
  }
  return out;
}

std::string Registry::JsonDump() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) +
           "\": " + std::to_string(counter->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + FmtDouble(gauge->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->Snap();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": {\n";
    out += "      \"count\": " + std::to_string(snap.count) + ",\n";
    out += "      \"sum\": " + FmtDouble(snap.sum) + ",\n";
    out += "      \"sumsq\": " + FmtDouble(snap.sumsq) + ",\n";
    out += "      \"min\": " + FmtDouble(snap.min) + ",\n";
    out += "      \"max\": " + FmtDouble(snap.max) + ",\n";
    out += "      \"p50\": " + FmtDouble(snap.Quantile(0.5)) + ",\n";
    out += "      \"p99\": " + FmtDouble(snap.Quantile(0.99)) + ",\n";
    out += "      \"p999\": " + FmtDouble(snap.Quantile(0.999)) + ",\n";
    out += "      \"buckets\": [";
    for (size_t i = 0; i < snap.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      const std::string le = i < snap.boundaries.size()
                                 ? FmtDouble(snap.boundaries[i])
                                 : "null";
      out += "[" + le + ", " + std::to_string(snap.buckets[i]) + "]";
    }
    out += "]\n    }";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace obs
}  // namespace pmw
