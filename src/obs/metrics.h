// obs::Registry — the unified metrics layer every serving component
// records into and the one surface scrapers read from (the api layer's
// kMetricsRequest frame renders it as Prometheus-style text or an
// ordered-JSON dump).
//
// Design constraints, in order:
//
//   1. Hot-path increments never take a lock. Counter::Add is one
//      relaxed atomic add on a cache-line-padded cell picked by thread
//      id, so the serving writer, pool workers, and transport threads
//      never contend on a line. Gauge::Set is one atomic store;
//      Histogram::Observe is a handful of relaxed atomics plus CAS loops
//      on the moment accumulators (uncontended in practice: one writer
//      per histogram).
//   2. Scrapes are consistent-enough, not transactional. A reader may
//      observe counter A after increment n and counter B before it;
//      every individual value is torn-free. This is the documented
//      contract of every metrics system and exactly what the serving
//      invariant needs: observability reads NEVER block the writer.
//   3. Registration is cold. GetCounter/GetGauge/GetHistogram take the
//      registry mutex; callers resolve handles once (construction time)
//      and hold the stable pointer — instruments are never deleted while
//      the registry lives.
//
// Nothing in this module may influence answers: obs sits directly above
// common/ in the build graph and no serving code reads a metric back
// into a decision.

#ifndef PMWCM_OBS_METRICS_H_
#define PMWCM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pmw {
namespace obs {

/// Monotonic counter with thread-sharded cells: concurrent Add calls
/// from distinct threads land on distinct cache lines (no lock, no
/// shared-line ping-pong); Value() folds the cells.
class Counter {
 public:
  void Add(long long delta = 1) {
    cells_[CellIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  long long Value() const {
    long long total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  /// Enough cells that the handful of threads a serving stack runs
  /// (writer, pool workers, transport readers/writers, scrapers) rarely
  /// collide; collisions only cost a shared line, never correctness.
  static constexpr size_t kCells = 8;
  struct alignas(64) Cell {
    std::atomic<long long> value{0};
  };

  static size_t CellIndex();

  Cell cells_[kCells];
};

/// Last-write-wins double value (topology knobs, scrape-time SLO burn
/// ratios). Torn-free via the bit representation.
class Gauge {
 public:
  void Set(double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }

  double Value() const {
    const uint64_t bits = bits_.load(std::memory_order_relaxed);
    double value;
    __builtin_memcpy(&value, &bits, sizeof(value));
    return value;
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-boundary histogram with exact streamed moments. Buckets are
/// chosen at registration (log-spaced via LogBuckets for latency-style
/// metrics) and never change, so bucket counts are plain relaxed atomic
/// adds. Alongside the buckets the histogram streams count/sum/sumsq/
/// min/max exactly; scrapes render them next to the quantiles.
class Histogram {
 public:
  /// `boundaries` must be strictly increasing; bucket i counts
  /// observations <= boundaries[i], with one implicit +Inf bucket after
  /// the last boundary.
  explicit Histogram(std::vector<double> boundaries);

  void Observe(double value);

  /// Log-spaced boundaries: start, start*factor, ... (`count` of them).
  static std::vector<double> LogBuckets(double start, double factor,
                                        int count);

  /// A torn-free copy of the instrument (each field individually
  /// consistent; the set may straddle concurrent Observes).
  struct Snapshot {
    long long count = 0;
    double sum = 0.0;
    double sumsq = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<double> boundaries;
    /// Per-bucket counts, boundaries.size() + 1 entries (last = +Inf).
    std::vector<long long> buckets;

    /// q-quantile (0 <= q <= 1) by linear interpolation inside the
    /// owning bucket, clamped to the observed [min, max]. Deterministic
    /// for a fixed snapshot; 0 when empty.
    double Quantile(double q) const;
  };
  Snapshot Snap() const;

 private:
  const std::vector<double> boundaries_;
  std::unique_ptr<std::atomic<long long>[]> buckets_;
  std::atomic<long long> count_{0};
  std::atomic<uint64_t> sum_bits_{0};
  std::atomic<uint64_t> sumsq_bits_{0};
  std::atomic<uint64_t> min_bits_;
  std::atomic<uint64_t> max_bits_;
};

/// Named instrument store. One Registry serves one endpoint's whole
/// stack (serve + frontend + api); instruments live as long as the
/// registry, so handles resolved at construction stay valid forever.
///
/// Naming convention: pmw_<layer>_<what>[_total|_ms|_us], with
/// Prometheus-style labels spelled into the name ('name{key="value"}')
/// via LabeledName. Exposition output is sorted by full name, so dumps
/// are deterministic for a fixed set of values.
class Registry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Re-registering an existing histogram returns it unchanged (the
  /// boundaries of the first registration win).
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> boundaries);

  /// 'base{key="value"}' with '\' and '"' escaped in the value.
  static std::string LabeledName(const std::string& base,
                                 const std::string& key,
                                 const std::string& value);

  /// Counter value by exact name; 0 when absent (a reader may scrape
  /// before the instrument is registered).
  long long CounterValue(const std::string& name) const;
  /// Empty snapshot when absent.
  Histogram::Snapshot HistogramSnap(const std::string& name) const;

  /// Prometheus-style text exposition, sorted by name:
  ///   # TYPE pmw_x counter          (once per base name)
  ///   pmw_x 123
  /// Histograms render cumulative '_bucket{le="..."}' series plus
  /// _count/_sum and exact p50/p99/p999 as '_q{q="..."}' gauges.
  std::string TextExposition() const;

  /// Ordered-JSON dump (keys sorted, stable float formatting — the
  /// workload/json discipline): {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, p50, p99, p999,
  /// buckets: [[le, n], ...]}}}. Machine-diffable by
  /// bench/check_regression.py.
  std::string JsonDump() const;

 private:
  mutable std::mutex mutex_;
  /// std::map: iteration order == exposition order, deterministically.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace pmw

#endif  // PMWCM_OBS_METRICS_H_
