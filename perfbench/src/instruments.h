// The benchmark's spans and the timing decorators that record them.
//
// Spans are recorded only from the benchmark's own code: around calls
// into each layer's public functions, through decorators the stack is
// built with (an api::Transport, an erm::Oracle injected through the
// endpoint's oracle constructor, a core::HypothesisDelegate around the
// cluster combiner). Nothing inside src/ is traced. Untraced runs build
// the stack without the decorators, so they pay nothing.

#ifndef PERFBENCH_INSTRUMENTS_H_
#define PERFBENCH_INSTRUMENTS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/transport.h"
#include "core/sharded_hypothesis.h"
#include "erm/oracle.h"

namespace pmw {
namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed interval. `parent` is another span's id (0 = root);
/// `request` ties the spans of one request together (0 = none known,
/// e.g. server-side work that no request id reaches).
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  uint32_t id = 0;
  uint32_t parent = 0;
  uint64_t request = 0;
};

/// Per-layer self time: a span's duration minus the part its children
/// cover, summed over the layer's spans (layer = name up to the first
/// '.').
struct LayerTotals {
  double self_ms = 0.0;
  long long spans = 0;
};

/// In-memory span store, written out once when the run ends. Thread
/// safe: the load generator, the socket reader and the serving writer
/// all record into it.
class SpanRecorder {
 public:
  /// Opens a span; parent 0 means "the calling thread's current span"
  /// (see ParentScope), and a request of 0 inherits the parent's.
  uint32_t Open(const std::string& name, Clock::time_point start,
                uint64_t request = 0, uint32_t parent = 0);
  void Close(uint32_t id, Clock::time_point end);
  /// A span known only by its duration, placed to end at `end`.
  void Add(const std::string& name, Clock::time_point end, double us,
           uint32_t parent, uint64_t request = 0);

  /// Closed spans, in id order.
  std::vector<Span> Spans() const;
  std::map<std::string, LayerTotals> SelfTimes() const;
  /// One closed span's duration and what its children cover, in us.
  struct Timing {
    double us = 0.0;
    double children_us = 0.0;
    int children = 0;
    uint32_t parent = 0;
    double self_us() const { return us > children_us ? us - children_us : 0.0; }
  };
  /// Every closed span named `name`, in id order.
  std::vector<Timing> Timings(const std::string& name) const;

  /// One JSON object per line: name, start_us, end_us (from the first
  /// span's start), id, parent, request.
  bool WriteJsonLines(const std::string& path) const;

 private:
  /// Indexed by id - 1; entries of spans not in `spans` stay zero.
  static std::vector<Timing> AllTimings(const std::vector<Span>& spans);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // index = id - 1
};

/// Makes `id` the calling thread's current span while in scope, so
/// spans opened underneath (decorators) nest under it.
class ParentScope {
 public:
  explicit ParentScope(uint32_t id);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  uint32_t saved_;
};

/// Open + ParentScope + Close around a scope; a no-op without recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint32_t id_ = 0;
  uint32_t saved_ = 0;
};

/// api::Transport decorator: "api.rtt" from Send until the reply is
/// collected, plus "frontend.queue_wait" and "serve.serve" children
/// carrying the durations the reply's ServingMeta reports.
class TimingTransport : public api::Transport {
 public:
  /// Both must outlive the decorator.
  TimingTransport(api::Transport* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  std::future<api::AnswerEnvelope> Send(api::QueryRequest request) override;
  std::future<api::AnswerEnvelope> SendStats(
      api::StatsRequest request) override {
    return inner_->SendStats(std::move(request));
  }
  std::future<api::AnswerEnvelope> SendMetrics(
      api::MetricsRequest request) override {
    return inner_->SendMetrics(std::move(request));
  }
  void Close() override { inner_->Close(); }

 private:
  api::Transport* inner_;
  SpanRecorder* recorder_;
};

/// erm::Oracle decorator: one "erm.solve" span per Solve. Forwards the
/// caller's Rng untouched, so transcripts are unchanged.
class TimingOracle : public erm::Oracle {
 public:
  TimingOracle(erm::Oracle* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  Result<convex::Vec> Solve(const convex::CmQuery& query,
                            const data::Dataset& dataset,
                            const erm::OracleContext& context,
                            Rng* rng) override;
  std::string name() const override { return inner_->name(); }

 private:
  erm::Oracle* inner_;
  SpanRecorder* recorder_;
};

/// core::HypothesisDelegate decorator around the cluster combiner: one
/// "cluster.<phase>" span per phase call.
class TimingDelegate : public core::HypothesisDelegate {
 public:
  TimingDelegate(core::HypothesisDelegate* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  Status Reweigh(const std::vector<double>& payoff, double eta,
                 std::vector<double>* local_max) override;
  Status PartialSums(double global_max,
                     std::vector<double>* local_sum) override;
  Status Normalize(double total) override;
  Result<data::HistogramSupport> Snapshot(int lo, int hi) override;

 private:
  core::HypothesisDelegate* inner_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench
}  // namespace pmw

#endif  // PERFBENCH_INSTRUMENTS_H_
