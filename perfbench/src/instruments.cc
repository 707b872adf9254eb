#include "instruments.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <utility>

namespace pmw {
namespace perfbench {
namespace {

thread_local uint32_t current_span = 0;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

uint32_t SpanRecorder::Open(const std::string& name, Clock::time_point start,
                            uint64_t request, uint32_t parent) {
  if (parent == 0) parent = current_span;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start = start;
  span.end = Clock::time_point{};
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  if (request == 0 && parent != 0) span.request = spans_[parent - 1].request;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::Close(uint32_t id, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = end;
}

void SpanRecorder::Add(const std::string& name, Clock::time_point end,
                       double us, uint32_t parent, uint64_t request) {
  const auto start =
      end - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::micro>(us));
  Close(Open(name, start, request, parent), end);
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> closed;
  closed.reserve(spans_.size());
  for (const Span& span : spans_) {
    if (span.end != Clock::time_point{}) closed.push_back(span);
  }
  return closed;
}

std::vector<SpanRecorder::Timing> SpanRecorder::AllTimings(
    const std::vector<Span>& spans) {
  // Ids are dense, so index id - 1 of a table covering every id.
  const uint32_t max_id = spans.empty() ? 0 : spans.back().id;
  std::vector<Timing> timings(max_id);
  for (const Span& span : spans) {
    Timing& t = timings[span.id - 1];
    t.us = Micros(span.end - span.start);
    t.parent = span.parent;
    if (span.parent != 0 && span.parent <= max_id) {
      timings[span.parent - 1].children_us += t.us;
      ++timings[span.parent - 1].children;
    }
  }
  return timings;
}

std::map<std::string, LayerTotals> SpanRecorder::SelfTimes() const {
  const std::vector<Span> spans = Spans();
  const std::vector<Timing> timings = AllTimings(spans);
  std::map<std::string, LayerTotals> layers;
  for (const Span& span : spans) {
    LayerTotals& totals = layers[LayerOf(span.name)];
    totals.self_ms += timings[span.id - 1].self_us() / 1000.0;
    ++totals.spans;
  }
  return layers;
}

std::vector<SpanRecorder::Timing> SpanRecorder::Timings(
    const std::string& name) const {
  const std::vector<Span> spans = Spans();
  const std::vector<Timing> timings = AllTimings(spans);
  std::vector<Timing> out;
  for (const Span& span : spans) {
    if (span.name == name) out.push_back(timings[span.id - 1]);
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  Clock::time_point origin = spans.empty() ? Clock::time_point{}
                                           : spans.front().start;
  for (const Span& span : spans) origin = std::min(origin, span.start);
  char line[384];
  for (const Span& span : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"id\": %u, \"parent\": %u, \"request\": %llu}\n",
                  span.name.c_str(), Micros(span.start - origin),
                  Micros(span.end - origin), span.id, span.parent,
                  static_cast<unsigned long long>(span.request));
    out << line;
  }
  out.flush();
  return static_cast<bool>(out);
}

ParentScope::ParentScope(uint32_t id) : saved_(current_span) {
  current_span = id;
}

ParentScope::~ParentScope() { current_span = saved_; }

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       uint64_t request)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->Open(name, Clock::now(), request);
  saved_ = current_span;
  current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  current_span = saved_;
  recorder_->Close(id_, Clock::now());
}

std::future<api::AnswerEnvelope> TimingTransport::Send(
    api::QueryRequest request) {
  const uint32_t id = recorder_->Open("api.rtt", Clock::now());
  std::future<api::AnswerEnvelope> inner = inner_->Send(std::move(request));
  return std::async(
      std::launch::deferred,
      [recorder = recorder_, id, inner = std::move(inner)]() mutable {
        api::AnswerEnvelope reply = inner.get();
        const Clock::time_point end = Clock::now();
        // The server-side split, placed at the end of the round trip:
        // the reply's own durations, not timestamps.
        const double serve_us = static_cast<double>(reply.meta.serve_us);
        recorder->Add("serve.serve", end, serve_us, id);
        recorder->Add(
            "frontend.queue_wait",
            end - std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::micro>(serve_us)),
            static_cast<double>(reply.meta.queue_wait_us), id);
        recorder->Close(id, end);
        return reply;
      });
}

Result<convex::Vec> TimingOracle::Solve(const convex::CmQuery& query,
                                        const data::Dataset& dataset,
                                        const erm::OracleContext& context,
                                        Rng* rng) {
  ScopedSpan span(recorder_, "erm.solve");
  return inner_->Solve(query, dataset, context, rng);
}

Status TimingDelegate::Reweigh(const std::vector<double>& payoff, double eta,
                               std::vector<double>* local_max) {
  ScopedSpan span(recorder_, "cluster.reweigh");
  return inner_->Reweigh(payoff, eta, local_max);
}

Status TimingDelegate::PartialSums(double global_max,
                                   std::vector<double>* local_sum) {
  ScopedSpan span(recorder_, "cluster.partials");
  return inner_->PartialSums(global_max, local_sum);
}

Status TimingDelegate::Normalize(double total) {
  ScopedSpan span(recorder_, "cluster.normalize");
  return inner_->Normalize(total);
}

Result<data::HistogramSupport> TimingDelegate::Snapshot(int lo, int hi) {
  ScopedSpan span(recorder_, "cluster.snapshot");
  return inner_->Snapshot(lo, hi);
}

}  // namespace perfbench
}  // namespace pmw
