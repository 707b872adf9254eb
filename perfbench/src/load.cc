#include "load.h"

#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "api/client.h"

namespace pmw {
namespace perfbench {
namespace {

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct Inflight {
  size_t index = 0;
  Clock::time_point origin;  // scheduled or actual send time
  uint32_t span = 0;
  std::future<api::AnswerEnvelope> reply;
};

/// Sends trace event `index` on `client`, opening its request span.
Inflight Send(const workload::Trace& trace, size_t index, api::Client* client,
              Clock::time_point origin, SpanRecorder* recorder) {
  Inflight entry;
  entry.index = index;
  entry.origin = origin;
  if (recorder != nullptr) {
    entry.span = recorder->Open("load.request", origin, index + 1);
  }
  ParentScope scope(entry.span);
  entry.reply = client->CallAsync(trace.events[index].query_name);
  return entry;
}

Clock::time_point Collect(Inflight* entry, DriveResult* result,
                          SpanRecorder* recorder) {
  Observation& obs = result->observations[entry->index];
  obs.reply = entry->reply.get();
  const Clock::time_point end = Clock::now();
  obs.latency_ms = Millis(end - entry->origin);
  obs.done = true;
  if (recorder != nullptr) recorder->Close(entry->span, end);
  return end;
}

std::vector<std::unique_ptr<api::Client>> Clients(Stack* stack, int count) {
  std::vector<std::unique_ptr<api::Client>> clients;
  for (int a = 0; a < count; ++a) {
    clients.push_back(std::make_unique<api::Client>(
        stack->transport(a), "analyst-" + std::to_string(a)));
  }
  return clients;
}

/// One issuer thread sends every event on its schedule; one reaper per
/// connection collects that connection's replies in send order (the
/// socket server answers each connection in FIFO order).
void DriveOpenLoop(const Workload& workload, const workload::Trace& trace,
                   Stack* stack, SpanRecorder* recorder, DriveResult* result) {
  const int analysts = workload.spec.analysts;
  auto clients = Clients(stack, analysts);
  struct Queue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Inflight> items;
    bool closed = false;
  };
  std::vector<Queue> queues(static_cast<size_t>(analysts));
  std::vector<Clock::time_point> last(static_cast<size_t>(analysts));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);

  std::vector<std::thread> reapers;
  for (int a = 0; a < analysts; ++a) {
    reapers.emplace_back([&, a] {
      Queue& queue = queues[static_cast<size_t>(a)];
      for (;;) {
        std::unique_lock<std::mutex> lock(queue.mutex);
        queue.cv.wait(lock, [&] { return queue.closed || !queue.items.empty(); });
        if (queue.items.empty()) return;
        Inflight entry = std::move(queue.items.front());
        queue.items.pop_front();
        lock.unlock();
        last[static_cast<size_t>(a)] = Collect(&entry, result, recorder);
      }
    });
  }
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const workload::TraceEvent& event = trace.events[i];
    const Clock::time_point due =
        start + std::chrono::microseconds(event.arrival_us);
    std::this_thread::sleep_until(due);
    result->observations[i].late_ms = Millis(Clock::now() - due);
    Inflight entry =
        Send(trace, i, clients[event.analyst].get(), due, recorder);
    Queue& queue = queues[event.analyst];
    {
      std::lock_guard<std::mutex> lock(queue.mutex);
      queue.items.push_back(std::move(entry));
    }
    queue.cv.notify_one();
  }
  for (Queue& queue : queues) {
    {
      std::lock_guard<std::mutex> lock(queue.mutex);
      queue.closed = true;
    }
    queue.cv.notify_one();
  }
  for (std::thread& reaper : reapers) reaper.join();
  Clock::time_point end = start;
  for (const Clock::time_point& t : last) end = std::max(end, t);
  result->elapsed_s = std::chrono::duration<double>(end - start).count();
}

/// One analyst keeps `window` requests in flight on one connection:
/// replies arrive in send order, so collecting the oldest first never
/// waits behind a later reply.
void DriveWindow(const Workload& workload, const workload::Trace& trace,
                 Stack* stack, SpanRecorder* recorder, DriveResult* result) {
  auto clients = Clients(stack, 1);
  std::deque<Inflight> inflight;
  const Clock::time_point start = Clock::now();
  size_t next = 0;
  while (next < trace.events.size() || !inflight.empty()) {
    while (next < trace.events.size() &&
           inflight.size() < static_cast<size_t>(workload.window)) {
      inflight.push_back(
          Send(trace, next, clients[0].get(), Clock::now(), recorder));
      ++next;
    }
    Collect(&inflight.front(), result, recorder);
    inflight.pop_front();
  }
  result->elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
}

/// One thread per analyst, one request at a time.
void DriveClosedLoop(const Workload& workload, const workload::Trace& trace,
                     Stack* stack, SpanRecorder* recorder,
                     DriveResult* result) {
  const int analysts = workload.spec.analysts;
  auto clients = Clients(stack, analysts);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int a = 0; a < analysts; ++a) {
    threads.emplace_back([&, a] {
      for (size_t i = 0; i < trace.events.size(); ++i) {
        if (trace.events[i].analyst != static_cast<uint32_t>(a)) continue;
        Inflight entry = Send(trace, i, clients[static_cast<size_t>(a)].get(),
                              Clock::now(), recorder);
        Collect(&entry, result, recorder);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result->elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

DriveResult DriveTrace(const Workload& workload, const workload::Trace& trace,
                       Stack* stack, SpanRecorder* recorder) {
  DriveResult result;
  result.observations.resize(trace.events.size());
  switch (workload.drive) {
    case Drive::kOpenLoop:
      DriveOpenLoop(workload, trace, stack, recorder, &result);
      break;
    case Drive::kWindow:
      DriveWindow(workload, trace, stack, recorder, &result);
      break;
    case Drive::kClosedLoop:
      DriveClosedLoop(workload, trace, stack, recorder, &result);
      break;
  }
  return result;
}

}  // namespace perfbench
}  // namespace pmw
