#include "workload/cores.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace pmw {
namespace workload {
namespace {

constexpr int kProbeThreads = 4;
constexpr int kProbeRounds = 3;
constexpr uint64_t kSpinIterations = 10'000'000;

/// A dependent xorshift chain the compiler cannot fold or vectorize.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Wall seconds for `threads` threads to each finish one spin.
double TimeSpin(int threads) {
  std::vector<uint64_t> sink(static_cast<size_t>(threads));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t] {
      sink[static_cast<size_t>(t)] = Spin(kSpinIterations);
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Consume the results so the spins cannot be optimized away.
  volatile uint64_t keep = 0;
  for (uint64_t value : sink) keep = keep ^ value;
  return seconds;
}

}  // namespace

double MeasureEffectiveCores() {
  double one = TimeSpin(1);
  double many = TimeSpin(kProbeThreads);
  // Interleaved rounds, so slow drift (noisy neighbours, frequency
  // steps) hits both widths alike.
  for (int round = 1; round < kProbeRounds; ++round) {
    one = std::min(one, TimeSpin(1));
    many = std::min(many, TimeSpin(kProbeThreads));
  }
  const double measured = many > 0.0 ? kProbeThreads * one / many : 1.0;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp(measured, 1.0, static_cast<double>(nproc));
}

double EffectiveCores() {
  static const double cores = MeasureEffectiveCores();
  return cores;
}

}  // namespace workload
}  // namespace pmw
